"""Deterministic sampling of ample classes for cross-validation runs."""
from __future__ import annotations

import random

from .lattice import NSClass, Surface, ample_square


def random_ample_classes(
    surface: Surface, count: int, coeff_bound: int, seed: int
) -> list[NSClass]:
    """`count` pseudo-random ample classes with |coefficients| <= bound.

    Raises ValueError if `coeff_bound` < 1: the box then holds no ample
    class, and the rejection loop would never end.
    """
    if coeff_bound < 1:
        raise ValueError(f"coefficient bound must be at least 1, got {coeff_bound}")
    rng = random.Random(seed)
    # randrange(width) draws exactly as randint(-bound, bound) did (one
    # _randbelow(width) call each), which keeps the seeded stream
    width = 2 * coeff_bound + 1
    rank = surface.rank
    out: list[NSClass] = []
    while len(out) < count:
        coeffs = tuple(rng.randrange(width) - coeff_bound for _ in range(rank))
        # most draws are rejected, and only the kept ones become classes
        if ample_square(surface, coeffs):
            out.append(NSClass(surface, coeffs))
    return out
