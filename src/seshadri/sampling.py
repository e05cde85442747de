"""Deterministic sampling of ample classes for cross-validation runs."""
from __future__ import annotations

import random
from operator import mul

from .lattice import NSClass, Surface, gram_matrix


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
    gram = gram_matrix(surface)
    out: list[NSClass] = []
    while len(out) < count:
        coeffs = tuple(rng.randrange(width) - coeff_bound for _ in range(rank))
        # `lattice.is_ample` on the raw tuple: most draws are rejected, and
        # only the kept ones become classes
        pairings = [sum(map(mul, row, coeffs)) for row in gram]
        if min(pairings) > 0 and sum(map(mul, coeffs, pairings)) > 0:
            out.append(NSClass(surface, coeffs))
    return out
