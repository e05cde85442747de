"""Deterministic sampling of ample classes for cross-validation runs."""
from __future__ import annotations

import random

from .lattice import NSClass, Surface, is_ample, ns_class


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
    rank = surface.rank
    out: list[NSClass] = []
    while len(out) < count:
        candidate = ns_class(
            surface, tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(rank))
        )
        if is_ample(candidate):
            out.append(candidate)
    return out
