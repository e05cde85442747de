"""Deterministic sampling of ample classes for cross-validation runs."""
from __future__ import annotations

import random
from operator import index

from .lattice import NSClass, Surface, _require_surface, ample_square


def random_ample_classes(
    surface: Surface, count: int, coeff_bound: int, seed: int
) -> list[NSClass]:
    """`count` pseudo-random ample classes with |coefficients| <= bound.

    The same arguments give the same list.  Raises TypeError if `surface` is
    not a `Surface`, or if `count`, `coeff_bound` or `seed` is not an integer
    (read with `operator.index`, as `ns_class` reads coefficients; a `None`
    seed would read the clock), and ValueError if `coeff_bound` < 1 (the box
    then holds no ample class, and the rejection loop would never end) or
    `count` < 0.  `count` = 0 gives [].
    """
    _require_surface(surface)
    count, coeff_bound, seed = index(count), index(coeff_bound), index(seed)
    if coeff_bound < 1:
        raise ValueError(f"coefficient bound must be at least 1, got {coeff_bound}")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    # each coefficient is randrange(width) - bound, drawn as randrange's
    # _randbelow draws it (k bits, redrawn until below width), so the seeded
    # stream is the one randint(-bound, bound) gave
    getrandbits = random.Random(seed).getrandbits
    width = 2 * coeff_bound + 1
    k = width.bit_length()
    rank = surface.rank
    out: list[NSClass] = []
    while len(out) < count:
        draws = []
        for _ in range(rank):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            draws.append(r - coeff_bound)
        coeffs = tuple(draws)
        # most draws are rejected, and only the kept ones become classes
        if ample_square(surface, coeffs):
            out.append(NSClass(surface, coeffs))
    return out
