"""Divisor-class lattices of the three self-product surfaces.

The surfaces are E x E for an elliptic curve E without extra endomorphisms
(lattice rank 3, basis F1, F2, Delta) and the two self-products with an
automorphism of order 4 resp. 6 (rank 4, basis F1, F2, Delta, Sigma).  All
arithmetic is over plain Python integers, so coefficients of any size are
exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Iterable


class Surface(Enum):
    """Which self-product surface a divisor class lives on."""

    NO_CM = "nocm"
    CM_GAUSSIAN = "cm-i"
    CM_EISENSTEIN = "cm-eisenstein"

    @property
    def rank(self) -> int:
        return 3 if self is Surface.NO_CM else 4

    @property
    def is_cm(self) -> bool:
        return self is not Surface.NO_CM


# Gram matrices of the basis (F1, F2, Delta[, Sigma]).  All basis curves are
# elliptic, hence have self-intersection 0; the only pairing that differs
# between the two rank-4 surfaces is Delta . Sigma (2 resp. 1).
_GRAM = {
    Surface.NO_CM: (
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ),
    Surface.CM_GAUSSIAN: (
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 2),
        (1, 1, 2, 0),
    ),
    Surface.CM_EISENSTEIN: (
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    ),
}

GENERATOR_LABELS = ("F1", "F2", "Delta", "Sigma")


def gram_matrix(surface: Surface) -> tuple[tuple[int, ...], ...]:
    """Intersection matrix of the basis curves of `surface`."""
    return _GRAM[surface]


@dataclass(frozen=True)
class NSClass:
    """An integral divisor class, given by its coefficients in the basis."""

    surface: Surface
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.surface.rank:
            raise ValueError(
                f"expected {self.surface.rank} coefficients for "
                f"{self.surface.value}, got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("coefficients must be integers")

    def __rmul__(self, k: int) -> "NSClass":
        return NSClass(self.surface, tuple(k * c for c in self.coeffs))

    def __add__(self, other: "NSClass") -> "NSClass":
        if self.surface is not other.surface:
            raise ValueError("surface mismatch")
        return NSClass(
            self.surface, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )


def ns_class(surface: Surface, coeffs: Iterable[int]) -> NSClass:
    return NSClass(surface, tuple(int(c) for c in coeffs))


def generator_classes(surface: Surface) -> tuple[NSClass, ...]:
    """The basis curves F1, F2, Delta (and Sigma) as divisor classes."""
    n = surface.rank
    return tuple(
        NSClass(surface, tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    )


def intersect(x: NSClass, y: NSClass) -> int:
    """Intersection number of two classes on the same surface."""
    if x.surface is not y.surface:
        raise ValueError("surface mismatch")
    gram = _GRAM[x.surface]
    return sum(
        xi * gram[i][j] * yj
        for i, xi in enumerate(x.coeffs)
        for j, yj in enumerate(y.coeffs)
    )


def generator_pairings(x: NSClass) -> tuple[int, ...]:
    """Intersection of `x` with each basis curve, in basis order."""
    return tuple(sum(map(mul, row, x.coeffs)) for row in _GRAM[x.surface])


def _square(x: NSClass, pairings: tuple[int, ...]) -> int:
    # L^2 = sum_i a_i (L . basis_i)
    return sum(map(mul, x.coeffs, pairings))


def self_intersection(x: NSClass) -> int:
    return _square(x, generator_pairings(x))


def is_ample(x: NSClass) -> bool:
    """Positivity of the self-intersection and of all basis pairings.

    On these surfaces the basis curves cut out the nef cone, so strict
    positivity against them plus x^2 > 0 characterises ampleness.
    """
    pairings = generator_pairings(x)
    return min(pairings) > 0 and _square(x, pairings) > 0


def is_nef(x: NSClass) -> bool:
    """Closed variant of `is_ample` for integral classes."""
    pairings = generator_pairings(x)
    return min(pairings) >= 0 and _square(x, pairings) >= 0


def ample_violations(x: NSClass) -> list[str]:
    """Human-readable list of the ampleness inequalities `x` fails."""
    bad = []
    labels = GENERATOR_LABELS[: x.surface.rank]
    pairings = generator_pairings(x)
    for label, p in zip(labels, pairings):
        if p <= 0:
            bad.append(f"L.{label} = {p} <= 0")
    sq = _square(x, pairings)
    if sq <= 0:
        bad.append(f"L^2 = {sq} <= 0")
    return bad


def require_ample(x: NSClass) -> None:
    if not is_ample(x):
        raise ValueError("not ample: " + "; ".join(ample_violations(x)))


def surface_from_name(name: str) -> Surface:
    for s in Surface:
        if s.value == name:
            return s
    raise ValueError(f"unknown surface {name!r}")
