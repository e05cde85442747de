"""Divisor-class lattices of the three self-product surfaces.

The surfaces are E x E for an elliptic curve E without extra endomorphisms
(lattice rank 3, basis F1, F2, Delta) and the two self-products with an
automorphism of order 4 resp. 6 (rank 4, basis F1, F2, Delta, Sigma).  All
arithmetic is over plain Python integers, so coefficients of any size are
exact.

`Surface` and its two kind checks, `_require_nocm` and `_cm_trace`, are the
one place that says what a surface is: each member carries its lattice rank
and, on rank 4, the trace t of the ring generator w (w^2 = t w - 1), None on
rank 3.  Other modules read these and state no surface table or check.

`_class_form`, the map from a class to its degree form, is the one statement
of the intersection form: `generator_pairings` reads the pairings with the
basis curves off it, and `intersect`, `self_intersection`, `is_nef` and
`ample_violations` are built from those; the tests pin them to full literal
Gram matrices.  Besides it only the measured gate `ample_square` expands
L.F1 and L^2: ampleness, which every entry point checks through
`require_ample`, is L.F1 > 0 and L^2 > 0.  The functions that take a class
or a surface raise `TypeError` for anything else.  `SeshadriResult` is the
one result of a Seshadri-constant computation, on every surface.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, index, mul
from typing import Iterable, NamedTuple


class Surface(Enum):
    """Which self-product surface a divisor class lives on, with its lattice
    rank and the trace of its ring generator (None without CM)."""

    NO_CM = "nocm", 3, None
    CM_GAUSSIAN = "cm-i", 4, 0
    CM_EISENSTEIN = "cm-eisenstein", 4, 1

    def __new__(cls, value: str, rank: int, trace: int | None) -> "Surface":
        member = object.__new__(cls)
        member._value_, member.rank, member.trace = value, rank, trace
        return member


GENERATOR_LABELS = ("F1", "F2", "Delta", "Sigma")


def _require_surface(surface) -> None:
    if not isinstance(surface, Surface):
        raise TypeError("surface must be a Surface")


def _require_nocm(surface: Surface) -> None:
    if surface.trace is not None:
        raise ValueError("surface mismatch: expected the nocm surface")


def _cm_trace(surface) -> int:
    """The trace of the ring generator; raises on the surface without CM."""
    _require_surface(surface)
    t = surface.trace
    if t is None:
        raise ValueError("surface mismatch: expected a CM surface")
    return t


@dataclass(frozen=True)
class NSClass:
    """An integral divisor class, given by its coefficients in the basis."""

    surface: Surface
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_surface(self.surface)
        if not isinstance(self.coeffs, tuple):
            raise TypeError("coefficients must be a tuple")
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
        if not isinstance(other, NSClass):
            return NotImplemented
        if self.surface is not other.surface:
            raise ValueError("surface mismatch")
        return NSClass(self.surface, tuple(map(add, self.coeffs, other.coeffs)))


def ns_class(surface: Surface, coeffs: Iterable[int]) -> NSClass:
    """The class with these coefficients; a non-integer raises `TypeError`."""
    try:
        coeffs = tuple(map(index, coeffs))
    except TypeError:
        raise TypeError("coefficients must be integers") from None
    return NSClass(surface, coeffs)


def generator_classes(surface: Surface) -> tuple[NSClass, ...]:
    """The basis curves F1, F2, Delta (and Sigma) as divisor classes; a
    `surface` that is not a `Surface` raises `TypeError`."""
    _require_surface(surface)
    n = surface.rank
    return tuple(
        NSClass(surface, tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    )


def _require_class(x) -> None:
    if not isinstance(x, NSClass):
        raise TypeError(f"expected an NSClass, got {type(x).__name__}")


def intersect(x: NSClass, y: NSClass) -> int:
    """Intersection number of two classes on the same surface."""
    _require_class(x)
    _require_class(y)
    if x.surface is not y.surface:
        raise ValueError("surface mismatch")
    return sum(map(mul, generator_pairings(x), y.coeffs))


def generator_pairings(x: NSClass) -> tuple[int, ...]:
    """Intersection of `x` with each basis curve, in basis order: the degree form's
    values at the basis curves (`nocm.GENERATOR_PAIRS`, `cm.GENERATOR_TUPLES`)."""
    _require_class(x)
    t = x.surface.trace
    if t is None:
        A, B, C = _class_form(x.surface, x.coeffs)
        return A, C, A - 2 * B + C
    A, C, b0, b1 = _class_form(x.surface, x.coeffs)
    return C, A, A + C + b0, A + C + t * b0 - b1


def self_intersection(x: NSClass) -> int:
    # L^2 = sum_i a_i (L . basis_i)
    return sum(map(mul, generator_pairings(x), x.coeffs))


def ample_square(surface: Surface, coeffs: tuple[int, ...]) -> int:
    """L^2 of the class with these coefficients if it is ample, else 0.

    L is ample if and only if L.F1 > 0 and L^2 > 0.  On an abelian surface
    no curve has negative square, so the ample cone is the component of the
    positive cone {L^2 > 0} that holds the ample classes.  F1 is nef,
    nonzero and F1^2 = 0, so by the Hodge index theorem L.F1 != 0 whenever
    L^2 > 0, and the sign of L.F1 picks the ample component.  Works on the
    raw tuple, so a caller that rejects most candidates builds no class.
    """
    # L.F1 and L^2 = sum a_i (L . basis_i) inline: through `_class_form` it costs 1.6-2x
    try:
        t = surface.trace
    except AttributeError:  # not a `Surface`: raise `_require_surface`'s `TypeError`
        _require_surface(surface)
    if t is None:
        a1, a2, a3 = coeffs
        f1 = a2 + a3
        square = 2 * (a1 * f1 + a2 * a3)
    else:
        a1, a2, a3, a4 = coeffs
        f1 = a2 + a3 + a4
        square = 2 * (a1 * f1 + a2 * (a3 + a4) + (2 - t) * a3 * a4)
    return square if f1 > 0 and square > 0 else 0


def _class_form(surface: Surface, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The degree form of the class with these coefficients, a raw tuple:
    on nocm (A, B, C), with A c^2 + 2B cd + C d^2 = L . N_{c,d} and
    AC - B^2 = L^2/2; on rank 4 (A, C, b0, b1), the Hermitian form of the
    `kernels` docstring, with m AC - (b0^2 - t b0 b1 + b1^2) = m L^2/2,
    m = 4 - t^2.  So L is ample exactly when its form is positive definite
    (A > 0, determinant > 0).  The one statement of the intersection form,
    which `generator_pairings` reads; `ample_square` keeps its inline L^2.
    """
    t = surface.trace
    if t is None:
        a1, a2, a3 = coeffs
        return a2 + a3, a3, a1 + a3
    a1, a2, a3, a4 = coeffs
    return a1 + a3 + a4, a2 + a3 + a4, -2 * a3 - t * a4, (2 - t) * a4 - t * a3


def is_ample(x: NSClass) -> bool:
    """L.F1 > 0 and L^2 > 0, which characterise ampleness (`ample_square`)."""
    _require_class(x)
    return ample_square(x.surface, x.coeffs) > 0


def is_nef(x: NSClass) -> bool:
    """Closed variant of `is_ample` for integral classes."""
    pairings = generator_pairings(x)
    return min(pairings) >= 0 and sum(map(mul, x.coeffs, pairings)) >= 0


def ample_violations(x: NSClass) -> list[str]:
    """Human-readable list of the ampleness inequalities `x` fails."""
    pairings = generator_pairings(x)
    bad = [f"L.{n} = {p} <= 0" for n, p in zip(GENERATOR_LABELS, pairings) if p <= 0]
    square = sum(map(mul, x.coeffs, pairings))
    if square <= 0:
        bad.append(f"L^2 = {square} <= 0")
    return bad


def require_ample(x: NSClass) -> int:
    """L^2 of `x`, which must be ample (L^2 > 0, so the result is positive).

    This is the one ampleness gate of every entry point.  Raises `TypeError`
    if `x` is not an `NSClass`, and `ValueError("not ample: ...")` listing
    the failed inequalities.
    """
    if not isinstance(x, NSClass):
        raise TypeError(f"expected an NSClass, got {type(x).__name__}")
    square = ample_square(x.surface, x.coeffs)
    if not square:
        raise ValueError("not ample: " + "; ".join(ample_violations(x)))
    return square


class SeshadriResult(NamedTuple):
    """A Seshadri constant and its computing curves: a frozenset of pairs on
    nocm, a tuple of `cm.CMWitness` sorted by degree vector on CM surfaces."""

    value: int
    witnesses: frozenset | tuple


def _rational(x) -> Fraction:
    """`Fraction(x)`, with `ValueError` for infinities, NaN and a zero denominator."""
    try:
        return Fraction(x)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"not a finite rational: {x!r}") from None
