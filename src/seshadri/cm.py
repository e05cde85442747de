"""Seshadri constants on the two self-products with extra automorphisms.

Elliptic curves on these surfaces are images of maps x -> (s1(x), s2(x))
with s1 = a + b*i, s2 = c + d*i (order Z[i]) resp. s1 = a + b*z, s2 = c + d*z
with z = e^(i pi/3) (order Z[z]).  The degree of such a curve against a line
bundle is an explicit quartic expression in (a, b, c, d) divided by the gcd
invariant D; the Seshadri constant is the minimum of the undivided
expression, a positive-definite binary Hermitian form over the order.
`kernels` Gauss-reduces that form, which proves the minimum A; its curves
are f1's orbit when C > A, and on a tie C = A those of a fixed list of 14
resp. 8 candidates that reach A.  It names each curve by the smallest tuple
of its unit orbit, its normal form; `GENERATOR_TUPLES` holds the basis
curves' normal forms, which are the same on both surfaces.
`search_bound` is the paper's closed-form box radius, which holds every
minimizer; it stays public and tested but is not used by the computation.
The paper's other lemmas (the congruence count for D among them) are
checked in the tests, and the oracle builds the Gram matrix of the same
expression itself (`oracle.degree_form`), so it shares no code with this
module.

The ring arithmetic is written once over the trace t of the generator w = i
resp. z (t = 0 resp. 1, `Surface.trace`): w (x + y w) = -y + (x + t y) w,
and n(x, y) = x^2 + t xy + y^2 is the norm of x + y w.  A tuple with D > 1
is reduced by dividing (s1, s2) by their ring gcd, so on both surfaces the
result is defined up to a unit.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import kernels
from .lattice import NSClass, SeshadriResult, Surface, _require_class, require_ample

Tuple4 = tuple[int, int, int, int]

#: Basis curves by normal form, alike on both surfaces: F1 = image of x -> (0, x),
#: F2 of x -> (x, 0), Delta of x -> (x, x), Sigma of x -> (x, i(x)).
GENERATOR_TUPLES: dict[str, Tuple4] = {
    "F1": (0, 0, -1, 0),
    "F2": (-1, 0, 0, 0),
    "Delta": (-1, 0, -1, 0),
    "Sigma": (-1, 0, 0, -1),
}


def _trace(surface: Surface) -> int:
    """The trace of the ring generator; raises on the surface without CM."""
    k = surface.trace
    if k is None:
        raise ValueError("surface mismatch: expected a CM surface")
    return k


def invariants(t: Tuple4, kind: Surface) -> Tuple4:
    """The four norm-form combinations whose gcd is the invariant D."""
    k = _trace(kind)
    a, b, c, d = t
    return (a * a + k * a * b + b * b, c * c + k * c * d + d * d,
            a * c + k * b * c + b * d, a * d - b * c)


def tuple_gcd(t: Tuple4, kind: Surface) -> int:
    """gcd of the four invariants; zeros among them are ignored."""
    if not any(t):
        raise ValueError("tuple must be nonzero")
    return gcd(*invariants(t, kind))


def _require_primitive(t: Tuple4) -> None:
    if gcd(*t) != 1:
        raise ValueError("tuple not primitive")


def degree_vector(t: Tuple4, kind: Surface) -> Tuple4:
    """Intersection numbers of the curve named by `t` with F1, F2, Delta, Sigma."""
    k = _trace(kind)
    _require_primitive(t)
    dd = tuple_gcd(t, kind)
    raw = kernels._raw_degrees(k, *t)
    if any(x % dd for x in raw):
        raise ArithmeticError("D does not divide the raw degrees")
    return tuple(x // dd for x in raw)


def search_bound(L: NSClass) -> Fraction:
    """Box radius inside which the degree expression attains its minimum."""
    require_ample(L)
    k = _trace(L.surface)
    a1, a2, a3, a4 = L.coeffs
    if k == 0:  # cm-i
        num = 8 * max(
            (a1 + a3 + a4) ** 2, a3 * a3, a4 * a4, (a2 + a3 + a4) ** 2
        )
        den = a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + 2 * a3 * a4
    else:
        num = 8 * max(
            (2 * a1 + 2 * a3 + 2 * a4) ** 2,
            (2 * a3 + a4) ** 2,
            (a3 + 2 * a4) ** 2,
            (a3 - a4) ** 2,
            (2 * a2 + 2 * a3 + 2 * a4) ** 2,
        )
        den = 3 * (a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + a3 * a4)
    return Fraction(num, den)


def degree_value(L: NSClass, t: Tuple4) -> int:
    """The quartic degree expression (undivided by D) at an integer tuple."""
    _require_class(L)
    return kernels._value(_trace(L.surface), *L.coeffs, *t)


def unit_orbit(t: Tuple4, kind: Surface) -> tuple[Tuple4, ...]:
    """Tuples naming the same curve via unit multiples of the parametrisation:
    the multiples of `t` by the 4 resp. 6 units, the powers of w."""
    k = _trace(kind)
    orbit = [t]
    for _ in range(3 + 2 * k):
        orbit.append(kernels._times_w(k, orbit[-1]))
    return tuple(orbit)


def canonical_tuple(t: Tuple4, kind: Surface) -> Tuple4:
    """The smallest tuple of the unit orbit of `t`, the normal form of its
    curve.  Raises `ValueError` for the zero tuple, which names no curve."""
    k = _trace(kind)
    if not any(t):
        raise ValueError("tuple must be nonzero")
    return kernels._orbit_min(k, t)


class CMWitness(NamedTuple):
    degrees: Tuple4
    representative: Tuple4


def seshadri_constant(L: NSClass) -> SeshadriResult:
    """Minimum curve degree and all computing curves, as a `SeshadriResult`.

    `kernels.minimize_quartic` returns the minimum of the degree expression
    over nonzero tuples, found by Gauss reduction of the Hermitian form, with
    the curves from the reduced form's equalities (on ties C = A, a fixed
    candidate list), one tuple per curve: the smallest of its unit orbit,
    which is the witness's representative.
    Every minimizer has D = 1: with g the ring gcd of s1 and s2, the tuple
    s/g of the same curve, with n(g) = D, has value Q/D, so D > 1 would
    undercut the minimum.  With D = 1 the raw degrees are the degree
    vector, and curves, unit orbits and classes correspond one to one, so
    two witnesses with one degree vector raise `ArithmeticError`.

    One pass over the minimizers checks each of them for D = 1 and turns it
    into its witness.  D = 1 implies primitive, since g | t puts g^2 into
    every invariant (a zero tuple has D = 0); a minimizer with D != 1 raises
    `ArithmeticError`, which names primitivity if it is not primitive.
    """
    require_ample(L)
    k = _trace(L.surface)
    best, mins = kernels.minimize_quartic(k, L.coeffs)
    if not (best > 0 and mins):
        raise ArithmeticError("ample classes have a positive minimum")
    witnesses = []
    for t in mins:
        if gcd(*invariants(t, L.surface)) != 1:  # gcd(t) only picks the message
            raise ArithmeticError("a minimizer is always primitive" if gcd(*t) != 1
                                  else "a minimizer always has D = 1")
        witnesses.append(CMWitness(kernels._raw_degrees(k, *t), t))
    if len(witnesses) > 1:
        witnesses.sort()  # by degree vector, the first field
        if len({w.degrees for w in witnesses}) < len(witnesses):
            raise ArithmeticError("two minimizers share a degree vector")
    return SeshadriResult(best, tuple(witnesses))


def _ring_gcd(t: int, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """A gcd of a + b w and c + d w by Euclid: the quotient (a + b w)
    conj(c + d w) / n(c, d), rounded coordinatewise in the basis 1, w, errs
    by norm <= 3/4 (<= 1/2 on cm-i): each remainder is shorter than its divisor."""
    while c or d:
        n = c * c + t * c * d + d * d
        e = c + t * d  # conj(c + d w) = e - d w
        p, q = a * e + b * d, b * e - a * d - t * b * d
        x, y = (2 * p + n) // (2 * n), (2 * q + n) // (2 * n)
        a, b, c, d = c, d, a - x * c + y * d, b - x * d - y * c - t * y * d
    return a, b


def reduce_tuple(t: Tuple4, kind: Surface) -> Tuple4:
    """A primitive tuple of the same curve whose gcd invariant is 1: s/g, g
    the ring gcd of s1 and s2 (x -> g x is onto E, and n(g) = D).  It is
    defined up to a unit: compare it through `canonical_tuple` or
    `invariants`.  A gcd that is not a divisor of norm D, or a result that
    misses the target invariants, raises `ArithmeticError`.
    """
    k = _trace(kind)
    _require_primitive(t)
    dd = tuple_gcd(t, kind)
    if dd == 1:
        return t
    x, y = _ring_gcd(k, *t)
    # s conj(g), with conj(x + y w) = (x + t y) - y w, is exact over D = n(g)
    num = [(x + k * y) * v - y * z for v, z in zip(t, kernels._times_w(k, t))]
    if x * x + k * x * y + y * y != dd or any(v % dd for v in num):
        raise ArithmeticError(f"gcd {(x, y)} of {t} is no divisor of norm D = {dd}")
    cur = tuple(v // dd for v in num)
    if invariants(cur, kind) != tuple(v // dd for v in invariants(t, kind)):
        raise ArithmeticError(f"reduction of {t} missed the target invariants")
    return cur
