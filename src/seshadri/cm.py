"""Seshadri constants on the two self-products with extra automorphisms.

Elliptic curves on these surfaces are images of maps x -> (s1(x), s2(x))
with s1 = a + b*i, s2 = c + d*i (order Z[i]) resp. s1 = a + b*z, s2 = c + d*z
with z = e^(i pi/3) (order Z[z]).  The degree of such a curve against a line
bundle is an explicit quartic expression in (a, b, c, d) divided by the gcd
invariant D; the Seshadri constant is the minimum of the undivided
expression, the class's binary Hermitian form (`lattice._class_form`).
`kernels` Gauss-reduces that form, which proves the minimum A and lists
its curves, each with D = 1 as the reduced basis is unimodular, by the
smallest tuple of its unit orbit, its normal form; `GENERATOR_TUPLES` holds
the basis curves' normal forms, which are the same on both surfaces.
`search_bound`, the paper's closed-form box radius, is read off the form;
it holds every minimizer and stays public and tested, unused by the
computation.  The paper's other lemmas (the congruence count for D among
them) are checked in the tests, and the oracle builds the Gram matrix of
the same expression itself (`oracle.degree_form`), so it shares no code
with this module.

The ring arithmetic is written once over the trace t of the generator w = i
resp. z (t = 0 resp. 1, read by `lattice._cm_trace`, which raises on nocm):
w (x + y w) = -y + (x + t y) w, and n(x, y) = x^2 + t xy + y^2 is the norm
of x + y w.  A tuple with D > 1 is reduced by dividing (s1, s2) by their
ring gcd, so on both surfaces the result is defined up to a unit.  Tuples
are read with `operator.index` and returned as ints: a non-integer entry
raises `TypeError`, a wrong length `ValueError`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import NamedTuple

from . import kernels
from .lattice import (NSClass, SeshadriResult, Surface, _class_form, _cm_trace, _require_class,
                      require_ample)

Tuple4 = tuple[int, int, int, int]

#: Basis curves by normal form, alike on both surfaces: F1 = image of x -> (0, x),
#: F2 of x -> (x, 0), Delta of x -> (x, x), Sigma of x -> (x, i(x)).
GENERATOR_TUPLES: dict[str, Tuple4] = {
    "F1": (0, 0, -1, 0),
    "F2": (-1, 0, 0, 0),
    "Delta": (-1, 0, -1, 0),
    "Sigma": (-1, 0, 0, -1),
}


def invariants(t: Tuple4, kind: Surface) -> Tuple4:
    """The four norm-form combinations whose gcd is the invariant D."""
    k = _cm_trace(kind)
    a, b, c, d = map(index, t)
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
    k = _cm_trace(kind)
    t = tuple(map(index, t))
    _require_primitive(t)
    dd = tuple_gcd(t, kind)
    raw = kernels._raw_degrees(k, *t)
    if any(x % dd for x in raw):
        raise ArithmeticError("D does not divide the raw degrees")
    return tuple(x // dd for x in raw)


def search_bound(L: NSClass) -> Fraction:
    """Box radius inside which the degree expression attains its minimum."""
    square = require_ample(L)
    t = _cm_trace(L.surface)
    A, C, b0, b1 = _class_form(L.surface, L.coeffs)
    top = max(4 * A * A, 4 * C * C, b0 * b0, b1 * b1, t * (b1 - b0) ** 2)
    return Fraction(16 * top, (4 - t * t) * square)


def degree_value(L: NSClass, t: Tuple4) -> int:
    """The quartic degree expression (undivided by D) at an integer tuple."""
    _require_class(L)
    k = _cm_trace(L.surface)
    return kernels._form_value(k, _class_form(L.surface, L.coeffs), tuple(map(index, t)))


def unit_orbit(t: Tuple4, kind: Surface) -> tuple[Tuple4, ...]:
    """Tuples naming the same curve via unit multiples of the parametrisation:
    the multiples of `t` by the 4 resp. 6 units, the powers of w."""
    k = _cm_trace(kind)
    a, b, c, d = map(index, t)
    orbit = [(a, b, c, d)]
    for _ in range(3 + 2 * k):
        orbit.append(kernels._times_w(k, orbit[-1]))
    return tuple(orbit)


def canonical_tuple(t: Tuple4, kind: Surface) -> Tuple4:
    """The smallest tuple of the unit orbit of `t`, the normal form of its
    curve.  Raises `ValueError` for the zero tuple, which names no curve."""
    k = _cm_trace(kind)
    a, b, c, d = map(index, t)
    if not (a or b or c or d):
        raise ValueError("tuple must be nonzero")
    return kernels._orbit_min(k, (a, b, c, d))


class CMWitness(NamedTuple):
    degrees: Tuple4
    representative: Tuple4


def seshadri_constant(L: NSClass) -> SeshadriResult:
    """Minimum curve degree and all computing curves, as a `SeshadriResult`.

    `kernels.minimize_quartic` minimises the class's degree form and names
    each computing curve by its normal form, the witness's representative.
    Every minimizer has D = 1 by construction (the `kernels` docstring's
    proof; `minimize_quartic` checks its unimodular basis once per call),
    so the raw degrees are the degree vector, and curves, unit orbits and
    classes correspond one to one: two witnesses with one degree vector
    raise `ArithmeticError`.
    """
    require_ample(L)
    k = _cm_trace(L.surface)
    best, mins = kernels.minimize_quartic(k, _class_form(L.surface, L.coeffs))
    if not (best > 0 and mins):
        raise ArithmeticError("ample classes have a positive minimum")
    witnesses = [CMWitness(kernels._raw_degrees(k, *t), t) for t in mins]
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
    k = _cm_trace(kind)
    t = tuple(map(index, t))
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
