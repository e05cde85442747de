"""Seshadri constants on the two self-products with extra automorphisms.

Elliptic curves on these surfaces are images of maps x -> (s1(x), s2(x))
with s1 = a + b*i, s2 = c + d*i (order Z[i]) resp. s1 = a + b*z, s2 = c + d*z
with z = e^(i pi/3) (order Z[z]).  The degree of such a curve against a line
bundle is an explicit quartic expression in (a, b, c, d) divided by the gcd
invariant D; the Seshadri constant is the minimum of the undivided
expression, a positive-definite binary Hermitian form over the order.
`kernels` Gauss-reduces that form and walks one fundamental domain of the
unit group in reduced coordinates, so it meets each curve once and needs no
box; it names each curve by the smallest tuple of its unit orbit.
`search_bound` is the paper's closed-form box radius, which holds every
minimizer; it stays public and tested but is not used by the computation.

The ring arithmetic is written once over the trace t of the generator w = i
resp. z (t = 0 resp. 1, the `kernels` kind): w (x + y w) = -y + (x + t y) w,
and n(x, y) = x^2 + t xy + y^2 is the norm of x + y w.  A tuple with D > 1 is reduced by multiplying
(s1, s2) by (1 + y w)/D, so on cm-i the result is defined up to a unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import kernels
from .lattice import NSClass, Surface, require_ample

Tuple4 = tuple[int, int, int, int]

_KIND = {
    Surface.CM_GAUSSIAN: kernels.GAUSSIAN,
    Surface.CM_EISENSTEIN: kernels.EISENSTEIN,
}

#: Basis curves in tuple form: F1 = image of x -> (0, x), F2 of x -> (x, 0),
#: Delta of x -> (x, x), Sigma of x -> (x, i(x)).
GENERATOR_TUPLES: dict[str, Tuple4] = {
    "F1": (0, 0, 1, 0),
    "F2": (1, 0, 0, 0),
    "Delta": (1, 0, 1, 0),
    "Sigma": (1, 0, 0, 1),
}


def _require_cm(surface: Surface) -> None:
    if not surface.is_cm:
        raise ValueError("surface mismatch: expected a CM surface")


def invariants(t: Tuple4, kind: Surface) -> Tuple4:
    """The four norm-form combinations whose gcd is the invariant D."""
    _require_cm(kind)
    k = _KIND[kind]
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
    _require_cm(kind)
    _require_primitive(t)
    dd = tuple_gcd(t, kind)
    raw = kernels._raw_degrees(_KIND[kind], *t)
    if any(x % dd for x in raw):
        raise ArithmeticError("D does not divide the raw degrees")
    return tuple(x // dd for x in raw)


def degree_form(L: NSClass) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the quartic degree expression: Q(t) = D * (L . N_t)."""
    _require_cm(L.surface)
    a1, a2, a3, a4 = L.coeffs
    A, C = a1 + a3 + a4, a2 + a3 + a4
    if L.surface is Surface.CM_GAUSSIAN:
        rows = (
            (A, 0, -a3, -a4),
            (0, A, a4, -a3),
            (-a3, a4, C, 0),
            (-a4, -a3, 0, C),
        )
        return tuple(tuple(Fraction(v) for v in row) for row in rows)
    h = Fraction(1, 2)
    return (
        (Fraction(A), A * h, (-2 * a3 - a4) * h, (-a3 - 2 * a4) * h),
        (A * h, Fraction(A), (-a3 + a4) * h, (-2 * a3 - a4) * h),
        ((-2 * a3 - a4) * h, (-a3 + a4) * h, Fraction(C), C * h),
        ((-a3 - 2 * a4) * h, (-2 * a3 - a4) * h, C * h, Fraction(C)),
    )


def search_bound(L: NSClass) -> Fraction:
    """Box radius inside which the degree expression attains its minimum."""
    require_ample(L)
    _require_cm(L.surface)
    a1, a2, a3, a4 = L.coeffs
    if L.surface is Surface.CM_GAUSSIAN:
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
    _require_cm(L.surface)
    return kernels._value(_KIND[L.surface], *L.coeffs, *t)


def unit_orbit(t: Tuple4, kind: Surface) -> tuple[Tuple4, ...]:
    """Tuples naming the same curve via unit multiples of the parametrisation."""
    _require_cm(kind)
    return kernels.unit_orbit(_KIND[kind], t)


def canonical_tuple(t: Tuple4, kind: Surface) -> Tuple4:
    return min(unit_orbit(t, kind))


@dataclass(frozen=True)
class CMWitness:
    degrees: Tuple4
    representative: Tuple4


@dataclass(frozen=True)
class CMSeshadriResult:
    value: int
    witnesses: tuple[CMWitness, ...]


def seshadri_constant(L: NSClass) -> CMSeshadriResult:
    """Minimum curve degree, with all computing curves.

    `kernels.minimize_quartic` returns the minimum of the degree expression
    over nonzero tuples, found by Gauss reduction of the Hermitian form and
    a walk in reduced coordinates, with one tuple per minimizing curve: the
    smallest of its unit orbit, which is the witness's representative.
    Every minimizer has D = 1: a tuple of the same curve with D = 1, which
    `reduce_tuple` finds by multipliers (1 + y w)/D, has value Q/D, so D > 1
    would undercut the minimum.  With D = 1 the raw degrees are the degree
    vector, and curves, unit orbits and classes correspond one to one, so
    two witnesses with one degree vector raise `ArithmeticError`.
    """
    require_ample(L)
    _require_cm(L.surface)
    k = _KIND[L.surface]
    best, mins = kernels.minimize_quartic(k, L.coeffs)
    if not (best > 0 and mins):
        raise ArithmeticError("ample classes have a positive minimum")
    for t in mins:
        if gcd(*t) != 1:
            raise ArithmeticError("a minimizer is always primitive")
        if tuple_gcd(t, L.surface) != 1:
            raise ArithmeticError("a minimizer always has D = 1")
    witnesses = sorted(
        (CMWitness(kernels._raw_degrees(k, *t), t) for t in mins),
        key=lambda w: w.degrees,
    )
    if len({w.degrees for w in witnesses}) < len(witnesses):
        raise ArithmeticError("two minimizers share a degree vector")
    return CMSeshadriResult(best, tuple(witnesses))


def congruence_solution_count(t: Tuple4) -> int:
    """Solutions (m, n) mod D of the four kernel congruences, counted directly."""
    _require_primitive(t)
    a, b, c, d = t
    dd = tuple_gcd(t, Surface.CM_GAUSSIAN)
    count = 0
    for m in range(dd):
        for n in range(dd):
            if (
                (a * m - b * n) % dd == 0
                and (b * m + a * n) % dd == 0
                and (c * m - d * n) % dd == 0
                and (d * m + c * n) % dd == 0
            ):
                count += 1
    return count


def _primitive(t: Tuple4) -> Tuple4:
    g = gcd(*t)
    return tuple(v // g for v in t) if g > 1 else t


def _step(t: int, v: Tuple4, dd: int) -> Tuple4 | None:
    """v (1 + y w) / dd for the y that makes it integral, lifted to the one of
    y, y - dd with the smaller norm n(1, y); None if there is none."""
    wv = kernels._times_w(t, v)
    for y in range(dd):
        if all((x + y * z) % dd == 0 for x, z in zip(v, wv)):
            alt = y - dd
            if 1 + t * alt + alt * alt < 1 + t * y + y * y:
                y = alt
            return tuple((x + y * z) // dd for x, z in zip(v, wv))
    return None


def reduce_tuple(t: Tuple4, kind: Surface) -> Tuple4:
    """A primitive tuple of the same curve whose gcd invariant is 1.

    Repeatedly multiplies the parametrisation by (1 + y w)/D, with y solving
    the kernel congruences; every step strictly decreases D.  The output is
    a tuple of the curve, so it is defined up to a unit: compare it through
    `canonical_tuple` or `invariants`.  The output is verified against the
    target identities; a step that fails to decrease D or a result that
    misses them raises `ArithmeticError`.
    """
    _require_cm(kind)
    _require_primitive(t)
    d0 = tuple_gcd(t, kind)
    target = tuple(v // d0 for v in invariants(t, kind))
    cur = t
    while True:
        dd = tuple_gcd(cur, kind)
        if dd == 1:
            break
        step = _step(_KIND[kind], cur, dd)
        if step is None or tuple_gcd(_primitive(step), kind) >= dd:
            raise ArithmeticError(f"reduction step failed to decrease D at {cur}")
        cur = _primitive(step)
    if invariants(cur, kind) != target:
        raise ArithmeticError(f"reduction of {t} missed the target invariants")
    return cur
