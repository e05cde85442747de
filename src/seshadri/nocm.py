"""Seshadri constants on E x E without extra endomorphisms.

Every Seshadri constant on this surface is computed by an elliptic curve.
The elliptic-curve classes are the three basis curves together with the
family N_{c,d} = (c(c+d), d(c+d), -cd) for coprime (c, d), so the constant
is the minimum of an explicit positive-definite quadratic form over a small
finite set of pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .kernels import _quad_window
from .lattice import NSClass, Surface, require_ample, self_intersection

Pair = tuple[int, int]

#: The basis curves in pair form: N_{1,0} = F1, N_{0,1} = F2, N_{1,-1} = Delta.
GENERATOR_PAIRS: tuple[Pair, ...] = ((1, 0), (0, 1), (1, -1))


def canonical_pair(c: int, d: int) -> Pair:
    """Canonical representative of a curve pair; N_{c,d} = N_{-c,-d}.

    Normalised so that c > 0, or (c, d) = (0, 1).
    """
    if (c, d) == (0, 0):
        raise ValueError("(0, 0) is not a curve pair")
    if gcd(c, d) != 1:
        raise ValueError(f"({c}, {d}) is not coprime")
    if c < 0 or (c == 0 and d < 0):
        c, d = -c, -d
    return (c, d)


def curve_class(pair: Pair) -> NSClass:
    """Divisor class of the elliptic curve named by a coprime pair."""
    c, d = canonical_pair(*pair)
    return NSClass(Surface.NO_CM, (c * (c + d), d * (c + d), -c * d))


def class_to_pair(coeffs: tuple[int, int, int]) -> Pair:
    """Inverse of `curve_class` on primitive classes of self-intersection 0."""
    x1, x2, x3 = coeffs
    if x1 == 0 and x2 == 0:
        if x3 not in (1, -1):
            raise ValueError(f"{coeffs} is not a primitive curve class")
        return (1, -1)
    s2 = x1 + x2
    s = isqrt(s2)
    if s * s != s2 or s == 0 or x1 % s or x2 % s:
        raise ValueError(f"{coeffs} is not a curve class")
    c, d = x1 // s, x2 // s
    if -c * d != x3:
        raise ValueError(f"{coeffs} is not a curve class")
    return canonical_pair(c, d)


def degree(L: NSClass, pair: Pair) -> int:
    """L . N_{c,d}, evaluated through the explicit quadratic form."""
    if L.surface is not Surface.NO_CM:
        raise ValueError("surface mismatch")
    a1, a2, a3 = L.coeffs
    c, d = pair
    return (a2 + a3) * c * c + 2 * a3 * c * d + (a1 + a3) * d * d


def pair_label(pair: Pair) -> str:
    if pair == (1, 0):
        return "F1"
    if pair == (0, 1):
        return "F2"
    if pair == (1, -1):
        return "Delta"
    return "N_{%d,%d}" % pair


def pair_sort_key(pair: Pair) -> tuple:
    """Display order: F1, F2, Delta first, then remaining pairs by (c, d)."""
    if pair in GENERATOR_PAIRS:
        return (0, GENERATOR_PAIRS.index(pair))
    return (1, pair)


@dataclass(frozen=True)
class SeshadriResult:
    value: int
    witnesses: frozenset[Pair]


def _sort_descending(coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    order = sorted(range(3), key=lambda i: -coeffs[i])
    return tuple(coeffs[i] for i in order), order


def _unsort_pair(pair: Pair, order: list[int]) -> Pair:
    """Transport a curve pair from the sorted coordinate frame back."""
    c, d = pair
    sorted_class = (c * (c + d), d * (c + d), -c * d)
    original = [0, 0, 0]
    for j, idx in enumerate(order):
        original[idx] = sorted_class[j]
    return class_to_pair(tuple(original))


def _pair_range_limit(a1: int, a2: int) -> int:
    """Largest s = c + d with 2 s^2 < (a1 + a2)^2.

    Since 2 s^2 = t^2 has no integer solutions, the strict and closed
    inequalities cut out the same integer range.
    """
    return isqrt(((a1 + a2) * (a1 + a2) - 1) // 2)


def _scan_pairs(a1: int, a2: int, a3: int, threshold: int, s_max: int):
    """Positive pairs (c, d), c + d <= s_max, whose degree is <= threshold.

    The degree a2 c^2 + a1 d^2 + a3 (c+d)^2 is positive definite for ample
    coefficients, so for fixed s = c + d it is a parabola in c and its
    minimum over the whole s-slice is s^2 (a1 a2 + a1 a3 + a2 a3)/(a1 + a2);
    both facts give exact integer windows, keeping the scan proportional to
    the number of hits rather than to s_max^2.
    """
    delta = a1 * a2 + a1 * a3 + a2 * a3
    top = a1 + a2
    for s in range(2, s_max + 1):
        if delta * s * s > threshold * top:
            break
        clo, chi = _quad_window(top, -2 * a1 * s, (a1 + a3) * s * s - threshold)
        for c in range(max(clo, 1), min(chi, s - 1) + 1):
            d = s - c
            v = a2 * c * c + a1 * d * d + a3 * s * s
            if v <= threshold:
                yield c, d, v


def seshadri_constant(L: NSClass) -> SeshadriResult:
    """The Seshadri constant of an ample class, with all computing curves.

    After sorting the coefficients in descending order (a permutation of the
    basis is an isometry here), the constant is the minimum of
      (1) the basis-curve degree a2 + a3,
      (2) the degree of the exact-ratio curve N_{a1/g, a2/g}, g = gcd(a1, a2),
      (3) a1 d^2 + a2 c^2 + a3 (c+d)^2 over pairs with c, d >= 1 and
          2 (c+d)^2 < (a1 + a2)^2.
    The scan in (3) skips coprimality tests for the minimum; witnesses are
    restricted to coprime pairs, which always attain the same minimum.
    """
    require_ample(L)
    (a1, a2, a3), order = _sort_descending(L.coeffs)

    deg_f1, deg_f2, deg_delta = a2 + a3, a1 + a3, a1 + a2
    best = deg_f1

    g = gcd(a1, a2)
    rc, rd = ratio_pair = (a1 // g, a2 // g)
    ratio_deg = a2 * rc * rc + a1 * rd * rd + a3 * (rc + rd) ** 2
    best = min(best, ratio_deg)

    delta = a1 * a2 + a1 * a3 + a2 * a3
    s_max = _pair_range_limit(a1, a2)
    for s in range(2, s_max + 1):
        if delta * s * s > best * (a1 + a2):
            break
        clo, chi = _quad_window(a1 + a2, -2 * a1 * s, (a1 + a3) * s * s - best)
        for c in range(max(clo, 1), min(chi, s - 1) + 1):
            v = a2 * c * c + a1 * (s - c) ** 2 + a3 * s * s
            if v < best:
                best = v

    witnesses: set[Pair] = set()
    for pair, deg in (((1, 0), deg_f1), ((0, 1), deg_f2), ((1, -1), deg_delta)):
        if deg == best:
            witnesses.add(pair)
    if ratio_deg == best:
        witnesses.add(ratio_pair)
    for c, d, v in _scan_pairs(a1, a2, a3, best, s_max):
        if v == best and gcd(c, d) == 1:
            witnesses.add((c, d))

    mapped = frozenset(_unsort_pair(w, order) for w in witnesses)
    return SeshadriResult(best, mapped)


def submaximal_curves(L: NSClass, weak: bool = False) -> frozenset[Pair]:
    """Curves of degree below (`weak`: up to) the square root of L^2.

    Comparisons are made on squares, so no irrational arithmetic occurs.
    The candidate range is the one of `seshadri_constant` item (3) plus the
    basis curves and the exact-ratio pair; outside it the necessary
    inequality (a1+a2)^2 >= 2 (a1 d - a2 c)^2 (c+d)^2 fails.
    """
    require_ample(L)
    (a1, a2, a3), order = _sort_descending(L.coeffs)
    square = self_intersection(L)
    # deg^2 <= square (resp. <) for positive integer degrees, as one bound
    threshold = isqrt(square) if weak else isqrt(square - 1)

    found: set[Pair] = set()
    for pair, deg in (
        ((1, 0), a2 + a3),
        ((0, 1), a1 + a3),
        ((1, -1), a1 + a2),
    ):
        if deg <= threshold:
            found.add(pair)

    g = gcd(a1, a2)
    rc, rd = a1 // g, a2 // g
    if a2 * rc * rc + a1 * rd * rd + a3 * (rc + rd) ** 2 <= threshold:
        found.add((rc, rd))

    for c, d, _ in _scan_pairs(a1, a2, a3, threshold, _pair_range_limit(a1, a2)):
        if gcd(c, d) == 1:
            found.add((c, d))

    return frozenset(_unsort_pair(w, order) for w in found)


def decompose_pair(a: int, b: int) -> tuple[int, int, int]:
    """Write a = m c (c+d), b = m d (c+d) with gcd(c, d) = 1.

    Defined whenever a, b, a+b are nonzero and a+b divides a*b; follows the
    constructive proof: l = gcd(a, b), c = a/l, d = b/l, m = l/(c+d).
    """
    if a == 0 or b == 0 or a + b == 0 or (a * b) % (a + b):
        raise ValueError(f"({a}, {b}) is not decomposable")
    ell = gcd(a, b)
    c, d = a // ell, b // ell
    if ell % (c + d):
        raise ValueError(f"({a}, {b}) is not decomposable")
    m = ell // (c + d)
    return m, c, d
