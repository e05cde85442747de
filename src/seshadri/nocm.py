"""Seshadri constants on E x E without extra endomorphisms.

Every Seshadri constant on this surface is computed by an elliptic curve.
The elliptic curves are the N_{c,d} = (c(c+d), d(c+d), -cd) for coprime
(c, d) (the basis curves are N_{1,0}, N_{0,1} and N_{1,-1}), and the degree
L . N_{c,d} is a positive-definite binary quadratic form in (c, d).  So the
constant is the minimum of that form over primitive vectors, and the
submaximal curves are its short primitive vectors.  Both come from one
Lagrange-Gauss reduction of the form (Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, ch. 5) followed by an enumeration that
visits O(1) points, so a call costs O(log coeff) arithmetic steps.  The
paper's formula, a scan over s = c + d in the frame of sorted
coefficients, is kept in the tests as the reference.
"""
from __future__ import annotations

from math import gcd, isqrt

from .kernels import _quad_window
from .lattice import NSClass, SeshadriResult, Surface, _require_class, require_ample

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
        if x3 != 1:
            raise ValueError(f"{coeffs} is not a primitive curve class")
        return (1, -1)
    s2 = x1 + x2  # (c + d)^2 >= 0 on a curve class
    s = isqrt(max(s2, 0))
    if s * s != s2 or s == 0 or x1 % s or x2 % s:
        raise ValueError(f"{coeffs} is not a curve class")
    c, d = x1 // s, x2 // s
    if -c * d != x3:
        raise ValueError(f"{coeffs} is not a curve class")
    return canonical_pair(c, d)


def _require_nocm(L: NSClass) -> None:
    if L.surface.trace is not None:
        raise ValueError("surface mismatch: expected the nocm surface")


def degree(L: NSClass, pair: Pair) -> int:
    """L . N_{c,d}, evaluated through the explicit quadratic form."""
    _require_class(L)
    _require_nocm(L)
    a1, a2, a3 = L.coeffs
    c, d = pair
    return (a2 + a3) * c * c + 2 * a3 * c * d + (a1 + a3) * d * d


def _reduce(coeffs: tuple[int, int, int]) -> tuple[int, int, int, Pair, Pair]:
    """Lagrange-Gauss reduction of the degree form A c^2 + 2B cd + C d^2.

    Returns the reduced Gram entries and the basis e1, e2 of Z^2 they are
    taken in: |2B| <= A <= C, so A is the minimum of the form.  Like
    Euclid's algorithm, the loop runs O(log coeff) times.
    """
    a1, a2, a3 = coeffs
    A, B, C = a2 + a3, a3, a1 + a3
    e1, e2 = (1, 0), (0, 1)
    while True:
        if C < A:
            A, C, e1, e2 = C, A, e2, e1
        q = (2 * B + A) // (2 * A)  # B / A rounded to nearest
        if q == 0:
            return A, B, C, e1, e2
        C += q * (q * A - 2 * B)
        B -= q * A
        e2 = (e2[0] - q * e1[0], e2[1] - q * e1[1])


def _curves_up_to(form: tuple[int, int, int, Pair, Pair], threshold: int) -> frozenset[Pair]:
    """Canonical pairs of all curves of degree <= threshold < sqrt(12 det).

    Lists the primitive x e1 + y e2 with y > 0, or y = 0 and x > 0 (one of
    each +-pair).  Their degree times A is (A x + B y)^2 + det y^2, and a
    reduced form has A^2 <= 4 det / 3, so det y^2 <= A threshold < 4 det
    leaves y = 0, where only e1 is primitive, and y = 1, one x-window.
    Both callers' thresholds are at most sqrt(2 det).
    """
    A, B, C, (p, r), (s, t) = form
    found = {canonical_pair(p, r)} if A <= threshold else set()
    lo, hi = _quad_window(A, 2 * B, C - threshold)
    for x in range(lo, hi + 1):
        found.add(canonical_pair(x * p + s, x * r + t))
    return frozenset(found)


def seshadri_constant(L: NSClass) -> SeshadriResult:
    """The Seshadri constant of an ample class and all computing curves.

    The constant is the minimum of the degree form over primitive vectors,
    which is the first entry of its reduced form; the witnesses are the
    canonical pairs of the primitive vectors attaining it, in a frozenset.
    """
    require_ample(L)
    _require_nocm(L)
    form = _reduce(L.coeffs)
    return SeshadriResult(form[0], _curves_up_to(form, form[0]))


def submaximal_curves(L: NSClass, weak: bool = False) -> frozenset[Pair]:
    """Curves of degree below (`weak`: up to) the square root of L^2.

    Comparisons are made on squares, so no irrational arithmetic occurs.
    """
    square = require_ample(L)
    _require_nocm(L)
    # deg^2 <= square (resp. <) for positive integer degrees, as one bound
    threshold = isqrt(square) if weak else isqrt(square - 1)
    return _curves_up_to(_reduce(L.coeffs), threshold)

