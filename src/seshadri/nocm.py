"""Seshadri constants on E x E without extra endomorphisms.

Every Seshadri constant on this surface is computed by an elliptic curve.
The elliptic curves are the N_{c,d} = (c(c+d), d(c+d), -cd) for coprime
(c, d) (the basis curves are N_{1,0}, N_{0,1} and N_{1,-1}), and the degree
L . N_{c,d} is the class's binary quadratic form (`lattice._class_form`).
The constant is its minimum over primitive vectors, and the submaximal
curves are its short primitive vectors.  Both come from one Lagrange-Gauss
reduction (Cohen, GTM 138, ch. 5) and one exact `isqrt` window in its
unimodular basis, which needs no gcd: O(log coeff) steps per call.  The
only import is `lattice`, whose `_require_nocm` is the surface check.  Pairs
and classes are read with `operator.index`.  The tests keep the paper's
formula, a scan over s = c + d in sorted coefficients, as the reference.
"""
from __future__ import annotations

from math import gcd, isqrt
from operator import index

from .lattice import (NSClass, SeshadriResult, Surface, _class_form, _require_class,
                      _require_nocm, require_ample)

Pair = tuple[int, int]

#: The basis curves in pair form: N_{1,0} = F1, N_{0,1} = F2, N_{1,-1} = Delta.
GENERATOR_PAIRS: tuple[Pair, ...] = ((1, 0), (0, 1), (1, -1))


def canonical_pair(c: int, d: int) -> Pair:
    """Canonical representative of a curve pair; N_{c,d} = N_{-c,-d}.

    Normalised so that c > 0, or (c, d) = (0, 1).
    """
    c, d = index(c), index(d)
    if (c, d) == (0, 0):
        raise ValueError("(0, 0) is not a curve pair")
    if gcd(c, d) != 1:
        raise ValueError(f"({c}, {d}) is not coprime")
    if c < 0 or (c == 0 and d < 0):
        c, d = -c, -d
    return (c, d)


def curve_class(pair: Pair) -> NSClass:
    """Divisor class of the elliptic curve named by a coprime pair."""
    c, d = map(index, pair)
    c, d = canonical_pair(c, d)
    return NSClass(Surface.NO_CM, (c * (c + d), d * (c + d), -c * d))


def class_to_pair(coeffs: tuple[int, int, int]) -> Pair:
    """Inverse of `curve_class` on primitive classes of self-intersection 0."""
    x1, x2, x3 = map(index, coeffs)
    if x1 == 0 and x2 == 0:
        if x3 != 1:
            raise ValueError(f"{coeffs} is not a primitive curve class")
        return (1, -1)
    s2 = x1 + x2  # (c + d)^2 >= 0 on a curve class
    s = isqrt(max(s2, 0))
    # c = x1 / s, d = x2 / s, and -cd = x3 is x1 x2 = -x3 s^2
    if s * s != s2 or s == 0 or x1 % s or x2 % s or x1 * x2 != -x3 * s2:
        raise ValueError(f"{coeffs} is not a curve class")
    return canonical_pair(x1 // s, x2 // s)


def degree(L: NSClass, pair: Pair) -> int:
    """L . N_{c,d}, evaluated through the explicit quadratic form."""
    _require_class(L)
    _require_nocm(L.surface)
    A, B, C = _class_form(L.surface, L.coeffs)
    c, d = map(index, pair)
    return A * c * c + 2 * B * c * d + C * d * d


def _reduce(form: tuple[int, int, int]) -> tuple[int, ...]:
    """Lagrange-Gauss reduction of the degree form A c^2 + 2B cd + C d^2.

    Returns the reduced Gram entries and the basis e1 = (p, r), e2 = (s, t)
    of Z^2 they are taken in: |2B| <= A <= C, so A is the minimum of the
    form.  Like Euclid's algorithm, the loop runs O(log coeff) times.
    """
    A, B, C = form
    p, r, s, t = 1, 0, 0, 1
    while True:
        if C < A:
            A, C, p, r, s, t = C, A, s, t, p, r
        q = (2 * B + A) // (2 * A)  # B / A rounded to nearest
        if q == 0:
            return A, B, C, p, r, s, t
        C += q * (q * A - 2 * B)
        B -= q * A
        s, t = s - q * p, t - q * r


def _curves_up_to(form: tuple[int, ...], threshold: int) -> frozenset[Pair]:
    """Canonical pairs of all curves of degree <= T = threshold, where A T < 4 det.

    As A deg(x e1 + y e2) = (A x + B y)^2 + det y^2, y is 0 (only e1 is primitive)
    or 1 with |A x + B| <= w = isqrt(B^2 - A (C - T)): x from -((B + w) // A) to
    (w - B) // A, none if B^2 < A (C - T).  Callers have A^2 <= 4 det / 3 and
    T^2 <= 2 det.  det(e1, e2) = +-1 makes all primitive, so a sign makes each canonical.
    """
    A, B, C, p, r, s, t = form
    # a basis of Z^2 is what makes each listed pair coprime without a gcd
    if p * t - r * s not in (1, -1):
        raise ArithmeticError(f"reduced basis ({p}, {r}), ({s}, {t}) is not unimodular")
    found = [(p, r) if p > 0 or (p == 0 and r > 0) else (-p, -r)] if A <= threshold else []
    if (square := B * B - A * (C - threshold)) >= 0:
        w = isqrt(square)
        for x in range(-((B + w) // A), (w - B) // A + 1):
            c, d = x * p + s, x * r + t
            found.append((c, d) if c > 0 or (c == 0 and d > 0) else (-c, -d))
    return frozenset(found)


def seshadri_constant(L: NSClass) -> SeshadriResult:
    """The Seshadri constant of an ample class and all computing curves.

    The constant is the minimum of the degree form over primitive vectors,
    which is the first entry of its reduced form; the witnesses are the
    canonical pairs of the primitive vectors attaining it, in a frozenset.
    """
    require_ample(L)
    _require_nocm(L.surface)
    form = _reduce(_class_form(L.surface, L.coeffs))
    return SeshadriResult(form[0], _curves_up_to(form, form[0]))


def submaximal_curves(L: NSClass, weak: bool = False) -> frozenset[Pair]:
    """Curves of degree below (`weak`: up to) the square root of L^2.

    Comparisons are made on squares, so no irrational arithmetic occurs.
    """
    square = require_ample(L)
    _require_nocm(L.surface)
    # deg^2 <= square (resp. <) for positive integer degrees, as one bound
    form = _reduce(_class_form(L.surface, L.coeffs))
    return _curves_up_to(form, isqrt(square if weak else square - 1))

