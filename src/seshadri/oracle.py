"""Independent brute-force reference computations.

Everything here validates the closed-form results by direct search: certified
minimization of positive-definite quadratic forms over the integer lattice.
The search shares no formula code with the closed-form modules: the only
package module this module imports is `lattice`, its search windows are its
own, and its Gram constructor `degree_form` is cross-checked against
hand-expanded polynomials in the tests.

The search is a Fincke-Pohst enumeration in integers only.  The Gram matrix
is scaled by the lcm s of its denominators, and Bareiss's fraction-free
elimination of the integer matrix gives its leading minors D_0 = 1, D_1, ...,
D_n and integer rows B with

    s * Q(x) = sum_i (D_{i+1} x_i + N_i)^2 / (D_i D_{i+1}),
    N_i = sum_{j>i} B_ij x_j.

Multiplying by P = lcm_i(D_i D_{i+1}) makes every partial sum, the running
best and the budget an integer, and each level's window an exact `isqrt`.

Certification: outside a box of radius r every lattice vector x satisfies
Q(x) >= lam * |x|^2 >= lam * (r+1)^2 for any exact lower bound lam > 0 on the
smallest eigenvalue, so once lam * (r+1)^2 exceeds the best value found the
search is provably complete.  We use the larger of the Gershgorin bound and
det / (max row sum)^(n-1), both taken on the scaled integer matrix with
det = D_n; the latter is always positive for a definite form, so the
expanding search terminates.  lam is kept as an integer numerator and
denominator and the two bounds are compared by cross-multiplication, so no
step of the search builds a Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence

from .lattice import NSClass, _rational, _require_class, require_ample


class ShellSearchReport(NamedTuple):
    minimum: Fraction
    minimizers: tuple[tuple[int, ...], ...]
    radius_searched: int
    certified: bool


def _integer_gram(gram: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(s, s * gram) with s the lcm of the entries' denominators.

    Raises `ValueError` for an empty, non-square or non-symmetric matrix and
    for an entry that is not a finite rational (an infinity, NaN, "1/0").
    """
    rows = [
        [v if isinstance(v, (int, Fraction)) else _rational(v) for v in row]
        for row in gram
    ]
    n = len(rows)
    if n == 0:
        raise ValueError("gram matrix must be non-empty")
    if any(len(row) != n for row in rows):
        raise ValueError("gram matrix must be square")
    s = lcm(*(v.denominator for row in rows for v in row))
    a = [[v.numerator * (s // v.denominator) for v in row] for row in rows]
    # scaling by s > 0 is injective, so the scaled matrix has the same symmetry
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix must be symmetric")
    return s, a


def _bareiss(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Leading minors [D_0 = 1, D_1, ...] and the rows B of Bareiss elimination.

    Row i of the result holds B_ij for j >= i, with B_ii = D_{i+1}.  Every
    division is exact (Sylvester's identity) while the previous pivot is
    nonzero, so elimination stops after the first zero pivot.
    """
    n = len(a)
    work = [row[:] for row in a]
    minors = [1]
    for k in range(n):
        pivot, prev = work[k][k], minors[-1]
        minors.append(pivot)
        if pivot == 0:
            break
        row_k = work[k]
        for i in range(k + 1, n):
            row_i = work[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
    return minors, work


def _search_box(
    levels: list[tuple[int, int, list[tuple[int, int]]]],
    radius: int,
    best: int,
) -> tuple[int, list[tuple[int, ...]]]:
    """All x in [-radius, radius]^n with P s Q(x) <= best, via exact windows.

    Level i is (D_{i+1}, w_i = P / (D_i D_{i+1}), the nonzero terms (j, B_ij)
    of N_i).  Returns the smallest scaled value found (or `best` if none) and
    every nonzero x attaining it.
    """
    n = len(levels)
    x = [0] * n
    found: list[tuple[int, ...]] = []
    running = best

    def rec(i: int, partial: int, nonzero: bool) -> None:
        # `nonzero`: some coordinate above level i is nonzero
        nonlocal running, found
        d, w, terms = levels[i]
        centre = 0
        for j, b in terms:
            centre += b * x[j]
        # |d t + centre| <= r  <=>  w (d t + centre)^2 <= running - partial,
        # which is >= 0 on entry
        r = isqrt((running - partial) // w)
        lo = max(-((r + centre) // d), -radius)
        hi = min((r - centre) // d, radius)
        for t in range(lo, hi + 1):
            y = d * t + centre
            value = partial + w * y * y
            if value > running:
                continue
            x[i] = t
            if i:
                rec(i - 1, value, nonzero or t != 0)
            elif nonzero or t:
                if value < running:
                    running, found = value, []
                found.append(tuple(x))

    rec(n - 1, 0, False)
    return running, found


def _canonical_sign(p: tuple[int, ...]) -> tuple[int, ...]:
    for v in p:
        if v:
            return p if v > 0 else tuple(-c for c in p)
    return p


def min_quadratic_form(gram: Sequence[Sequence]) -> ShellSearchReport:
    """Certified minimum of a positive-definite form over nonzero vectors.

    Returns all minimizers up to sign.  Entries may be ints, `Fraction`s or
    anything `Fraction` reads exactly (floats, strings).  Raises
    `ValueError` for an empty, non-square, non-symmetric or indefinite
    matrix and for an entry that is not a finite rational.
    """
    s, a = _integer_gram(gram)
    n = len(a)
    minors, rows = _bareiss(a)
    if any(d <= 0 for d in minors):
        raise ValueError("not positive definite")
    scale = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    levels = [
        (minors[i + 1], scale // (minors[i] * minors[i + 1]),
         [(j, rows[i][j]) for j in range(i + 1, n) if rows[i][j]])
        for i in range(n)
    ]

    gersh = min(2 * a[i][i] - sum(abs(v) for v in a[i]) for i in range(n))
    row_max = max(sum(abs(v) for v in row) for row in a)
    # lam_num / lam_den bounds the smallest eigenvalue of s * gram, and values
    # carry P = scale; neither the stopping test nor the floor in `needed`
    # depends on whether that fraction is reduced
    lam_num, lam_den = minors[n], row_max ** (n - 1)
    if gersh * lam_den >= lam_num:
        lam_num, lam_den = gersh, 1
    lam_num *= scale

    best = scale * min(a[i][i] for i in range(n))
    radius = 1
    while True:
        best, pts = _search_box(levels, radius, best)
        if lam_num * (radius + 1) ** 2 > best * lam_den:
            break
        needed = isqrt(best * lam_den // lam_num) + 1
        radius = max(2 * radius, needed)
    minimizers = sorted({_canonical_sign(p) for p in pts})
    return ShellSearchReport(Fraction(best, s * scale), tuple(minimizers), radius, True)


def degree_form(L: NSClass) -> tuple[tuple[int | Fraction, ...], ...]:
    """Gram matrix of the curve-degree form of L on its surface.

    On nocm, the binary form (c, d) -> L . N_{c,d}.  On the CM surfaces, the
    quartic degree expression Q(t) = D * (L . N_t) in t = (a, b, c, d): ints
    on cm-i; on cm-eisenstein the diagonal is integral and the off-diagonal
    entries are half-integers (Fractions).
    """
    _require_class(L)
    k = L.surface.trace
    if k is None:  # nocm
        a1, a2, a3 = L.coeffs
        return ((a2 + a3, a3), (a3, a1 + a3))
    a1, a2, a3, a4 = L.coeffs
    A, C = a1 + a3 + a4, a2 + a3 + a4
    if k == 0:  # cm-i
        return (
            (A, 0, -a3, -a4),
            (0, A, a4, -a3),
            (-a3, a4, C, 0),
            (-a4, -a3, 0, C),
        )
    hA, hC = Fraction(A, 2), Fraction(C, 2)
    p = Fraction(-2 * a3 - a4, 2)
    q = Fraction(-a3 - 2 * a4, 2)
    r = Fraction(a4 - a3, 2)
    return (
        (A, hA, p, q),
        (hA, A, r, p),
        (p, r, C, hC),
        (q, p, hC, C),
    )


def nocm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-3 surface.

    Minimum of L.F1, L.F2, L.Delta and the degree form over all coprime
    pairs; the basis degrees are the form's values at (1,0), (0,1), (1,-1),
    and the form minimum is always attained at a coprime pair, so this is a
    single certified form minimization.
    """
    require_ample(L)
    if L.surface.trace is not None:
        raise ValueError("surface mismatch: expected the nocm surface")
    report = min_quadratic_form(degree_form(L))
    if any(gcd(p[0], p[1]) != 1 for p in report.minimizers):
        raise ArithmeticError(f"imprimitive form minimizer for {L.coeffs}")
    return _integral_minimum(report, L)


def cm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-4 surfaces."""
    require_ample(L)
    if L.surface.trace is None:
        raise ValueError("surface mismatch: expected a CM surface")
    return _integral_minimum(min_quadratic_form(degree_form(L)), L)


def _integral_minimum(report: ShellSearchReport, L: NSClass) -> int:
    if report.minimum.denominator != 1:
        raise ArithmeticError(
            f"non-integral form minimum {report.minimum} for {L.coeffs}"
        )
    return int(report.minimum)

