"""Independent brute-force reference computations.

Everything here validates the closed-form results by direct search: certified
minimization of positive-definite quadratic forms over the integer lattice.
The search shares no formula code with the closed-form modules: the only
package module this module imports is `lattice`, for the class, its
ampleness gate and its surface checks; the walk is the oracle's own, and its
Gram constructor `_scaled_degree_form` (seen through `degree_form`) is
cross-checked against hand-expanded polynomials in the tests.

The search is a Fincke-Pohst enumeration in integers only.  The Gram matrix
is scaled by the lcm s of its denominators (`min_quadratic_form`), or built
scaled by the oracle itself (`nocm_seshadri`, `cm_seshadri`), and Bareiss's
fraction-free elimination of the integer matrix gives its leading minors
D_0 = 1, D_1, ..., D_n and integer rows B with

    s * Q(x) = sum_i (D_{i+1} x_i + N_i)^2 / (D_i D_{i+1}),
    N_i = sum_{j>i} B_ij x_j.

Multiplying by P = lcm_i(D_i D_{i+1}) makes every partial sum and the
running best an integer.  Above level 0, each level is walked outward from
its centre t0, the t nearest -N_i / D_{i+1} (Schnorr and Euchner's order),
and short vectors lower the running best early.  Q(-x) = Q(x), so the
search keeps one of each pair +-x, the one whose last nonzero coordinate is
positive (Fincke and Pohst's sign rule): while every coordinate above a
level is zero, so is its centre, and the level walks t >= 0 only; level 0
then takes t = 1, which never reaches x = 0.

Completeness: the walk is monotone, and the first value above the best ends
a direction: away from t0 the level's term only grows and the running best
only falls, so the single pass from the least diagonal entry, a value the
form takes, reaches every x with s * Q(x) at most the running best; no box
or window bounds it.  Level 0 skips no minimizer and needs no walk: with x
above it fixed and nonzero, it adds w_0 y^2, y = d t + N_0, d = D_1.
t0 = (d // 2 - N_0) // d puts y_0 = d t0 + N_0 in (-d/2, d/2], and any
other t moves y_0 by a nonzero multiple of d, to |y| > |y_0|, save t0 - 1
at a half-way tie y_0 = d/2 (d even), |y| = |y_0|.  So only t0, and t0 - 1
at a tie, can give a minimizer; both are kept.  With x above zero, the
value is w_0 d^2 t^2, and the sign rule leaves t = 1.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .lattice import NSClass, _cm_trace, _rational, _require_class, _require_nocm, require_ample


class ShellSearchReport(NamedTuple):
    """A certified form minimum.

    `minimum` is the least value over nonzero integer vectors and
    `minimizers` every vector attaining it, one of each pair +-x (the one
    whose first nonzero coordinate is positive), sorted.  Complete: the walk
    is monotone, and the first value above the best ends a direction.
    """

    minimum: Fraction
    minimizers: tuple[tuple[int, ...], ...]


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

    a is symmetric, and so is each trailing block: row i is updated and kept
    for j >= i only, with B_ii = D_{i+1}.  Divisions are exact (Sylvester)
    while the previous pivot is nonzero; a zero pivot is the last minor.
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
            f = row_k[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
    return minors, work


def _search(
    levels: list[list], best: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The least P s Q(x) <= best over nonzero x, and every x attaining it.

    Level i is (D_{i+1}, w_i = P / (D_i D_{i+1}), the nonzero terms (j, B_ij)
    of N_i).  Returns (best, []) if no value is at most `best`.  Of each pair
    +-x, only the x whose last nonzero coordinate is positive is visited.
    """
    x = [0] * len(levels)
    found: list[tuple[int, ...]] = []
    running = best
    d0, w0, terms0 = levels[0]

    # `free`: some coordinate of x above the level is nonzero; `_` is level 0
    def last(_: int, partial: int, free: bool) -> None:
        nonlocal running, found
        centre = 0
        for j, b in terms0:
            centre += b * x[j]
        t = (d0 // 2 - centre) // d0 if free else 1
        y = d0 * t + centre
        value = partial + w0 * y * y
        if value <= running:
            if value < running:
                running, found = value, []
            found.append((t, *x[1:]))
            if 2 * y == d0:  # the half-way tie: t - 1 gives -y
                found.append((t - 1, *x[1:]))

    # From t0, the t nearest the centre, the value grows in each direction
    # while `running` only falls, so a direction ends at its first value above
    # `running`.  x above zero makes centre and t0 0, and keeps t >= 0.
    def walk(i: int, partial: int, free: bool) -> None:
        d, w, terms = levels[i]
        down = walk if i > 1 else last
        centre = 0
        for j, b in terms:
            centre += b * x[j]
        t = t0 = (d // 2 - centre) // d
        while True:
            y = d * t + centre
            value = partial + w * y * y
            if value > running:
                break
            x[i] = t
            down(i - 1, value, free or t != 0)
            t += 1
        t = t0 - 1
        while free:
            y = d * t + centre
            value = partial + w * y * y
            if value > running:
                break
            x[i] = t
            down(i - 1, value, True)
            t -= 1

    (walk if len(levels) > 1 else last)(len(levels) - 1, 0, False)
    walk = None  # walk refers to itself: free the search now, not at a GC pass
    return running, found


def min_quadratic_form(gram: Sequence[Sequence]) -> ShellSearchReport:
    """Certified minimum of a positive-definite form over nonzero vectors.

    Returns all minimizers up to sign.  Entries may be ints, `Fraction`s or
    anything `Fraction` reads exactly (floats, strings).  Raises
    `ValueError` for an empty, non-square, non-symmetric or indefinite
    matrix and for an entry that is not a finite rational, and `TypeError`
    for an entry that is not a number (None, a complex, an arbitrary
    object).  The class functions `nocm_seshadri` and `cm_seshadri` enter
    the same core `_minimize` through the oracle's own integer Gram, which
    needs neither this validation nor the scaling, and read its minimum
    without building a report.
    """
    s, a = _integer_gram(gram)
    scale, best, pts = _minimize(a)
    # pts holds one of each pair +-x, the one whose last nonzero coordinate
    # is positive; report the one whose first is
    mins = [p if next(filter(None, p)) > 0 else tuple([-v for v in p]) for p in pts]
    return ShellSearchReport(Fraction(best, s * scale), tuple(sorted(mins)))


def _minimize(a: list[list[int]]) -> tuple[int, int, list[tuple[int, ...]]]:
    """The search on the integer matrix a: (P, P * m, the minimizers).

    m is the least value of x^T a x over nonzero integer x, and the
    minimizers are every x attaining it, one of each pair +-x, the one whose
    last nonzero coordinate is positive.  `_search` walks `_bareiss`'s
    levels from P times the least diagonal entry, a value the form takes, so
    its one pass finds every minimizer.  Raises `ValueError` if a is not
    positive definite.
    """
    minors, rows = _bareiss(a)
    levels, least = [], a[0][0]
    for i, row in enumerate(rows):
        d = row[i]  # D_{i+1}
        if d <= 0:
            raise ValueError("not positive definite")
        terms = []
        for j in range(i + 1, len(row)):
            if row[j]:
                terms.append((j, row[j]))
        levels.append([d, minors[i] * d, terms])
        if a[i][i] < least:
            least = a[i][i]
    scale = lcm(*[level[1] for level in levels])
    for level in levels:
        level[1] = scale // level[1]
    best, pts = _search(levels, scale * least)
    return scale, best, pts


def _scaled_degree_form(L: NSClass) -> tuple[int, list[list[int]]]:
    """(s, s * degree_form(L)) with s the lcm of the Gram's denominators.

    The oracle's one statement of the degree form: s is 1 on nocm and cm-i,
    and on cm-eisenstein 1 exactly when every half-entry is integral.
    """
    k = L.surface.trace
    if k is None:  # nocm
        a1, a2, a3 = L.coeffs
        return 1, [[a2 + a3, a3], [a3, a1 + a3]]
    a1, a2, a3, a4 = L.coeffs
    A, C = a1 + a3 + a4, a2 + a3 + a4
    if k == 0:  # cm-i
        return 1, [
            [A, 0, -a3, -a4],
            [0, A, a4, -a3],
            [-a3, a4, C, 0],
            [-a4, -a3, 0, C],
        ]
    # cm-eisenstein: 2G, since G's off-diagonal entries are A/2, C/2, p/2,
    # q/2 and r/2
    p, q, r = -2 * a3 - a4, -a3 - 2 * a4, a4 - a3
    a = [
        [2 * A, A, p, q],
        [A, 2 * A, r, p],
        [p, r, 2 * C, C],
        [q, p, C, 2 * C],
    ]
    # p is even iff a4 is, q iff a3 is; then A = a1 and C = a2 mod 2
    if (a1 | a2 | a3 | a4) & 1:
        return 2, a
    return 1, [[v // 2 for v in row] for row in a]


def degree_form(L: NSClass) -> tuple[tuple[int | Fraction, ...], ...]:
    """Gram matrix of the curve-degree form of L on its surface.

    On nocm, the binary form (c, d) -> L . N_{c,d}.  On the CM surfaces, the
    quartic degree expression Q(t) = D * (L . N_t) in t = (a, b, c, d): ints
    on cm-i; on cm-eisenstein the diagonal is integral and the off-diagonal
    entries are half-integers (Fractions).  A view of `_scaled_degree_form`.
    """
    _require_class(L)
    s, a = _scaled_degree_form(L)
    if L.surface.trace != 1:  # s == 1
        return tuple(map(tuple, a))
    return tuple(
        tuple(v // s if i == j else Fraction(v, s) for j, v in enumerate(row))
        for i, row in enumerate(a)
    )


def nocm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-3 surface.

    Minimum of L.F1, L.F2, L.Delta and the degree form over all coprime
    pairs; the basis degrees are the form's values at (1,0), (0,1), (1,-1),
    and the form minimum is always attained at a coprime pair, so this is a
    single certified form minimization.
    """
    require_ample(L)
    _require_nocm(L.surface)
    value, pts = _class_minimum(L)
    if any(gcd(p[0], p[1]) != 1 for p in pts):
        raise ArithmeticError(f"imprimitive form minimizer for {L.coeffs}")
    return value


def cm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-4 surfaces."""
    require_ample(L)
    _cm_trace(L.surface)
    return _class_minimum(L)[0]


def _class_minimum(L: NSClass) -> tuple[int, list[tuple[int, ...]]]:
    """The degree form's minimum, which must be an integer, and its minimizers.

    The minimizers are `_minimize`'s, one of each pair +-x; no report is built.
    """
    s, a = _scaled_degree_form(L)
    scale, best, pts = _minimize(a)
    value, rest = divmod(best, s * scale)
    if rest:
        raise ArithmeticError(
            f"non-integral form minimum {Fraction(best, s * scale)} for {L.coeffs}"
        )
    return value, pts
