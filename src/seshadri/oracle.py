"""Independent brute-force reference computations.

Everything here validates the closed-form results by direct search: certified
minimization of positive-definite quadratic forms over the integer lattice,
and literal counting of congruence solutions.  The searches share no formula
code with the closed-form modules beyond the Gram constructor of the rank-4
surfaces, which is itself cross-checked against hand-expanded polynomials in
the tests.

Certification: outside a box of radius r every lattice vector x satisfies
Q(x) >= lam * |x|^2 >= lam * (r+1)^2 for any exact lower bound lam > 0 on the
smallest eigenvalue, so once lam * (r+1)^2 exceeds the best value found the
search is provably complete.  We use the larger of the Gershgorin bound and
det(G) / (max row sum)^(n-1); the latter is always positive for a definite
form, so the expanding search terminates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt
from typing import Sequence

from .lattice import NSClass, Surface, require_ample

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ShellSearchReport:
    minimum: Fraction
    minimizers: tuple[tuple[int, ...], ...]
    radius_searched: int
    certified: bool


def _to_matrix(gram: Sequence[Sequence]) -> Matrix:
    rows = tuple(tuple(Fraction(v) for v in row) for row in gram)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("gram matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(n)):
        raise ValueError("gram matrix must be symmetric")
    return rows


def _det(m: Matrix) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = m[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def leading_minors(gram: Sequence[Sequence]) -> list[Fraction]:
    m = _to_matrix(gram)
    return [_det(tuple(row[: k + 1] for row in m[: k + 1])) for k in range(len(m))]


def is_positive_definite(gram: Sequence[Sequence]) -> bool:
    return all(mk > 0 for mk in leading_minors(gram))


def _min_eigenvalue_bound(m: Matrix) -> Fraction:
    n = len(m)
    gersh = min(m[i][i] - sum(abs(m[i][j]) for j in range(n) if j != i) for i in range(n))
    row_max = max(sum(abs(v) for v in row) for row in m)
    det = _det(m)
    return max(gersh, det / row_max ** (n - 1))


def _ldl(m: Matrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(m)
    work = [list(row) for row in m]
    diag: list[Fraction] = []
    upper = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = work[i][i]
        diag.append(d)
        for j in range(i + 1, n):
            upper[i][j] = work[i][j] / d
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                work[r][c] -= work[i][r] * work[i][c] / d
    return diag, upper


def _floor_shift(c: Fraction, budget: Fraction) -> int:
    """floor(-c + sqrt(budget)) computed exactly, budget >= 0."""
    lo = floor(-c)
    hi = lo + isqrt(floor(budget)) + 2
    # t <= -c + sqrt(budget)  <=>  t + c <= 0 or (t + c)^2 <= budget,
    # which is monotone in t, unlike the raw budget test.
    while lo < hi:
        mid = (lo + hi + 1) // 2
        s = mid + c
        if s <= 0 or s * s <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _window(center: Fraction, budget: Fraction) -> tuple[int, int]:
    """Integer t range with (t + center)^2 <= budget (may be empty)."""
    if budget < 0:
        return 1, 0
    return -_floor_shift(-center, budget), _floor_shift(center, budget)


def _search_box(
    diag: list[Fraction],
    upper: list[list[Fraction]],
    radius: int,
    best: Fraction,
) -> tuple[Fraction, list[tuple[int, ...]]]:
    """All x in [-radius, radius]^n with Q(x) <= best, via exact windows."""
    n = len(diag)
    x = [0] * n
    found: list[tuple[Fraction, tuple[int, ...]]] = []
    running = best

    def rec(i: int, partial: Fraction) -> None:
        nonlocal running
        center = sum((upper[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        lo, hi = _window(center, (running - partial) / diag[i])
        for t in range(max(lo, -radius), min(hi, radius) + 1):
            x[i] = t
            value = partial + diag[i] * (t + center) ** 2
            if value > running:
                continue
            if i == 0:
                if any(x):
                    if value < running:
                        running = value
                    found.append((value, tuple(x)))
            else:
                rec(i - 1, value)

    rec(n - 1, Fraction(0))
    best_found = min((v for v, _ in found), default=best)
    pts = [p for v, p in found if v == best_found]
    return best_found, pts


def _canonical_sign(p: tuple[int, ...]) -> tuple[int, ...]:
    for v in p:
        if v:
            return p if v > 0 else tuple(-c for c in p)
    return p


def min_quadratic_form(gram: Sequence[Sequence], dim: int | None = None) -> ShellSearchReport:
    """Certified minimum of a positive-definite form over nonzero vectors.

    Returns all minimizers up to sign.
    """
    m = _to_matrix(gram)
    if dim is not None and len(m) != dim:
        raise ValueError(f"expected a {dim}x{dim} gram matrix")
    if not is_positive_definite(m):
        raise ValueError("not positive definite")
    n = len(m)
    lam = _min_eigenvalue_bound(m)
    diag, upper = _ldl(m)

    best = min(m[i][i] for i in range(n))
    radius = 1
    while True:
        best, pts = _search_box(diag, upper, radius, best)
        if lam * (radius + 1) ** 2 > best:
            break
        needed = isqrt(floor(best / lam)) + 1
        radius = max(2 * radius, needed)
    minimizers = sorted({_canonical_sign(p) for p in pts})
    return ShellSearchReport(best, tuple(minimizers), radius, True)


def nocm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-3 surface.

    Minimum of L.F1, L.F2, L.Delta and the degree form over all coprime
    pairs; the basis degrees are the form's values at (1,0), (0,1), (1,-1),
    and the form minimum is always attained at a coprime pair, so this is a
    single certified form minimization.
    """
    require_ample(L)
    if L.surface is not Surface.NO_CM:
        raise ValueError("surface mismatch")
    a1, a2, a3 = L.coeffs
    gram = ((a2 + a3, a3), (a3, a1 + a3))
    report = min_quadratic_form(gram)
    if any(gcd(p[0], p[1]) != 1 for p in report.minimizers):
        raise ArithmeticError(f"imprimitive form minimizer for {L.coeffs}")
    return _integral_minimum(report, L)


def cm_seshadri(L: NSClass) -> int:
    """Reference Seshadri constant on the rank-4 surfaces."""
    from . import cm

    require_ample(L)
    if not L.surface.is_cm:
        raise ValueError("surface mismatch")
    return _integral_minimum(min_quadratic_form(cm.degree_form(L)), L)


def _integral_minimum(report: ShellSearchReport, L: NSClass) -> int:
    if report.minimum.denominator != 1:
        raise ArithmeticError(
            f"non-integral form minimum {report.minimum} for {L.coeffs}"
        )
    return int(report.minimum)


def division_point_count(a: int, b: int) -> int:
    """Number of torus points x with a x + b i(x) = 0, counted directly.

    Solutions are the l-division points [m/l + i n/l], l = a^2 + b^2, with
    l | a m - b n and l | a n + b m; for each m the first condition is a
    linear congruence in n whose solutions are checked against the second.
    """
    if a == 0 and b == 0:
        raise ValueError("(0, 0) has no associated equation")
    ell = a * a + b * b
    count = 0
    for m in range(ell):
        # b n = a m (mod ell)
        g = gcd(b % ell, ell)
        if (a * m) % g:
            continue
        step = ell // g
        if g == ell:  # b = 0 mod ell: any n passes the first congruence
            n0 = 0
        else:
            inv = pow((b % ell) // g, -1, step)
            n0 = ((a * m) // g * inv) % step
        for k in range(g):
            n = n0 + k * step
            if (a * n + b * m) % ell == 0:
                count += 1
    return count
