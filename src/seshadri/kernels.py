"""Box-scan kernels behind the rank-4 Seshadri computation.

The degree expression is a positive-definite quartic form in (a, b, c, d);
its minimum over the search box is found by a Fincke-Pohst-style walk that
bounds each coordinate by the exact integer window left over from the
previous ones.  All windows are computed in exact integer arithmetic.
`prune=False` runs the plain quadruple loop over the whole box and evaluates
the explicit norm-pair expression; it is the correctness reference for the
pruned scan.
"""
from __future__ import annotations

from math import isqrt

GAUSSIAN = 0
EISENSTEIN = 1


def _quad_window(alpha: int, beta: int, gamma: int) -> tuple[int, int]:
    """Integer solutions of alpha x^2 + beta x + gamma <= 0, alpha > 0.

    The isqrt-based estimates are within one of the true endpoints, so a
    single exact polynomial check on each side pins them down; an empty
    window comes back with lo > hi.
    """
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        return 1, 0
    s = isqrt(disc)

    def f(x: int) -> int:
        return (alpha * x + beta) * x + gamma

    hi = (-beta + s) // (2 * alpha)
    if f(hi + 1) <= 0:
        hi += 1
    lo = -((beta + s) // (2 * alpha))
    if f(lo - 1) <= 0:
        lo -= 1
    return lo, hi


def _lin_window(e: int, f: int, bound: int) -> tuple[int, int]:
    """Integer solutions of (e x + f)^2 <= bound, e > 0."""
    if bound < 0:
        return 1, 0
    s = isqrt(bound)
    return -((f + s) // e), (s - f) // e


def _value(kind: int, a1: int, a2: int, a3: int, a4: int,
           a: int, b: int, c: int, d: int) -> int:
    if kind == GAUSSIAN:
        return (
            a1 * (a * a + b * b)
            + a2 * (c * c + d * d)
            + a3 * ((a - c) ** 2 + (b - d) ** 2)
            + a4 * ((a - d) ** 2 + (b + c) ** 2)
        )
    u = -a - b + d
    v = b + c
    return (
        a1 * (a * a + a * b + b * b)
        + a2 * (c * c + c * d + d * d)
        + a3 * ((a - c) ** 2 + (a - c) * (b - d) + (b - d) ** 2)
        + a4 * (u * u + u * v + v * v)
    )


def quartic_min_box(kind: int, coeffs: tuple[int, int, int, int], radius: int,
                    a_lo: int, a_hi: int, best: int, prune: bool = True
                    ) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Minimum of the degree expression over part of the search box.

    Scans a in [a_lo, a_hi], b, c, d in [-radius, radius], skipping the zero
    tuple.  Returns the smaller of `best` and the minimum found, together
    with every tuple in the scanned range attaining it (none when nothing
    beats or ties `best`).
    """
    a1, a2, a3, a4 = coeffs
    if not prune:
        return _naive(kind, a1, a2, a3, a4, radius, a_lo, a_hi, best)
    if kind == GAUSSIAN:
        return _pruned_gaussian(a1, a2, a3, a4, radius, a_lo, a_hi, best)
    return _pruned_eisenstein(a1, a2, a3, a4, radius, a_lo, a_hi, best)


def _naive(kind, a1, a2, a3, a4, radius, a_lo, a_hi, best):
    mins: list[tuple[int, int, int, int]] = []
    rng = range(-radius, radius + 1)
    for a in range(a_lo, a_hi + 1):
        for b in rng:
            for c in rng:
                for d in rng:
                    if a == 0 and b == 0 and c == 0 and d == 0:
                        continue
                    q = _value(kind, a1, a2, a3, a4, a, b, c, d)
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
    return best, mins


def _pruned_gaussian(a1, a2, a3, a4, radius, a_lo, a_hi, best):
    # Q = A(a^2+b^2) + C(c^2+d^2) + 2(u c + v d) with the linear parts below;
    # minimizing over real (c, d) gives the branch bound delta(a^2+b^2) <= C*Q.
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    delta = A * C - a3 * a3 - a4 * a4
    mins: list[tuple[int, int, int, int]] = []
    for a in range(a_lo, a_hi + 1):
        if delta * a * a > C * best:
            break
        blo, bhi = _quad_window(delta, 0, delta * a * a - C * best)
        for b in range(max(blo, -radius), min(bhi, radius) + 1):
            u = -a3 * a + a4 * b
            v = -a4 * a - a3 * b
            K = A * (a * a + b * b)
            clo, chi = _quad_window(C * C, 2 * C * u, C * (K - best) - v * v)
            for c in range(max(clo, -radius), min(chi, radius) + 1):
                S = C * (best - K - C * c * c - 2 * u * c) + v * v
                dlo, dhi = _lin_window(C, v, S)
                for d in range(max(dlo, -radius), min(dhi, radius) + 1):
                    if a == 0 and b == 0 and c == 0 and d == 0:
                        continue
                    q = K + C * (c * c + d * d) + 2 * (u * c + v * d)
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
    return best, mins


def _pruned_eisenstein(a1, a2, a3, a4, radius, a_lo, a_hi, best):
    # Same shape as the Gaussian scan for the hexagonal norm form
    # n(x, y) = x^2 + xy + y^2; the branch bound is delta * n(a,b) <= C*Q.
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    delta = A * C - (a3 * a3 + a3 * a4 + a4 * a4)
    mins: list[tuple[int, int, int, int]] = []
    for a in range(a_lo, a_hi + 1):
        if 3 * delta * a * a > 4 * C * best:
            break
        blo, bhi = _quad_window(delta, delta * a, delta * a * a - C * best)
        for b in range(max(blo, -radius), min(bhi, radius) + 1):
            U = -(2 * a3 + a4) * a + (a4 - a3) * b
            V = -(a3 + 2 * a4) * a - (2 * a3 + a4) * b
            K = A * (a * a + a * b + b * b)
            clo, chi = _quad_window(
                3 * C * C, 2 * C * (2 * U - V), 4 * C * (K - best) - V * V
            )
            for c in range(max(clo, -radius), min(chi, radius) + 1):
                rest = C * c * c + U * c + K
                f = C * c + V
                S = f * f + 4 * C * (best - rest)
                dlo, dhi = _lin_window(2 * C, f, S)
                for d in range(max(dlo, -radius), min(dhi, radius) + 1):
                    if a == 0 and b == 0 and c == 0 and d == 0:
                        continue
                    q = K + C * (c * c + c * d + d * d) + U * c + V * d
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
    return best, mins


def minimize_quartic(kind: int, coeffs: tuple[int, int, int, int], radius: int,
                     best: int, prune: bool = True
                     ) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Full box scan over a in [0, radius], b, c, d in [-radius, radius].

    Returns the smaller of `best` and the box minimum, with the sorted list
    of tuples in the box attaining it.
    """
    best, mins = quartic_min_box(kind, coeffs, radius, 0, radius, best, prune)
    return best, sorted(mins)
