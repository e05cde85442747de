"""Box-scan kernel behind the rank-4 Seshadri computation.

On both CM surfaces a curve is the image of x -> (s1 x, s2 x) with
s1 = a + b*w, s2 = c + d*w, where w = i (order Z[i]) or w = e^(i pi/3)
(order Z[w]).  Its degree expression is a positive-definite quartic form in
(a, b, c, d).  Multiplying (s1, s2) by a unit of the order names the same
curve and keeps the form's value, so the scan walks one fundamental domain of
the unit group: a > 0 and b >= 0, or a = b = 0 with c > 0 and d >= 0.  In the
coordinates (a, b) this is the half-open cone spanned by 1 and w (90 resp.
60 degrees wide), and its images under the 4 resp. 6 units tile the plane
minus the origin; when s1 = 0 the units act on s2 alone.  Every nonzero
tuple therefore has exactly one unit multiple in the domain.

The walk is Fincke-Pohst style: each coordinate runs over the exact integer
window that the previous ones leave for Q <= best, clamped to the search box
and to the domain.  All windows are computed in exact integer arithmetic.
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
                    best: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Minimum of the degree expression over the domain part of the box.

    Scans the tuples of the unit group's fundamental domain with every
    coordinate in [-radius, radius].  Returns the smaller of `best` and the
    minimum found, together with every scanned tuple attaining it (none when
    nothing beats or ties `best`).
    """
    a1, a2, a3, a4 = coeffs
    if kind == GAUSSIAN:
        return _pruned_gaussian(a1, a2, a3, a4, radius, best)
    return _pruned_eisenstein(a1, a2, a3, a4, radius, best)


def _pruned_gaussian(a1, a2, a3, a4, radius, best):
    # Q = A(a^2+b^2) + C(c^2+d^2) + 2(u c + v d) with the linear parts below;
    # minimizing over real (c, d) gives the branch bound delta(a^2+b^2) <= C*Q.
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    delta = A * C - a3 * a3 - a4 * a4
    mins: list[tuple[int, int, int, int]] = []
    for a in range(radius + 1):
        if delta * a * a > C * best:
            break
        if a:
            blo, bhi = _quad_window(delta, 0, delta * a * a - C * best)
            bs = range(max(blo, 0), min(bhi, radius) + 1)
            c_min = d_min = -radius
        else:  # s1 = 0: the units act on s2 alone
            bs, c_min, d_min = (0,), 1, 0
        for b in bs:
            u = -a3 * a + a4 * b
            v = -a4 * a - a3 * b
            K = A * (a * a + b * b)
            clo, chi = _quad_window(C * C, 2 * C * u, C * (K - best) - v * v)
            for c in range(max(clo, c_min), min(chi, radius) + 1):
                S = C * (best - K - C * c * c - 2 * u * c) + v * v
                dlo, dhi = _lin_window(C, v, S)
                for d in range(max(dlo, d_min), min(dhi, radius) + 1):
                    q = K + C * (c * c + d * d) + 2 * (u * c + v * d)
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
    return best, mins


def _pruned_eisenstein(a1, a2, a3, a4, radius, best):
    # Same shape as the Gaussian walk for the hexagonal norm form
    # n(x, y) = x^2 + xy + y^2; the branch bound is delta * n(a,b) <= C*Q,
    # and n(a, b) >= a^2 on the domain's b >= 0.
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    delta = A * C - (a3 * a3 + a3 * a4 + a4 * a4)
    mins: list[tuple[int, int, int, int]] = []
    for a in range(radius + 1):
        if delta * a * a > C * best:
            break
        if a:
            blo, bhi = _quad_window(delta, delta * a, delta * a * a - C * best)
            bs = range(max(blo, 0), min(bhi, radius) + 1)
            c_min = d_min = -radius
        else:  # s1 = 0: the units act on s2 alone
            bs, c_min, d_min = (0,), 1, 0
        for b in bs:
            U = -(2 * a3 + a4) * a + (a4 - a3) * b
            V = -(a3 + 2 * a4) * a - (2 * a3 + a4) * b
            K = A * (a * a + a * b + b * b)
            clo, chi = _quad_window(
                3 * C * C, 2 * C * (2 * U - V), 4 * C * (K - best) - V * V
            )
            for c in range(max(clo, c_min), min(chi, radius) + 1):
                rest = C * c * c + U * c + K
                f = C * c + V
                S = f * f + 4 * C * (best - rest)
                dlo, dhi = _lin_window(2 * C, f, S)
                for d in range(max(dlo, d_min), min(dhi, radius) + 1):
                    q = K + C * (c * c + c * d + d * d) + U * c + V * d
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
    return best, mins


def minimize_quartic(kind: int, coeffs: tuple[int, int, int, int], radius: int,
                     best: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Minimum over the domain part of the box [-radius, radius]^4.

    Returns the smaller of `best` and that minimum, with the sorted list of
    domain tuples in the box attaining it: one tuple per curve.
    """
    best, mins = quartic_min_box(kind, coeffs, radius, best)
    return best, sorted(mins)
