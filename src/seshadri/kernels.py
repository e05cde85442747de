"""Rank-4 minimum: one Gauss reduction and one walk for both CM surfaces.

On both CM surfaces a curve is the image of x -> (s1 x, s2 x) with
s1 = a + b*w, s2 = c + d*w, where w = i (order Z[i]) or w = e^(i pi/3)
(order Z[w]).  Then w^2 = t*w - 1 with trace t = 0 resp. 1; the kind
constants below are that trace, and nothing else tells the two apart.  The
degree expression is a positive-definite binary Hermitian form over the order,

    Q = A n(a, b) + C n(c, d) + Lc c + Ld d,    n(x, y) = x^2 + t xy + y^2,

with Lc = a b0 + b b1 and Ld = a (t b0 - b1) + b b0.  Both orders are
Euclidean, so `_reduce` Gauss-reduces the form over the order: it replaces
the second basis vector f2 by f2 - k f1, k the ring element nearest to the
projection coefficient mu, and swaps the two while the second is shorter.
Afterwards |mu|^2 <= 1/2 and C >= A, hence Q >= min(C, 2C - A) >= A off the
line s2 = 0: A, the value at f1, is the minimum.  The walk does not rely on
that; it enumerates Q <= best from best = A and lowers best if it finds less,
so the result depends only on the basis change being unimodular.

Multiplying (s1, s2) by a unit names the same curve and keeps Q, and units
commute with the basis change, which is linear over the order.  So the walk
scans one fundamental domain of the unit group in reduced coordinates: a > 0
and b >= 0, or a = b = 0 with c > 0 and d >= 0.  In the coordinates (a, b)
this is the half-open cone spanned by 1 and w (90 resp. 60 degrees wide), and
its images under the 4 resp. 6 units tile the plane minus the origin; when
s1 = 0 the units act on s2 alone.  Each minimizer found is mapped back and
replaced by the smallest tuple of its unit orbit, the one normal form of a
curve.

The walk is Fincke-Pohst style: each coordinate runs over the exact integer
window that the previous ones leave for Q <= best, in exact integers.
"""
from __future__ import annotations

from math import isqrt

GAUSSIAN = 0
EISENSTEIN = 1

Tuple4 = tuple[int, int, int, int]


def _lin_window(e: int, f: int, bound: int) -> tuple[int, int]:
    """Integer solutions of (e x + f)^2 <= bound, e > 0.

    e x + f is an integer, so the condition is |e x + f| <= isqrt(bound); an
    empty window comes back with lo > hi.
    """
    if bound < 0:
        return 1, 0
    s = isqrt(bound)
    return -((f + s) // e), (s - f) // e


def _quad_window(alpha: int, beta: int, gamma: int) -> tuple[int, int]:
    """Integer solutions of alpha x^2 + beta x + gamma <= 0, alpha > 0, i.e.
    of (2 alpha x + beta)^2 <= beta^2 - 4 alpha gamma."""
    return _lin_window(2 * alpha, beta, beta * beta - 4 * alpha * gamma)


def _raw_degrees(t: int, a: int, b: int, c: int, d: int) -> Tuple4:
    """D times the degrees of the curve of (a, b, c, d) against F1, F2, Delta,
    Sigma: the norms of s1, s2, s1 - s2 and w s1 - s2."""
    e, f = a - c, b - d
    g, h = -b - c, a + t * b - d
    return (a * a + t * a * b + b * b, c * c + t * c * d + d * d,
            e * e + t * e * f + f * f, g * g + t * g * h + h * h)


def _value(kind: int, a1: int, a2: int, a3: int, a4: int,
           a: int, b: int, c: int, d: int) -> int:
    r1, r2, r3, r4 = _raw_degrees(kind, a, b, c, d)
    return a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4


def _times_w(t: int, v: Tuple4) -> Tuple4:
    """(s1, s2) -> (w s1, w s2): w (x + y w) = -y + (x + t y) w."""
    a, b, c, d = v
    return (-b, a + t * b, -d, c + t * d)


def unit_orbit(t: int, v: Tuple4) -> tuple[Tuple4, ...]:
    """The tuples of the curve of v: its multiples by the 4 resp. 6 units,
    the powers of w."""
    orbit = [v]
    for _ in range(3 + 2 * t):
        orbit.append(_times_w(t, orbit[-1]))
    return tuple(orbit)


def _reduce(t: int, A: int, C: int, b0: int, b1: int):
    """Gauss reduction of the definite form (A, C, b0, b1) over the order.

    Returns the reduced form and its basis f1, f2 in original coordinates.
    A step f2 -= k f1 with k = x + y w gives C += A n(x, y) - x b0 - y b1,
    b0 -= A (2x + t y), b1 -= A (t x + 2y); a swap maps (b0, b1) to
    (b0, t b0 - b1).  Every swap lowers the positive integer A.
    """
    f1, f2 = (1, 0, 0, 0), (0, 0, 1, 0)
    m = 4 - t * t
    while True:
        # mu = (u + v w)/A with u = (2 b0 - t b1)/m, v = (2 b1 - t b0)/m; the
        # ring element nearest to it is a corner of its cell of the lattice
        # spanned by 1 and w (a square, resp. two equilateral triangles).
        # dx, dy and dx + dy + t A are the changes of C at the corners
        # (x+1, y), (x, y+1), (x+1, y+1) relative to the one at (x, y).
        x = (2 * b0 - t * b1) // (m * A)
        y = (2 * b1 - t * b0) // (m * A)
        dx = A * (2 * x + 1 + t * y) - b0
        dy = A * (2 * y + 1 + t * x) - b1
        _, i, j = min((0, 0, 0), (dx, 1, 0), (dy, 0, 1), (dx + dy + t * A, 1, 1))
        x += i
        y += j
        if x or y:
            C += A * (x * x + t * x * y + y * y) - x * b0 - y * b1
            b0 -= A * (2 * x + t * y)
            b1 -= A * (t * x + 2 * y)
            p, q, r, s = f1  # f2 -= x f1 + y w f1, w f1 = (-q, p + t q, -s, r + t s)
            f2 = (f2[0] - x * p + y * q, f2[1] - x * q - y * (p + t * q),
                  f2[2] - x * r + y * s, f2[3] - x * s - y * (r + t * s))
        if C >= A:
            return A, C, b0, b1, f1, f2
        A, C, b0, b1, f1, f2 = C, A, b0, t * b0 - b1, f2, f1


def quartic_min_box(t: int, A: int, C: int, b0: int,
                    b1: int) -> tuple[int, list[Tuple4]]:
    """Minimum of the definite form (A, C, b0, b1) over the domain tuples.

    Walks the domain tuples with Q <= best, starting from best = A (the
    value at (1, 0, 0, 0)), and returns the minimum with every domain tuple
    attaining it: one per unit orbit.  The name is older than the reduction;
    the benchmark's tracer measures the walk under it.
    """
    m = 4 - t * t
    # minimizing over real (c, d) gives the branch bound delta n(a, b) <= m C Q,
    # and n(a, b) >= a^2 on the domain's b >= 0
    delta = m * A * C - (b0 * b0 - t * b0 * b1 + b1 * b1)
    best, mins = A, []
    a = 0
    while delta * a * a <= m * C * best:
        if a:
            blo, bhi = _quad_window(delta, delta * t * a, delta * a * a - m * C * best)
            bs = range(max(blo, 0), bhi + 1)
        else:  # s1 = 0: the units act on s2 alone
            bs = (0,)
        for b in bs:
            Lc = a * b0 + b * b1
            Ld = a * (t * b0 - b1) + b * b0
            K = A * (a * a + t * a * b + b * b)
            clo, chi = _quad_window(
                m * C * C, 2 * C * (2 * Lc - t * Ld), 4 * C * (K - best) - Ld * Ld
            )
            for c in range(clo if a else max(clo, 1), chi + 1):
                rest = K + C * c * c + Lc * c
                f = t * C * c + Ld
                dlo, dhi = _lin_window(2 * C, f, f * f - 4 * C * (rest - best))
                for d in range(dlo if a else max(dlo, 0), dhi + 1):
                    q = rest + d * (C * d + f)
                    if q < best:
                        best = q
                        mins = [(a, b, c, d)]
                    elif q == best:
                        mins.append((a, b, c, d))
        a += 1
    return best, mins


def minimize_quartic(kind: int, coeffs: Tuple4) -> tuple[int, list[Tuple4]]:
    """Minimum of the degree expression of `coeffs` over nonzero tuples.

    Returns the minimum with the sorted list of the curves attaining it, each
    as the smallest tuple of its unit orbit.  Raises `ValueError` when the
    form is not positive definite.
    """
    t = kind
    a1, a2, a3, a4 = coeffs
    A, C = a1 + a3 + a4, a2 + a3 + a4
    b0, b1 = (-2 * a3, 2 * a4) if t == GAUSSIAN else (-2 * a3 - a4, a4 - a3)
    if not (A > 0 and (4 - t * t) * A * C > b0 * b0 - t * b0 * b1 + b1 * b1):
        raise ValueError("degree form is not positive definite")
    A, C, b0, b1, f1, f2 = _reduce(t, A, C, b0, b1)
    best, mins = quartic_min_box(t, A, C, b0, b1)
    basis = tuple(zip(f1, _times_w(t, f1), f2, _times_w(t, f2)))
    out = []
    for a, b, c, d in mins:
        v = tuple(a * p + b * q + c * r + d * s for p, q, r, s in basis)
        out.append(min(unit_orbit(t, v)))
    return best, sorted(out)
