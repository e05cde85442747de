"""Rank-4 minimum: one Gauss reduction, and one walk on ties, for both CM surfaces.

On both CM surfaces a curve is the image of x -> (s1 x, s2 x) with
s1 = a + b*w, s2 = c + d*w, where w = i (order Z[i]) or w = e^(i pi/3)
(order Z[w]).  Then w^2 = t*w - 1 with trace t = 0 resp. 1 (`Surface.trace`);
every function here takes t, and nothing else tells the two apart.  The
degree expression is a positive-definite binary Hermitian form over the order,

    Q = A n(a, b) + C n(c, d) + Lc c + Ld d,    n(x, y) = x^2 + t xy + y^2,

with Lc = a b0 + b b1 and Ld = a (t b0 - b1) + b b0.  Both orders are
Euclidean, so `_reduce` Gauss-reduces the form over the order: it replaces
the second basis vector f2 by f2 - k f1, k the ring element nearest to the
projection coefficient mu, and swaps the two while the second is shorter.
Afterwards C >= A and 0 is the ring element nearest mu, so |mu|^2 <= 1/2, and

    Q = A n(s1 + mu s2) + (C - A |mu|^2) n(s2).

For a unit s2 = u, n(s1 + mu u) = |s1 u^-1 + mu|^2 >= |mu|^2, so Q >= C.  For
n(s2) >= 2, Q >= 2 (C - A |mu|^2) >= 2C - A.  For s2 = 0, Q = A n(s1).  So if
C > A, every tuple with s2 != 0 has Q > A, and the only curve of degree A is
f1's unit orbit (Cohen, GTM 138, sec. 5.4): `minimize_quartic` returns it
without a walk.  It checks the premise in integers first.  A step f2 -= k f1
by a unit k = x + y w changes C by A - x b0 - y b1, and 0 is nearest mu
exactly when no step by one of the 4 resp. 6 units, the Voronoi-relevant
vectors of the order, lowers C.  If one would, the reduction is at fault and
it raises `ArithmeticError`.  Ties C = A take the walk, which lists the
tuples with Q <= A; a value below A contradicts the bound and also raises.

Multiplying (s1, s2) by a unit names the same curve and keeps Q, and units
commute with the basis change, which is linear over the order.  So the walk
scans one fundamental domain of the unit group in reduced coordinates: a > 0
and b >= 0, or a = b = 0 with c > 0 and d >= 0.  In the coordinates (a, b)
this is the half-open cone spanned by 1 and w (90 resp. 60 degrees wide), and
its images under the 4 resp. 6 units tile the plane minus the origin; when
s1 = 0 the units act on s2 alone.  Each minimizer (a, b, c, d) found is
mapped back in one pass: the ring product (a + b w) f1 + (c + d w) f2 in
plain integers, then the smallest tuple of its unit orbit (`_orbit_min`, a
running minimum over the unit multiples), the one normal form of a curve.

The walk is Fincke-Pohst style: each coordinate runs over the exact integer
window that the previous ones leave for Q <= A, in exact integers.
"""
from __future__ import annotations

from math import isqrt

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


def _value(t: int, a1: int, a2: int, a3: int, a4: int,
           a: int, b: int, c: int, d: int) -> int:
    r1, r2, r3, r4 = _raw_degrees(t, a, b, c, d)
    return a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4


def _times_w(t: int, v: Tuple4) -> Tuple4:
    """(s1, s2) -> (w s1, w s2): w (x + y w) = -y + (x + t y) w."""
    a, b, c, d = v
    return (-b, a + t * b, -d, c + t * d)


def _orbit_min(t: int, v: Tuple4) -> Tuple4:
    """The least of the 4 resp. 6 multiples of v by the powers of w (the orbit
    `cm.unit_orbit` lists), as a running minimum without building the orbit."""
    best = v
    a, b, c, d = v
    for _ in range(3 + 2 * t):
        a, b, c, d = u = -b, a + t * b, -d, c + t * d
        if u < best:
            best = u
    return best


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


def quartic_min_box(t: int, A: int, C: int, b0: int, b1: int) -> list[Tuple4]:
    """Every domain tuple where the reduced form (A, C, b0, b1) takes A.

    Walks the domain tuples with Q <= A, the value at (1, 0, 0, 0): one per
    unit orbit of the curves of degree A.  A value below A contradicts the
    module docstring's bound and raises `ArithmeticError`.  `minimize_quartic`
    calls it only on ties C = A.  The name is older than the reduction; the
    benchmark's tracer measures the walk under it.
    """
    m = 4 - t * t
    # minimizing over real (c, d) gives the branch bound delta n(a, b) <= m C Q,
    # and n(a, b) >= a^2 on the domain's b >= 0
    delta = m * A * C - (b0 * b0 - t * b0 * b1 + b1 * b1)
    mins = []
    a = 0
    while delta * a * a <= m * C * A:
        if a:
            blo, bhi = _quad_window(delta, delta * t * a, delta * a * a - m * C * A)
            bs = range(max(blo, 0), bhi + 1)
        else:  # s1 = 0: the units act on s2 alone
            bs = (0,)
        for b in bs:
            Lc = a * b0 + b * b1
            Ld = a * (t * b0 - b1) + b * b0
            K = A * (a * a + t * a * b + b * b)
            clo, chi = _quad_window(
                m * C * C, 2 * C * (2 * Lc - t * Ld), 4 * C * (K - A) - Ld * Ld
            )
            for c in range(clo if a else max(clo, 1), chi + 1):
                rest = K + C * c * c + Lc * c
                f = t * C * c + Ld
                dlo, dhi = _lin_window(2 * C, f, f * f - 4 * C * (rest - A))
                for d in range(dlo if a else max(dlo, 0), dhi + 1):
                    if rest + d * (C * d + f) < A:
                        raise ArithmeticError("a value below the reduced form's A")
                    mins.append((a, b, c, d))
        a += 1
    return mins


def minimize_quartic(t: int, coeffs: Tuple4) -> tuple[int, list[Tuple4]]:
    """Minimum of the degree expression of `coeffs` over nonzero tuples.

    Returns the minimum with the sorted list of the curves attaining it, each
    as the smallest tuple of its unit orbit.  Raises `ValueError` when the
    form is not positive definite, and `ArithmeticError` when the reduced
    form fails the integer check that 0 is the ring element nearest mu or
    the walk finds a value below A.
    """
    a1, a2, a3, a4 = coeffs
    A, C = a1 + a3 + a4, a2 + a3 + a4
    b0, b1 = -2 * a3 - t * a4, (2 - t) * a4 - t * a3
    if not (A > 0 and (4 - t * t) * A * C > b0 * b0 - t * b0 * b1 + b1 * b1):
        raise ValueError("degree form is not positive definite")
    A, C, b0, b1, f1, f2 = _reduce(t, A, C, b0, b1)
    # the unit steps change C by A - b0, A + b0, A - b1, A + b1 and, on Z[w],
    # A + b0 - b1, A - b0 + b1
    if not (A >= abs(b0) and A >= abs(b1) and (not t or A >= abs(b1 - b0))):
        raise ArithmeticError("a unit step lowers the reduced form's C")
    if C > A:  # the module docstring's bound: only f1's orbit reaches A
        return A, [_orbit_min(t, f1)]
    mins = quartic_min_box(t, A, C, b0, b1)
    p0, p1, p2, p3 = f1
    q0, q1, q2, q3 = f2
    out = []
    for a, b, c, d in mins:
        # (a + b w) (x + y w) = (a x - b y) + (a y + b x + t b y) w
        out.append(_orbit_min(t, (
            a * p0 - b * p1 + c * q0 - d * q1,
            a * p1 + b * (p0 + t * p1) + c * q1 + d * (q0 + t * q1),
            a * p2 - b * p3 + c * q2 - d * q3,
            a * p3 + b * (p2 + t * p3) + c * q3 + d * (q2 + t * q3),
        )))
    out.sort()
    return A, out
