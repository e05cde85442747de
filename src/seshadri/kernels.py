"""Rank-4 minimum: one Gauss reduction, and a fixed candidate list on ties, for both CM surfaces.

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
Afterwards C >= A and 0 is the ring element nearest mu, so |mu|^2 <= rho^2,
the squared covering radius of the order (1/2 on Z[i], 1/3 on Z[w]), and

    Q = A n(s1 + mu s2) + (C - A |mu|^2) n(s2).

Units keep Q, so each curve of degree A has a tuple of one of three kinds
(Cohen, GTM 138, sec. 5.4):
- s2 = 0: Q = A n(s1) is A for a unit s1 only, f1's orbit (1, 0, 0, 0).
- s2 = 1, s1 = -k: Q = C + A (|k - mu|^2 - |mu|^2) >= C is A exactly when
  C = A and |k - mu| = |mu|.  Then |k| <= 2 |mu| <= 2 rho, so k is 0, a
  unit or, on Z[i] only, +-1 +-i: the tuples (-x, -y, 1, 0).
- n(s2) >= 2: Q >= n(s2) A (1 - |mu|^2) > A, unless C = A, n(s2) = 2 and
  |mu|^2 = 1/2 on Z[i] (on Z[w], n(s2) >= 3 gives Q >= 2A).  Then s2 = 1 + i
  up to a unit, and Q = A needs s1 = -mu (1 + i), a unit: (a, b, 1, 1).
So if C > A, f1's orbit is the only curve, and `minimize_quartic` returns it
directly.  It checks the premise in integers first.  A step f2 -= k f1 by a
unit k = x + y w changes C by A - x b0 - y b1, and 0 is nearest mu exactly
when no step by one of the 4 resp. 6 units, the Voronoi-relevant vectors of
the order, lowers C.  If one would, the reduction is at fault and it raises
`ArithmeticError`.  On a tie C = A, `quartic_min_box` keeps those of the
14 resp. 8 candidates whose value is A; a value below A contradicts the
bound and raises `ArithmeticError` too.  Units commute with the basis
change, which is linear over the order, so each kept tuple (a, b, c, d) is
mapped back in one pass: the ring product (a + b w) f1 + (c + d w) f2 in
plain integers, then the smallest tuple of its unit orbit (`_orbit_min`, a
running minimum over the unit multiples), the one normal form of a curve.
"""
from __future__ import annotations

Tuple4 = tuple[int, int, int, int]


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
        # dx, dy and e = dx + dy + t A are the changes of C at the corners
        # (x+1, y), (x, y+1), (x+1, y+1) relative to the one at (x, y).  The
        # least change wins; ties go to (x, y), then (x, y+1), then (x+1, y).
        x = (2 * b0 - t * b1) // (m * A)
        y = (2 * b1 - t * b0) // (m * A)
        dx = A * (2 * x + 1 + t * y) - b0
        dy = A * (2 * y + 1 + t * x) - b1
        e = dx + dy + t * A
        if dy < 0 and dy <= dx and dy <= e:
            y += 1
        elif dx < 0 and dx <= e:
            x += 1
        elif e < 0:
            x, y = x + 1, y + 1
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


#: The module docstring's tie candidates (a, b, c, d), by trace: f1; (-k, 1)
#: for k = 0, the units and, on Z[i], +-1 +-i; on Z[i], (u, 1 + i), u a unit.
_TIE_CANDIDATES = (
    ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 0, 1, 0), (1, 0, 1, 0), (0, -1, 1, 0),
     (0, 1, 1, 0), (-1, -1, 1, 0), (-1, 1, 1, 0), (1, -1, 1, 0), (1, 1, 1, 0),
     (1, 0, 1, 1), (-1, 0, 1, 1), (0, 1, 1, 1), (0, -1, 1, 1)),
    ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 0, 1, 0), (1, 0, 1, 0), (0, -1, 1, 0),
     (0, 1, 1, 0), (1, -1, 1, 0), (-1, 1, 1, 0)),
)


def quartic_min_box(t: int, A: int, C: int, b0: int, b1: int) -> list[Tuple4]:
    """The tuples where the reduced form (A, C, b0, b1) takes A, one per curve.

    Keeps the tie candidates of value A, in reduced coordinates; a value
    below A contradicts the bound and raises `ArithmeticError`.  Called on
    ties C = A only.  The name is older than the reduction; the benchmark's
    tracer measures the tie listing under it.
    """
    mins = []
    for v in _TIE_CANDIDATES[t]:
        a, b, c, d = v
        value = (A * (a * a + t * a * b + b * b) + C * (c * c + t * c * d + d * d)
                 + (a * b0 + b * b1) * c + (a * (t * b0 - b1) + b * b0) * d)
        if value == A:
            mins.append(v)
        elif value < A:
            raise ArithmeticError("a value below the reduced form's A")
    return mins


def minimize_quartic(t: int, form: Tuple4) -> tuple[int, list[Tuple4]]:
    """Minimum of the Hermitian form (A, C, b0, b1) over nonzero tuples.

    Returns the minimum with the sorted list of the curves attaining it, each
    as the smallest tuple of its unit orbit.  Raises `ValueError` when the
    form is not positive definite, as `_reduce` needs, and `ArithmeticError`
    when the reduced form fails the integer check that 0 is the ring element
    nearest mu or a tie candidate's value is below A.
    """
    A, C, b0, b1 = form
    if not (A > 0 and (4 - t * t) * A * C > b0 * b0 - t * b0 * b1 + b1 * b1):
        raise ValueError("degree form is not positive definite")
    A, C, b0, b1, f1, f2 = _reduce(t, A, C, b0, b1)
    # the unit steps change C by A - b0, A + b0, A - b1, A + b1 and, on Z[w],
    # A + b0 - b1, A - b0 + b1
    if not (A >= abs(b0) and A >= abs(b1) and (not t or A >= abs(b1 - b0))):
        raise ArithmeticError("a unit step lowers the reduced form's C")
    if C > A:  # the module docstring's bound: only f1's orbit reaches A
        return A, [_orbit_min(t, f1)]
    p0, p1, p2, p3 = f1
    q0, q1, q2, q3 = f2
    out = []
    for a, b, c, d in quartic_min_box(t, A, C, b0, b1):
        # (a + b w) (x + y w) = (a x - b y) + (a y + b x + t b y) w
        out.append(_orbit_min(t, (
            a * p0 - b * p1 + c * q0 - d * q1,
            a * p1 + b * (p0 + t * p1) + c * q1 + d * (q0 + t * q1),
            a * p2 - b * p3 + c * q2 - d * q3,
            a * p3 + b * (p2 + t * p3) + c * q3 + d * (q2 + t * q3),
        )))
    out.sort()
    return A, out
