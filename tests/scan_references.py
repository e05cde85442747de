"""Reference scans for the closed forms of both ranks.

`_value` is the rank-4 degree expression in class coordinates, the raw
degrees dotted with the coefficients, as `kernels` held it before it stated
Q on the form alone: the form-free reference for `kernels._form_value`.
`_lin_window` and `_quad_window` are the exact `isqrt` windows of the
integer solutions of a quadratic inequality, which the scans here use.
`domain_walk` is `kernels.quartic_min_box` as it stood before the candidate
list: a Fincke-Pohst walk over one fundamental domain of the unit group
(`in_domain`) in reduced coordinates, listing the tuples of value at most
A.  `naive_domain_min` is the plain quadruple loop over that domain in the
box; at the radius of `cm.search_bound`, which holds every minimizer, it is
the small-radius reference for `kernels.minimize_quartic`.
`half_box_seshadri` is the rank-4 computation as it stood before the domain
walk: the pruned walk over the half-box a >= 0, which meets each curve
through several unit multiples, followed by `cm.reduce_tuple` and
`cm.canonical_tuple` on every minimizer.  `count_walks` counts the tie
listings (`kernels.quartic_min_box` calls) that `kernels.minimize_quartic`
runs, which it skips when the reduced form has C > A, and
`count_loop_passes` the passes of a reduction's loop.

`paper_seshadri_constant` and `paper_submaximal_curves` are the paper's
rank-3 formula, the reference for the reduced-form computation in `nocm`:
sort the coefficients, take the basis curves and the exact-ratio pair, and
scan every s = c + d below the paper's bound, then carry the pairs back
through the sort permutation with `nocm.class_to_pair`.

`envelope_curves` and `two_pass_section` are `cross_section.cross_section`
as it stood before the fused pass: the list of candidate pairs, F2 included,
then the integer hull over that list with the equal-s rule (the lower line
wins, and on a tie the first listed).

`full_bareiss`, `windowed_search` and `windowed_minimize` are the oracle's
core as it stood before the window-free walk: Bareiss's elimination over the
whole trailing block, and a walk that bounds each level by an exact `isqrt`
window.  `tuple_min_reduce` is `kernels._reduce` as it stood before the
corner comparisons: it picks the corner by the `min` of four tuples.
"""
import inspect
import sys
from itertools import chain, product
from math import gcd, isqrt, lcm

from seshadri import cm, kernels
from seshadri.cross_section import CrossSection
from seshadri.kernels import Tuple4, _raw_degrees
from seshadri.lattice import require_ample, self_intersection
from seshadri.nocm import SeshadriResult, canonical_pair, class_to_pair


def _value(t: int, a1: int, a2: int, a3: int, a4: int,
           a: int, b: int, c: int, d: int) -> int:
    r1, r2, r3, r4 = _raw_degrees(t, a, b, c, d)
    return a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4


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


def domain_walk(t: int, A: int, C: int, b0: int, b1: int) -> list[Tuple4]:
    """Every domain tuple where the reduced form (A, C, b0, b1) takes A.

    Walks the domain tuples with Q <= A, the value at (1, 0, 0, 0): one per
    unit orbit of the curves of degree A.  A value below A raises
    `ArithmeticError`.  The walk is Fincke-Pohst style: each coordinate runs
    over the exact integer window that the previous ones leave for Q <= A.
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


def in_domain(t):
    """a > 0 and b >= 0, or a = b = 0 with c > 0 and d >= 0."""
    a, b, c, d = t
    return (a > 0 and b >= 0) or (a == b == 0 and c > 0 and d >= 0)


def naive_domain_min(trace, coeffs, radius, best):
    """Minimum over the domain tuples of [-radius, radius]^4, with the
    sorted minimizers, by evaluating the norm-pair expression everywhere."""
    mins = []
    half = range(radius + 1)  # the domain has a, b >= 0
    full = range(-radius, radius + 1)
    for t in product(half, half, full, full):
        if not in_domain(t):
            continue
        q = _value(trace, *coeffs, *t)
        if q < best:
            best, mins = q, [t]
        elif q == best:
            mins.append(t)
    return best, mins


def half_box_min(trace, coeffs, radius, best):
    """Pruned walk over a in [0, radius], b, c, d in [-radius, radius]."""
    a1, a2, a3, a4 = coeffs
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    mins = []
    if trace == 0:
        delta = A * C - a3 * a3 - a4 * a4
    else:
        delta = A * C - (a3 * a3 + a3 * a4 + a4 * a4)
    for a in range(radius + 1):
        if trace == 0:
            if delta * a * a > C * best:
                break
            blo, bhi = _quad_window(delta, 0, delta * a * a - C * best)
        else:
            if 3 * delta * a * a > 4 * C * best:
                break
            blo, bhi = _quad_window(delta, delta * a, delta * a * a - C * best)
        for b in range(max(blo, -radius), min(bhi, radius) + 1):
            for c, d in _cd_pairs(trace, a3, a4, A, C, a, b, radius, best):
                if a == 0 and b == 0 and c == 0 and d == 0:
                    continue
                q = _value(trace, a1, a2, a3, a4, a, b, c, d)
                if q < best:
                    best, mins = q, [(a, b, c, d)]
                elif q == best:
                    mins.append((a, b, c, d))
    return best, sorted(mins)


def _cd_pairs(trace, a3, a4, A, C, a, b, radius, best):
    # (c, d) in the box with Q(a, b, c, d) <= best, from the exact windows
    if trace == 0:
        u = -a3 * a + a4 * b
        v = -a4 * a - a3 * b
        K = A * (a * a + b * b)
        clo, chi = _quad_window(C * C, 2 * C * u, C * (K - best) - v * v)
        for c in range(max(clo, -radius), min(chi, radius) + 1):
            S = C * (best - K - C * c * c - 2 * u * c) + v * v
            dlo, dhi = _lin_window(C, v, S)
            for d in range(max(dlo, -radius), min(dhi, radius) + 1):
                yield c, d
        return
    U = -(2 * a3 + a4) * a + (a4 - a3) * b
    V = -(a3 + 2 * a4) * a - (2 * a3 + a4) * b
    K = A * (a * a + a * b + b * b)
    clo, chi = _quad_window(3 * C * C, 2 * C * (2 * U - V), 4 * C * (K - best) - V * V)
    for c in range(max(clo, -radius), min(chi, radius) + 1):
        f = C * c + V
        S = f * f + 4 * C * (best - (C * c * c + U * c + K))
        dlo, dhi = _lin_window(2 * C, f, S)
        for d in range(max(dlo, -radius), min(dhi, radius) + 1):
            yield c, d


#: The warm-start tuples of the half-box computation.
HALF_BOX_WARM = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0),
                 (1, 0, 1, 0), (1, 0, 0, 1))


def half_box_seshadri(L):
    """`cm.seshadri_constant` by the half-box walk and `cm.reduce_tuple`."""
    bound = cm.search_bound(L)
    best0 = min(cm.degree_value(L, t) for t in HALF_BOX_WARM)
    radius = bound.numerator // bound.denominator
    best, mins = half_box_min(L.surface.trace, L.coeffs, radius, best0)
    by_degrees = {}
    for t in mins:
        rep = cm.canonical_tuple(cm.reduce_tuple(t, L.surface), L.surface)
        vec = cm.degree_vector(rep, L.surface)
        if vec not in by_degrees or rep < by_degrees[vec]:
            by_degrees[vec] = rep
    witnesses = tuple(cm.CMWitness(vec, by_degrees[vec]) for vec in sorted(by_degrees))
    return SeshadriResult(best, witnesses)


def assert_one_minimizer_per_orbit(mins, oracle_minimizers, surface):
    """The kernel's minimizers meet each unit orbit of the oracle's
    minimizers exactly once, each as the smallest tuple of its orbit."""
    for t in mins:
        assert t == min(cm.unit_orbit(t, surface)), ("not the orbit minimum", t)
    orbits = [cm.canonical_tuple(t, surface) for t in mins]
    assert len(set(orbits)) == len(orbits), ("two minimizers in one orbit", mins)
    want = {cm.canonical_tuple(t, surface) for t in oracle_minimizers}
    assert set(orbits) == want, (mins, sorted(want))


def count_walks(monkeypatch):
    """Count the calls of `kernels.quartic_min_box`, the tie listing, from
    here on: returns a one-element list that holds the count."""
    walks = [0]
    walk = kernels.quartic_min_box

    def counted(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(kernels, "quartic_min_box", counted)
    return walks


def count_loop_passes(fn, first_statement, run):
    """The passes `run()` makes through the loop of `fn` whose first
    statement reads `first_statement`: `sys.settrace` line events on that
    line, in `fn`'s frames only.  The tracer in place before is restored."""
    lines, start = inspect.getsourcelines(fn)
    hits = [start + i for i, line in enumerate(lines) if line.strip() == first_statement]
    if len(hits) != 1:
        raise LookupError(f"{first_statement!r} is on {len(hits)} lines of {fn.__name__}")
    code, lineno, passes = fn.__code__, hits[0], [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == lineno:
            passes[0] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(old)
    return passes[0]


def _sort_descending(coeffs):
    order = sorted(range(3), key=lambda i: -coeffs[i])
    return tuple(coeffs[i] for i in order), order


def _unsort_pair(pair, order):
    """Transport a curve pair from the sorted coordinate frame back."""
    c, d = pair
    sorted_class = (c * (c + d), d * (c + d), -c * d)
    original = [0, 0, 0]
    for j, idx in enumerate(order):
        original[idx] = sorted_class[j]
    return class_to_pair(tuple(original))


def _pair_range_limit(a1, a2):
    """Largest s = c + d with 2 s^2 < (a1 + a2)^2.

    Since 2 s^2 = t^2 has no integer solutions, the strict and closed
    inequalities cut out the same integer range.
    """
    return isqrt(((a1 + a2) * (a1 + a2) - 1) // 2)


def _scan_pairs(a1, a2, a3, threshold, s_max):
    """Positive pairs (c, d), c + d <= s_max, whose degree is <= threshold.

    The degree a2 c^2 + a1 d^2 + a3 (c+d)^2 is positive definite for ample
    coefficients, so for fixed s = c + d it is a parabola in c and its
    minimum over the whole s-slice is s^2 (a1 a2 + a1 a3 + a2 a3)/(a1 + a2);
    both facts give exact integer windows, keeping the scan proportional to
    the number of hits rather than to s_max^2.
    """
    delta = a1 * a2 + a1 * a3 + a2 * a3
    top = a1 + a2
    for s in range(2, s_max + 1):
        if delta * s * s > threshold * top:
            break
        clo, chi = _quad_window(top, -2 * a1 * s, (a1 + a3) * s * s - threshold)
        for c in range(max(clo, 1), min(chi, s - 1) + 1):
            d = s - c
            v = a2 * c * c + a1 * d * d + a3 * s * s
            if v <= threshold:
                yield c, d, v


def paper_seshadri_constant(L):
    """`nocm.seshadri_constant` by the paper's formula.

    After sorting the coefficients in descending order (a permutation of the
    basis is an isometry here), the constant is the minimum of
      (1) the basis-curve degree a2 + a3,
      (2) the degree of the exact-ratio curve N_{a1/g, a2/g}, g = gcd(a1, a2),
      (3) a1 d^2 + a2 c^2 + a3 (c+d)^2 over pairs with c, d >= 1 and
          2 (c+d)^2 < (a1 + a2)^2.
    The scan in (3) skips coprimality tests for the minimum; witnesses are
    restricted to coprime pairs, which always attain the same minimum.
    """
    require_ample(L)
    (a1, a2, a3), order = _sort_descending(L.coeffs)

    deg_f1, deg_f2, deg_delta = a2 + a3, a1 + a3, a1 + a2
    best = deg_f1

    g = gcd(a1, a2)
    rc, rd = ratio_pair = (a1 // g, a2 // g)
    ratio_deg = a2 * rc * rc + a1 * rd * rd + a3 * (rc + rd) ** 2
    best = min(best, ratio_deg)

    delta = a1 * a2 + a1 * a3 + a2 * a3
    s_max = _pair_range_limit(a1, a2)
    for s in range(2, s_max + 1):
        if delta * s * s > best * (a1 + a2):
            break
        clo, chi = _quad_window(a1 + a2, -2 * a1 * s, (a1 + a3) * s * s - best)
        for c in range(max(clo, 1), min(chi, s - 1) + 1):
            v = a2 * c * c + a1 * (s - c) ** 2 + a3 * s * s
            if v < best:
                best = v

    witnesses = set()
    for pair, deg in (((1, 0), deg_f1), ((0, 1), deg_f2), ((1, -1), deg_delta)):
        if deg == best:
            witnesses.add(pair)
    if ratio_deg == best:
        witnesses.add(ratio_pair)
    for c, d, v in _scan_pairs(a1, a2, a3, best, s_max):
        if v == best and gcd(c, d) == 1:
            witnesses.add((c, d))

    mapped = frozenset(_unsort_pair(w, order) for w in witnesses)
    return SeshadriResult(best, mapped)


def paper_submaximal_curves(L, weak=False):
    """`nocm.submaximal_curves` by the paper's formula.

    The candidate range is the one of `paper_seshadri_constant` item (3)
    plus the basis curves and the exact-ratio pair; outside it the necessary
    inequality (a1+a2)^2 >= 2 (a1 d - a2 c)^2 (c+d)^2 fails.
    """
    require_ample(L)
    (a1, a2, a3), order = _sort_descending(L.coeffs)
    square = self_intersection(L)
    threshold = isqrt(square) if weak else isqrt(square - 1)

    found = set()
    for pair, deg in (
        ((1, 0), a2 + a3),
        ((0, 1), a1 + a3),
        ((1, -1), a1 + a2),
    ):
        if deg <= threshold:
            found.add(pair)

    g = gcd(a1, a2)
    rc, rd = a1 // g, a2 // g
    if a2 * rc * rc + a1 * rd * rd + a3 * (rc + rd) ** 2 <= threshold:
        found.add((rc, rd))

    for c, d, _ in _scan_pairs(a1, a2, a3, threshold, _pair_range_limit(a1, a2)):
        if gcd(c, d) == 1:
            found.add((c, d))

    return frozenset(_unsort_pair(w, order) for w in found)


def canonical_pair_curves_up_to(form, threshold):
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


def envelope_curves(lam):
    """Curve pairs that can be weakly submaximal somewhere on the ray.

    Besides the basis curves, the pairs (c, d), c, d >= 1, with
    2 k^2 s^2 <= S^2 (S = p + q, s = c + d, k = |q s - S c|): the
    convergents and intermediate fractions c/s of q/S that the bound leaves,
    found level by level with one `_quad_window` per partial quotient.  The
    list has no repeats and is in hull order: Delta (s = 0), F1 = (1, 0) and
    F2 = (0, 1) (s = 1), then strictly rising s.
    """
    p, q = lam.numerator, lam.denominator
    S = p + q
    M = isqrt(S * S // 2)  # k s <= M  <=>  2 k^2 s^2 <= S^2
    pairs = [(1, -1)]
    # Convergents h2/t2, h1/t1 of q/S from 1/0, 0/1; A, B their |q t - S h|.
    h2, t2, h1, t1 = 1, 0, 0, 1
    A, B = S, q
    while B:
        a = A // B
        lo, hi = _quad_window(B * t1, B * t2 - A * t1, M + 1 - A * t2)
        for j in chain(range(1, min(lo, a + 1)), range(max(hi, 0) + 1, a + 1)):
            c = h2 + j * h1
            pairs.append((c, t2 + j * t1 - c))
        h2, t2, h1, t1 = h1, t1, h2 + a * h1, t2 + a * t1
        A, B = B, A - a * B
    pairs.insert(2, (0, 1))  # F2, right after F1 = pairs[1]
    return pairs


def two_pass_section(lam, pairs=None):
    """The integer hull over `pairs` (default: `envelope_curves(lam)`), by
    non-decreasing s; on equal s the smaller intercept wins, and then the
    first line.  Raises `ArithmeticError` on falling s, and when the
    envelope does not vanish at mu_max."""
    p, q = lam.numerator, lam.denominator
    S = p + q
    hull, starts = [], []
    for pair in envelope_curves(lam) if pairs is None else pairs:
        c, d = pair
        k, b = (c + d) ** 2, q * d * d + p * c * c
        if hull and k <= hull[-1][0]:
            if k < hull[-1][0]:
                raise ArithmeticError(f"candidates of lambda = {lam} out of order")
            if b >= hull[-1][1]:
                continue
            del hull[-1], starts[-1:]
        while hull:
            k0, b0, _ = hull[-1]
            num, den = b - b0, q * (k - k0)
            if starts and num * starts[-1][1] <= starts[-1][0] * den:
                del hull[-1], starts[-1]
            else:
                starts.append((num, den))
                break
        hull.append((k, b, pair))
    k, b, _ = hull[-1]
    if b * S != q * k * p:
        raise ArithmeticError(f"envelope of lambda = {lam} does not vanish at mu_max")
    return CrossSection(lam, tuple(starts), tuple(hull))


def full_bareiss(a):
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


def windowed_search(levels, best):
    """The least P s Q(x) <= best over nonzero x, and every x attaining it.

    Level i is (D_{i+1}, w_i = P / (D_i D_{i+1}), the nonzero terms (j, B_ij)
    of N_i).  Returns (best, []) if no value is at most `best`.  Of each pair
    +-x, only the x whose last nonzero coordinate is positive is visited.
    """
    x = [0] * len(levels)
    found = []
    running = best
    d0, w0, terms0 = levels[0]

    # `free`: some coordinate of x above the level is nonzero; `_` is level 0
    def last(_, partial, free):
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

    # |d t + centre| <= r  <=>  w (d t + centre)^2 <= running - partial, which
    # is >= 0 on entry.  A nonempty window holds t0, the t nearest its centre;
    # the value grows away from t0 while `running` falls, so each direction
    # ends at its first value above it.  x above zero makes centre, t0 and lo 0.
    def walk(i, partial, free):
        d, w, terms = levels[i]
        down = walk if i > 1 else last
        r = isqrt((running - partial) // w)
        centre = 0
        for j, b in terms:
            centre += b * x[j]
        t = t0 = (d // 2 - centre) // d
        hi = (r - centre) // d
        while t <= hi:
            y = d * t + centre
            value = partial + w * y * y
            if value > running:
                break
            x[i] = t
            down(i - 1, value, free or t != 0)
            t += 1
        t, lo = t0 - 1, (-((r + centre) // d) if free else 0)
        while t >= lo:
            y = d * t + centre
            value = partial + w * y * y
            if value > running:
                break
            x[i] = t
            down(i - 1, value, True)
            t -= 1

    (walk if len(levels) > 1 else last)(len(levels) - 1, 0, False)
    return running, found


def windowed_minimize(a):
    """The search on the integer matrix a: (P, P * m, the minimizers).

    m is the least value of x^T a x over nonzero integer x, and the
    minimizers are every x attaining it, one of each pair +-x, the one whose
    last nonzero coordinate is positive.  `windowed_search` walks
    `full_bareiss`'s levels from P times the least diagonal entry, a value
    the form takes, so its one pass finds every minimizer.  Raises
    `ValueError` if a is not positive definite.
    """
    n = len(a)
    minors, rows = full_bareiss(a)
    if min(minors) <= 0:
        raise ValueError("not positive definite")
    scale = lcm(*[minors[i] * minors[i + 1] for i in range(n)])
    levels = []
    for i, row in enumerate(rows):
        terms = [(j, row[j]) for j in range(i + 1, n) if row[j]]
        levels.append((minors[i + 1], scale // (minors[i] * minors[i + 1]), terms))
    best, pts = windowed_search(levels, scale * min([a[i][i] for i in range(n)]))
    return scale, best, pts


def tuple_min_reduce(t, A, C, b0, b1):
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
