"""Reference scans for the closed forms of both ranks.

`naive_domain_min` is the plain quadruple loop over the unit group's
fundamental domain in the box; at the radius of `cm.search_bound`, which
holds every minimizer, it is the small-radius reference for the reduced
walk of `kernels`.  `half_box_seshadri` is the rank-4 computation as it
stood before the domain walk: the pruned walk over the half-box a >= 0,
which meets each curve through several unit multiples, followed by
`cm.reduce_tuple` and `cm.canonical_tuple` on every minimizer.

`paper_seshadri_constant` and `paper_submaximal_curves` are the paper's
rank-3 formula, the reference for the reduced-form computation in `nocm`:
sort the coefficients, take the basis curves and the exact-ratio pair, and
scan every s = c + d below the paper's bound, then carry the pairs back
through the sort permutation with `nocm.class_to_pair`.
"""
from itertools import product
from math import gcd, isqrt

from seshadri import cm, kernels
from seshadri.kernels import _lin_window, _quad_window, _value
from seshadri.lattice import require_ample, self_intersection
from seshadri.nocm import SeshadriResult, class_to_pair


def in_domain(t):
    """a > 0 and b >= 0, or a = b = 0 with c > 0 and d >= 0."""
    a, b, c, d = t
    return (a > 0 and b >= 0) or (a == b == 0 and c > 0 and d >= 0)


def naive_domain_min(kind, coeffs, radius, best):
    """Minimum over the domain tuples of [-radius, radius]^4, with the
    sorted minimizers, by evaluating the norm-pair expression everywhere."""
    mins = []
    half = range(radius + 1)  # the domain has a, b >= 0
    full = range(-radius, radius + 1)
    for t in product(half, half, full, full):
        if not in_domain(t):
            continue
        q = _value(kind, *coeffs, *t)
        if q < best:
            best, mins = q, [t]
        elif q == best:
            mins.append(t)
    return best, mins


def half_box_min(kind, coeffs, radius, best):
    """Pruned walk over a in [0, radius], b, c, d in [-radius, radius]."""
    a1, a2, a3, a4 = coeffs
    A = a1 + a3 + a4
    C = a2 + a3 + a4
    mins = []
    if kind == kernels.GAUSSIAN:
        delta = A * C - a3 * a3 - a4 * a4
    else:
        delta = A * C - (a3 * a3 + a3 * a4 + a4 * a4)
    for a in range(radius + 1):
        if kind == kernels.GAUSSIAN:
            if delta * a * a > C * best:
                break
            blo, bhi = _quad_window(delta, 0, delta * a * a - C * best)
        else:
            if 3 * delta * a * a > 4 * C * best:
                break
            blo, bhi = _quad_window(delta, delta * a, delta * a * a - C * best)
        for b in range(max(blo, -radius), min(bhi, radius) + 1):
            for c, d in _cd_pairs(kind, a3, a4, A, C, a, b, radius, best):
                if a == 0 and b == 0 and c == 0 and d == 0:
                    continue
                q = _value(kind, a1, a2, a3, a4, a, b, c, d)
                if q < best:
                    best, mins = q, [(a, b, c, d)]
                elif q == best:
                    mins.append((a, b, c, d))
    return best, sorted(mins)


def _cd_pairs(kind, a3, a4, A, C, a, b, radius, best):
    # (c, d) in the box with Q(a, b, c, d) <= best, from the exact windows
    if kind == kernels.GAUSSIAN:
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
    kind = cm._KIND[L.surface]
    best0 = min(cm.degree_value(L, t) for t in HALF_BOX_WARM)
    best, mins = half_box_min(kind, L.coeffs, bound.numerator // bound.denominator, best0)
    by_degrees = {}
    for t in mins:
        rep = cm.canonical_tuple(cm.reduce_tuple(t, L.surface), L.surface)
        vec = cm.degree_vector(rep, L.surface)
        if vec not in by_degrees or rep < by_degrees[vec]:
            by_degrees[vec] = rep
    witnesses = tuple(cm.CMWitness(vec, by_degrees[vec]) for vec in sorted(by_degrees))
    return cm.CMSeshadriResult(best, witnesses)


def assert_one_minimizer_per_orbit(mins, oracle_minimizers, surface):
    """The kernel's minimizers meet each unit orbit of the oracle's
    minimizers exactly once, each as the smallest tuple of its orbit."""
    for t in mins:
        assert t == min(cm.unit_orbit(t, surface)), ("not the orbit minimum", t)
    orbits = [cm.canonical_tuple(t, surface) for t in mins]
    assert len(set(orbits)) == len(orbits), ("two minimizers in one orbit", mins)
    want = {cm.canonical_tuple(t, surface) for t in oracle_minimizers}
    assert set(orbits) == want, (mins, sorted(want))


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
