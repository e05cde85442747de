"""Reference scans for the rank-4 kernel and `cm.seshadri_constant`.

`naive_domain_min` is the plain quadruple loop over the unit group's
fundamental domain in the box; it is the small-radius reference for the
pruned domain walk.  `half_box_seshadri` is the rank-4 computation as it
stood before the domain walk: the pruned walk over the half-box a >= 0,
which meets each curve through several unit multiples, followed by
`cm.reduce_tuple` and `cm.canonical_tuple` on every minimizer.
"""
from itertools import product

from seshadri import cm, kernels
from seshadri.kernels import _lin_window, _quad_window, _value


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
    minimizers exactly once."""
    orbits = [cm.canonical_tuple(t, surface) for t in mins]
    assert len(set(orbits)) == len(orbits), ("two minimizers in one orbit", mins)
    want = {cm.canonical_tuple(t, surface) for t in oracle_minimizers}
    assert set(orbits) == want, (mins, sorted(want))
