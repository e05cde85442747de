import random
from itertools import product

import pytest

from scan_references import assert_one_minimizer_per_orbit, in_domain, naive_domain_min
from seshadri import cm, kernels, oracle
from seshadri.cm import search_bound, unit_orbit
from seshadri.kernels import _lin_window, _quad_window, _value
from seshadri.lattice import Surface, ns_class

SURFACES = (Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN)  # indexed by kind


def _random_definite(rng, kind):
    while True:
        coeffs = tuple(rng.randint(-6, 7) for _ in range(4))
        a1, a2, a3, a4 = coeffs
        A, C = a1 + a3 + a4, a2 + a3 + a4
        cross = a3 * a3 + a4 * a4 if kind == kernels.GAUSSIAN else a3 * a3 + a3 * a4 + a4 * a4
        if A > 0 and C > 0 and A * C - cross > 0:
            return coeffs


def test_quad_window_against_scan():
    rng = random.Random(3)
    for _ in range(300):
        alpha = rng.randint(1, 9)
        beta = rng.randint(-20, 20)
        gamma = rng.randint(-60, 30)
        lo, hi = _quad_window(alpha, beta, gamma)
        want = [x for x in range(-100, 101) if alpha * x * x + beta * x + gamma <= 0]
        got = list(range(lo, hi + 1))
        assert got == want


def test_lin_window_against_scan():
    rng = random.Random(4)
    for _ in range(300):
        e = rng.randint(1, 9)
        f = rng.randint(-30, 30)
        bound = rng.randint(-10, 400)
        lo, hi = _lin_window(e, f, bound)
        want = [x for x in range(-120, 121) if (e * x + f) ** 2 <= bound]
        assert list(range(lo, hi + 1)) == want


def test_reduced_walk_matches_naive_domain_scan():
    # the reduced walk against the naive domain scan of the paper's box,
    # which holds every minimizer; only classes with small boxes
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        kind = rng.choice([kernels.GAUSSIAN, kernels.EISENSTEIN])
        coeffs = _random_definite(rng, kind)
        radius = int(search_bound(ns_class(SURFACES[kind], coeffs)))
        if radius > 10:
            continue
        checked += 1
        best0 = coeffs[0] + coeffs[2] + coeffs[3]  # value at (1, 0, 0, 0)
        best, mins = naive_domain_min(kind, coeffs, radius, best0)
        naive = best, sorted(cm.canonical_tuple(t, SURFACES[kind]) for t in mins)
        assert kernels.minimize_quartic(kind, coeffs) == naive, (kind, coeffs, radius)


def test_oversized_inputs_match_oracle():
    # coefficients far past any fixed-width integer budget
    for surface in SURFACES:
        L = ns_class(surface, (10**6, 10**6, -1, -1))
        best, mins = kernels.minimize_quartic(cm._KIND[surface], L.coeffs)
        report = oracle.min_quadratic_form(cm.degree_form(L))
        assert best == oracle.cm_seshadri(L) == report.minimum, surface
        assert_one_minimizer_per_orbit(mins, report.minimizers, surface)


def test_indefinite_form_raises():
    # a real check, not an assert: the reduction needs a definite form
    for kind, coeffs in ((kernels.GAUSSIAN, (1, 0, 0, 0)), (kernels.EISENSTEIN, (1, 1, -3, 0))):
        with pytest.raises(ValueError, match="not positive definite"):
            kernels.minimize_quartic(kind, coeffs)


def test_naive_box_is_exhaustive_small():
    # tiny box recomputed literally: the naive domain scan keeps exactly the
    # box minimizers in the domain, one per unit orbit
    kind = kernels.GAUSSIAN
    coeffs = (2, 2, -1, 1)
    best, mins = naive_domain_min(kind, coeffs, 2, 10**9)
    lit = {}
    for t in product(range(-2, 3), repeat=4):
        if any(t):
            lit.setdefault(_value(kind, *coeffs, *t), []).append(t)
    assert best == min(lit)
    assert mins == sorted(t for t in lit[best] if in_domain(t))
    assert 4 * len(mins) == len(lit[best])


@pytest.mark.parametrize("surface", [Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN])
def test_domain_meets_each_unit_orbit_once(surface):
    for t in product(range(-3, 4), repeat=4):
        if any(t):
            assert sum(map(in_domain, unit_orbit(t, surface))) == 1, t
