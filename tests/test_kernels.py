import random
from itertools import product

import pytest

from scan_references import in_domain, naive_domain_min
from seshadri import kernels
from seshadri.cm import unit_orbit
from seshadri.kernels import _lin_window, _quad_window, _value
from seshadri.lattice import Surface


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


def test_backend_and_prune_parity():
    # the pruned domain walk against the naive domain scan on the same inputs
    rng = random.Random(17)
    for _ in range(40):
        kind = rng.choice([kernels.GAUSSIAN, kernels.EISENSTEIN])
        coeffs = _random_definite(rng, kind)
        radius = rng.randint(2, 6)
        best0 = coeffs[0] + coeffs[2] + coeffs[3]  # value at (1, 0, 0, 0)
        pruned = kernels.minimize_quartic(kind, coeffs, radius, best0)
        naive = naive_domain_min(kind, coeffs, radius, best0)
        assert pruned == naive, (kind, coeffs, radius)


def test_pure_fallback_for_oversized_inputs():
    # coefficients far past any fixed-width integer budget still scan exactly
    coeffs = (10**6, 10**6, -1, -1)
    b, m = kernels.quartic_min_box(kernels.GAUSSIAN, coeffs, 1, 10**6)
    want_val = min(
        v
        for v in (
            coeffs[0] + coeffs[2] + coeffs[3],
            coeffs[1] + coeffs[2] + coeffs[3],
        )
    )
    assert b <= want_val


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
