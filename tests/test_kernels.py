import random
from itertools import product

from seshadri import kernels
from seshadri.kernels import _lin_window, _quad_window, _value


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
    # the pruned walk against the naive reference box on the same inputs
    rng = random.Random(17)
    for _ in range(40):
        kind = rng.choice([kernels.GAUSSIAN, kernels.EISENSTEIN])
        coeffs = _random_definite(rng, kind)
        radius = rng.randint(2, 6)
        best0 = coeffs[0] + coeffs[2] + coeffs[3]  # value at (1, 0, 0, 0)
        pruned = kernels.minimize_quartic(kind, coeffs, radius, best0)
        naive = kernels.minimize_quartic(kind, coeffs, radius, best0, prune=False)
        assert pruned == naive, (kind, coeffs, radius)


def test_pure_fallback_for_oversized_inputs():
    # coefficients far past any fixed-width integer budget still scan exactly
    coeffs = (10**6, 10**6, -1, -1)
    b, m = kernels.quartic_min_box(kernels.GAUSSIAN, coeffs, 1, 0, 1, 10**6, True)
    want_val = min(
        v
        for v in (
            coeffs[0] + coeffs[2] + coeffs[3],
            coeffs[1] + coeffs[2] + coeffs[3],
        )
    )
    assert b <= want_val


def test_naive_box_is_exhaustive_small():
    # tiny box recomputed literally
    kind = kernels.GAUSSIAN
    coeffs = (2, 2, -1, 1)
    best, mins = kernels.quartic_min_box(kind, coeffs, 2, 0, 2, 10**9, False)
    lit = {}
    for t in product(range(0, 3), range(-2, 3), range(-2, 3), range(-2, 3)):
        if any(t):
            lit.setdefault(_value(kind, *coeffs, *t), []).append(t)
    assert best == min(lit)
    assert sorted(mins) == sorted(lit[best])
