import random
from fractions import Fraction as F
from itertools import product

import pytest

from seshadri import oracle
from seshadri.lattice import Surface, ns_class


def _literal_min(gram, radius):
    """Brute double/quadruple loop, the most literal check possible."""
    n = len(gram)
    best = None
    mins = set()
    for x in product(range(-radius, radius + 1), repeat=n):
        if not any(x):
            continue
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if best is None or q < best:
            best, mins = q, set()
        if q == best:
            mins.add(oracle._canonical_sign(x))
    return best, mins


def test_identity_forms():
    rep = oracle.min_quadratic_form(((1, 0), (0, 1)))
    assert rep.minimum == 1 and rep.certified
    assert rep.minimizers == ((0, 1), (1, 0))
    rep = oracle.min_quadratic_form([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert rep.minimum == 1
    assert len(rep.minimizers) == 4


def test_small_2d_example():
    rep = oracle.min_quadratic_form(((2, 1), (1, 2)))
    assert rep.minimum == 2
    best, mins = _literal_min(((2, 1), (1, 2)), 3)
    assert rep.minimum == best and set(rep.minimizers) == mins


def test_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        oracle.min_quadratic_form(((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="symmetric"):
        oracle.min_quadratic_form(((1, 2), (0, 1)))


def _random_pd_gram(rng, n, spread):
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        if oracle.is_positive_definite(g):
            return tuple(tuple(row) for row in g)


def test_windowed_search_matches_literal_scan():
    # scan a box just large enough to hold every reported minimizer: any
    # point in it matching the reported minimum is a global minimizer, so
    # set equality plus the certification flag pins the result down
    rng = random.Random(20)
    for n in (2, 4):
        for _ in range(25 if n == 2 else 10):
            gram = _random_pd_gram(rng, n, 3)
            rep = oracle.min_quadratic_form(gram)
            assert rep.certified
            radius = max(2, *(abs(v) for p in rep.minimizers for v in p))
            best, mins = _literal_min(gram, radius)
            assert rep.minimum == best
            assert set(rep.minimizers) == mins


def test_hermite_bound_on_random_2d_forms():
    rng = random.Random(8)
    for _ in range(60):
        gram = _random_pd_gram(rng, 2, 5)
        rep = oracle.min_quadratic_form(gram)
        det = oracle.leading_minors(gram)[-1]
        assert 3 * rep.minimum**2 <= 4 * det


def test_mahler_bound_on_random_4d_forms():
    rng = random.Random(9)
    for _ in range(25):
        gram = _random_pd_gram(rng, 4, 3)
        rep = oracle.min_quadratic_form(gram)
        det = oracle.leading_minors(gram)[-1]
        assert rep.minimum**4 <= 4 * det


def test_fractional_gram():
    rep = oracle.min_quadratic_form(((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))))
    best, mins = _literal_min(((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))), 4)
    assert rep.minimum == best and set(rep.minimizers) == mins


@pytest.mark.parametrize(
    "coeffs,expected",
    [((7, 6, -3), 1), ((1, 1, 1), 2), ((45, 15, -11), 4)],
)
def test_nocm_reference_values(coeffs, expected):
    assert oracle.nocm_seshadri(ns_class(Surface.NO_CM, coeffs)) == expected


@pytest.mark.parametrize(
    "coeffs,expected",
    [((1, 1, 0, 0), 1), ((0, 0, 1, 1), 2), ((-1, 1, 2, 2), 3)],
)
def test_cm_reference_values(coeffs, expected):
    assert oracle.cm_seshadri(ns_class(Surface.CM_GAUSSIAN, coeffs)) == expected


def test_reference_rejects_non_ample():
    with pytest.raises(ValueError, match="not ample"):
        oracle.nocm_seshadri(ns_class(Surface.NO_CM, (1, 0, 0)))
    with pytest.raises(ValueError, match="not ample"):
        oracle.cm_seshadri(ns_class(Surface.CM_GAUSSIAN, (0, 0, 0, 1)))


@pytest.mark.parametrize(
    "report",
    [
        oracle.ShellSearchReport(F(3, 2), ((1, 0),), 1, True),
        oracle.ShellSearchReport(F(4), ((2, 0),), 1, True),
    ],
)
def test_reference_invariant_violation_raises(monkeypatch, report):
    monkeypatch.setattr(oracle, "min_quadratic_form", lambda gram: report)
    with pytest.raises(ArithmeticError):
        oracle.nocm_seshadri(ns_class(Surface.NO_CM, (7, 6, -3)))


@pytest.mark.parametrize("a,b,expected", [(1, 0, 1), (1, 1, 2), (2, 1, 5)])
def test_division_point_examples(a, b, expected):
    assert oracle.division_point_count(a, b) == expected


def test_division_point_rejects_zero():
    with pytest.raises(ValueError):
        oracle.division_point_count(0, 0)


def test_division_point_literal_crosscheck():
    # tiny cases recounted with the obvious double loop
    for a, b in ((1, 2), (2, 3), (-2, 1), (3, 0)):
        ell = a * a + b * b
        direct = sum(
            1
            for m in range(ell)
            for n in range(ell)
            if (a * m - b * n) % ell == 0 and (a * n + b * m) % ell == 0
        )
        assert oracle.division_point_count(a, b) == direct == ell
