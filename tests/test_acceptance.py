"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.
"""
import time
from fractions import Fraction as F
from math import gcd

import pytest

from paper_lemmas import congruence_solution_count, division_point_count, leading_minors
from scan_references import assert_one_minimizer_per_orbit, naive_domain_min
from seshadri import cm, kernels, nocm, oracle
from seshadri.cli import _label, render_table
from seshadri.cross_section import cross_section
from seshadri.lattice import Surface, _class_form, generator_pairings, ns_class, self_intersection
from seshadri.sampling import random_ample_classes

GAUSS = Surface.CM_GAUSSIAN
EISEN = Surface.CM_EISENSTEIN


def _report(name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}: {elapsed:.2f}s{suffix}")


# --- reference data ---------------------------------------------------------

# 21 rank-3 example classes: (coeffs, L^2, epsilon, computing, weakly submaximal).
# In row (4, 3, -1) the weak set includes F2: L.F2 = 3 and 3^2 = 9 < 10 = L^2.
TABLE1 = (
    ((3, 2, -1), 2, 1, {"F1", "N_{1,1}"}, {"F1", "N_{1,1}"}),
    ((3, 3, -1), 6, 2, {"F1", "F2", "N_{1,1}"}, {"F1", "F2", "N_{1,1}"}),
    ((4, 3, -1), 10, 2, {"F1"}, {"F1", "F2", "N_{1,1}"}),
    ((5, 3, -1), 14, 2, {"F1"}, {"F1"}),
    ((5, 4, -2), 4, 1, {"N_{1,1}"}, {"F1", "N_{1,1}"}),
    ((7, 4, -2), 12, 2, {"F1"}, {"F1", "N_{1,1}"}),
    ((7, 6, -3), 6, 1, {"N_{1,1}"}, {"N_{1,1}"}),
    ((10, 7, -4), 4, 1, {"N_{1,1}"}, {"N_{1,1}", "N_{2,1}"}),
    ((12, 9, -5), 6, 1, {"N_{1,1}"}, {"N_{1,1}"}),
    ((17, 10, -6), 16, 3, {"N_{1,1}", "N_{2,1}"}, {"F1", "N_{1,1}", "N_{2,1}"}),
    ((20, 11, -7), 6, 1, {"N_{2,1}"}, {"N_{2,1}"}),
    ((32, 9, -7), 2, 1, {"N_{3,1}", "N_{4,1}"}, {"N_{3,1}", "N_{4,1}"}),
    ((33, 9, -7), 6, 2, {"F1", "N_{3,1}", "N_{4,1}"}, {"F1", "N_{3,1}", "N_{4,1}"}),
    ((34, 9, -7), 10, 2, {"F1"}, {"F1", "N_{3,1}", "N_{4,1}"}),
    ((26, 14, -9), 8, 1, {"N_{2,1}"}, {"N_{2,1}"}),
    ((73, 13, -11), 6, 2, {"F1", "N_{5,1}", "N_{6,1}"}, {"F1", "N_{5,1}", "N_{6,1}"}),
    ((54, 14, -11), 16, 3, {"F1", "N_{4,1}"}, {"F1", "N_{3,1}", "N_{4,1}"}),
    ((45, 15, -11), 30, 4, {"F1", "N_{3,1}"}, {"F1", "N_{3,1}"}),
    ((36, 16, -11), 8, 1, {"N_{2,1}"}, {"N_{2,1}"}),
    ((32, 17, -11), 10, 1, {"N_{2,1}"}, {"N_{2,1}"}),
    ((52, 30, -19), 4, 1, {"N_{2,1}"}, {"N_{2,1}", "N_{5,3}"}),
)

# 12 rank-4 example classes: (coeffs, L^2, epsilon, computing curves as tuples).
TABLE2 = (
    ((1, 1, 1, 1), 14, 3, {"F1", "F2"}),
    ((1, 1, 0, 0), 2, 1, {"F1", "F2"}),
    ((2, 1, 0, 0), 4, 1, {"F1"}),
    ((0, 0, 1, 1), 4, 2,
     {"F1", "F2", "Delta", "Sigma", (1, 1, 0, 1), (1, 0, 1, 1)}),
    ((1, 0, 1, 1), 8, 2, {"F1"}),
    ((1, 1, 1, 0), 6, 2, {"F1", "F2", "Delta"}),
    ((2, 2, 1, -1), 4, 2,
     {"F1", "F2", "Delta", (1, 1, 1, 0), (1, 0, 1, -1), (1, 0, 0, -1)}),
    ((-1, 1, 2, 2), 14, 3, {"F2", (1, 1, 0, 1)}),
    ((-1, 2, 1, 2), 10, 2, {"F2"}),
    ((4, 4, -1, -1), 4, 2,
     {"F1", "F2", (1, 1, 0, -1), (1, 0, 0, -1), (1, 0, -1, 0), (-1, 0, 1, 1)}),
    ((4, 2, 3, -2), 4, 1, {(0, 1, 1, 1)}),
    ((8, 5, -1, -2), 10, 2, {"F1"}),
)


def _expected_degvecs(entries) -> frozenset:
    vecs = set()
    for entry in entries:
        t = cm.GENERATOR_TUPLES[entry] if isinstance(entry, str) else entry
        vecs.add(cm.degree_vector(t, GAUSS))
    return frozenset(vecs)


@pytest.fixture(scope="module")
def nocm_sample():
    return random_ample_classes(Surface.NO_CM, 500, 50, seed=20260809)


@pytest.fixture(scope="module")
def cm_samples():
    return {
        GAUSS: random_ample_classes(GAUSS, 100, 8, seed=41),
        EISEN: random_ample_classes(EISEN, 100, 8, seed=42),
    }


@pytest.fixture(scope="module")
def nocm_values(nocm_sample):
    return [(L, nocm.seshadri_constant(L).value) for L in nocm_sample]


@pytest.fixture(scope="module")
def cm_values(cm_samples):
    return {
        surface: [(L, cm.seshadri_constant(L).value) for L in classes]
        for surface, classes in cm_samples.items()
    }


def test_criterion_1_rank3_table(capsys=None):
    start = time.perf_counter()
    for coeffs, square, value, computing, weak in TABLE1:
        L = ns_class(Surface.NO_CM, coeffs)
        assert self_intersection(L) == square, coeffs
        result = nocm.seshadri_constant(L)
        assert result.value == value, coeffs
        assert {_label(p) for p in result.witnesses} == computing, coeffs
        got_weak = {_label(p) for p in nocm.submaximal_curves(L, weak=True)}
        assert got_weak == weak, coeffs
    _report("criterion 1 (21 rank-3 rows exact)", time.perf_counter() - start)


def test_criterion_2_rank4_table(monkeypatch):
    start = time.perf_counter()
    for coeffs, square, value, computing in TABLE2:
        L = ns_class(GAUSS, coeffs)
        assert self_intersection(L) == square, coeffs
        result = cm.seshadri_constant(L)
        assert result.value == value, coeffs
        assert {w.degrees for w in result.witnesses} == _expected_degvecs(computing), coeffs
    reduced = time.perf_counter() - start

    # Every row's reduced-walk minimizers against the certified oracle's: one
    # minimizer per unit orbit of the oracle's minimizers.
    start = time.perf_counter()
    for coeffs, *_ in TABLE2:
        L = ns_class(GAUSS, coeffs)
        _, mins = kernels.minimize_quartic(GAUSS.trace, _class_form(GAUSS, L.coeffs))
        report = oracle.min_quadratic_form(oracle.degree_form(L))
        assert_one_minimizer_per_orbit(mins, report.minimizers, GAUSS)
    certified = time.perf_counter() - start

    # Naive-box reference pass: the whole computation over the naive domain
    # scan.  The naive scan of the radius-100 row takes about an hour, so
    # only the small boxes are re-run here; the reduced-walk/naive parity on
    # random inputs is covered separately in test_kernels.
    # the stand-in receives the degree form, so it looks the row's class up by it
    rows = {_class_form(GAUSS, coeffs): coeffs for coeffs, *_ in TABLE2}

    def naive_minimize(t, form):
        coeffs = rows[form]
        L = ns_class(GAUSS, coeffs)
        return naive_domain_min(t, coeffs, int(cm.search_bound(L)), min(generator_pairings(L)))

    monkeypatch.setattr(kernels, "minimize_quartic", naive_minimize)
    start = time.perf_counter()
    checked = 0
    for coeffs, _, value, computing in TABLE2:
        L = ns_class(GAUSS, coeffs)
        if cm.search_bound(L) > 16:
            continue
        checked += 1
        result = cm.seshadri_constant(L)
        assert result.value == value
        assert {w.degrees for w in result.witnesses} == _expected_degvecs(computing)
    naive = time.perf_counter() - start
    _report(
        "criterion 2 (12 rank-4 rows exact)",
        reduced + certified + naive,
        f"reduced walk {reduced:.2f}s, oracle minimizers {certified:.2f}s on 12/12 rows, "
        f"naive box {naive:.2f}s on {checked}/12 rows",
    )


def test_criterion_3_cross_sections():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        s = cross_section(F(1, n))
        assert s.breakpoints == (F(-1), F(n * n + n - 1, n * n * (n + 2)))
        assert s.mu_max == F(1, n + 1)
        seg_data = [(seg.slope, seg.intercept) for seg in s.segments]
        assert seg_data == [
            (F(0), 1 + F(1, n)),
            (F(-1), F(1, n)),
            (F(-((n + 1) ** 2)), F(n + 1)),
        ]
        assert s.value_at(s.mu_max) == 0

    s = cross_section(F(8, 11))
    assert s.mu_max == F(8, 19)
    assert s.breakpoints == (F(-1), F(1, 3), F(97, 231), F(37, 88), F(1445, 3432))
    assert [(seg.slope, seg.intercept, seg.witness) for seg in s.segments] == [
        (F(0), F(19, 11), (1, -1)),
        (F(-1), F(8, 11), (1, 0)),
        (F(-4), F(19, 11), (1, 1)),
        (F(-25), F(116, 11), (3, 2)),
        (F(-49), F(227, 11), (4, 3)),
        (F(-361), F(152), (11, 8)),
    ]
    _report("criterion 3 (cross-sections exact)", time.perf_counter() - start)


def test_criterion_4_oracle_equivalence(nocm_values, cm_values):
    start = time.perf_counter()
    for L, value in nocm_values:
        assert value == oracle.nocm_seshadri(L), L.coeffs
    for surface, pairs in cm_values.items():
        for L, value in pairs:
            assert value == oracle.cm_seshadri(L), (surface, L.coeffs)
    _report(
        "criterion 4 (oracle equivalence)",
        time.perf_counter() - start,
        "500 rank-3 + 100 + 100 rank-4 classes",
    )


def test_criterion_5_hermite_and_mahler(nocm_values, cm_values):
    start = time.perf_counter()
    for L, value in nocm_values:
        assert 3 * value * value <= 2 * self_intersection(L), L.coeffs
    for surface, pairs in cm_values.items():
        for L, value in pairs:
            det = leading_minors(oracle.degree_form(L))[-1]
            assert value**4 <= 4 * det, (surface, L.coeffs)
    _report(
        "criterion 5 (Hermite/Mahler bounds)",
        time.perf_counter() - start,
        "zero violations",
    )


def _primitive_tuples(count, seed):
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = tuple(rng.randint(-20, 20) for _ in range(4))
        if not any(t):
            continue
        g = gcd(*t)
        out.append(tuple(v // g for v in t))
    return out


def test_criterion_6_reduction_suite():
    start = time.perf_counter()
    for surface, seed in ((GAUSS, 101), (EISEN, 102)):
        for t in _primitive_tuples(200, seed):
            dd = cm.tuple_gcd(t, surface)
            if surface is GAUSS:
                assert congruence_solution_count(t) == dd, t
            red = cm.reduce_tuple(t, surface)
            assert cm.tuple_gcd(red, surface) == 1, t
            assert gcd(*red) == 1, t
            target = tuple(v // dd for v in cm.invariants(t, surface))
            assert cm.invariants(red, surface) == target, t
    _report(
        "criterion 6 (congruence + reduction suite)",
        time.perf_counter() - start,
        "200 + 200 tuples, zero violations",
    )


def test_criterion_7_structural_properties(nocm_values, cm_values):
    start = time.perf_counter()
    for L, value in nocm_values[:60]:
        assert isinstance(value, int) and value > 0
        for k in (2, 3):
            scaled = ns_class(Surface.NO_CM, tuple(k * c for c in L.coeffs))
            assert nocm.seshadri_constant(scaled).value == k * value, (L.coeffs, k)
        rotated = ns_class(Surface.NO_CM, L.coeffs[1:] + L.coeffs[:1])
        swapped = ns_class(Surface.NO_CM, (L.coeffs[1], L.coeffs[0], L.coeffs[2]))
        assert nocm.seshadri_constant(rotated).value == value
        assert nocm.seshadri_constant(swapped).value == value
    for (La, va), (Lb, vb) in zip(nocm_values[:80], nocm_values[80:160]):
        assert nocm.seshadri_constant(La + Lb).value >= va + vb
    for L, _ in nocm_values:
        assert len(nocm.submaximal_curves(L, weak=False)) <= 3, L.coeffs
    for surface, pairs in cm_values.items():
        for L, value in pairs[:30]:
            assert isinstance(value, int) and value > 0
            for k in (2, 3):
                scaled = ns_class(surface, tuple(k * c for c in L.coeffs))
                assert cm.seshadri_constant(scaled).value == k * value, (L.coeffs, k)
    _report(
        "criterion 7 (homogeneity, superadditivity, symmetry, counts)",
        time.perf_counter() - start,
        "zero violations",
    )


def test_criterion_8_division_points():
    start = time.perf_counter()
    for a in range(-15, 16):
        for b in range(-15, 16):
            if a == 0 or b == 0:
                continue
            assert division_point_count(a, b) == a * a + b * b, (a, b)
    _report(
        "criterion 8 (division point counts)",
        time.perf_counter() - start,
        "900 pairs, zero violations",
    )


def test_table_renders_match_reference_data():
    # the CLI table output is the same data; goldens are checked in test_cli
    lines = render_table(1).splitlines()[1:]
    assert len(lines) == len(TABLE1)
    lines = render_table(2).splitlines()[1:]
    assert len(lines) == len(TABLE2)
