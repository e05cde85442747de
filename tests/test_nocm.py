from itertools import product
from math import gcd, isqrt
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paper_lemmas import decompose_pair
from scan_references import (
    canonical_pair_curves_up_to,
    count_loop_passes,
    paper_seshadri_constant,
    paper_submaximal_curves,
)
from seshadri import nocm, oracle
from seshadri.lattice import Surface, _class_form, intersect, is_ample, ns_class, self_intersection
from seshadri.nocm import (
    canonical_pair,
    class_to_pair,
    curve_class,
    degree,
    seshadri_constant,
    submaximal_curves,
)
from seshadri.sampling import random_ample_classes

pairs = (
    st.tuples(st.integers(-30, 30), st.integers(-30, 30))
    .filter(lambda p: p != (0, 0) and gcd(*p) == 1)
    .map(lambda p: canonical_pair(*p))
)


@st.composite
def ample_classes(draw, bound):
    """An ample class with entries in [-bound, bound]: the first ample one
    among up to 20 draws.  About one draw in five is ample, and a plain
    `.filter(is_ample)` gives up after three tries, so a test drawing two
    classes failed Hypothesis's filter_too_much health check on some runs."""
    coeffs = st.tuples(*[st.integers(-bound, bound)] * 3)
    for _ in range(20):
        L = ns_class(Surface.NO_CM, draw(coeffs))
        if is_ample(L):
            return L
    assume(False)


@pytest.mark.parametrize(
    "pair,expected",
    [((1, 0), (1, 0, 0)), ((1, -1), (0, 0, 1)), ((2, 1), (6, 3, -2))],
)
def test_curve_class_examples(pair, expected):
    assert curve_class(pair).coeffs == expected


@given(pairs)
def test_curve_classes_are_primitive_of_square_zero(pair):
    cls = curve_class(pair)
    assert self_intersection(cls) == 0
    assert gcd(*cls.coeffs) == 1


@pytest.mark.parametrize(
    "coeffs,message",
    [
        ((0, 0, -1), "is not a primitive curve class"),  # -Delta
        ((0, 0, 2), "is not a primitive curve class"),
        ((-1, 0, 0), "is not a curve class"),  # -F1
        ((-2, -2, 1), "is not a curve class"),  # -N_{1,1}
        ((-6, -3, 2), "is not a curve class"),  # -N_{2,1}
        ((1, 1, 0), "is not a curve class"),
        # x1 + x2 = s^2 with s | x1, x2, but x3 != -cd
        ((4, 0, 1), "is not a curve class"),
        ((1, 0, 5), "is not a curve class"),
    ],
)
def test_class_to_pair_rejects_non_curve_classes(coeffs, message):
    # a curve class has x1 + x2 = (c + d)^2 >= 0, and Delta is (0, 0, 1)
    with pytest.raises(ValueError) as info:
        class_to_pair(coeffs)
    assert str(info.value) == f"{coeffs} {message}"


def test_canonical_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_pair(0, 0)
    with pytest.raises(ValueError):
        canonical_pair(2, 4)
    assert canonical_pair(-1, 2) == (1, -2)
    assert canonical_pair(0, -1) == (0, 1)
    # a float, even an integral one, is no pair: `TypeError` before the (0, 0) test
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        canonical_pair(0.0, 0.0)


@pytest.mark.parametrize("pair,expected", [((True, 0), (1, 0)), ((0, True), (0, 1)),
                                           ((True, -2), (1, -2))],
                         ids=["true-0", "0-true", "true-minus-2"])
def test_canonical_pair_reads_ints(pair, expected):
    # read with `operator.index`: a bool comes back as its int
    got = canonical_pair(*pair)
    assert got == expected and [type(v) for v in got] == [int, int]


@pytest.mark.parametrize(
    "coeffs,pair,expected",
    [
        ((3, 2, -1), (1, 1), 1),
        ((33, 9, -7), (3, 1), 2),
        ((5, 3, -1), (1, 0), 2),
    ],
)
def test_degree_examples(coeffs, pair, expected):
    assert degree(ns_class(Surface.NO_CM, coeffs), pair) == expected


@given(st.tuples(*[st.integers(-50, 50)] * 3), pairs)
def test_degree_matches_intersection(coeffs, pair):
    L = ns_class(Surface.NO_CM, coeffs)
    assert degree(L, pair) == intersect(L, curve_class(pair))


@pytest.mark.parametrize(
    "coeffs,value,witnesses",
    [
        ((7, 6, -3), 1, {(1, 1)}),
        ((1, 1, 1), 2, {(1, 0), (0, 1), (1, -1)}),
        ((17, 10, -6), 3, {(1, 1), (2, 1)}),
        ((52, 30, -19), 1, {(2, 1)}),
    ],
)
def test_seshadri_examples(coeffs, value, witnesses):
    result = seshadri_constant(ns_class(Surface.NO_CM, coeffs))
    assert result.value == value
    assert result.witnesses == frozenset(witnesses)


def test_seshadri_rejects_non_ample():
    with pytest.raises(ValueError, match="not ample"):
        seshadri_constant(ns_class(Surface.NO_CM, (1, 0, 0)))
    with pytest.raises(ValueError, match="not ample"):
        submaximal_curves(ns_class(Surface.NO_CM, (0, 0, 0)))


MISMATCH = "surface mismatch: expected the nocm surface"


@pytest.mark.parametrize(
    "surface, coeffs, message",
    [
        (Surface.CM_GAUSSIAN, (1, 1, 1, 1), MISMATCH),
        (Surface.CM_EISENSTEIN, (1, 1, 1, 1), MISMATCH),
        # non-ample and rank 4: ampleness is reported first
        (Surface.CM_GAUSSIAN, (1, 0, 0, 0), "not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0"),
    ],
)
def test_input_errors(surface, coeffs, message):
    L = ns_class(surface, coeffs)
    for checked in (seshadri_constant, submaximal_curves):
        with pytest.raises(ValueError) as info:
            checked(L)
        assert type(info.value) is ValueError and str(info.value) == message


def test_degree_rejects_rank4():
    with pytest.raises(ValueError) as info:
        degree(ns_class(Surface.CM_GAUSSIAN, (1, 1, 1, 1)), (1, 0))
    assert type(info.value) is ValueError and str(info.value) == MISMATCH


@pytest.mark.parametrize(
    "coeffs,weak,expected",
    [
        # the weak set here also contains F2: L.F2 = 3 and 3^2 = 9 < 10 = L^2
        ((4, 3, -1), True, {(1, 0), (0, 1), (1, 1)}),
        ((5, 3, -1), True, {(1, 0)}),
        ((10, 7, -4), True, {(1, 1), (2, 1)}),
        ((10, 7, -4), False, {(1, 1)}),
    ],
)
def test_submaximal_examples(coeffs, weak, expected):
    got = submaximal_curves(ns_class(Surface.NO_CM, coeffs), weak=weak)
    assert got == frozenset(expected)


@pytest.mark.parametrize(
    "a,b,expected", [((6), 3, (1, 2, 1)), (2, 2, (1, 1, 1)), (4, 4, (2, 1, 1))]
)
def test_decompose_examples(a, b, expected):
    assert decompose_pair(a, b) == expected


@pytest.mark.parametrize("a,b", [(0, 1), (1, -1), (3, 5)])
def test_decompose_rejects(a, b):
    with pytest.raises(ValueError, match="not decomposable"):
        decompose_pair(a, b)


@given(
    st.integers(-40, 40).filter(bool),
    st.integers(-40, 40).filter(bool),
    st.integers(1, 8),
)
def test_decompose_roundtrip(c, d, m):
    if gcd(c, d) != 1 or c + d == 0:
        return
    a, b = m * c * (c + d), m * d * (c + d)
    mm, cc, dd = decompose_pair(a, b)
    assert a == mm * cc * (cc + dd) and b == mm * dd * (cc + dd)
    assert gcd(cc, dd) == 1


@given(ample_classes(40))
@settings(max_examples=80, deadline=None)
def test_witnesses_compute_the_constant(L):
    result = seshadri_constant(L)
    assert result.witnesses
    for w in result.witnesses:
        assert degree(L, w) == result.value


@given(ample_classes(40))
@settings(max_examples=80, deadline=None)
def test_hermite_style_upper_bound(L):
    value = seshadri_constant(L).value
    assert 3 * value * value <= 2 * self_intersection(L)


@given(ample_classes(30), st.permutations([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(L, perm):
    # a permutation of the basis is an isometry, so it carries the curves of
    # L to those of the permuted class; the reduction never uses this
    def image(pairs):
        return frozenset(
            class_to_pair(tuple(curve_class(p).coeffs[i] for i in perm)) for p in pairs
        )

    permuted = ns_class(Surface.NO_CM, tuple(L.coeffs[i] for i in perm))
    result, moved = seshadri_constant(L), seshadri_constant(permuted)
    assert moved.value == result.value
    assert moved.witnesses == image(result.witnesses)
    assert submaximal_curves(permuted, weak=True) == image(submaximal_curves(L, weak=True))


@given(ample_classes(20), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_homogeneity(L, k):
    scaled = ns_class(Surface.NO_CM, tuple(k * c for c in L.coeffs))
    assert seshadri_constant(scaled).value == k * seshadri_constant(L).value


@given(ample_classes(20), ample_classes(20))
@settings(max_examples=50, deadline=None)
def test_superadditivity(L, M):
    total = seshadri_constant(L + M).value
    assert total >= seshadri_constant(L).value + seshadri_constant(M).value


@given(st.tuples(*[st.integers(0, 30)] * 3).map(lambda t: ns_class(Surface.NO_CM, t)).filter(is_ample))
@settings(max_examples=60, deadline=None)
def test_nonnegative_coefficients_closed_form(L):
    a1, a2, a3 = L.coeffs
    expected = min(a1 + a2, a2 + a3, a3 + a1)
    assert seshadri_constant(L).value == expected


@given(ample_classes(35))
@settings(max_examples=60, deadline=None)
def test_strict_submaximal_count_is_at_most_rank(L):
    assert len(submaximal_curves(L, weak=False)) <= 3


@given(ample_classes(25))
@settings(max_examples=50, deadline=None)
def test_matches_oracle(L):
    assert seshadri_constant(L).value == oracle.nocm_seshadri(L)


@given(ample_classes(35))
@settings(max_examples=60, deadline=None)
def test_submaximal_sets_are_consistent(L):
    square = self_intersection(L)
    strict = submaximal_curves(L, weak=False)
    weak = submaximal_curves(L, weak=True)
    assert strict <= weak
    for p in weak:
        d = degree(L, p)
        assert d * d <= square
        assert (d * d < square) == (p in strict)
    eps = seshadri_constant(L)
    if eps.value * eps.value < square:
        assert eps.witnesses <= strict


def _assert_matches_paper_formula(L):
    assert seshadri_constant(L) == paper_seshadri_constant(L), L.coeffs
    for weak in (True, False):
        assert submaximal_curves(L, weak) == paper_submaximal_curves(L, weak), L.coeffs


def test_matches_paper_formula_on_small_box():
    # small entries are where reduced-form ties (A = C, |2B| = A) are densest
    classes = [ns_class(Surface.NO_CM, t) for t in product(range(-10, 11), repeat=3)]
    for L in filter(is_ample, classes):
        _assert_matches_paper_formula(L)


@pytest.mark.parametrize("bound", [10**2, 10**4, 10**6])
def test_matches_paper_formula_seeded(bound):
    for L in random_ample_classes(Surface.NO_CM, 500, bound, seed=bound % 991):
        _assert_matches_paper_formula(L)


def test_ampleness_checked_once_per_call(monkeypatch):
    # L^2 comes from the one ampleness check, not from a second pass
    import seshadri.lattice
    from seshadri import nocm

    calls = []
    require_ample = nocm.require_ample
    monkeypatch.setattr(nocm, "require_ample", lambda L: calls.append(L) or require_ample(L))

    def no_self_intersection(L):
        raise AssertionError("self_intersection called")

    monkeypatch.setattr(seshadri.lattice, "self_intersection", no_self_intersection)
    # a from-import binds the function at import time: patch that name too
    if hasattr(nocm, "self_intersection"):
        monkeypatch.setattr(nocm, "self_intersection", no_self_intersection)
    L = ns_class(Surface.NO_CM, (45, 15, -11))
    assert seshadri_constant(L).value == 4
    assert calls == [L]
    assert submaximal_curves(L, weak=True) == {(1, 0), (3, 1)}
    assert calls == [L, L]


def reduced_forms(max_square):
    """Every reduced degree form (A, B, C), |2B| <= A <= C, of a class with
    L^2 = 2 (AC - B^2) <= max_square; as det >= 3 A^2 / 4, A is bounded too."""
    A = 1
    while 3 * A * A <= 2 * max_square:
        for B in range(-(A // 2), A // 2 + 1):
            for C in range(A, (max_square // 2 + B * B) // A + 1):
                yield A, B, C
        A += 1


def _seeded_basis(rng):
    """A seeded basis (p, r), (s, t) of Z^2, det +-1, entries up to ~6^6."""
    p, r, s, t = 1, 0, 0, 1
    for _ in range(rng.randint(0, 6)):
        q = rng.randint(-5, 5)
        p, r, s, t = s + q * p, t + q * r, p, r  # (e1, e2) -> (e2 + q e1, e1)
    return p, r, s, t


def _assert_listing_matches_reference(A, B, C, p, r, s, t, threshold):
    listed = nocm._curves_up_to((A, B, C, p, r, s, t), threshold)
    assert listed == canonical_pair_curves_up_to((A, B, C, (p, r), (s, t)), threshold), (
        (A, B, C, p, r, s, t),
        threshold,
    )


def test_listing_matches_the_canonical_pair_reference_on_reduced_forms():
    # all 65,385 reduced forms with L^2 <= 4,000, each carried by a seeded
    # unimodular basis, at the constant's and both submaximal thresholds
    rng = Random(31)
    exact_ends = {1: 0, -1: 0}  # windows ending on an integer, by the sign of B
    for A, B, C in reduced_forms(4000):
        basis = _seeded_basis(rng)
        square = 2 * (A * C - B * B)
        for threshold in (A, isqrt(square), isqrt(square - 1)):
            _assert_listing_matches_reference(A, B, C, *basis, threshold)
            disc = B * B - A * (C - threshold)
            w = isqrt(max(disc, 0))
            if B and disc >= 0 and w * w == disc and 0 in ((w - B) % A, (w + B) % A):
                exact_ends[1 if B > 0 else -1] += 1
    assert min(exact_ends.values()) > 100, exact_ends


def test_listing_matches_the_canonical_pair_reference_on_seeded_classes():
    for bound in (10**2, 10**6, 10**12, 10**20, 10**40):
        for L in random_ample_classes(Surface.NO_CM, 300, bound, seed=bound % 887):
            square = self_intersection(L)
            form = nocm._reduce(_class_form(L.surface, L.coeffs))
            for threshold in (form[0], isqrt(square), isqrt(square - 1)):
                _assert_listing_matches_reference(*form, threshold)


def test_callers_keep_the_listing_to_y_at_most_one_on_reduced_forms(monkeypatch):
    # `_curves_up_to` lists only y in {0, 1}, which needs A threshold < 4 det
    # from both callers; the class (C - B, A - B, B) has the degree form (A, B, C)
    calls = []
    listing = nocm._curves_up_to
    monkeypatch.setattr(nocm, "_curves_up_to", lambda *args: calls.append(args) or listing(*args))
    classes = [ns_class(Surface.NO_CM, (C - B, A - B, B)) for A, B, C in reduced_forms(4000)]
    for L in classes:
        seshadri_constant(L)
        for weak in (True, False):
            submaximal_curves(L, weak)
    assert len(calls) == 3 * len(classes)
    for (A, B, C, *_), threshold in calls:
        assert A * threshold < 4 * (A * C - B * B), (A, B, C, threshold)


def test_reduction_steps_are_pinned():
    # the passes of `_reduce`'s loop over fixed seeded classes: a change to
    # the reduction's step or stopping rule moves this count
    forms = [_class_form(L.surface, L.coeffs) for bound in (8, 10**4, 10**12)
             for L in random_ample_classes(Surface.NO_CM, 300, bound, seed=bound % 991)]

    def run():
        for form in forms:
            nocm._reduce(form)

    assert count_loop_passes(nocm._reduce, "if C < A:", run) == 1623
