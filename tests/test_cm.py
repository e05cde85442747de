import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_lemmas import congruence_solution_count, leading_minors
from scan_references import HALF_BOX_WARM, half_box_seshadri
from test_large_coefficients import NEAR_BOUNDARY_SIZES, near_boundary_cm_classes
from seshadri import cm, kernels, oracle
from seshadri.cm import (
    GENERATOR_TUPLES,
    canonical_tuple,
    degree_value,
    degree_vector,
    invariants,
    reduce_tuple,
    search_bound,
    seshadri_constant,
    tuple_gcd,
    unit_orbit,
)
from seshadri.lattice import (
    Surface,
    generator_pairings,
    is_ample,
    ns_class,
    self_intersection,
)
from seshadri.sampling import random_ample_classes

GAUSS = Surface.CM_GAUSSIAN
EISEN = Surface.CM_EISENSTEIN

tuples4 = st.tuples(*[st.integers(-12, 12)] * 4).filter(any)
primitive4 = tuples4.map(lambda t: tuple(v // gcd(*t) for v in t))


def ample_classes(surface, bound=8):
    return (
        st.tuples(*[st.integers(-bound, bound)] * 4)
        .map(lambda t: ns_class(surface, t))
        .filter(is_ample)
    )


@pytest.mark.parametrize(
    "kind,t,expected",
    [
        (GAUSS, (1, 0, 0, 1), 1),
        (GAUSS, (1, 1, 1, 1), 2),
        (EISEN, (1, 0, 1, 1), 1),
    ],
)
def test_tuple_gcd_examples(kind, t, expected):
    assert tuple_gcd(t, kind) == expected


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_zero_tuple_names_no_curve(surface):
    for f in (tuple_gcd, canonical_tuple):
        with pytest.raises(ValueError, match="tuple must be nonzero"):
            f((0, 0, 0, 0), surface)


def test_tuple_gcd_rejects_nocm():
    with pytest.raises(ValueError, match="surface mismatch"):
        tuple_gcd((1, 0, 0, 1), Surface.NO_CM)


@pytest.mark.parametrize(
    "t,expected",
    [
        ((0, 0, 1, 0), (0, 1, 1, 1)),
        ((1, 0, 1, 0), (1, 1, 0, 2)),
        ((1, 1, 0, 1), (2, 1, 1, 1)),
    ],
)
def test_gaussian_degree_vectors(t, expected):
    assert degree_vector(t, GAUSS) == expected


def test_degree_vector_rejects_imprimitive():
    with pytest.raises(ValueError, match="tuple not primitive"):
        degree_vector((2, 0, 2, 0), GAUSS)


def test_degree_vector_raises_when_d_does_not_divide(monkeypatch):
    # F1's raw degrees (0, 1, 1, 1) are not all even
    monkeypatch.setattr(cm, "tuple_gcd", lambda t, kind: 2)
    with pytest.raises(ArithmeticError, match="D does not divide the raw degrees"):
        degree_vector((0, 0, 1, 0), GAUSS)


def _hand_gaussian(L, t):
    a1, a2, a3, a4 = L
    a, b, c, d = t
    return (
        (a1 + a3 + a4) * (a * a + b * b)
        + (a2 + a3 + a4) * (c * c + d * d)
        - 2 * a3 * (a * c + b * d)
        - 2 * a4 * (a * d - b * c)
    )


def _hand_eisenstein(L, t):
    a1, a2, a3, a4 = L
    a, b, c, d = t
    return (
        (a1 + a3 + a4) * (a * a + a * b + b * b)
        + (a2 + a3 + a4) * (c * c + c * d + d * d)
        - (2 * a3 + a4) * (a * c + b * d)
        - (a3 + 2 * a4) * a * d
        + (a4 - a3) * b * c
    )


def _gram_value(gram, t):
    return sum(gram[i][j] * t[i] * t[j] for i in range(4) for j in range(4))


@given(st.tuples(*[st.integers(-9, 9)] * 4), tuples4)
@settings(max_examples=150)
def test_gram_matches_hand_expansion(coeffs, t):
    for surface, hand in ((GAUSS, _hand_gaussian), (EISEN, _hand_eisenstein)):
        L = ns_class(surface, coeffs)
        expected = hand(coeffs, t)
        assert _gram_value(oracle.degree_form(L), t) == expected
        assert degree_value(L, t) == expected


@given(st.sampled_from([GAUSS, EISEN]), st.data())
@settings(max_examples=100, deadline=None)
def test_form_value_is_gcd_times_curve_degree(surface, data):
    coeffs = data.draw(st.tuples(*[st.integers(-9, 9)] * 4))
    t = data.draw(primitive4)
    L = ns_class(surface, coeffs)
    vec = degree_vector(t, surface)
    dd = tuple_gcd(t, surface)
    weighted = sum(c * v for c, v in zip(coeffs, vec))
    assert degree_value(L, t) == dd * weighted


def test_gram_special_cases():
    gram = oracle.degree_form(ns_class(GAUSS, (1, 0, 0, 0)))
    for t in ((1, 2, 3, 4), (0, 1, -5, 2), (7, 0, 0, 1)):
        assert _gram_value(gram, t) == t[0] ** 2 + t[1] ** 2
    gram = oracle.degree_form(ns_class(GAUSS, (1, 1, 1, 1)))
    assert leading_minors(gram)[-1] == F(49)
    assert degree_value(ns_class(GAUSS, (4, 2, 3, -2)), (0, 1, 1, 1)) == 1


@given(ample_classes(GAUSS))
@settings(max_examples=60, deadline=None)
def test_gaussian_determinant_identity(L):
    minors = leading_minors(oracle.degree_form(L))
    assert all(m > 0 for m in minors)
    assert minors[-1] == F(self_intersection(L), 2) ** 2


@given(ample_classes(EISEN))
@settings(max_examples=60, deadline=None)
def test_eisenstein_form_is_positive_definite(L):
    assert all(m > 0 for m in leading_minors(oracle.degree_form(L)))


@pytest.mark.parametrize(
    "surface,coeffs,expected",
    [
        (GAUSS, (1, 1, 1, 1), F(72, 7)),
        (GAUSS, (2, 1, 0, 0), F(16)),
        (EISEN, (1, 1, 0, 0), F(32, 3)),
    ],
)
def test_search_bound_examples(surface, coeffs, expected):
    assert search_bound(ns_class(surface, coeffs)) == expected


def test_search_bound_requires_ample():
    with pytest.raises(ValueError, match="not ample"):
        search_bound(ns_class(GAUSS, (1, 0, 0, 0)))


@pytest.mark.parametrize(
    "coeffs,value,degvecs",
    [
        ((1, 1, 1, 1), 3, {(0, 1, 1, 1), (1, 0, 1, 1)}),
        ((4, 2, 3, -2), 1, {(1, 2, 1, 5)}),
        ((8, 5, -1, -2), 2, {(0, 1, 1, 1)}),
    ],
)
def test_seshadri_examples(coeffs, value, degvecs):
    result = seshadri_constant(ns_class(GAUSS, coeffs))
    assert result.value == value
    assert {w.degrees for w in result.witnesses} == degvecs


def test_large_eisenstein_class_matches_oracle():
    # the box's c-window discriminant (~5.6e20) is past any 64-bit budget
    L = ns_class(EISEN, (9609, 7679, 3911, 9587))
    result = seshadri_constant(L)
    assert result.value == 21177 == oracle.cm_seshadri(L)
    f1 = degree_vector(GENERATOR_TUPLES["F1"], EISEN)
    assert [w.degrees for w in result.witnesses] == [f1]


def test_empty_minimizer_set_raises(monkeypatch):
    # a real check, not an assert, so it survives python -O
    monkeypatch.setattr(
        kernels, "minimize_quartic", lambda t, form: (3, [])
    )
    with pytest.raises(ArithmeticError, match="positive minimum"):
        seshadri_constant(ns_class(GAUSS, (1, 1, 1, 1)))


@pytest.mark.parametrize("surface", [GAUSS, EISEN], ids=lambda s: s.value)
def test_two_witnesses_with_one_degree_vector_raise(monkeypatch, surface):
    # two unit multiples of F2, both with D = 1 and degrees (1, 0, 1, 1) on
    # either surface: a listing that returned one curve twice must not be
    # merged silently
    monkeypatch.setattr(
        kernels, "minimize_quartic", lambda t, form: (3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    )
    with pytest.raises(ArithmeticError, match="share a degree vector"):
        seshadri_constant(ns_class(surface, (1, 1, 1, 1)))


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_warm_start_is_the_generator_minimum(surface):
    # min of the basis pairings equals the old six-tuple warm start
    for bound in (8, 10**4):
        for L in random_ample_classes(surface, 200, bound, seed=bound + 11):
            assert min(generator_pairings(L)) == min(
                degree_value(L, t) for t in HALF_BOX_WARM
            ), L.coeffs


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_matches_half_box_reference_exhaustive_small(surface):
    # every ample class with entries in [-4, 4]: ties on the domain's edges
    # a = 0 and b = 0 are common at these sizes
    count = 0
    for coeffs in product(range(-4, 5), repeat=4):
        L = ns_class(surface, coeffs)
        if is_ample(L):
            count += 1
            assert seshadri_constant(L) == half_box_seshadri(L), coeffs
    assert count > 1000


@pytest.mark.parametrize("bound", [100, 10**4, 10**6])
@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_matches_half_box_reference_seeded(surface, bound):
    for L in random_ample_classes(surface, 150, bound, seed=bound % 991):
        assert seshadri_constant(L) == half_box_seshadri(L), L.coeffs


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_box_holds_every_unit_multiple_of_a_minimizer(surface):
    # the paper's theorem, which the reduction does not use: the oracle
    # has no box, and every unit multiple of each of its minimizers lies in
    # the box of radius floor(search_bound), also near the nef boundary
    near_boundary = [L for L, *_ in near_boundary_cm_classes(surface, 100, seed=100)]
    for L in random_ample_classes(surface, 150, 100, seed=5) + near_boundary:
        radius = int(search_bound(L))
        for t in oracle.min_quadratic_form(oracle.degree_form(L)).minimizers:
            for u in unit_orbit(t, surface):
                assert max(map(abs, u)) <= radius, (L.coeffs, u)


#: The epsilon goldens whose reduced forms tie (C = A), one per surface.
TIE_GOLDENS = {GAUSS: (-2, 2, 1, 3), EISEN: (2, 2, 1, -1)}


@pytest.mark.parametrize("surface", [GAUSS, EISEN], ids=lambda s: s.value)
def test_seshadri_witness_representatives_are_reduced(surface):
    # no witness is tested for D = 1 any more, as the unimodular reduced
    # basis proves it: check it here on seeded classes at bounds 8 to 10^40,
    # the near-boundary classes and the tie goldens
    classes = [ns_class(surface, (0, 0, 1, 1)), ns_class(surface, TIE_GOLDENS[surface])]
    for bound in (8, 100, 10**4, 10**12, 10**40):
        classes += random_ample_classes(surface, 100, bound, seed=bound % 991)
    for size in NEAR_BOUNDARY_SIZES:
        classes += [L for L, *_ in near_boundary_cm_classes(surface, size, seed=size % 983)]
    for L in classes:
        for w in seshadri_constant(L).witnesses:
            rep = w.representative
            assert tuple_gcd(rep, surface) == 1, (L.coeffs, rep)
            assert degree_vector(rep, surface) == w.degrees, (L.coeffs, rep)
            assert canonical_tuple(rep, surface) == rep, (L.coeffs, rep)


@pytest.mark.parametrize(
    "t,expected",
    [((1, 1, 1, 1), 2), ((1, 0, 0, 1), 1)],
)
def test_congruence_count_examples(t, expected):
    assert congruence_solution_count(t) == expected


def test_congruence_count_mixed_sign_instance():
    t = (2, 1, 1, -2)
    assert congruence_solution_count(t) == tuple_gcd(t, GAUSS)


@given(primitive4)
@settings(max_examples=100, deadline=None)
def test_congruence_count_equals_gcd_invariant(t):
    assert congruence_solution_count(t) == tuple_gcd(t, GAUSS)


def test_reduce_examples():
    red = reduce_tuple((1, 1, 1, 1), GAUSS)
    assert invariants(red, GAUSS) == (1, 1, 1, 0)
    assert reduce_tuple((1, 0, 1, 0), GAUSS) == (1, 0, 1, 0)
    red = reduce_tuple((1, 1, -1, 1), GAUSS)
    assert invariants(red, GAUSS) == (1, 1, 0, 1)


@given(st.sampled_from([GAUSS, EISEN]), primitive4)
@settings(max_examples=150, deadline=None)
def test_reduce_tuple_identities(surface, t):
    dd = tuple_gcd(t, surface)
    red = reduce_tuple(t, surface)
    assert gcd(*red) == 1
    assert tuple_gcd(red, surface) == 1
    assert invariants(red, surface) == tuple(v // dd for v in invariants(t, surface))


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
def test_reduce_tuple_exhaustive_small_entries(surface):
    # every primitive tuple with entries in [-4, 4] reduces by its ring gcd
    for t in product(range(-4, 5), repeat=4):
        if gcd(*t) != 1:
            continue
        dd = tuple_gcd(t, surface)
        red = reduce_tuple(t, surface)
        assert gcd(*red) == 1 and tuple_gcd(red, surface) == 1, t
        assert invariants(red, surface) == tuple(v // dd for v in invariants(t, surface)), t


def test_reduce_tuple_raises_when_the_gcd_is_wrong(monkeypatch):
    # (2 + i, (2 + i)(1 + i)) has D = 5 = n(2 + i): 1 has the wrong norm, and
    # 2 - i has norm 5 but divides neither entry
    red = reduce_tuple((2, 1, 1, 3), GAUSS)
    assert canonical_tuple(red, GAUSS) == canonical_tuple((1, 0, 1, 1), GAUSS)
    for wrong in [(1, 0), (2, -1)]:
        monkeypatch.setattr(cm, "_ring_gcd", lambda t, a, b, c, d: wrong)
        assert reduce_tuple((1, 0, 1, 0), GAUSS) == (1, 0, 1, 0)  # D = 1: no gcd
        with pytest.raises(ArithmeticError, match="is no divisor of norm D = 5"):
            reduce_tuple((2, 1, 1, 3), GAUSS)


def test_reduce_tuple_raises_when_the_invariants_are_missed(monkeypatch):
    # the invariants of (2, 1, 1, 3) stay true, so D = 5 and the gcd check
    # pass; only the reduced tuple's are misreported
    red = reduce_tuple((2, 1, 1, 3), GAUSS)
    true_invariants = cm.invariants
    monkeypatch.setattr(cm, "invariants", lambda t, kind: (
        tuple(v + 1 for v in true_invariants(t, kind)) if t == red else true_invariants(t, kind)
    ))
    with pytest.raises(ArithmeticError, match="missed the target invariants"):
        reduce_tuple((2, 1, 1, 3), GAUSS)


def _ring_mul(t, g, s):
    """(x + y w) (a + b w)."""
    (x, y), (a, b) = g, s
    return x * a - y * b, x * b + y * a + t * y * b


@pytest.mark.parametrize("surface", [GAUSS, EISEN])
@pytest.mark.parametrize("digits", [5, 20, 40])
def test_reduce_tuple_divides_by_a_large_gcd(surface, digits):
    # s = g u with u1, u2 coprime and n(g) ~ 10^(2 digits): one Euclid and
    # one division give back u up to a unit
    rng = random.Random(digits)
    t, hi = surface.trace, 10**digits
    cases = 0
    while cases < 20:
        g = (rng.randint(-hi, hi), rng.randint(-hi, hi))
        u = tuple(rng.randint(-50, 50) for _ in range(4))
        if gcd(*g) != 1 or not any(u) or tuple_gcd(u, surface) != 1:
            continue
        cases += 1
        s = _ring_mul(t, g, u[:2]) + _ring_mul(t, g, u[2:])
        dd = tuple_gcd(s, surface)
        assert dd == g[0] ** 2 + t * g[0] * g[1] + g[1] ** 2
        red = reduce_tuple(s, surface)
        assert tuple_gcd(red, surface) == 1
        assert invariants(red, surface) == tuple(v // dd for v in invariants(s, surface))
        assert canonical_tuple(red, surface) == canonical_tuple(u, surface)


@given(st.sampled_from([GAUSS, EISEN]), primitive4)
@settings(max_examples=80)
def test_unit_orbit_preserves_the_curve(surface, t):
    base = invariants(t, surface)
    orbit = unit_orbit(t, surface)
    assert canonical_tuple(t, surface) == min(orbit)
    for other in orbit:
        assert invariants(other, surface) == base


@given(st.sampled_from([GAUSS, EISEN]), st.data())
@settings(max_examples=40, deadline=None)
def test_value_at_most_generator_degrees(surface, data):
    L = data.draw(ample_classes(surface))
    result = seshadri_constant(L)
    from seshadri.lattice import generator_pairings

    assert result.value <= min(generator_pairings(L))
    for w in result.witnesses:
        assert sum(c * v for c, v in zip(L.coeffs, w.degrees)) == result.value


@given(st.sampled_from([GAUSS, EISEN]), st.data(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_homogeneity(surface, data, k):
    L = data.draw(ample_classes(surface, bound=6))
    scaled = ns_class(surface, tuple(k * c for c in L.coeffs))
    assert seshadri_constant(scaled).value == k * seshadri_constant(L).value


@given(st.sampled_from([GAUSS, EISEN]), st.data())
@settings(max_examples=40, deadline=None)
def test_matches_oracle(surface, data):
    L = data.draw(ample_classes(surface, bound=6))
    assert seshadri_constant(L).value == oracle.cm_seshadri(L)


@pytest.mark.parametrize(
    "surface, coeffs, message",
    [
        (Surface.CM_GAUSSIAN, (1, 0, 0, 0), "not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0"),
        (
            Surface.CM_EISENSTEIN, (1, 1, -3, 0),
            "not ample: L.F1 = -2 <= 0; L.F2 = -2 <= 0; L.Sigma = -1 <= 0; L^2 = -10 <= 0",
        ),
        (Surface.NO_CM, (7, 6, -3), "surface mismatch: expected a CM surface"),
        # non-ample and non-CM: ampleness is reported first
        (Surface.NO_CM, (1, 0, 0), "not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0"),
    ],
)
def test_input_errors(surface, coeffs, message):
    L = ns_class(surface, coeffs)
    for checked in (cm.seshadri_constant, cm.search_bound):
        with pytest.raises(ValueError) as info:
            checked(L)
        assert type(info.value) is ValueError and str(info.value) == message


def test_degree_value_rejects_nocm():
    L = ns_class(Surface.NO_CM, (7, 6, -3))
    with pytest.raises(ValueError) as info:
        degree_value(L, (1, 0, 0, 0))
    assert type(info.value) is ValueError
    assert str(info.value) == "surface mismatch: expected a CM surface"


def test_ampleness_checked_once_per_call(monkeypatch):
    calls = []
    require_ample = cm.require_ample
    monkeypatch.setattr(cm, "require_ample", lambda L: calls.append(L) or require_ample(L))
    L = ns_class(Surface.CM_GAUSSIAN, (1, 1, 1, 1))
    assert cm.seshadri_constant(L).value == 3
    assert calls == [L]
