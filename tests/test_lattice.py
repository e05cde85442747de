from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.lattice import (
    GENERATOR_LABELS,
    NSClass,
    Surface,
    generator_classes,
    generator_pairings,
    gram_matrix,
    intersect,
    is_ample,
    is_nef,
    ns_class,
    require_ample,
    self_intersection,
)

coeff = st.integers(min_value=-200, max_value=200)


def classes(surface):
    return st.tuples(*[coeff] * surface.rank).map(lambda t: NSClass(surface, t))


def test_gram_matrices():
    assert gram_matrix(Surface.NO_CM) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    g = gram_matrix(Surface.CM_GAUSSIAN)
    assert g[2][3] == g[3][2] == 2
    assert all(g[i][i] == 0 for i in range(4))
    e = gram_matrix(Surface.CM_EISENSTEIN)
    assert all(e[i][j] == (0 if i == j else 1) for i in range(4) for j in range(4))


@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_surface_facts_match_gram(surface):
    # the rank and trace that every module reads agree with the definition
    gram = gram_matrix(surface)
    assert len(gram) == surface.rank
    assert (surface.trace is None) == (surface is Surface.NO_CM)
    if surface.trace is not None:
        assert gram[2][3] == 2 - surface.trace  # Delta . Sigma


@pytest.mark.parametrize(
    "surface,x,y,expected",
    [
        (Surface.NO_CM, (1, 0, 0), (0, 1, 0), 1),
        (Surface.CM_GAUSSIAN, (0, 0, 1, 0), (0, 0, 0, 1), 2),
        (Surface.CM_EISENSTEIN, (0, 0, 1, 0), (0, 0, 0, 1), 1),
    ],
)
def test_intersect_examples(surface, x, y, expected):
    assert intersect(ns_class(surface, x), ns_class(surface, y)) == expected


def test_surface_mismatch():
    with pytest.raises(ValueError, match="surface mismatch"):
        intersect(ns_class(Surface.NO_CM, (1, 0, 0)), ns_class(Surface.CM_GAUSSIAN, (1, 0, 0, 0)))


def test_adding_a_non_class_is_unsupported():
    L = ns_class(Surface.NO_CM, (1, 1, 1))
    with pytest.raises(TypeError, match="unsupported operand"):
        L + 1
    with pytest.raises(ValueError, match="surface mismatch"):
        L + ns_class(Surface.CM_GAUSSIAN, (1, 1, 1, 1))


def test_wrong_arity():
    with pytest.raises(ValueError):
        ns_class(Surface.NO_CM, (1, 2, 3, 4))


@pytest.mark.parametrize(
    "coeffs", [(1.9, 2, 3), (1, 2, Fraction(7, 2)), (1, 2, Fraction(3)), ("1", "2", "3")]
)
def test_ns_class_rejects_non_integers(coeffs):
    # coefficients are never truncated or parsed
    with pytest.raises(TypeError, match="coefficients must be integers"):
        ns_class(Surface.NO_CM, coeffs)


def test_ns_class_requires_a_tuple():
    # a list would leave the class unhashable and unequal to its `ns_class` twin
    with pytest.raises(TypeError, match="coefficients must be a tuple"):
        NSClass(Surface.NO_CM, [3, 2, -1])
    with pytest.raises(ValueError, match="expected 3 coefficients for nocm, got 2"):
        NSClass(Surface.NO_CM, (3, 2))
    with pytest.raises(TypeError, match="coefficients must be integers"):
        NSClass(Surface.NO_CM, (3, 2, -1.0))


@pytest.mark.parametrize("make", [NSClass, ns_class])
def test_class_requires_a_surface(make):
    # a surface's name is not a `Surface`
    with pytest.raises(TypeError, match="^surface must be a Surface$"):
        make("nocm", (1, 1, 1))


def test_ns_class_keeps_integers():
    big = 10**40
    assert ns_class(Surface.NO_CM, [big, -2, 0]).coeffs == (big, -2, 0)
    assert ns_class(Surface.CM_GAUSSIAN, iter((1, 2, 3, 4))).coeffs == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "surface,x,expected",
    [
        (Surface.NO_CM, (3, 2, -1), 2),
        (Surface.CM_GAUSSIAN, (1, 1, 1, 1), 14),
        (Surface.NO_CM, (1, 0, 0), 0),
    ],
)
def test_self_intersection_examples(surface, x, expected):
    assert self_intersection(ns_class(surface, x)) == expected


@given(classes(Surface.NO_CM))
def test_self_intersection_closed_form_nocm(x):
    a1, a2, a3 = x.coeffs
    assert self_intersection(x) == 2 * (a1 * a2 + a1 * a3 + a2 * a3)


@given(classes(Surface.CM_GAUSSIAN))
def test_self_intersection_closed_form_gaussian(x):
    a1, a2, a3, a4 = x.coeffs
    assert self_intersection(x) == 2 * (
        a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + 2 * a3 * a4
    )


@given(classes(Surface.CM_EISENSTEIN))
def test_self_intersection_closed_form_eisenstein(x):
    a1, a2, a3, a4 = x.coeffs
    assert self_intersection(x) == 2 * (
        a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + a3 * a4
    )


@pytest.mark.parametrize(
    "surface,x,expected",
    [
        (Surface.NO_CM, (7, 6, -3), True),
        (Surface.NO_CM, (1, 0, 0), False),
        (Surface.CM_GAUSSIAN, (-1, 2, 1, 2), True),
    ],
)
def test_is_ample_examples(surface, x, expected):
    assert is_ample(ns_class(surface, x)) is expected


@pytest.mark.parametrize(
    "x,expected",
    [((1, 0, 0), True), ((1, 1, -2), False), ((1, 1, 0), True)],
)
def test_is_nef_examples(x, expected):
    assert is_nef(ns_class(Surface.NO_CM, x)) is expected


@given(st.sampled_from(list(Surface)), st.data())
def test_symmetry_and_evenness(surface, data):
    x = data.draw(classes(surface))
    y = data.draw(classes(surface))
    assert intersect(x, y) == intersect(y, x)
    assert self_intersection(x) % 2 == 0


@given(st.sampled_from(list(Surface)), st.data())
@settings(max_examples=60)
def test_bilinearity(surface, data):
    x = data.draw(classes(surface))
    y = data.draw(classes(surface))
    z = data.draw(classes(surface))
    k = data.draw(st.integers(min_value=-5, max_value=5))
    assert intersect(x + y, z) == intersect(x, z) + intersect(y, z)
    assert intersect(k * x, z) == k * intersect(x, z)


@given(st.sampled_from(list(Surface)), st.data())
def test_ample_implies_nef_and_positive_square(surface, data):
    x = data.draw(classes(surface))
    if is_ample(x):
        assert is_nef(x)
        assert self_intersection(x) >= 2


@given(classes(Surface.NO_CM), st.permutations([0, 1, 2]))
def test_ampleness_permutation_invariant(x, perm):
    permuted = ns_class(Surface.NO_CM, tuple(x.coeffs[i] for i in perm))
    assert is_ample(x) == is_ample(permuted)


def test_generators_are_nef_not_ample():
    for surface in Surface:
        for g in generator_classes(surface):
            assert is_nef(g) and not is_ample(g)
            assert self_intersection(g) == 0


@pytest.mark.parametrize("surface", list(Surface))
def test_straight_line_forms_match_gram_on_a_box(surface):
    # `_GRAM` is the definition: every value is recomputed from its rows
    gram = gram_matrix(surface)
    for coeffs in product(range(-5, 6), repeat=surface.rank):
        L = ns_class(surface, coeffs)
        pairings = tuple(sum(map(mul, row, coeffs)) for row in gram)
        square = sum(map(mul, coeffs, pairings))
        assert generator_pairings(L) == pairings
        assert self_intersection(L) == square
        assert is_nef(L) is (min(pairings) >= 0 and square >= 0)
        ample = min(pairings) > 0 and square > 0
        assert is_ample(L) is ample
        if ample:
            assert require_ample(L) == square
            continue
        failed = [f"L.{n} = {p} <= 0" for n, p in zip(GENERATOR_LABELS, pairings) if p <= 0]
        failed += [f"L^2 = {square} <= 0"] if square <= 0 else []
        with pytest.raises(ValueError) as info:
            require_ample(L)
        assert type(info.value) is ValueError
        assert str(info.value) == "not ample: " + "; ".join(failed)


def test_not_ample_message_examples():
    with pytest.raises(ValueError) as info:
        require_ample(ns_class(Surface.CM_GAUSSIAN, (1, -1, 0, 0)))
    assert str(info.value) == "not ample: L.F1 = -1 <= 0; L.Delta = 0 <= 0; L.Sigma = 0 <= 0; L^2 = -2 <= 0"
