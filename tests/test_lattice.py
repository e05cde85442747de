from fractions import Fraction
from itertools import product
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.lattice import (
    GENERATOR_LABELS,
    NSClass,
    Surface,
    _class_form,
    ample_square,
    generator_classes,
    generator_pairings,
    intersect,
    is_ample,
    is_nef,
    ns_class,
    require_ample,
    self_intersection,
)
from seshadri.oracle import degree_form

from test_large_coefficients import (
    NEAR_BOUNDARY_SIZES,
    near_boundary_classes,
    near_boundary_cm_classes,
)

coeff = st.integers(min_value=-200, max_value=200)

# The intersection matrices of the basis (F1, F2, Delta[, Sigma]), written
# out in full: the reference the library's straight-line pairings are pinned to.
GRAM = {
    Surface.NO_CM: (
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ),
    Surface.CM_GAUSSIAN: (
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 2),
        (1, 1, 2, 0),
    ),
    Surface.CM_EISENSTEIN: (
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    ),
}


def gram_pairings(surface, coeffs):
    return tuple(sum(map(mul, row, coeffs)) for row in GRAM[surface])


def classes(surface):
    return st.tuples(*[coeff] * surface.rank).map(lambda t: NSClass(surface, t))


def test_gram_matrices():
    # each basis curve pairs with the basis as its full row of the table
    for surface in Surface:
        for g, row in zip(generator_classes(surface), GRAM[surface], strict=True):
            assert generator_pairings(g) == row, (surface, g.coeffs)


@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_surface_facts_match_gram(surface):
    # the rank and trace that every module reads agree with the definition
    gram = GRAM[surface]
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


def test_generator_classes_requires_a_surface():
    with pytest.raises(TypeError, match="^surface must be a Surface$"):
        generator_classes("nocm")


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
    # `GRAM` is the definition: every value is recomputed from its rows
    for coeffs in product(range(-5, 6), repeat=surface.rank):
        L = ns_class(surface, coeffs)
        pairings = gram_pairings(surface, coeffs)
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


def assert_gate_matches_gram(L):
    # the library's two-inequality gate against every literal-table pairing
    pairings = gram_pairings(L.surface, L.coeffs)
    square = sum(map(mul, L.coeffs, pairings))
    ample = min(pairings) > 0 and square > 0
    assert is_ample(L) is ample, L.coeffs
    assert ample_square(L.surface, L.coeffs) == (square if ample else 0), L.coeffs
    if ample:
        assert require_ample(L) == square, L.coeffs
        return
    failed = [f"L.{n} = {p} <= 0" for n, p in zip(GENERATOR_LABELS, pairings) if p <= 0]
    failed += [f"L^2 = {square} <= 0"] if square <= 0 else []
    with pytest.raises(ValueError) as info:
        require_ample(L)
    assert str(info.value) == "not ample: " + "; ".join(failed)


# any size up to 10^40, with extra weight on magnitudes of 10^39 to 10^40
big = (
    st.integers(min_value=-(10**40), max_value=10**40)
    | st.integers(min_value=10**39, max_value=10**40)
    | st.integers(min_value=-(10**40), max_value=-(10**39))
)


@given(st.sampled_from(list(Surface)), st.data())
@settings(max_examples=300)
def test_light_cone_gate_at_large_coefficients(surface, data):
    coeffs = data.draw(st.tuples(*[big] * surface.rank))
    assert_gate_matches_gram(ns_class(surface, coeffs))


@pytest.mark.parametrize("size", NEAR_BOUNDARY_SIZES)
def test_light_cone_gate_near_the_boundary(size):
    # classes just inside the nef cone, and their negatives just outside
    found = [L for L, *_ in near_boundary_classes(size, seed=size % 983)]
    for surface in (Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN):
        found += [L for L, *_ in near_boundary_cm_classes(surface, size, seed=size % 983)]
    for L in found:
        assert is_ample(L), L.coeffs
        for x in (L, -1 * L):
            assert_gate_matches_gram(x)


def _form_value(surface, form, x):
    """The degree form at x: (c, d) on nocm, (a, b, c, d) on rank 4."""
    t = surface.trace
    if t is None:
        A, B, C = form
        c, d = x
        return A * c * c + 2 * B * c * d + C * d * d
    A, C, b0, b1 = form
    a, b, c, d = x
    return (A * (a * a + t * a * b + b * b) + C * (c * c + t * c * d + d * d)
            + (a * b0 + b * b1) * c + (a * (t * b0 - b1) + b * b0) * d)


@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_class_form_is_the_degree_form(surface):
    # every class of a box, ample or not, and seeded classes up to 10^40:
    # the form is the oracle's Gram form, its determinant is L^2 up to m/2,
    # and it is positive definite exactly when the light-cone gate passes
    rng = Random(surface.rank + (surface.trace or 0))
    found = list(product(range(-4, 5), repeat=surface.rank))
    for bound in (1, 10, 10**4, 10**12, 10**40):
        found += [tuple(rng.randint(-bound, bound) for _ in range(surface.rank))
                  for _ in range(200)]
    t = surface.trace
    m = 1 if t is None else 4 - t * t
    n = 2 if t is None else 4
    for coeffs in found:
        L = ns_class(surface, coeffs)
        form = _class_form(surface, coeffs)
        if t is None:
            A, B, C = form
            det = A * C - B * B
        else:
            A, C, b0, b1 = form
            det = m * A * C - (b0 * b0 - t * b0 * b1 + b1 * b1)
        square = self_intersection(L)
        assert 2 * det == m * square, coeffs
        assert ample_square(surface, coeffs) == (2 * det // m if A > 0 and det > 0 else 0), coeffs
        # doubled, since cm-eisenstein's Gram is half-integral off the diagonal
        gram = [[int(2 * v) for v in row] for row in degree_form(L)]
        for x in [tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(3)]:
            doubled = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            assert 2 * _form_value(surface, form, x) == doubled, (coeffs, x)
