"""The oracle's class path against its generic path.

`nocm_seshadri` and `cm_seshadri` hand the oracle's own integer Gram
`_scaled_degree_form(L) = (s, s * G)` straight to the search core `_minimize`,
skipping the validation and scaling of `min_quadratic_form`, and read the
minimum from the core's integers without building a report.  These tests
require that shortcut to give the generic path's minimum and minimizers, and
`degree_form` to be a view of the same builder with its entry types unchanged.
"""
from fractions import Fraction as F
from itertools import product

import pytest

from seshadri import oracle
from seshadri.lattice import Surface, is_ample, ns_class
from seshadri.sampling import random_ample_classes
from test_large_coefficients import near_boundary_classes, near_boundary_cm_classes
from test_oracle import _canonical_sign

EISENSTEIN = Surface.CM_EISENSTEIN


def _assert_class_path_matches(L):
    s, a = oracle._scaled_degree_form(L)
    scale, best, pts = oracle._minimize(a)
    generic = oracle.min_quadratic_form(oracle.degree_form(L))
    assert type(generic.minimum) is F
    # the class function's integer is the generic minimum
    fn = oracle.nocm_seshadri if L.surface is Surface.NO_CM else oracle.cm_seshadri
    value = fn(L)
    assert type(value) is int and value == generic.minimum, L.coeffs
    assert F(best, s * scale) == generic.minimum, L.coeffs
    # the core keeps one of each pair +-x, the one whose last nonzero
    # coordinate is positive; normalised, they are the generic minimizers
    assert all(next(filter(None, reversed(p))) > 0 for p in pts), L.coeffs
    assert tuple(sorted(map(_canonical_sign, pts))) == generic.minimizers, L.coeffs


@pytest.mark.parametrize("bound", [8, 100, 10**4, 10**12])
@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_class_path_equals_generic_path(surface, bound):
    for L in random_ample_classes(surface, 60, bound, seed=bound % 887):
        _assert_class_path_matches(L)


def test_class_path_equals_generic_path_near_the_boundary():
    # sizes the oracle reaches in test_large_coefficients, each searched twice
    for size in (10**2, 10**4, 10**6):
        for L, *_ in near_boundary_classes(size, seed=size % 983):
            _assert_class_path_matches(L)
    for surface in (Surface.CM_GAUSSIAN, EISENSTEIN):
        for size in (10**2, 10**3):
            for L, *_ in near_boundary_cm_classes(surface, size, seed=size % 983):
                _assert_class_path_matches(L)


def test_class_path_on_both_eisenstein_scalings():
    # s = 1 needs every half-entry integral: a3 and a4 even with A and C
    # even, i.e. every coefficient even; doubling an ample class gives one
    seen = set()
    for bound in (8, 10**4, 10**12):
        for L in random_ample_classes(EISENSTEIN, 30, bound, seed=bound % 881):
            for M in (L, ns_class(EISENSTEIN, tuple(2 * v for v in L.coeffs))):
                s, _ = oracle._scaled_degree_form(M)
                seen.add(s)
                _assert_class_path_matches(M)
    assert seen == {1, 2}


def _gram_of(s, a):
    return tuple(tuple(F(v, s) for v in row) for row in a)


@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_degree_form_is_a_view_of_the_integer_builder(surface):
    for coeffs in product(range(-3, 4), repeat=surface.rank):
        L = ns_class(surface, coeffs)
        s, a = oracle._scaled_degree_form(L)
        gram = oracle.degree_form(L)
        assert gram == _gram_of(s, a), coeffs
        # s is the lcm of the entries' denominators, as the generic path's
        assert oracle._integer_gram(gram) == (s, a), coeffs
        halves = surface is EISENSTEIN and any(v % 2 for v in coeffs)
        assert s == (2 if halves else 1), coeffs
        assert all(type(v) is int for row in a for v in row), coeffs
        for i, row in enumerate(gram):
            for j, v in enumerate(row):
                want = F if surface is EISENSTEIN and i != j else int
                assert type(v) is want, (coeffs, i, j)


NOT_AMPLE = [
    (oracle.nocm_seshadri, Surface.NO_CM, (1, 0, 0),
     "not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0"),
    (oracle.nocm_seshadri, Surface.NO_CM, (-2, 3, 1),
     "not ample: L.F2 = -1 <= 0; L^2 = -10 <= 0"),
    (oracle.cm_seshadri, Surface.CM_GAUSSIAN, (0, 0, 0, 1),
     "not ample: L.Sigma = 0 <= 0; L^2 = 0 <= 0"),
    (oracle.cm_seshadri, EISENSTEIN, (1, 1, 2, -3),
     "not ample: L.F1 = 0 <= 0; L.F2 = 0 <= 0; L.Delta = -1 <= 0; L^2 = -14 <= 0"),
    # ampleness is reported before the surface
    (oracle.cm_seshadri, Surface.NO_CM, (1, 0, 0),
     "not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0"),
    (oracle.nocm_seshadri, Surface.CM_GAUSSIAN, (0, 0, 0, 1),
     "not ample: L.Sigma = 0 <= 0; L^2 = 0 <= 0"),
]

WRONG_SURFACE = [
    (oracle.nocm_seshadri, Surface.CM_GAUSSIAN, (1, 1, 0, 0),
     "surface mismatch: expected the nocm surface"),
    (oracle.nocm_seshadri, EISENSTEIN, (1, 1, 0, 0),
     "surface mismatch: expected the nocm surface"),
    (oracle.cm_seshadri, Surface.NO_CM, (7, 6, -3),
     "surface mismatch: expected a CM surface"),
]


@pytest.mark.parametrize("fn", [oracle.nocm_seshadri, oracle.cm_seshadri],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [(1, 1, 1), "L", None], ids=repr)
def test_class_functions_reject_a_non_class(fn, value):
    with pytest.raises(TypeError) as info:
        fn(value)
    assert type(info.value) is TypeError
    assert str(info.value) == f"expected an NSClass, got {type(value).__name__}"


@pytest.mark.parametrize("fn,surface,coeffs,message", NOT_AMPLE + WRONG_SURFACE)
def test_class_function_errors_keep_their_text(fn, surface, coeffs, message):
    L = ns_class(surface, coeffs)
    assert is_ample(L) == message.startswith("surface")
    with pytest.raises(ValueError) as info:
        fn(L)
    assert type(info.value) is ValueError
    assert str(info.value) == message
