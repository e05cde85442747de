import ast
import doctest
import re
from fractions import Fraction
from pathlib import Path

import pytest

import seshadri
from seshadri import Surface, cm, cross_section, lattice, nocm, ns_class, oracle, seshadri_constant

AMPLE_NOCM = ns_class(Surface.NO_CM, (7, 6, -3))


def test_dispatch_by_surface():
    rank3 = seshadri_constant(ns_class(Surface.NO_CM, (7, 6, -3)))
    assert rank3.value == 1 and rank3.witnesses == frozenset({(1, 1)})
    rank4 = seshadri_constant(ns_class(Surface.CM_GAUSSIAN, (4, 2, 3, -2)))
    assert rank4.value == 1
    assert [w.degrees for w in rank4.witnesses] == [(1, 2, 1, 5)]


def test_every_result_is_a_named_tuple_of_its_fields():
    results = [
        seshadri_constant(ns_class(surface, coeffs))
        for surface, coeffs in [
            (Surface.NO_CM, (7, 6, -3)),
            (Surface.CM_GAUSSIAN, (4, 2, 3, -2)),
            (Surface.CM_EISENSTEIN, (2, 2, 1, -1)),
        ]
    ]
    assert {type(result) for result in results} == {lattice.SeshadriResult}
    assert nocm.SeshadriResult is lattice.SeshadriResult
    for result in results:
        assert result == (result.value, result.witnesses)
    for witness in results[1].witnesses + results[2].witnesses:
        assert witness == (witness.degrees, witness.representative)
    for segment in cross_section.cross_section(Fraction(8, 11)).segments:
        assert segment == (segment.slope, segment.intercept, segment.witness)
    report = oracle.min_quadratic_form(((2, 1), (1, 2)))
    assert report == (report.minimum, report.minimizers)


# The two-argument functions, with the value in one argument and a valid
# class or curve in the other.
def intersect_on_the_left(x):
    return lattice.intersect(x, AMPLE_NOCM)


def intersect_on_the_right(x):
    return lattice.intersect(AMPLE_NOCM, x)


def nocm_degree(x):
    return nocm.degree(x, (1, 0))


def cm_degree_value(x):
    return cm.degree_value(x, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "entry",
    [
        seshadri_constant,
        nocm.seshadri_constant,
        nocm.submaximal_curves,
        cm.seshadri_constant,
        cm.search_bound,
        oracle.nocm_seshadri,
        oracle.cm_seshadri,
        oracle.degree_form,
        lattice.is_ample,
        lattice.is_nef,
        lattice.self_intersection,
        lattice.generator_pairings,
        intersect_on_the_left,
        intersect_on_the_right,
        nocm_degree,
        cm_degree_value,
    ],
    ids=lambda f: f"{f.__module__}.{f.__name__}",
)
@pytest.mark.parametrize("value", [None, (7, 6, -3), "x"], ids=["None", "tuple", "str"])
def test_a_non_class_raises_type_error(entry, value):
    with pytest.raises(TypeError, match="expected an NSClass"):
        entry(value)


#: The functions that take a surface and a tuple, each with a valid tuple.
SURFACE_ENTRIES = {
    "cm.invariants": lambda s: cm.invariants((1, 0, 0, 0), s),
    "cm.tuple_gcd": lambda s: cm.tuple_gcd((1, 0, 0, 0), s),
    "cm.degree_vector": lambda s: cm.degree_vector((1, 0, 0, 0), s),
    "cm.unit_orbit": lambda s: cm.unit_orbit((1, 0, 0, 0), s),
    "cm.canonical_tuple": lambda s: cm.canonical_tuple((1, 0, 0, 0), s),
    "cm.reduce_tuple": lambda s: cm.reduce_tuple((2, 0, 0, 0), s),
    "lattice.ample_square": lambda s: lattice.ample_square(s, (1, 1, 1, 1)),
}


@pytest.mark.parametrize("name", SURFACE_ENTRIES)
@pytest.mark.parametrize("value", ["cm-i", "nocm", None], ids=["cm-i", "nocm", "None"])
def test_a_non_surface_raises_type_error(name, value):
    # a surface's name is not the surface
    with pytest.raises(TypeError, match="^surface must be a Surface$"):
        SURFACE_ENTRIES[name](value)


#: The functions that read a curve tuple (a pair on nocm), each with a
#: valid tuple.
TUPLE_ENTRIES = {
    "cm.invariants": (lambda t: cm.invariants(t, Surface.CM_GAUSSIAN), (1, 0, 0, 0)),
    "cm.tuple_gcd": (lambda t: cm.tuple_gcd(t, Surface.CM_GAUSSIAN), (1, 0, 0, 0)),
    "cm.degree_vector": (lambda t: cm.degree_vector(t, Surface.CM_EISENSTEIN), (1, 0, 0, 0)),
    "cm.unit_orbit": (lambda t: cm.unit_orbit(t, Surface.CM_EISENSTEIN), (1, 0, 0, 0)),
    "cm.canonical_tuple": (lambda t: cm.canonical_tuple(t, Surface.CM_GAUSSIAN), (1, 0, 0, 0)),
    "cm.reduce_tuple": (lambda t: cm.reduce_tuple(t, Surface.CM_GAUSSIAN), (1, 1, 1, 1)),
    "cm.degree_value": (lambda t: cm.degree_value(ns_class(Surface.CM_GAUSSIAN, (1, 1, 1, 1)), t),
                        (1, 0, 0, 0)),
    "nocm.degree": (lambda t: nocm.degree(AMPLE_NOCM, t), (1, 0)),
}


@pytest.mark.parametrize("name", TUPLE_ENTRIES)
def test_a_tuple_of_non_integers_or_the_wrong_length_raises(name):
    # entries are read with `operator.index`: a float, even an integral one,
    # is no curve tuple, where it used to give a float result
    call, valid = TUPLE_ENTRIES[name]
    call(valid)
    for bad in (0.5, 1.0, "1"):
        for i in (0, len(valid) - 1):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(valid[:i] + (bad,) + valid[i + 1:])
    for wrong in (valid + (0,), valid[:-1]):
        with pytest.raises(ValueError):
            call(wrong)


def test_version():
    # the `[project]` table's version; a regex, since 3.10 has no `tomllib`
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version = "([^"]+)"$', table, re.M).group(1)
    assert seshadri.__version__ == version


def test_library_has_no_assert_statement():
    # no result may depend on `assert`, which `python -O` strips
    for path in sorted(Path(seshadri.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_readme_example_runs():
    # the README's `>>>` lines; the wrapped `breakpoints` output needs
    # NORMALIZE_WHITESPACE
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(
        str(readme), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0 and result.failed == 0, result
