import ast
import doctest
from pathlib import Path

import pytest

import seshadri
from seshadri import Surface, cm, nocm, ns_class, oracle, seshadri_constant


def test_dispatch_by_surface():
    rank3 = seshadri_constant(ns_class(Surface.NO_CM, (7, 6, -3)))
    assert rank3.value == 1 and rank3.witnesses == frozenset({(1, 1)})
    rank4 = seshadri_constant(ns_class(Surface.CM_GAUSSIAN, (4, 2, 3, -2)))
    assert rank4.value == 1
    assert [w.degrees for w in rank4.witnesses] == [(1, 2, 1, 5)]


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
    ],
    ids=lambda f: f"{f.__module__}.{f.__name__}",
)
@pytest.mark.parametrize("value", [None, (7, 6, -3), "x"], ids=["None", "tuple", "str"])
def test_a_non_class_raises_type_error(entry, value):
    with pytest.raises(TypeError, match="expected an NSClass"):
        entry(value)


def test_version():
    assert seshadri.__version__


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
