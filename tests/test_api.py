import ast
import doctest
from pathlib import Path

import seshadri
from seshadri import Surface, ns_class, seshadri_constant


def test_dispatch_by_surface():
    rank3 = seshadri_constant(ns_class(Surface.NO_CM, (7, 6, -3)))
    assert rank3.value == 1 and rank3.witnesses == frozenset({(1, 1)})
    rank4 = seshadri_constant(ns_class(Surface.CM_GAUSSIAN, (4, 2, 3, -2)))
    assert rank4.value == 1
    assert [w.degrees for w in rank4.witnesses] == [(1, 2, 1, 5)]


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
