import ast
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
