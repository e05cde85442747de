import os
import subprocess
import sys
from pathlib import Path

import pytest

import seshadri
from seshadri.lattice import Surface, is_ample
from seshadri.sampling import random_ample_classes


def test_seeded_stream_is_pinned():
    # goldens, `seshadri check` output and benchmark seeds depend on it
    draws = {s: [L.coeffs for L in random_ample_classes(s, 2, 10**6, seed=7)] for s in Surface}
    assert draws == {
        Surface.NO_CM: [(219703, 197902, 339898), (835296, -279680, 529757)],
        Surface.CM_GAUSSIAN: [(-23563, 228012, 936596, -49604), (654850, 836010, 716211, -342024)],
        Surface.CM_EISENSTEIN: [(-23563, 228012, 936596, -49604), (38334, 835296, -279680, 529757)],
    }
    unit_box = random_ample_classes(Surface.NO_CM, 3, 1, seed=7)
    assert [L.coeffs for L in unit_box] == [(1, 1, 0), (1, 1, 0), (1, 0, 1)]
    assert all(map(is_ample, unit_box))


@pytest.mark.parametrize("bound", [0, -3])
def test_bound_below_one_raises(bound):
    # in a child process: the bound-0 loop used to spin forever, and the
    # timeout turns that into a failure instead of a hung suite
    code = (
        "from seshadri.lattice import Surface\n"
        "from seshadri.sampling import random_ample_classes\n"
        "try:\n"
        f"    random_ample_classes(Surface.NO_CM, 1, {bound}, seed=0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(seshadri.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout == f"coefficient bound must be at least 1, got {bound}\n"
