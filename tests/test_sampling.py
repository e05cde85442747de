import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import seshadri
from seshadri import sampling
from seshadri.lattice import Surface, ample_square, is_ample
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
    # the `check` workload's shape: five classes at bounds 8 and 100
    check_shape = {
        Surface.NO_CM: {
            (8, 0): [(0, 8, 7), (4, 1, 7), (3, -2, 8), (3, 5, 2), (-2, 7, 6)],
            (8, 7): [(-2, 7, 5), (2, 6, 6), (1, 8, 7), (2, 6, 1), (2, 3, 7)],
            (8, 2147483647): [(8, 6, 2), (4, 5, 6), (6, 2, 3), (5, -2, 5), (5, 5, 3)],
            (100, 0): [(-2, 94, 7), (24, 3, 100), (22, 13, 33), (2, 81, 100), (56, 26, -15)],
            (100, 7): [(47, 49, 1), (74, 36, 9), (49, 16, -8), (78, 99, -38), (34, 26, -13)],
            (100, 2147483647): [(75, 57, 56), (65, -6, 43), (80, 72, 3), (3, 84, 86), (6, 63, 13)],
        },
        Surface.CM_GAUSSIAN: {
            (8, 0): [(8, 7, 4, 1), (7, 3, -2, 8), (3, 5, 2, -2), (7, 6, 8, 0), (-6, 2, 8, 7)],
            (8, 7): [(7, 5, 2, 6), (6, 3, 1, -1), (8, 7, 2, 6), (2, 2, 3, 7), (6, 1, 4, 3)],
            (8, 2147483647): [(-2, 8, 6, 2), (-3, -4, 6, 8), (-1, -1, 6, 7), (5, -2, 5, 2), (4, 0, 2, 4)],
            (100, 0): [(58, -36, 36, 80), (11, -20, 56, 63), (81, 100, 71, 60), (40, 50, -27, 13), (38, 74, 0, 80)],
            (100, 7): [(58, -48, 27, 74), (19, 49, 16, -8), (86, 14, -27, 55), (52, 27, 48, 16), (87, 79, -21, 65)],
            (100, 2147483647): [(12, -14, 61, 75), (57, 56, 65, -6), (-37, 3, 84, 86), (-81, 77, 57, 67), (77, 39, 45, -6)],
        },
        Surface.CM_EISENSTEIN: {
            (8, 0): [(8, 7, 4, 1), (7, 3, -2, 8), (3, 5, 2, -2), (7, 6, 8, 0), (2, -2, 1, 6)],
            (8, 7): [(7, 5, 2, 6), (6, 3, 1, -1), (8, 7, 2, 6), (2, 2, 3, 7), (6, 1, 4, 3)],
            (8, 2147483647): [(-2, 8, 6, 2), (6, 2, 3, -3), (-1, -1, 6, 7), (5, -2, 5, 2), (4, 0, 2, 4)],
            (100, 0): [(58, -36, 36, 80), (11, -20, 56, 63), (81, 100, 71, 60), (40, 50, -27, 13), (38, 74, 0, 80)],
            (100, 7): [(58, -48, 27, 74), (36, 9, 98, -20), (19, 49, 16, -8), (86, 14, -27, 55), (52, 27, 48, 16)],
            (100, 2147483647): [(12, -14, 61, 75), (57, 56, 65, -6), (-37, 3, 84, 86), (79, 62, 96, -72), (77, 39, 45, -6)],
        },
    }
    for surface, expected in check_shape.items():
        for (bound, seed), coeffs in expected.items():
            drawn = random_ample_classes(surface, 5, bound, seed)
            assert [L.coeffs for L in drawn] == coeffs, (surface, bound, seed)
            assert all(map(is_ample, drawn))


@pytest.mark.parametrize("surface, draws", [(Surface.NO_CM, 2956), (Surface.CM_GAUSSIAN, 3264),
                                            (Surface.CM_EISENSTEIN, 3326)],
                         ids=lambda x: x.value if isinstance(x, Surface) else None)
def test_draw_count_is_pinned(surface, draws, monkeypatch):
    # the gate runs once per drawn tuple, so this counts the draws for 600
    # kept classes; a change to the rejection loop moves it
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return ample_square(*args)

    monkeypatch.setattr(sampling, "ample_square", counted)
    for bound in (8, 100, 10**4):
        assert len(random_ample_classes(surface, 200, bound, seed=bound % 991)) == 200
    assert calls[0] == draws


def _reference_stream(surface, count, bound, seed):
    # the draw the sampler's seeded stream was defined by
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randrange(2 * bound + 1) - bound for _ in range(surface.rank))
        if ample_square(surface, coeffs):
            out.append(coeffs)
    return out


@pytest.mark.parametrize("bound", [1, 8, 100, 10**12, 2**70], ids=str)
@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_stream_matches_randrange_reference(surface, bound):
    for seed in range(200):
        drawn = [L.coeffs for L in random_ample_classes(surface, 3, bound, seed)]
        assert drawn == _reference_stream(surface, 3, bound, seed), seed


@pytest.mark.parametrize("count,bound,seed", [(2.5, 8, 0), (0.1, 8, 0), (2, 8.0, 0),
                                              (2, 8, None), (2, 8, "7"), (2, 8, 1.5)])
def test_non_integer_count_or_bound_raises_type_error(count, bound, seed):
    # 2.5 used to give 3 classes, 0.1 one class, and 8.0 an AttributeError;
    # a None seed drew a new list on each call, "7" and 1.5 were hashed
    with pytest.raises(TypeError):
        random_ample_classes(Surface.NO_CM, count, bound, seed=seed)


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


@pytest.mark.parametrize("count", [-1, -3])
def test_negative_count_raises(count):
    # -3 used to return [] as if no class had been asked for
    with pytest.raises(ValueError) as info:
        random_ample_classes(Surface.NO_CM, count, 8, seed=0)
    assert str(info.value) == f"count must be at least 0, got {count}"


@pytest.mark.parametrize("count", [0, 1])
def test_surface_name_raises_type_error(count):
    # a surface's name is not a `Surface`, even when no class is drawn
    with pytest.raises(TypeError, match="^surface must be a Surface$"):
        random_ample_classes("nocm", count, 8, 0)


@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_zero_count_is_empty(surface):
    assert random_ample_classes(surface, 0, 8, seed=0) == []
