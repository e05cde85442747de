"""Smoke test of the benchmark command at a tiny run length.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    assert meta_line.startswith("meta ")
    return json.loads(meta_line[5:]), json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_present_and_results_correct(workload, trace):
    meta, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert meta["trace_mismatches"] == 0
        assert isinstance(meta["absent_layers"], list)
        header, *rows = (ROOT / meta["spans_file"]).read_text().splitlines()
        assert header.split("\t") == ["id", "parent", "name", "start_ns",
                                       "end_ns", "call"]
        assert len(rows) == meta["spans"] > 0
        spans = [row.split("\t") for row in rows]
        ids = {span[0] for span in spans} | {"0"}
        assert all(span[1] in ids for span in spans)
    else:
        assert meta["fail_ratio"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_layer_the_library_no_longer_has_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing
    import workloads
    from seshadri import kernels

    monkeypatch.delattr(kernels, "quartic_min_box")
    rank3 = workloads.WORKLOADS["rank3"]
    arg = next(rank3.inputs(Random("absent")))
    expected = rank3.call(arg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tracer.call(rank3.call, arg)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["kernels.quartic_min_box"]
    assert result == expected
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["kernels.slabs"]["value"] == 0
    assert metrics["kernels.quartic_min_box.busy_ns"]["value"] == 0
    assert metrics["nocm.seshadri_constant.self_ns"]["value"] > 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer()
    # parent 0..100; two slab children overlapping on 20..60 and 40..90
    tracer.spans = [(1, 0, "parent", 0, 100, 1),
                    (2, 1, "slab", 20, 60, 1),
                    (3, 1, "slab", 40, 90, 1)]
    assert tracer.self_times() == {"parent": 30, "slab": 90}
    assert tracer.busy_times()["slab"] == 90


def test_histogram_percentiles_match_the_sorted_sample():
    sys.path.insert(0, str(HERE))
    import run

    rng = Random(3)
    sample = sorted(rng.lognormvariate(12, 1) for _ in range(20_000))
    histogram = run.Histogram()
    for ns in sample:
        histogram.add(ns)
    for fraction in (0.5, 0.9, 0.99):
        exact = sample[int(fraction * len(sample))]
        assert histogram.percentile(fraction) == pytest.approx(exact, rel=0.002)
