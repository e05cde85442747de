"""Seeded closed-loop benchmark of the seshadri library.

One client thread in one process calls the library's public API and sends
the next call only after the previous one has returned.  Inputs come from
the workload's seeded stream; every result is checked between calls,
outside the timed region.  The library runs with its defaults (the thread
count comes from the machine, not from SESHADRI_THREADS).

    python3 perfbench/run.py --workload rank4 --seed 1 --seconds 20 --trace 0

The process pins itself to one CPU, and every time it reports is scaled to
the nominal speed of the workload's calibration block, timed between calls
(see calibrate.py), so that a shared host's drifting speed does not read as
a change of the library.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
reports the per-layer metrics of a traced pass over the inputs of an
untraced one, and saves that pass's spans in perfbench/spans/.  The last
line of standard output is the JSON result; the line before it, prefixed
`meta`, records the run's configuration and diagnostics.  See
perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from random import Random
from time import perf_counter_ns


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed in this many fresh interpreters (after one untimed run
#: that fills the bytecode cache) and reported as their median.
SETUP_RUNS = 15

#: The calibration block is timed after every this many seconds of calls
#: (or after every call, where one call takes longer).
CHUNK_SECONDS = 0.01

#: The timed loop is cut into slices of about this many seconds.  Each
#: slice's times are scaled by the median calibration block of that slice.
SLICE_SECONDS = 1.0

#: Cap on the calls of a traced run, which keeps its spans in memory.
TRACE_MAX_CALLS = 10_000

#: A traced run saves its spans here, one file per workload, overwritten by
#: the next traced run of that workload.
SPANS_DIR = HERE / "spans"

_FAILED = object()


def _load_library():
    """Import `seshadri` from this checkout's source tree, and nothing else."""
    package = SRC / "seshadri"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {package}")
    sys.path.insert(0, str(SRC))
    import seshadri

    if Path(seshadri.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported seshadri from {seshadri.__file__}")
    return seshadri


def _pin_to_one_cpu() -> int:
    """Confine this process, and the threads and processes it starts, to
    one CPU, so that a thread hand-off never waits for another virtual CPU
    the host has descheduled.  Returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _setup_seconds(workload: str) -> float:
    """Median calibrated set-up time over fresh interpreters."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload]
    samples = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(probe, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            seconds, block_ns, nominal_ns = map(float, done.stdout.split()[-3:])
            samples.append(seconds * nominal_ns / block_ns)
    return statistics.median(samples)


class Loop:
    """The closed-loop client: call, time, check, repeat."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.stream = workload.inputs(Random(f"{workload.name}/{seed}/inputs"))
        self.check_rng = Random(f"{workload.name}/{seed}/check")
        self.calls = 0
        self.failed = 0
        self._reported = False

    def fail(self) -> None:
        """Count a call that raised, printing the first traceback."""
        self.failed += 1
        if not self._reported:
            self._reported = True
            traceback.print_exc()

    def warm_up(self) -> None:
        """One untimed call on a fixed input, so lazy imports are done."""
        self.workload.call(next(self.workload.inputs(Random("warm-up"))))

    def run(self, seconds: float, max_calls: int | None = None, keep=None):
        """Call until `seconds` of wall time have passed.

        Returns the latency of each call in ns; only the call itself is
        timed.  With `keep`, (input, result) pairs are appended to it for a
        later traced pass.
        """
        call, check = self.workload.call, self.workload.check
        latencies = array("q")
        deadline = perf_counter_ns() + int(seconds * 1e9)
        while perf_counter_ns() < deadline and (
            max_calls is None or len(latencies) < max_calls
        ):
            self.calls += 1
            arg = next(self.stream)
            t0 = perf_counter_ns()
            try:
                result = call(arg)
            except Exception:  # a failed call is counted, not fatal
                t1 = perf_counter_ns()
                result = _FAILED
                self.fail()
            else:
                t1 = perf_counter_ns()
            latencies.append(t1 - t0)
            if result is not _FAILED:
                try:
                    if not check(arg, result, self.check_rng):
                        self.failed += 1
                except Exception:  # a check that raises is a wrong result
                    self.fail()
            if keep is not None:
                keep.append((arg, result))
        return latencies


def _git_sha() -> str:
    """HEAD of the checkout, or 'unknown' where it is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metadata(seshadri, args, nproc: int, cpu: int) -> dict:
    kernels = getattr(seshadri, "kernels", None)
    worker_count = getattr(kernels, "worker_count", None)
    backend_name = getattr(seshadri, "backend_name", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "worker_count": worker_count() if callable(worker_count) else None,
        "backend": backend_name() if callable(backend_name) else None,
        "git_sha": _git_sha(),
    }


class Histogram:
    """Latency counts in log-spaced bins 0.2% wide: memory stays bounded
    however many calls a faster library completes in a run."""

    STEP = math.log(1.002)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def add(self, ns: float) -> None:
        self.counts[int(math.log(max(ns, 1.0)) / self.STEP)] += 1

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile in ns, placed within its bin by rank."""
        rank = int(fraction * sum(self.counts.values()))
        seen = 0
        for key in sorted(self.counts):
            count = self.counts[key]
            if seen + count > rank:
                return math.exp((key + (rank - seen + 0.5) / count) * self.STEP)
            seen += count
        raise ValueError("empty histogram")


def _end_to_end(workload, args, meta) -> tuple[int, int, dict]:
    setup_s = _setup_seconds(workload.name)
    loop = Loop(workload, args.seed)
    loop.warm_up()
    calibration = workload.calibration
    calibration.time()
    latencies = Histogram()
    rates, raw_rates, blocks = [], [], []
    slices = max(1, round(args.seconds / SLICE_SECONDS))
    for _ in range(slices):
        part, refs = array("q"), []
        deadline = perf_counter_ns() + int(args.seconds / slices * 1e9)
        while perf_counter_ns() < deadline:
            part.extend(loop.run(CHUNK_SECONDS))
            refs.append(calibration.time())
        # The rate is a mean over the calls, so it is scaled by the mean
        # block, which a pause of the CPU lengthens in the same proportion;
        # the percentiles by the median block.
        busy_s = sum(part) / 1e9
        rates.append(len(part) / busy_s
                     * statistics.fmean(refs) / calibration.nominal_ns)
        raw_rates.append(len(part) / busy_s)
        block_ns = statistics.median(refs)
        blocks.append(block_ns)
        scale = calibration.nominal_ns / block_ns
        for ns in part:
            latencies.add(ns * scale)
    meta.update(calls=loop.calls, slices=slices, failed=loop.failed,
                fail_ratio=loop.failed / loop.calls,
                call_p99_us=latencies.percentile(0.99) / 1e3,
                raw_calls_per_s=statistics.median(raw_rates),
                calibration=calibration.name,
                calibration_block_ns=statistics.median(blocks))
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (statistics.median(rates), "1/s"),
        "call_p50_us": (latencies.percentile(0.5) / 1e3, "us"),
        "call_p90_us": (latencies.percentile(0.9) / 1e3, "us"),
        "peak_rss_kb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "kB"),
    }
    return loop.calls, loop.failed, {k: {"value": v, "unit": u}
                                    for k, (v, u) in metrics.items()}


def _per_layer(workload, args, meta) -> tuple[int, int, dict]:
    import tracing

    loop = Loop(workload, args.seed)
    loop.warm_up()
    kept: list = []
    untraced_ns = sum(loop.run(args.seconds / 2, TRACE_MAX_CALLS, kept))
    calls = len(kept)

    tracer = tracing.Tracer()
    tracer.install()
    traced_ns = mismatches = 0
    try:
        for arg, expected in kept:
            if expected is _FAILED:
                continue
            t0 = perf_counter_ns()
            try:
                result = tracer.call(workload.call, arg)
            except Exception:  # counted as a failed call
                result = _FAILED
                loop.fail()
            traced_ns += perf_counter_ns() - t0
            if result is not _FAILED and result != expected:
                mismatches += 1
    finally:
        tracer.uninstall()
    spans_file = SPANS_DIR / f"{workload.name}.tsv"
    tracer.write(spans_file)
    meta.update(calls=calls, traced_calls=len(kept), spans=len(tracer.spans),
                spans_file=str(spans_file.relative_to(ROOT)),
                trace_mismatches=mismatches, absent_layers=tracer.absent,
                failed=loop.failed + mismatches)
    metrics = tracing.layer_metrics(tracer, calls, traced_ns / untraced_ns)
    return 2 * calls, loop.failed + mismatches, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cpu = _pin_to_one_cpu()
    seshadri = _load_library()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    meta = _metadata(seshadri, args, nproc, cpu)
    measure = _per_layer if args.trace else _end_to_end
    attempted, failed, metrics = measure(workload, args, meta)
    print("meta " + json.dumps(meta), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
