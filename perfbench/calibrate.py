"""Fixed blocks of work that gauge the machine's speed.

On a shared virtual machine the same code on the same inputs runs faster or
slower by tens of percent from one minute to the next, as neighbours load
the host.  The benchmark times a workload's calibration between its calls,
in the same process and on the same CPU, and reports each time scaled by
`nominal_ns / (the calibration's measured time)`: as it would read on a
machine where the calibration takes `nominal_ns`.  A change to the library
moves the workload's times and not the calibration's, so it shows in full.

`INTERPRETER` does the kinds of work the library does in pure Python: small
integer polynomial arithmetic in nested loops, tuples, Fractions and a set.
`INTERPRETER_AND_POOL` adds the start and join of an idle thread pool of
`os.cpu_count()` threads, the pool the library starts for every rank-4 box
scan: the host's cost of starting threads drifts by tens of percent while
the interpreter's speed holds, and that cost is much of a rank-4 call.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable


def _interpreter():
    best, acc = None, 0
    for a in range(-10, 11):
        for b in range(-10, 11):
            v = 3 * a * a * a * a - 7 * a * a * b * b + 5 * b * b * b * b + 11 * a * b
            if best is None or v < best:
                best = v
            acc += (a, b)[v & 1]
    f = Fraction(0)
    for k in range(1, 25):
        f += Fraction(k, k + 7)
    seen = sorted({(a * 7919) % 101 for a in range(200)})
    return best, acc, f, seen


def _interpreter_and_pool():
    _interpreter()
    threads = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(abs, range(threads)))


@dataclass(frozen=True)
class Calibration:
    name: str
    #: Time of the block on the reference machine, in ns: a fixed unit, not
    #: a measurement to be kept current.
    nominal_ns: int
    block: Callable[[], object]

    def time(self) -> int:
        """Wall time of one run of the block, in ns."""
        t0 = perf_counter_ns()
        self.block()
        return perf_counter_ns() - t0


INTERPRETER = Calibration("interpreter", 300_000, _interpreter)
INTERPRETER_AND_POOL = Calibration("interpreter+pool", 500_000,
                                   _interpreter_and_pool)
