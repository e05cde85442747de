"""Time one set-up of the library in a fresh interpreter.

Set-up is the import of `seshadri` (with the modules the workloads call,
loaded by `workloads`) plus one warm-up call of the workload, the same call
`run.Loop.warm_up` makes.  Making the warm-up input is not timed.  Prints
the set-up time in seconds, then the median time in ns of the
`interpreter+pool` calibration block, measured right after it in the same
interpreter, and the block's nominal time in ns.  Set-up is mostly imports,
file and memory work of the kernel, which the pool's thread starts track
better than the interpreter block alone does.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""
import statistics
import sys
import time
from pathlib import Path
from random import Random

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from calibrate import INTERPRETER_AND_POOL as calibration  # noqa: E402

imported = time.perf_counter()
workload = workloads.WORKLOADS[sys.argv[1]]
arg = next(workload.inputs(Random("warm-up")))
call_start = time.perf_counter()
workload.call(arg)
setup = imported - start + time.perf_counter() - call_start

print(repr(setup), statistics.median(calibration.time() for _ in range(15)),
      calibration.nominal_ns)
