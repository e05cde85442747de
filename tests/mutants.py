"""Mutants of `src/seshadri` that the Tier-1 suite must kill, and their runner.

    python tests/mutants.py

Each entry of `MUTANTS` is (name, file, old, new, expected, versions): `new`
replaces `old`, which must occur exactly once in `file`.  `expected` is
"killed", or "equivalent: <why>" for a mutant that no test can tell from
the code.  `versions` names the Python versions on which a "killed" entry
must be killed; empty means every version.

The runner extracts HEAD with `git archive` into a temporary directory,
applies each mutant there in turn (the file is restored after it), runs the
Tier-1 suite with `-x -q -p no:cacheprovider`, and reports the mutant as
killed, with the first failing test, as survived or as equivalent.  It
exits 1 when an `old` text does not occur exactly once or a "killed" entry
survives on a version it names, and it changes no file of the repository.
A surviving mutant costs a full Tier-1 run, so this is a CI job of its own;
pytest does not collect this file.  A change that adds a guard or a
proof-backed shortcut adds its mutant here.
"""
from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider"]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    expected: str
    versions: tuple[str, ...] = ()


KERNELS = "src/seshadri/kernels.py"
NOCM = "src/seshadri/nocm.py"
CLI = "src/seshadri/cli.py"
DET_CHECK = '''    if x * x + t * x * y + y * y != 1:
        raise ArithmeticError(f"reduced basis {f1}, {f2} is not unimodular")
'''
SHORTCUT = '''    if C > A:  # the module docstring's bound: only f1's orbit reaches A
        return A, [_orbit_min(t, f1)]
'''

MUTANTS = (
    # rank 4: the reduction, its checks and the back-map
    Mutant("back-map sign of b p1", KERNELS, "a * p0 - b * p1", "a * p0 + b * p1", "killed"),
    Mutant("back-map sign of b in s1's w part", KERNELS,
           "a * p1 + b * (p0 + t * p1)", "a * p1 - b * (p0 + t * p1)", "killed"),
    Mutant("back-map sign of d q3", KERNELS, "c * q2 - d * q3", "c * q2 + d * q3", "killed"),
    Mutant("C > A return taken on ties too", KERNELS, "    if C > A:", "    if C >= A:", "killed"),
    Mutant("reduction corner tie order", KERNELS,
           "if dy < 0 and dy <= dx and dy <= e:", "if dy < 0 and dy < dx and dy <= e:", "killed"),
    Mutant("_orbit_min one unit short", KERNELS,
           "for _ in range(3 + 2 * t):", "for _ in range(2 + 2 * t):", "killed"),
    Mutant("reduced-form check without its Z[w] term", KERNELS,
           "A >= abs(b1) and (not t or A >= abs(b1 - b0))", "A >= abs(b1)", "killed"),
    Mutant("unimodular check deleted", KERNELS, DET_CHECK, "", "killed"),
    Mutant("unimodular check after the C > A return", KERNELS,
           DET_CHECK + SHORTCUT, SHORTCUT + DET_CHECK, "killed"),
    # rank 3
    # equal results (both roundings of the tie B = +-A/2 are reduced), but the
    # pinned step count moves
    Mutant("nocm reduction rounds half-way down", NOCM,
           "q = (2 * B + A) // (2 * A)", "q = (2 * B + A - 1) // (2 * A)", "killed"),
    Mutant("nocm unimodular guard deleted", NOCM,
           "if p * t - r * s not in (1, -1):", "if False:", "killed"),
    Mutant("nocm window's low end + 1", NOCM,
           "range(-((B + w) // A), ", "range(-((B + w) // A) + 1, ", "killed"),
    Mutant("nocm window's high end - 1", NOCM, "(w - B) // A + 1)", "(w - B) // A)", "killed"),
    Mutant("nocm e1 sign rule p >= 0", NOCM,
           "(p, r) if p > 0 or (p == 0 and r > 0) else", "(p, r) if p >= 0 else", "killed"),
    Mutant("nocm negative discriminant clamped to 0", NOCM,
           "(square := B * B - A * (C - threshold)) >= 0",
           "(square := max(B * B - A * (C - threshold), 0)) >= 0", "killed"),
    # the surface-kind checks and the pairings read off the degree form
    Mutant("_cm_trace without its None test", "src/seshadri/lattice.py",
           """    if t is None:
        raise ValueError("surface mismatch: expected a CM surface")
""", "", "killed"),
    Mutant("_require_nocm testing is None", "src/seshadri/lattice.py",
           "    if surface.trace is not None:", "    if surface.trace is None:", "killed"),
    Mutant("nocm L.Delta pairing sign of B", "src/seshadri/lattice.py",
           "A - 2 * B + C", "A + 2 * B + C", "killed"),
    Mutant("rank-4 L.Delta pairing sign of b0", "src/seshadri/lattice.py",
           "A + C + b0,", "A + C - b0,", "killed"),
    Mutant("rank-4 L.Sigma pairing sign of t b0", "src/seshadri/lattice.py",
           "A + C + t * b0 - b1", "A + C - t * b0 - b1", "killed"),
    Mutant("rank-4 L.Sigma pairing sign of b1", "src/seshadri/lattice.py",
           "A + C + t * b0 - b1", "A + C + t * b0 + b1", "killed"),
    # the ampleness gate and the sampler
    Mutant("ample_square with f1 >= 0", "src/seshadri/lattice.py",
           "square if f1 > 0 and", "square if f1 >= 0 and",
           "equivalent: by the Hodge index theorem L^2 > 0 implies L.F1 != 0"),
    Mutant("sampler redraws while r > width", "src/seshadri/sampling.py",
           "while r >= width:", "while r > width:", "killed"),
    # the oracle's last level
    Mutant("oracle mirror dropped", "src/seshadri/oracle.py",
           """            if 2 * y == d0:  # the half-way tie: t - 1 gives -y
                found.append((t - 1, *x[1:]))
""", "", "killed"),
    Mutant("oracle mirror taken at t0 + 1", "src/seshadri/oracle.py",
           "found.append((t - 1, *x[1:]))", "found.append((t + 1, *x[1:]))", "killed"),
    # the cross-section
    Mutant("cross-section order guard disabled", "src/seshadri/cross_section.py",
           "if k <= k0:", "if False:", "killed"),
    # the CLI's parse
    Mutant("cli.main without the standalone-`--` guard", CLI,
           'if argv and "--" not in argv else None', "if argv else None",
           "killed", ("3.13",)),
    Mutant("cli._read never called", CLI,
           "args = _read(command, argv[1:]) if command else None", "args = None", "killed"),
    Mutant("cli._read ignores leftover arguments", CLI,
           """            if action is None or action.dest in values:
                return None
""", """            if action is None:
                continue
            if action.dest in values:
                return None
""", "killed"),
    Mutant("cli._read without its required-option check", CLI,
           """                if action.required:
                    return None
""", "", "killed"),
    Mutant("cli._read takes a `--name value` value that starts with -", CLI,
           'if text == "--" if eq else text.startswith("-"):',
           'if text == "--" if eq else False:', "killed"),
    Mutant("cli._read takes `--flag=value`", CLI,
           "if type(action) is argparse._StoreTrueAction and not eq:",
           "if type(action) is argparse._StoreTrueAction:", "killed"),
    Mutant("cli._read without the choices check", CLI,
           "            parser._check_value(action, value)\n", "", "killed"),
    Mutant("cli._read takes a repeated option", CLI,
           "if action is None or action.dest in values:", "if action is None:",
           "equivalent: argparse keeps the last value and checks each"),
    Mutant("cli._read takes `--name=--`", CLI,
           'if text == "--" if eq else text.startswith("-"):',
           'if False if eq else text.startswith("-"):',
           "equivalent: argparse 3.11 hands `--name=--` over as [], which "
           "`_bare_value` reads back as `--`"),
)


def _extract_head(target: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return "no failing test named"


def _run(tree: Path, mutant: Mutant) -> tuple[str, str]:
    """Apply `mutant` in `tree`, run Tier-1 and restore the file: the
    verdict ("killed", "survived" or "error") and a detail."""
    path = tree / mutant.file
    source = path.read_text()
    count = source.count(mutant.old)
    if count != 1:
        return "error", f"old text occurs {count} times in {mutant.file}"
    path.write_text(source.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT_S} s"
    finally:
        path.write_text(source)
    if done.returncode == 0:
        return "survived", ""
    if done.returncode == 1:
        return "killed", _first_failure(done.stdout)
    return "error", f"pytest exited {done.returncode}: {done.stdout[-300:]}{done.stderr[-300:]}"


def main() -> int:
    version = "%d.%d" % sys.version_info[:2]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _extract_head(tree)
        for mutant in MUTANTS:
            verdict, detail = _run(tree, mutant)
            binding = not mutant.versions or version in mutant.versions
            if verdict == "survived" and mutant.expected != "killed":
                verdict, detail = "equivalent", mutant.expected.partition(": ")[2]
            elif verdict == "survived" and not binding:
                detail = f"to be killed on {', '.join(mutant.versions)} only"
            elif verdict == "killed" and mutant.expected != "killed":
                detail += " (listed as equivalent)"
            failed = verdict == "error" or (verdict == "survived" and binding)
            bad += failed
            print(f"{'FAIL ' if failed else ''}{verdict:<10} {mutant.name}: {detail}", flush=True)
    print(f"{bad} mutant(s) failed on Python {version}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
