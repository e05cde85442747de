"""The four benchmark workloads: seeded input streams, the call, the check.

Each workload is an endless input stream made from the run's seed, the one
library call the client makes per input, a check of that call's result, and
the calibration its times are scaled by (see calibrate.py).
The check runs between calls, outside the timed region, and tests
identities the result must satisfy, on a sample also against the
brute-force oracle.

Inputs are drawn fresh from the stream rather than cycled from a fixed
pool, so a faster library simply sees a longer prefix of the same stream.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable, Iterator

import seshadri
from calibrate import INTERPRETER, INTERPRETER_AND_POOL, Calibration
from seshadri import cli, cm, nocm, oracle
from seshadri import cross_section as xs
from seshadri.lattice import Surface, is_ample, ns_class, self_intersection

#: Share of the rank-3 and rank-4 results that are also compared against
#: the brute-force oracle (~0.4 ms resp. ~3 ms each), drawn with the run's
#: seeded check generator so that every surface and bound is sampled.
ORACLE_SHARE = 0.01

#: Integers m per cross-section at which the envelope is compared with the
#: rank-3 closed form of the scaled class (q, p, -m).
CROSS_CHECK_POINTS = 2

# Kronecker steps for the cross-section stream: consecutive inputs spread
# evenly over (log q, p/q), so the latency quantiles of a ~1,000-call run
# depend on the seed only through the stream's offset.
_PHI = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[Random], Iterator[Any]]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any, Random], bool]
    calibration: Calibration = INTERPRETER


def _random_ample(rng: Random, surface: Surface, bound: int):
    while True:
        L = ns_class(
            surface, [rng.randint(-bound, bound) for _ in range(surface.rank)]
        )
        if is_ample(L):
            return L


# rank4 ---------------------------------------------------------------------

_RANK4_MIX = tuple(
    (surface, bound)
    for bound in (8, 100, 10**4)
    for surface in (Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN)
)


def _rank4_inputs(rng: Random):
    for coeffs in cli.TABLE2_CLASSES:
        yield ns_class(Surface.CM_GAUSSIAN, coeffs)
    while True:
        for surface, bound in _RANK4_MIX:
            yield _random_ample(rng, surface, bound)


def _rank4_call(L):
    return seshadri.seshadri_constant(L)


def _rank4_check(L, result, rng: Random) -> bool:
    sampled = rng.random() < ORACLE_SHARE
    value = result.value
    if value <= 0 or not result.witnesses or value * value > self_intersection(L):
        return False
    if any(cm.degree_value(L, w.representative) != value for w in result.witnesses):
        return False
    return not sampled or oracle.cm_seshadri(L) == value


# rank3 ---------------------------------------------------------------------

_RANK3_BOUNDS = (8, 100, 10**4, 10**6)


def _rank3_inputs(rng: Random):
    for coeffs in cli.TABLE1_CLASSES:
        yield ns_class(Surface.NO_CM, coeffs)
    while True:
        for bound in _RANK3_BOUNDS:
            yield _random_ample(rng, Surface.NO_CM, bound)


def _rank3_call(L):
    # what `seshadri epsilon --surface nocm` computes for one class
    return nocm.seshadri_constant(L), nocm.submaximal_curves(L, weak=True)


def _rank3_check(L, result, rng: Random) -> bool:
    sampled = rng.random() < ORACLE_SHARE
    constant, weak = result
    value, square = constant.value, self_intersection(L)
    if value <= 0 or not constant.witnesses or value * value > square:
        return False
    if any(nocm.degree(L, pair) != value for pair in constant.witnesses):
        return False
    # every computing curve has degree^2 <= L^2, so it is weakly submaximal
    if not constant.witnesses <= weak:
        return False
    if any(nocm.degree(L, pair) ** 2 > square for pair in weak):
        return False
    return not sampled or oracle.nocm_seshadri(L) == value


# cross-section ---------------------------------------------------------------

_Q_LO, _Q_HI = 10**3, 3 * 10**4


def _cross_section_inputs(rng: Random):
    u, v = rng.random(), rng.random()
    span = math.log(_Q_HI / _Q_LO)
    while True:
        u, v = (u + _PHI) % 1.0, (v + _SQRT2) % 1.0
        q = min(_Q_HI, int(_Q_LO * math.exp(span * u)))
        yield Fraction(1 + min(q - 1, int(v * q)), q)


def _cross_section_call(lam):
    return xs.cross_section(lam)


def _cross_section_check(lam, section, rng: Random) -> bool:
    if section.value_at(section.mu_max) != 0:
        return False
    # q * (F1 + lam F2 - (m/q) Delta) = (q, p, -m): the envelope at m/q is
    # the rank-3 Seshadri constant of that class divided by q.
    p, q = lam.numerator, lam.denominator
    m_hi = (q * p - 1) // (q + p)
    for _ in range(CROSS_CHECK_POINTS):
        m = rng.randint(-q, m_hi)
        L = ns_class(Surface.NO_CM, (q, p, -m))
        if not is_ample(L):
            return False
        if q * section.value_at(Fraction(m, q)) != nocm.seshadri_constant(L).value:
            return False
    return True


# check -----------------------------------------------------------------------

_CHECK_SURFACES = ("nocm", "cm-i", "cm-eisenstein")


def _check_inputs(rng: Random):
    while True:
        for surface in _CHECK_SURFACES:
            yield [
                "check", "--surface", surface, "--count", "5",
                "--seed", str(rng.randrange(2**31)), "--bound", "100",
            ]


def _check_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_check(argv, result, rng: Random) -> bool:
    code, stdout = result
    if code != 0:
        return False
    try:
        record = json.loads(stdout)
    except ValueError:
        return False
    return record.get("all_match") is True and record.get("count") == 5


WORKLOADS = {
    w.name: w
    for w in (
        # each rank-4 scan starts a thread pool
        Workload("rank4", _rank4_inputs, _rank4_call, _rank4_check,
                 INTERPRETER_AND_POOL),
        Workload("rank3", _rank3_inputs, _rank3_call, _rank3_check),
        Workload("cross-section", _cross_section_inputs, _cross_section_call,
                 _cross_section_check),
        Workload("check", _check_inputs, _check_call, _check_check),
    )
}
