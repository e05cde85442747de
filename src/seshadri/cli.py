"""Command-line front end.

Subcommands: `epsilon` (single-class constant), `curves` (submaximal
listing), `cross-section` (piecewise-linear export), `table` (reproduce the
built-in example tables as CSV), `check` (randomized cross-validation
against the brute-force oracle).

Exit codes: 0 success, 2 domain error (non-ample input, parameter out of
range), 3 oracle mismatch, 64 usage error, 70 internal invariant violated
(an exact result failed its own consistency check, which is a bug).  Exit 2
and 64 print one `seshadri: error: ...` line on stderr, exit 70 one
`seshadri: internal error: ...` line.
Rationals are always printed as "num/den"; floats never appear in any
output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import cm, nocm, oracle, seshadri_constant
from .cross_section import CrossSection, cross_section
from .lattice import (
    GENERATOR_LABELS,
    NSClass,
    Surface,
    ns_class,
    require_ample,
    self_intersection,
    surface_from_name,
)
from .sampling import random_ample_classes

USAGE_ERROR = 64
DOMAIN_ERROR = 2
ORACLE_MISMATCH = 3
INTERNAL_ERROR = 70  # EX_SOFTWARE


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class DomainError(Exception):
    pass


class UsageError(Exception):
    pass


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_coeffs(text: str, surface: Surface) -> NSClass:
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"--coeffs must be comma-separated integers, got {text!r}")
    if len(values) != surface.rank:
        raise UsageError(
            f"expected {surface.rank} coefficients for {surface.value}, "
            f"got {len(values)}"
        )
    return ns_class(surface, values)


def _cm_witness_labels(surface: Surface, witnesses) -> list[str]:
    """Basis curves first, in basis order, then the other curves by tuple."""
    generators = cm.GENERATOR_BY_DEGREES[surface]
    named = [generators[w.degrees] for w in witnesses if w.degrees in generators]
    others = sorted(w.representative for w in witnesses if w.degrees not in generators)
    return sorted(named, key=GENERATOR_LABELS.index) + ["N_{%d,%d,%d,%d}" % t for t in others]


def _nocm_labels(pairs) -> list[str]:
    return [nocm.pair_label(p) for p in sorted(pairs, key=nocm.pair_sort_key)]


def _class_record(L: NSClass) -> dict:
    """The fields that open every one-class record, after the ampleness check."""
    try:
        l_squared = require_ample(L)
    except ValueError as exc:  # "not ample: ..."
        raise DomainError(f"class is {exc}") from None
    return {"surface": L.surface.value, "coeffs": list(L.coeffs), "l_squared": l_squared}


def _matches_oracle(L: NSClass, value: int) -> bool:
    """Compare a closed-form constant with the oracle's; report a mismatch."""
    if L.surface is Surface.NO_CM:
        reference = oracle.nocm_seshadri(L)
    else:
        reference = oracle.cm_seshadri(L)
    if reference != value:
        sys.stderr.write(
            f"oracle mismatch on {L.surface.value} {L.coeffs}: "
            f"closed form {value}, oracle {reference}\n"
        )
    return reference == value


def _cmd_epsilon(args) -> int:
    L = _parse_coeffs(args.coeffs, surface_from_name(args.surface))
    record = _class_record(L)
    result = seshadri_constant(L)
    record["epsilon"] = result.value
    if L.surface is Surface.NO_CM:
        record["witnesses"] = _nocm_labels(result.witnesses)
        record["weak_submaximal"] = _nocm_labels(nocm.submaximal_curves(L, weak=True))
    else:
        record["witnesses"] = _cm_witness_labels(L.surface, result.witnesses)
    if args.check_oracle and not _matches_oracle(L, result.value):
        return ORACLE_MISMATCH
    print(json.dumps(record))
    return 0


def _cmd_curves(args) -> int:
    surface = surface_from_name(args.surface)
    if surface is not Surface.NO_CM:
        raise DomainError("submaximal listing is only available for surface 'nocm'")
    L = _parse_coeffs(args.coeffs, surface)
    record = _class_record(L)
    record["weak"] = args.weak
    record["curves"] = _nocm_labels(nocm.submaximal_curves(L, weak=args.weak))
    print(json.dumps(record))
    return 0


def _parse_ratio(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--lambda must be an integer or P/Q with Q != 0, got {text!r}")


def _section_rows(section: CrossSection):
    edges = ["-inf"] + [_fmt(b) for b in section.breakpoints] + [_fmt(section.mu_max)]
    for i, seg in enumerate(section.segments):
        yield edges[i], edges[i + 1], seg


def _cmd_cross_section(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    lam = _parse_ratio(args.slope_ratio)
    if not 0 < lam <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    section = cross_section(lam)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": _fmt(lam),
                    "mu_max": _fmt(section.mu_max),
                    "breakpoints": [_fmt(b) for b in section.breakpoints],
                    "segments": [
                        {
                            "slope": _fmt(seg.slope),
                            "intercept": _fmt(seg.intercept),
                            "witness": nocm.pair_label(seg.witness),
                        }
                        for seg in section.segments
                    ],
                }
            )
        )
        return 0
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mu_from", "mu_to", "slope", "intercept", "witness"])
    for lo, hi, seg in _section_rows(section):
        writer.writerow([lo, hi, _fmt(seg.slope), _fmt(seg.intercept), nocm.pair_label(seg.witness)])
    if args.samples > 0:
        writer.writerow([])
        writer.writerow(["mu", "value"])
        first = section.breakpoints[0] if section.breakpoints else section.mu_max - 1
        lo = min(first, Fraction(-1)) - 1
        span = section.mu_max - lo
        steps = max(args.samples - 1, 1)
        for i in range(args.samples):
            mu = lo + span * i / steps
            writer.writerow([_fmt(mu), _fmt(section.value_at(mu))])
    sys.stdout.write(out.getvalue())
    return 0


#: Example classes shipped with the package, reproduced by `table`.
TABLE1_CLASSES = (
    (3, 2, -1), (3, 3, -1), (4, 3, -1), (5, 3, -1), (5, 4, -2), (7, 4, -2),
    (7, 6, -3), (10, 7, -4), (12, 9, -5), (17, 10, -6), (20, 11, -7),
    (32, 9, -7), (33, 9, -7), (34, 9, -7), (26, 14, -9), (73, 13, -11),
    (54, 14, -11), (45, 15, -11), (36, 16, -11), (32, 17, -11), (52, 30, -19),
)

TABLE2_CLASSES = (
    (1, 1, 1, 1), (1, 1, 0, 0), (2, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 1),
    (1, 1, 1, 0), (2, 2, 1, -1), (-1, 1, 2, 2), (-1, 2, 1, 2),
    (4, 4, -1, -1), (4, 2, 3, -2), (8, 5, -1, -2),
)


def render_table(which: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if which == 1:
        writer.writerow(
            ["a1", "a2", "a3", "l_squared", "epsilon", "computing", "weak_submaximal"]
        )
        for coeffs in TABLE1_CLASSES:
            L = ns_class(Surface.NO_CM, coeffs)
            result = nocm.seshadri_constant(L)
            weak = nocm.submaximal_curves(L, weak=True)
            writer.writerow(
                [
                    *coeffs,
                    self_intersection(L),
                    result.value,
                    ",".join(_nocm_labels(result.witnesses)),
                    ",".join(_nocm_labels(weak)),
                ]
            )
    else:
        writer.writerow(["a1", "a2", "a3", "a4", "l_squared", "epsilon", "computing"])
        for coeffs in TABLE2_CLASSES:
            L = ns_class(Surface.CM_GAUSSIAN, coeffs)
            result = cm.seshadri_constant(L)
            writer.writerow(
                [
                    *coeffs,
                    self_intersection(L),
                    result.value,
                    ",".join(_cm_witness_labels(L.surface, result.witnesses)),
                ]
            )
    return out.getvalue()


def _cmd_table(args) -> int:
    sys.stdout.write(render_table(args.which))
    return 0


def _cmd_check(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if args.bound < 0:
        raise UsageError(f"--bound must be at least 0, got {args.bound}")
    surface = surface_from_name(args.surface)
    bound = args.bound if args.bound else (50 if surface is Surface.NO_CM else 8)
    classes = random_ample_classes(surface, args.count, bound, args.seed)
    for L in classes:
        if not _matches_oracle(L, seshadri_constant(L).value):
            return ORACLE_MISMATCH
    print(
        json.dumps(
            {
                "surface": surface.value,
                "count": args.count,
                "seed": args.seed,
                "coeff_bound": bound,
                "all_match": True,
            }
        )
    )
    return 0


@functools.cache  # built on first use, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="seshadri", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    surfaces = [s.value for s in Surface]

    p = sub.add_parser("epsilon", help="Seshadri constant of one ample class")
    p.add_argument("--surface", required=True, choices=surfaces)
    p.add_argument("--coeffs", required=True, help="comma-separated integers")
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("curves", help="submaximal curves of one ample class")
    p.add_argument("--surface", required=True, choices=surfaces)
    p.add_argument("--coeffs", required=True, help="comma-separated integers")
    p.add_argument("--weak", action="store_true", help="allow equality with sqrt(L^2)")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("cross-section", help="piecewise-linear profile on a nef ray")
    p.add_argument("--lambda", dest="slope_ratio", required=True, metavar="P/Q")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--samples", type=int, default=0, help="grid samples (csv only)")
    p.set_defaults(func=_cmd_cross_section)

    p = sub.add_parser("table", help="reproduce a built-in example table as CSV")
    p.add_argument("--which", type=int, required=True, choices=[1, 2])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="randomized cross-validation against the oracle")
    p.add_argument("--surface", required=True, choices=surfaces)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--bound", type=int, default=0,
        help="coefficient bound; 0 (the default) means 50 on nocm, 8 on the CM surfaces",
    )
    p.set_defaults(func=_cmd_check)
    return parser


#: Options whose values may start with a minus sign.
_SIGNED_OPTIONS = ("--coeffs", "--lambda")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join `--coeffs -1,2,...` into `--coeffs=-1,2,...`, and `--lambda` alike.

    argparse would otherwise read a leading-minus value as an option name,
    making classes with a negative first coefficient unpassable and turning
    a negative lambda into a usage error instead of the domain check.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _SIGNED_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_normalize_argv(list(argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"seshadri: error: {exc}\n")
        return USAGE_ERROR
    except DomainError as exc:
        sys.stderr.write(f"seshadri: error: {exc}\n")
        return DOMAIN_ERROR
    except ArithmeticError as exc:
        sys.stderr.write(f"seshadri: internal error: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
