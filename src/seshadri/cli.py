"""Command-line front end.

Subcommands: `epsilon` (single-class constant), `curves` (submaximal
listing), `cross-section` (piecewise-linear export), `table` (reproduce the
built-in example tables as CSV), `check` (randomized cross-validation
against the brute-force oracle).  A plain line that starts with a known
command name is read from that command's action table (`_read`), with no
argparse pass; every other line (help, a usage error, a bare "--") gets one
full parse, so every message and help text is the one argparse prints.

Exit codes: 0 success, 2 domain error (non-ample input, parameter out of
range), 3 oracle mismatch, 64 usage error, 70 internal invariant violated
(an exact result failed its own consistency check, which is a bug).  Exit 2
and 64 print one `seshadri: error: ...` line on stderr, exit 70 one
`seshadri: internal error: ...` line.
Rationals are always printed as "num/den"; floats never appear in any
output, and integers of any size are read and printed exactly.  A `table`
row is the `epsilon` record of its class.
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
from .cross_section import cross_section
from .lattice import GENERATOR_LABELS, NSClass, Surface, require_ample
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


def _bare_value(text) -> str:
    """The option value as typed: argparse 3.11 strips a bare "--" value
    (`--coeffs=--`, which `--coeffs --` becomes) and hands over []."""
    return text if isinstance(text, str) else "--"


def _parse_coeffs(text: str, surface: Surface) -> NSClass:
    text = _bare_value(text)
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--coeffs must be comma-separated integers, got {text!r}")
    try:
        return NSClass(surface, values)
    except ValueError as exc:  # the arity check; its text is the message
        raise UsageError(exc) from None


#: Basis index of each basis curve by normal form: the canonical pair on nocm,
#: the smallest tuple of its unit orbit on the CM surfaces (alike on both).
_BASIS_INDEX = {
    curve: i for curves in (nocm.GENERATOR_PAIRS, cm.GENERATOR_TUPLES.values())
    for i, curve in enumerate(curves)
}


def _label(curve: tuple[int, ...]) -> str:
    """The curve's basis name, else N_{...} with the entries of its normal form."""
    i = _BASIS_INDEX.get(curve)
    return "N_{%s}" % ",".join(map(str, curve)) if i is None else GENERATOR_LABELS[i]


def _labels(curves) -> list[str]:
    """Basis curves first, in basis order, then the other curves by normal form."""
    other = len(GENERATOR_LABELS)
    return [_label(c) for c in sorted(curves, key=lambda c: (_BASIS_INDEX.get(c, other), c))]


def _class_record(L: NSClass) -> dict:
    """The fields that open every one-class record, after the ampleness check."""
    try:
        l_squared = require_ample(L)
    except ValueError as exc:  # "not ample: ..."
        raise DomainError(f"class is {exc}") from None
    return {"surface": L.surface.value, "coeffs": list(L.coeffs), "l_squared": l_squared}


def _matches_oracle(L: NSClass, value: int) -> bool:
    """Compare a closed-form constant with the oracle's; report a mismatch."""
    reference = (oracle.nocm_seshadri if L.surface.trace is None else oracle.cm_seshadri)(L)
    if reference != value:
        sys.stderr.write(
            f"oracle mismatch on {L.surface.value} {L.coeffs}: "
            f"closed form {value}, oracle {reference}\n"
        )
    return reference == value


def _epsilon_record(L: NSClass) -> dict:
    """The `epsilon` record of `L`, which is also its row in `table`."""
    record = _class_record(L)
    result = seshadri_constant(L)
    record["epsilon"] = result.value
    if L.surface.trace is None:
        record["witnesses"] = _labels(result.witnesses)
        record["weak_submaximal"] = _labels(nocm.submaximal_curves(L, weak=True))
    else:
        record["witnesses"] = _labels(w.representative for w in result.witnesses)
    return record


def _cmd_epsilon(args) -> int:
    L = _parse_coeffs(args.coeffs, Surface(args.surface))
    record = _epsilon_record(L)
    if args.check_oracle and not _matches_oracle(L, record["epsilon"]):
        return ORACLE_MISMATCH
    print(json.dumps(record))
    return 0


def _cmd_curves(args) -> int:
    surface = Surface(args.surface)
    if surface.trace is not None:
        raise DomainError("submaximal listing is only available for surface 'nocm'")
    L = _parse_coeffs(args.coeffs, surface)
    record = _class_record(L)
    record["weak"] = args.weak
    record["curves"] = _labels(nocm.submaximal_curves(L, weak=args.weak))
    print(json.dumps(record))
    return 0


def _parse_ratio(text: str) -> Fraction:
    text = _bare_value(text)
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--lambda must be an integer or P/Q with Q != 0, got {text!r}")


_SEGMENT_FIELDS = ("slope", "intercept", "witness")


def _ratio(x: Fraction) -> str:
    """x as "num/den"; a `Fraction` is in lowest terms with den > 0."""
    return f"{x.numerator}/{x.denominator}"


def _cmd_cross_section(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    if args.samples and args.format != "csv":
        raise UsageError(f"--samples needs --format csv, got --format {args.format}")
    lam = _parse_ratio(args.slope_ratio)
    if not 0 < lam <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    section = cross_section(lam)
    mu_max, breakpoints = section.mu_max, section.breakpoints  # views: read each once
    segments = [(_ratio(s.slope), _ratio(s.intercept), _label(s.witness))
                for s in section.segments]
    if args.format == "json":
        record = {
            "lambda": _ratio(lam),
            "mu_max": _ratio(mu_max),
            "breakpoints": [_ratio(b) for b in breakpoints],
            "segments": [dict(zip(_SEGMENT_FIELDS, seg)) for seg in segments],
        }
        print(json.dumps(record))
        return 0
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mu_from", "mu_to", *_SEGMENT_FIELDS])
    edges = ["-inf", *map(_ratio, breakpoints), _ratio(mu_max)]
    writer.writerows([lo, hi, *seg] for lo, hi, seg in zip(edges, edges[1:], segments))
    if args.samples > 0:
        writer.writerow([])
        writer.writerow(["mu", "value"])
        # the hull always starts with Delta and F1, so there is a first breakpoint
        lo = min(breakpoints[0], Fraction(-1)) - 1
        span = mu_max - lo
        steps = max(args.samples - 1, 1)
        for i in range(args.samples):
            mu = lo + span * i / steps
            writer.writerow([_ratio(mu), _ratio(section.value_at(mu))])
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
    """Example table 1 (nocm) or 2 (cm-i) as CSV; a row is a class's `epsilon` record."""
    if which == 1:
        surface, classes, lists = Surface.NO_CM, TABLE1_CLASSES, ("witnesses", "weak_submaximal")
    else:
        surface, classes, lists = Surface.CM_GAUSSIAN, TABLE2_CLASSES, ("witnesses",)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    coeff_names = [f"a{i}" for i in range(1, surface.rank + 1)]
    # `witnesses` is headed `computing`, the other curve lists by their key
    writer.writerow([*coeff_names, "l_squared", "epsilon", "computing", *lists[1:]])
    for coeffs in classes:
        record = _epsilon_record(NSClass(surface, coeffs))
        curves = [",".join(record[k]) for k in lists]
        writer.writerow([*coeffs, record["l_squared"], record["epsilon"], *curves])
    return out.getvalue()


def _cmd_table(args) -> int:
    sys.stdout.write(render_table(args.which))
    return 0


def _cmd_check(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if args.bound < 0:
        raise UsageError(f"--bound must be at least 0, got {args.bound}")
    surface = Surface(args.surface)
    bound = args.bound if args.bound else (50 if surface.trace is None else 8)
    classes = random_ample_classes(surface, args.count, bound, args.seed)
    for L in classes:
        if not _matches_oracle(L, seshadri_constant(L).value):
            return ORACLE_MISMATCH
    record = {
        "surface": surface.value,
        "count": args.count,
        "seed": args.seed,
        "coeff_bound": bound,
        "all_match": True,
    }
    print(json.dumps(record))
    return 0


@functools.cache  # built on first use, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="seshadri", description="Command-line front end.")
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


@functools.cache  # built on first use, like the parser
def _commands() -> dict[str, _Parser]:
    """Each command's own parser by name: the choices of the parser's subcommand action."""
    return next(a.choices for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def _read(parser: _Parser, args: list[str]) -> argparse.Namespace | None:
    """The namespace `parser` gives a plain line of options, else None.

    A plain line gives each option once, spelled in full, as `--name value`
    (the value not starting with "-"), `--name=value` (the value not "--")
    or a bare store_true flag, with values that pass the option's type and
    choices, and every required option.  It is read with the parser's own
    actions, conversion and defaults; every other line is argparse's.
    """
    values, tokens = {}, iter(args)
    try:
        for token in tokens:
            name, eq, text = token.partition("=")
            action = parser._option_string_actions.get(name)
            if action is None or action.dest in values:
                return None
            if type(action) is argparse._StoreTrueAction and not eq:
                values[action.dest] = True
                continue
            if type(action) is not argparse._StoreAction or action.nargs is not None:
                return None
            if not eq:  # `--name value`
                text = next(tokens, "-")
            if text == "--" if eq else text.startswith("-"):
                return None
            values[action.dest] = value = parser._get_value(action, text)
            parser._check_value(action, value)
        for action in parser._actions:  # the defaults, as argparse sets them
            if action.dest not in values and action.default is not argparse.SUPPRESS:
                if action.required:
                    return None
                default = action.default
                values[action.dest] = (parser._get_value(action, default)
                                       if isinstance(default, str) else default)
    except argparse.ArgumentError:  # a value its type or choices refuse
        return None
    return argparse.Namespace(**{**parser._defaults, **values})


#: Options whose values may start with a minus sign.
_SIGNED_OPTIONS = ("--coeffs", "--lambda")


def _normalize_argv(argv) -> list[str]:
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
    # Exact integers of any size: lift the int/str digit limit (Python 3.10.7+)
    # while `main` runs; an in-process caller gets its own limit back.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
        command = _commands().get(argv[0]) if argv and "--" not in argv else None
        args = _read(command, argv[1:]) if command else None
        if args is None:  # no known command first, or not a plain line: the full parse
            args = _build_parser().parse_args(argv)
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
