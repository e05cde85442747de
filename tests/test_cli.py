import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import seshadri
from seshadri import cli, cm, kernels, nocm
from seshadri import cross_section as xs
from seshadri.cli import _build_parser, _epsilon_record, _label, _labels, main
from seshadri.lattice import GENERATOR_LABELS, Surface, generator_classes, generator_pairings
from seshadri.sampling import random_ample_classes

GOLDEN = Path(__file__).parent / "golden"

#: Every golden file with the argv whose output it is, byte for byte.
GOLDENS = [
    ("table1.csv", ("table", "--which", "1")),
    ("table2.csv", ("table", "--which", "2")),
    (
        "epsilon_nocm_52_30_m19_oracle.json",
        ("epsilon", "--surface", "nocm", "--coeffs", "52,30,-19", "--check-oracle"),
    ),
    ("epsilon_cm_i_m2_2_1_3.json", ("epsilon", "--surface", "cm-i", "--coeffs", "-2,2,1,3")),
    (
        "epsilon_cm_eisenstein_2_2_1_m1.json",
        ("epsilon", "--surface", "cm-eisenstein", "--coeffs", "2,2,1,-1"),
    ),
    (
        "curves_nocm_52_30_m19_weak.json",
        ("curves", "--surface", "nocm", "--coeffs", "52,30,-19", "--weak"),
    ),
    ("curves_nocm_52_30_m19.json", ("curves", "--surface", "nocm", "--coeffs", "52,30,-19")),
    (
        "epsilon_cm_i_m25_m37_57_51_oracle.json",
        ("epsilon", "--surface", "cm-i", "--coeffs", "-25,-37,57,51", "--check-oracle"),
    ),
    (
        "epsilon_cm_eisenstein_m35_41_42_36_oracle.json",
        ("epsilon", "--surface", "cm-eisenstein", "--coeffs", "-35,41,42,36", "--check-oracle"),
    ),
    ("cross_section_8_11.json", ("cross-section", "--lambda", "8/11")),
    (
        "cross_section_1_2_samples_50.csv",
        ("cross-section", "--lambda", "1/2", "--format", "csv", "--samples", "50"),
    ),
    (
        "cross_section_618033988749_10_12.json",
        ("cross-section", "--lambda", "618033988749/1000000000000"),
    ),
    (
        "cross_section_355_452_samples_20.csv",
        ("cross-section", "--lambda", "355/452", "--format", "csv", "--samples", "20"),
    ),
    # F1 and F2 tie at lambda = 1, and the section keeps F1
    ("cross_section_1_1.json", ("cross-section", "--lambda", "1")),
]


def _goldens(*commands):
    return [(golden, argv) for golden, argv in GOLDENS if argv[0] in commands]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_epsilon_nocm(capsys):
    code, out, _ = run_cli(capsys, "epsilon", "--surface", "nocm", "--coeffs", "7,6,-3")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "surface": "nocm",
        "coeffs": [7, 6, -3],
        "l_squared": 6,
        "epsilon": 1,
        "witnesses": ["N_{1,1}"],
        "weak_submaximal": ["N_{1,1}"],
    }


def test_epsilon_cm(capsys):
    code, out, _ = run_cli(
        capsys, "epsilon", "--surface", "cm-i", "--coeffs", "1,1,1,1", "--check-oracle"
    )
    assert code == 0
    record = json.loads(out)
    assert record["epsilon"] == 3
    assert record["witnesses"] == ["F1", "F2"]
    assert "weak_submaximal" not in record
    assert record["epsilon"] ** 2 <= record["l_squared"]


def test_epsilon_negative_leading_coefficient(capsys):
    # space-separated form must survive the leading minus sign
    code, out, _ = run_cli(capsys, "epsilon", "--surface", "cm-i", "--coeffs", "-1,1,2,2")
    assert code == 0
    record = json.loads(out)
    assert record["epsilon"] == 3 and record["witnesses"][0] == "F2"


def test_epsilon_large_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "epsilon", "--surface", "nocm", "--coeffs", "1000001,999999,-499999"
    )
    assert code == 0
    assert json.loads(out)["epsilon"] == 4


def test_epsilon_non_ample_exits_2(capsys):
    code, out, err = run_cli(capsys, "epsilon", "--surface", "nocm", "--coeffs", "1,0,0")
    assert code == 2
    assert out == ""
    assert err == "seshadri: error: class is not ample: L.F1 = 0 <= 0; L^2 = 0 <= 0\n"


def test_wrong_arity_exits_64(capsys):
    # the message is `NSClass`'s arity text
    for surface, coeffs, expected, got in (("nocm", "1,2,3,4", 3, 4), ("cm-i", "1,2,3", 4, 3)):
        code, out, err = run_cli(capsys, "epsilon", "--surface", surface, "--coeffs", coeffs)
        assert code == 64
        assert out == ""
        assert err == f"seshadri: error: expected {expected} coefficients for {surface}, got {got}\n"


@pytest.mark.parametrize("digits", [2199, 4400])
def test_integers_of_any_size_are_exact(capsys, digits):
    # (A, A, A) is ample with L^2 = 6 A^2 and epsilon = 2 A.  With A = 10^2199
    # only L^2 passes Python's default 4,300-digit int/str limit; with
    # A = 10^4400 the coefficients do too.  `main` lifts the limit while it
    # runs and restores the caller's.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    a = "1" + "0" * digits
    code, out, err = run_cli(capsys, "epsilon", "--surface", "nocm", "--coeffs", f"{a},{a},{a}")
    assert (code, err) == (0, "")
    record = json.loads(out, parse_int=str)  # the digits, under any limit
    assert record["coeffs"] == [a, a, a]
    assert record["l_squared"] == "6" + "0" * (2 * digits)
    assert record["epsilon"] == "2" + "0" * digits
    assert record["witnesses"] == ["F1", "F2", "Delta"]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


#: Lines whose values the commands reject with a usage error.
BAD_INPUT_ARGVS = [
    ("check", "--surface", "nocm", "--count", "-5"),
    ("check", "--surface", "nocm", "--count", "0"),
    ("check", "--surface", "nocm", "--count", "2", "--bound", "-3"),
    ("cross-section", "--lambda", "1/2", "--format", "csv", "--samples", "-3"),
    ("epsilon", "--surface", "nocm", "--coeffs", "1,x,3"),
    ("cross-section", "--lambda", "1/0"),
    # samples are csv rows; json (the default format) has none
    ("cross-section", "--lambda", "1/2", "--samples", "5"),
    # a bare "--" is a value, not the end of the options
    ("cross-section", "--lambda", "--"),
    ("cross-section", "--lambda=--"),
    ("epsilon", "--surface", "nocm", "--coeffs", "--"),
    ("curves", "--surface", "nocm", "--coeffs=--"),
]


@pytest.mark.parametrize("argv", BAD_INPUT_ARGVS)
def test_bad_input_exits_64_with_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("seshadri: error: ") and err.count("\n") == 1


def test_internal_error_exits_70(capsys, monkeypatch):
    # Without the last partial quotient of q/(p+q) the pass never reaches the
    # exact-ratio curve, so the envelope cannot reach 0 at mu_max, which the
    # cross-section checks on every call.
    partial_quotients = xs._partial_quotients
    monkeypatch.setattr(xs, "_partial_quotients", lambda n, d: partial_quotients(n, d)[:-1])
    with pytest.raises(ArithmeticError, match="does not vanish"):
        xs.cross_section(Fraction(8, 11))
    code, out, err = run_cli(capsys, "cross-section", "--lambda", "8/11")
    assert code == 70
    assert out == ""
    assert err.startswith("seshadri: internal error: ") and err.count("\n") == 1


def test_out_of_order_candidates_raise(capsys, monkeypatch):
    # The hull takes the candidates in one pass by increasing c + d and
    # refuses any other order instead of building a wrong envelope: a
    # partial quotient of -3 after the first turns the convergents back, so
    # c + d falls.  (Without the check this input ends at the vanishing
    # check; a -2 there would send the next level over a huge window.)
    partial_quotients = xs._partial_quotients

    def with_minus_three(n, d):
        first, *rest = partial_quotients(n, d)
        return [first, -3, *rest]

    monkeypatch.setattr(xs, "_partial_quotients", with_minus_three)
    with pytest.raises(ArithmeticError, match="out of order"):
        xs.cross_section(Fraction(8, 11))
    code, out, err = run_cli(capsys, "cross-section", "--lambda", "8/11")
    assert code == 70
    assert out == ""
    assert err.startswith("seshadri: internal error: ") and err.count("\n") == 1


def test_non_unimodular_reduced_basis_exits_70(capsys, monkeypatch):
    # The listing takes each x e1 + e2 as coprime because (e1, e2) is a basis
    # of Z^2; a reduction that hands it a basis of determinant 2 is refused
    # instead of listing pairs that name no curve.
    reduce = nocm._reduce

    def doubled_e1(coeffs):
        A, B, C, p, r, s, t = reduce(coeffs)
        return A, B, C, 2 * p, 2 * r, s, t

    monkeypatch.setattr(nocm, "_reduce", doubled_e1)
    L = seshadri.ns_class(Surface.NO_CM, (52, 30, -19))
    for call in (nocm.seshadri_constant, nocm.submaximal_curves):
        with pytest.raises(ArithmeticError, match="is not unimodular"):
            call(L)
    code, out, err = run_cli(capsys, "epsilon", "--surface", "nocm", "--coeffs", "52,30,-19")
    assert code == 70
    assert out == ""
    assert err.startswith("seshadri: internal error: ") and err.count("\n") == 1


def _module_process(*flags_and_argv, check=True, text=True):
    env = dict(os.environ)
    src = str(Path(seshadri.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags_and_argv], capture_output=True, text=text,
        env=env, check=check,
    )


def _run_module(*flags_and_argv):
    return _module_process(*flags_and_argv).stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("cross-section", "--lambda", "8/11"),
        ("epsilon", "--surface", "cm-eisenstein", "--coeffs", "9609,7679,3911,9587"),
    ],
)
def test_results_survive_python_O(argv):
    # `python -O` strips assert statements and `-OO` docstrings as well; no
    # result may depend on either.
    plain = _run_module("-m", "seshadri.cli", *argv)
    for flag in ("-O", "-OO"):
        assert plain and _run_module(flag, "-m", "seshadri.cli", *argv) == plain, flag


def test_unknown_command_exits_64(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 64


def test_curves_command(capsys):
    code, out, _ = run_cli(
        capsys, "curves", "--surface", "nocm", "--coeffs", "10,7,-4", "--weak"
    )
    assert code == 0
    assert json.loads(out)["curves"] == ["N_{1,1}", "N_{2,1}"]
    code, out, _ = run_cli(capsys, "curves", "--surface", "nocm", "--coeffs", "10,7,-4")
    assert json.loads(out)["curves"] == ["N_{1,1}"]


def test_curves_rejects_cm(capsys):
    code, out, err = run_cli(capsys, "curves", "--surface", "cm-i", "--coeffs", "1,1,1,1")
    assert code == 2
    assert out == ""
    assert err == (
        "seshadri: error: submaximal listing is only available for surface 'nocm'\n"
    )


def test_cross_section_json(capsys):
    code, out, _ = run_cli(capsys, "cross-section", "--lambda", "1/1")
    assert code == 0
    record = json.loads(out)
    assert record["mu_max"] == "1/2"
    assert record["breakpoints"] == ["-1/1", "1/3"]
    assert [s["witness"] for s in record["segments"]] == ["Delta", "F1", "N_{1,1}"]
    assert record["segments"][2]["slope"] == "-4/1"


def test_cross_section_slope_of_last_segment(capsys):
    _, out, _ = run_cli(capsys, "cross-section", "--lambda", "8/11")
    record = json.loads(out)
    assert len(record["segments"]) == 6
    assert record["segments"][-1] == {
        "slope": "-361/1",
        "intercept": "152/1",
        "witness": "N_{11,8}",
    }


def test_cross_section_out_of_range(capsys):
    code, out, err = run_cli(capsys, "cross-section", "--lambda", "3/2")
    assert code == 2
    assert out == ""
    assert err == "seshadri: error: lambda must lie in (0, 1], got 3/2\n"


@pytest.mark.parametrize("argv", [("--lambda", "-1/2"), ("--lambda=-1/2",)])
def test_cross_section_negative_lambda_exits_2(capsys, argv):
    # both spellings reach the domain check instead of an argparse usage error
    code, out, err = run_cli(capsys, "cross-section", *argv)
    assert code == 2
    assert out == ""
    assert err == "seshadri: error: lambda must lie in (0, 1], got -1/2\n"


def test_cross_section_csv_samples(capsys):
    code, out, _ = run_cli(
        capsys, "cross-section", "--lambda", "1/2", "--format", "csv", "--samples", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu_from,mu_to,slope,intercept,witness"
    assert lines[1].startswith("-inf,")
    assert "" in lines  # sample block separator
    assert lines[-1].split(",")[0] == "1/3"
    assert lines[-1].split(",")[1] == "0/1"
    assert "." not in out  # no floats anywhere


_TABLE_GOLDENS = _goldens("table")


@pytest.mark.parametrize("golden, argv", _TABLE_GOLDENS, ids=[a[-1] for _, a in _TABLE_GOLDENS])
def test_table_matches_golden(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, argv", _goldens("cross-section"))
def test_cross_section_matches_golden(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def _cross_section_ratios():
    small = [
        Fraction(p, q) for q in range(1, 61) for p in range(1, q + 1) if math.gcd(p, q) == 1
    ]
    rng = random.Random(15)
    large = set()
    while len(large) < 100:
        q = rng.randint(2, 10**12)
        large.add(Fraction(rng.randint(1, q), q))
    return small + sorted(large)


def _fmt(q):
    """The reference `num/den` of a `Fraction`, independent of the CLI."""
    return f"{q.numerator}/{q.denominator}"


def test_cross_section_json_matches_fraction_fields(capsys):
    # The record must be the one `_fmt` gives on the public `Fraction` fields.
    for lam in _cross_section_ratios():
        section = xs.cross_section(lam)
        record = {
            "lambda": _fmt(lam),
            "mu_max": _fmt(section.mu_max),
            "breakpoints": [_fmt(b) for b in section.breakpoints],
            "segments": [
                {
                    "slope": _fmt(seg.slope),
                    "intercept": _fmt(seg.intercept),
                    "witness": _label(seg.witness),
                }
                for seg in section.segments
            ],
        }
        assert run_cli(capsys, "cross-section", "--lambda", _fmt(lam)) == (
            0, json.dumps(record) + "\n", ""
        ), lam


@pytest.mark.parametrize("golden, argv", _goldens("epsilon", "curves"))
def test_record_matches_golden(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, argv", GOLDENS, ids=[golden for golden, _ in GOLDENS])
def test_golden_under_python_OO_and_warnings_as_errors(golden, argv):
    # the library's asserts and docstrings stripped, every warning an error
    proc = _module_process("-OO", "-W", "error", "-m", "seshadri.cli", *argv, text=False)
    assert (proc.stdout, proc.stderr) == ((GOLDEN / golden).read_bytes(), b"")


CM_SURFACES = [s for s in Surface if s.trace is not None]


@pytest.mark.parametrize("surface", CM_SURFACES, ids=lambda s: s.value)
def test_basis_tuples_are_normal_forms_on_both_cm_surfaces(surface):
    # The CLI names a CM witness by its representative, the smallest tuple of
    # its unit orbit; that finds the basis curves only if their tuples in
    # `cm.GENERATOR_TUPLES` are such normal forms, of F1, F2, Delta, Sigma.
    assert tuple(cm.GENERATOR_TUPLES) == GENERATOR_LABELS
    for t, basis_class in zip(cm.GENERATOR_TUPLES.values(), generator_classes(surface)):
        assert kernels._orbit_min(surface.trace, t) == t
        assert kernels._raw_degrees(surface.trace, *t) == generator_pairings(basis_class)


def test_labels_put_the_basis_first_in_basis_order():
    rng = random.Random(30)
    cases = [
        ([*nocm.GENERATOR_PAIRS, (2, 1), (1, 1), (5, -3)],
         ["F1", "F2", "Delta", "N_{1,1}", "N_{2,1}", "N_{5,-3}"]),
        ([*cm.GENERATOR_TUPLES.values(), (1, 1, 0, 1), (0, 1, 1, 1)],
         ["F1", "F2", "Delta", "Sigma", "N_{0,1,1,1}", "N_{1,1,0,1}"]),
    ]
    for curves, expected in cases:
        for _ in range(20):
            rng.shuffle(curves)
            assert _labels(curves) == _labels(frozenset(curves)) == expected, curves


def _labels_by_degree_vector(surface, witnesses):
    """The CM rule before normal forms: a witness with a basis curve's degree
    vector takes its name, the other witnesses follow by representative."""
    basis = dict(zip(map(generator_pairings, generator_classes(surface)), GENERATOR_LABELS))
    named = [basis[w.degrees] for w in witnesses if w.degrees in basis]
    others = sorted(w.representative for w in witnesses if w.degrees not in basis)
    return sorted(named, key=GENERATOR_LABELS.index) + ["N_{%d,%d,%d,%d}" % t for t in others]


@pytest.mark.parametrize("surface", CM_SURFACES, ids=lambda s: s.value)
def test_labels_match_the_degree_vector_rule(surface):
    mixed = 0  # classes with a basis witness and another
    for L in random_ample_classes(surface, 1000, 8, seed=30):
        witnesses = seshadri.seshadri_constant(L).witnesses
        labels = _epsilon_record(L)["witnesses"]
        assert labels == _labels_by_degree_vector(surface, witnesses), L
        mixed += labels[0] in GENERATOR_LABELS and labels[-1].startswith("N_")
    assert mixed >= 10


@pytest.mark.parametrize(
    "reference, argv",
    [
        ("nocm_seshadri", ("epsilon", "--surface", "nocm", "--coeffs", "52,30,-19", "--check-oracle")),
        ("cm_seshadri", ("epsilon", "--surface", "cm-i", "--coeffs", "1,1,1,1", "--check-oracle")),
        ("cm_seshadri", ("check", "--surface", "cm-eisenstein", "--count", "2", "--seed", "1")),
    ],
)
def test_oracle_mismatch_exits_3(capsys, monkeypatch, reference, argv):
    monkeypatch.setattr(seshadri.oracle, reference, lambda L: 10**9)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("oracle mismatch on ") and err.endswith(", oracle 1000000000\n")


def test_check_command(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--surface", "nocm", "--count", "25", "--seed", "7"
    )
    assert code == 0
    record = json.loads(out)
    assert record["all_match"] is True
    assert record["count"] == 25


def test_check_command_cm(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--surface", "cm-eisenstein", "--count", "8", "--seed", "1",
        "--bound", "5",
    )
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_repeated_calls_in_one_process_match_lone_runs(capsys):
    # the parser is built once per process; reusing it, also after a usage
    # error, must not change any call's output
    calls = [
        ("epsilon", "--surface", "cm-i", "--coeffs", "-1,1,2,2"),
        ("curves", "--surface", "nocm", "--coeffs", "45,15,-11", "--weak"),
        ("cross-section", "--lambda", "8/11", "--format", "csv", "--samples", "5"),
        ("table", "--which", "1"),
        ("epsilon", "--surface", "bogus", "--coeffs", "1,2,3"),
        ("check", "--surface", "cm-eisenstein", "--count", "3", "--seed", "2",
         "--bound", "1000000000000"),
    ]
    lone = []
    for argv in calls:
        proc = _module_process("-m", "seshadri.cli", *argv, check=False)
        lone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in lone] == [0, 0, 0, 0, 64, 0]
    # importing the CLI builds nothing, not even the command map; the first
    # call does, once
    probe = ("import seshadri.cli as c; "
             "print(c._build_parser.cache_info().currsize, c._commands.cache_info().currsize)")
    assert _run_module("-c", probe) == "0 0\n"
    for _ in range(2):
        for argv, expected in zip(calls, lone):
            assert run_cli(capsys, *argv) == expected, argv
    assert _build_parser() is _build_parser()


#: Lines the top-level parser must read in full: no command name first, or
#: arguments the command's own parser leaves over.
FULL_PARSE_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("frobnicate",),
    ("--surface", "nocm"),  # an option first
    ("check", "--surface", "nocm", "--count", "2", "extra"),
    # a standalone "--", which argparse versions treat differently
    ("check", "--surface", "nocm", "--count", "2", "--", "x"),
    ("check", "--surface", "nocm", "--count", "2", "--"),
    ("--", "check", "--surface", "nocm", "--count", "2"),
]

#: Every golden and bad-input line, the full-parse lines, and lines a
#: command's own parser reads alone: its help, an abbreviated option, a
#: repeated option and negative signed values.
PARSE_ARGVS = [
    *(argv for _, argv in GOLDENS),
    *BAD_INPUT_ARGVS,
    *FULL_PARSE_ARGVS,
    ("check", "-h"),
    ("check", "--surf", "nocm", "--count", "2"),
    ("check", "--surface", "nocm", "--surface", "cm-i", "--count", "2"),
    ("epsilon", "--surface", "nocm", "--coeffs", "-19,52,30"),
    ("epsilon", "--surface", "cm-i", "--coeffs", "-1,1,2,2", "--coeffs", "-2,2,1,3"),
    ("cross-section", "--lambda", "-1/2"),
    ("cross-section", "--lambda=-8/11"),
    # the plain lines a command's action table reads, and the edge cases it
    # leaves to argparse: a repeated or "="-valued flag, a value that starts
    # with "-" or is empty, a "--" after "=", a missing required option, and
    # values int() reads loosely
    ("check", "--surface", "nocm", "--count=3", "--seed=5"),
    ("curves", "--surface", "nocm", "--coeffs", "52,30,-19", "--weak", "--weak"),
    ("curves", "--surface", "nocm", "--coeffs", "52,30,-19", "--weak=1"),
    ("check", "--surface", "nocm", "--count", "2", "--seed", "-5"),
    ("check", "--surface", "nocm", "--count", "2", "--seed", "-1_0"),  # read as an option
    ("check", "--count", "2"),
    ("table",),
    ("check", "--surface", "nocm", "--count", " 7"),
    ("check", "--surface", "nocm", "--count", "1_0"),
    ("check", "--surface", "", "--count", "2"),
    ("check", "--surface", "--count", "2"),
    ("epsilon", "--surface", "nocm", "--coeffs=--"),
    ("cross-section", "--lambda=8/11", "--format=csv", "--samples=3"),
]


@pytest.mark.parametrize(
    "argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments"
)
def test_a_command_parsed_alone_matches_the_full_parse(capsys, monkeypatch, argv):
    # with no command map every line takes the top-level parse
    alone = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_commands", lambda: {})
    assert run_cli(capsys, *argv) == alone


def test_the_top_level_parse_runs_only_when_needed(capsys, monkeypatch):
    # a plain line is read from its command's action table with no argparse
    # pass at all; any other line gets exactly one top-level parse
    parser = _build_parser()
    top, commands = [], []

    def spy(parse, calls):
        def spied(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)
        return spied

    monkeypatch.setattr(parser, "parse_args", spy(parser.parse_args, top))
    for command in cli._commands().values():
        monkeypatch.setattr(command, "parse_known_args",
                            spy(command.parse_known_args, commands))
    benchmark = ("check", "--surface", "cm-eisenstein", "--count", "5", "--seed", "7",
                 "--bound", "100")
    for argv in (*(argv for _, argv in GOLDENS), benchmark):
        assert run_cli(capsys, *argv)[0] == 0
    assert (top, commands) == ([], [])
    for argv in FULL_PARSE_ARGVS:
        run_cli(capsys, *argv)
        assert len(top) == 1, argv
        top.clear()
