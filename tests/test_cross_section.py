import random
from bisect import bisect_left
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from scan_references import _lin_window, count_loop_passes, envelope_curves, two_pass_section

import seshadri.cross_section as xs
from seshadri.cross_section import CrossSection, Segment, cross_section
from seshadri.lattice import Surface, ns_class
from seshadri.nocm import GENERATOR_PAIRS, seshadri_constant


def pair_sort_key(pair):
    """The reference tie order: F1, F2, Delta first, then the other pairs by (c, d)."""
    if pair in GENERATOR_PAIRS:
        return (0, GENERATOR_PAIRS.index(pair))
    return (1, pair)


def _linear_walk(lam):
    """Reference for `envelope_curves`: every s = c + d up to (p+q)/sqrt(2).

    For each s the filter 2 (qd - pc)^2 (c+d)^2 <= (q+p)^2 pins c to one
    exact window; coprime pairs in it are kept.  O(p+q) per call.
    """
    p, q = lam.numerator, lam.denominator
    pairs = set(GENERATOR_PAIRS)
    pairs.add((q, p))
    limit = (q + p) ** 2
    s = 2
    while 2 * s * s <= limit:
        clo, chi = _lin_window(p + q, -q * s, limit // (2 * s * s))
        for c in range(max(clo, 1), min(chi, s - 1) + 1):
            if gcd(c, s - c) == 1:
                pairs.add((c, s - c))
        s += 1
    return pairs


def _line(lam, pair):
    c, d = pair
    return (F(-((c + d) ** 2)), d * d + lam * c * c)


def _fraction_section(lam):
    """Reference for the hull in `cross_section`: every line, breakpoint and
    comparison in `Fraction`, over the same candidate pairs.  Returns the
    four public fields (slope_ratio, mu_max, breakpoints, segments)."""
    mu_max = lam / (1 + lam)
    by_slope = {}
    for pair in sorted(envelope_curves(lam), key=pair_sort_key):
        slope, intercept = _line(lam, pair)
        kept = by_slope.get(slope)
        if kept is None or intercept < kept[0]:
            by_slope[slope] = (intercept, pair)
    lines = [
        Segment(slope, by_slope[slope][0], by_slope[slope][1])
        for slope in sorted(by_slope, reverse=True)
    ]
    hull, starts = [], []
    for line in lines:
        while hull:
            top = hull[-1]
            cross = (line.intercept - top.intercept) / (top.slope - line.slope)
            if starts and cross <= starts[-1]:
                hull.pop()
                starts.pop()
            else:
                starts.append(cross)
                break
        hull.append(line)
    while starts and starts[-1] >= mu_max:
        starts.pop()
        hull.pop()
    assert hull[bisect_left(starts, mu_max)].value_at(mu_max) == 0, lam
    return lam, mu_max, tuple(starts), tuple(hull)


def _fields(section):
    return section.slope_ratio, section.mu_max, section.breakpoints, section.segments


def _reference_segment(reference, mu):
    _, _, breakpoints, segments = reference
    return segments[bisect_left(breakpoints, mu)]


def _small_ratios(q_lo=1, q_hi=60):
    return [F(p, q) for q in range(q_lo, q_hi + 1) for p in range(1, q + 1) if gcd(p, q) == 1]


def _seeded_ratios():
    rng = random.Random(12)
    ratios = set()
    while len(ratios) < 200:
        q = rng.randint(61, 10**4)
        ratios.add(F(rng.randint(1, q), q))
    return sorted(ratios)


LARGE_RATIOS = [F(618033988749, 10**12), F(1, 10**12), F(10**12 - 1, 10**12)]


def _seeded_large_ratios():
    rng = random.Random(13)
    ratios = set()
    while len(ratios) < 100:
        q = rng.randint(2, 10**12)
        ratios.add(F(rng.randint(1, q), q))
    return sorted(ratios)


def _fibonacci_ratios(step):
    """Every step-th F_n/F_{n+1} with F_{n+1} < 10^200, down from the last:
    every partial quotient of q/(p+q) but the last is 1, one level per n."""
    ratios, a, b = [], 0, 1
    while b < 10**200:
        a, b = b, a + b
        ratios.append(F(a, b))
    return ratios[::-step][::-1]


#: p = 1 and p = q - 1 at q = 10^40: q/(p+q) has a partial quotient of
#: q resp. q - 1, and its window of up to ~q non-candidates is skipped.
DEEP_RATIOS = [F(1, 10**40), F(10**40 - 1, 10**40)]

RATIO_SETS = {
    "q_up_to_60": _small_ratios,
    "q_61_to_150": lambda: _small_ratios(61, 150),
    "seeded_q_up_to_10_4": _seeded_ratios,
    "q_10_12": lambda: LARGE_RATIOS,
    "seeded_q_up_to_10_12": _seeded_large_ratios,
}

#: Ratios deep enough that only the integer references reach them.
DEEP_RATIO_SETS = {
    "fibonacci_q_up_to_10_200": lambda: _fibonacci_ratios(step=25),
    "q_10_40": lambda: DEEP_RATIOS,
}


def _benchmark_ratios():
    """300 seeded p/q with q in the `cross-section` benchmark's [10^3, 3 10^4]."""
    rng = random.Random(15)
    ratios = set()
    while len(ratios) < 300:
        q = rng.randint(10**3, 3 * 10**4)
        ratios.add(F(rng.randint(1, q), q))
    return sorted(ratios)


def _counting_isqrt(counts):
    """`math.isqrt` whose result, and that plus an int, count the comparisons
    made with them in counts["tests"], and which counts its calls in
    counts["isqrt"].  `x < M` for an int x calls the subclass's reflected
    method first, so every e s test against M is counted."""

    def counted(compare):
        def method(self, other):
            counts["tests"] += 1
            return compare(self, other)
        return method

    class Bound(int):
        __lt__, __le__, __gt__, __ge__ = map(
            counted, (int.__lt__, int.__le__, int.__gt__, int.__ge__))

        def __add__(self, other):
            return Bound(int(self) + other)

    def counting_isqrt(n):
        counts["isqrt"] += 1
        return Bound(isqrt(n))

    return counting_isqrt


#: The work of the walk over each set: (partial quotients, candidates, hull
#: pops, e s tests).  The candidates and pops are those of the per-level
#: window the two-ended walk replaced.  Up to q = 60, e s = M at a tested j
#: for 120 of the 1,102 ratios, so a tie taken for kept moves the candidates.
WALK_WORK = {
    "q_up_to_60": (_small_ratios, (4951, 5540, 958, 9263)),
    "benchmark_q_and_deep": (lambda: [*_benchmark_ratios(), *DEEP_RATIOS], (2662, 2854, 577, 5242)),
}


@pytest.mark.parametrize("ratios, work", WALK_WORK.values(), ids=WALK_WORK)
def test_walk_work_pinned(monkeypatch, ratios, work):
    ratios = ratios()

    def run():
        for lam in ratios:
            cross_section(lam)

    counts = {"tests": 0, "isqrt": 0}
    monkeypatch.setattr(xs, "isqrt", _counting_isqrt(counts))
    passes = [
        count_loop_passes(xs._partial_quotients, "quotients.append(a)", run),
        count_loop_passes(cross_section, "d = s - c", run),
        count_loop_passes(cross_section, "del hull[-1], starts[-1]", run),
    ]
    counts.update(tests=0, isqrt=0)
    run()
    assert (*passes, counts["tests"]) == work
    assert counts["isqrt"] == len(ratios)


def _assert_matches_linear_walk(ratios):
    # The reference's candidates are the linear walk's, and its hull over the
    # walk's pairs, sorted by s, is the fused pass's section.
    for lam in ratios:
        pairs = _linear_walk(lam)
        assert set(envelope_curves(lam)) == pairs, lam
        ordered = sorted(pairs, key=lambda pair: (sum(pair), pair_sort_key(pair)))
        assert cross_section(lam) == two_pass_section(lam, ordered), lam


def test_candidates_lambda_one():
    assert set(envelope_curves(F(1))) == {(1, 0), (0, 1), (1, -1), (1, 1)}


def test_candidates_eight_elevenths():
    # N_{2,1} is not a candidate: k = |11*3 - 19*2| = 5 and 2 k^2 s^2 = 450
    # exceeds 19^2, so it is not even weakly submaximal on this ray.
    assert set(envelope_curves(F(8, 11))) == {
        (1, 0), (0, 1), (1, -1), (1, 1), (3, 2), (4, 3), (7, 5), (11, 8)
    }


def test_section_range_check():
    for lam in (F(3, 2), F(-1, 4), F(0), 2, 0, "-1/3", 1.5):
        with pytest.raises(ValueError, match="lambda out of range"):
            cross_section(lam)
    for lam in (1, "8/11", 0.5):
        assert cross_section(lam) == cross_section(F(lam)), lam


def test_envelope_curves_match_linear_walk_small():
    _assert_matches_linear_walk(_small_ratios())


def test_envelope_curves_match_linear_walk_seeded():
    _assert_matches_linear_walk(_seeded_ratios())


@pytest.mark.parametrize(
    "ratios", [_small_ratios, _seeded_ratios, lambda: LARGE_RATIOS],
    ids=["q_up_to_60", "seeded_q_up_to_10_4", "q_10_12"],
)
def test_candidates_in_hull_order(ratios):
    # Delta (s = 0), then F1 and F2 (s = 1), then strictly increasing s.
    for lam in ratios():
        pairs = envelope_curves(lam)
        assert len(set(pairs)) == len(pairs), lam
        sums = [c + d for c, d in pairs]
        assert sums == sorted(sums), lam
        assert sums[:3] == [0, 1, 1], lam
        assert all(s < t for s, t in zip(sums[2:], sums[3:])), lam


def test_equal_s_keeps_the_lower_line():
    # In the two-pass reference, parallel lines (equal s): the lower one wins
    # wherever it is listed, and the first listed on a tie.  F1 = (1, 0) has
    # intercept p, F2 = (0, 1) q; without Delta they are the first lines of
    # the hull.  F2 listed after F1 therefore never enters, which is why the
    # fused pass leaves it out.
    def section(lam, *basis):
        delta, f1, f2, *rest = envelope_curves(lam)
        named = {"delta": delta, "f1": f1, "f2": f2}
        return two_pass_section(lam, [named[name] for name in basis] + rest)

    for head in ((), ("delta",)):
        lam = F(8, 11)
        assert section(lam, *head, "f2", "f1") == section(lam, *head, "f1")
        assert section(lam, *head, "f2") != section(lam, *head, "f1")
        lam = F(1)
        assert section(lam, *head, "f2", "f1") == section(lam, *head, "f2")
        assert section(lam, *head, "f1", "f2") == section(lam, *head, "f1")
    for lam in (F(8, 11), F(1)):
        expected = section(lam, "delta", "f1", "f2")
        assert cross_section(lam) == expected == section(lam, "delta", "f1")


@pytest.mark.parametrize(
    "ratios", [*RATIO_SETS.values(), *DEEP_RATIO_SETS.values()],
    ids=[*RATIO_SETS, *DEEP_RATIO_SETS],
)
def test_fused_pass_matches_two_pass_reference(ratios):
    for lam in ratios():
        section, reference = cross_section(lam), two_pass_section(lam)
        for name in CrossSection._fields:
            assert getattr(section, name) == getattr(reference, name), (lam, name)


@pytest.mark.parametrize(
    "lam", [*_fibonacci_ratios(step=450), *DEEP_RATIOS],
    ids=lambda lam: f"{len(str(lam.numerator))}_over_{len(str(lam.denominator))}_digits",
)
def test_deep_continued_fractions_at_breakpoints(lam):
    # At every breakpoint n/d, q d times the section is the Seshadri constant
    # of the integral class (q d, p d, -q n) on the ray.
    section = cross_section(lam)
    assert section == two_pass_section(lam)
    p, q = lam.numerator, lam.denominator
    for mu in section.breakpoints:
        n, d = mu.numerator, mu.denominator
        L = ns_class(Surface.NO_CM, (q * d, p * d, -q * n))
        assert q * d * section.value_at(mu) == seshadri_constant(L).value, mu
    assert section.value_at(section.mu_max) == 0


@pytest.mark.parametrize("ratios", RATIO_SETS.values(), ids=RATIO_SETS.keys())
def test_integer_hull_matches_fraction_reference(ratios):
    # Every public field, with its type, and the values read through the
    # section at every breakpoint, at mu_max and at seeded points left of it.
    rng = random.Random(14)
    for lam in ratios():
        section = cross_section(lam)
        reference = _fraction_section(lam)
        fields = _fields(section)
        assert fields == reference, lam
        slope_ratio, mu_max, breakpoints, segments = fields
        assert type(slope_ratio) is type(mu_max) is F, lam
        assert type(breakpoints) is type(segments) is tuple, lam
        assert all(type(b) is F for b in breakpoints), lam
        for seg in segments:
            assert type(seg) is Segment, lam
            assert type(seg.slope) is type(seg.intercept) is F, lam
        seeded = [mu_max - F(rng.randint(0, 10**6), rng.randint(1, 10**6)) for _ in range(3)]
        for mu in (*breakpoints, mu_max, *seeded):
            expected = _reference_segment(reference, mu)
            value = section.value_at(mu)
            assert type(value) is F, (lam, mu)
            assert value == expected.value_at(mu), (lam, mu)
            assert section.witness_at(mu) == expected.witness, (lam, mu)


def test_equality_and_hash():
    one = cross_section(1)
    assert one == cross_section(F(1)) and hash(one) == hash(cross_section(F(1)))
    assert one == cross_section("1/1") and one != cross_section(F(8, 11))
    assert cross_section(F(1, 2)) != cross_section(F(1, 3))
    assert len({cross_section(F(8, 11)), cross_section("8/11"), one}) == 2
    assert one != _fields(one)
    assert one == (one.slope_ratio, one.starts, one.lines)
    for name in ("slope_ratio", "starts", "lines", "mu_max", "breakpoints", "segments"):
        with pytest.raises(AttributeError):
            setattr(one, name, getattr(one, name))


@pytest.mark.parametrize("lam", LARGE_RATIOS)
def test_scale_denominator_10_to_12(lam):
    # Far beyond the reach of a walk over c + d.  The golden-ratio slope has
    # 37 segments, witnessed by N_{1,1} .. N_{514229,317811} (consecutive
    # Fibonacci pairs) and then by the later convergents.
    s = cross_section(lam)
    p, q = lam.numerator, lam.denominator
    m_max = (q * p - 1) // (q + p)  # largest m with (q, p, -m) ample
    ms = {-10**6, 0, m_max // 2, m_max}
    ms.update(q * b.numerator // b.denominator for b in s.breakpoints)
    for m in sorted(ms):
        L = ns_class(Surface.NO_CM, (q, p, -m))
        assert q * s.value_at(F(m, q)) == seshadri_constant(L).value, m


def test_section_lambda_one():
    s = cross_section(F(1))
    assert s.mu_max == F(1, 2)
    assert s.breakpoints == (F(-1), F(1, 3))
    assert [(seg.slope, seg.intercept, seg.witness) for seg in s.segments] == [
        (F(0), F(2), (1, -1)),
        (F(-1), F(1), (1, 0)),
        (F(-4), F(2), (1, 1)),
    ]
    assert s.value_at(0) == 1
    assert s.value_at(-5) == 2
    assert s.value_at(F(1, 2)) == 0


def test_section_eight_elevenths():
    s = cross_section(F(8, 11))
    assert s.mu_max == F(8, 19)
    assert s.breakpoints == (F(-1), F(1, 3), F(97, 231), F(37, 88), F(1445, 3432))
    expected = [
        (F(0), F(19, 11), (1, -1)),
        (F(-1), F(8, 11), (1, 0)),
        (F(-4), F(19, 11), (1, 1)),
        (F(-25), F(116, 11), (3, 2)),
        (F(-49), F(227, 11), (4, 3)),
        (F(-361), F(152), (11, 8)),
    ]
    assert [(seg.slope, seg.intercept, seg.witness) for seg in s.segments] == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_unit_fraction_family(n):
    s = cross_section(F(1, n))
    assert s.mu_max == F(1, n + 1)
    assert s.breakpoints == (F(-1), F(n * n + n - 1, n * n * (n + 2)))
    delta_seg, f1_seg, last = s.segments
    assert delta_seg.witness == (1, -1) and delta_seg.intercept == 1 + F(1, n)
    assert f1_seg.witness == (1, 0)
    assert (f1_seg.slope, f1_seg.intercept) == (F(-1), F(1, n))
    assert last.witness == (n, 1)
    assert (last.slope, last.intercept) == (F(-((n + 1) ** 2)), F(1 + n))
    assert s.value_at(s.mu_max) == 0


def test_evaluate_outside_range():
    s = cross_section(F(1, 2))
    with pytest.raises(ValueError, match="outside nef range"):
        s.value_at(F(1, 2))
    assert s.value_at(s.mu_max) == 0 and s.witness_at(s.mu_max) == (2, 1)
    past = s.mu_max + F(1, 10**40)
    for evaluate in (s.value_at, s.witness_at):
        with pytest.raises(ValueError, match="outside nef range"):
            evaluate(past)


def test_int_and_str_inputs():
    s = cross_section("8/11")
    assert s == cross_section(F(8, 11))
    for mu in (0, -3, "1/3", "-7/3", "97/231", 0.25):
        assert s.value_at(mu) == s.value_at(F(mu)), mu
        assert s.witness_at(mu) == s.witness_at(F(mu)), mu


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "1/0"])
def test_non_finite_input_raises_value_error(bad):
    # inf, nan and a zero denominator are bad values, not broken invariants
    # (ArithmeticError, CLI exit 70).
    s = cross_section(F(8, 11))
    for call in (cross_section, s.value_at, s.witness_at):
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("bad", [None, [1, 2], object()])
def test_non_number_input_raises_type_error(bad):
    s = cross_section(F(8, 11))
    for call in (cross_section, s.value_at, s.witness_at):
        with pytest.raises(TypeError):
            call(bad)


def test_left_region_witnesses():
    # far left the diagonal curve governs, then the first fiber up to the
    # first positive breakpoint
    for lam in (F(1, 3), F(2, 5), F(9, 10), F(1)):
        s = cross_section(lam)
        assert s.witness_at(-2) == (1, -1)
        assert s.value_at(-1) == 1 + lam
        assert s.witness_at(F(-1, 2)) == (1, 0)
        assert s.value_at(0) == lam


def test_structural_invariants():
    rng = random.Random(4)
    for _ in range(40):
        lam = F(rng.randint(1, 20), rng.randint(1, 20))
        if lam > 1:
            lam = 1 / lam
        s = cross_section(lam)
        assert len(s.segments) == len(s.breakpoints) + 1
        assert list(s.breakpoints) == sorted(set(s.breakpoints))
        assert all(b < s.mu_max for b in s.breakpoints)
        slopes = [seg.slope for seg in s.segments]
        assert slopes == sorted(slopes, reverse=True)
        for b, left, right in zip(s.breakpoints, s.segments, s.segments[1:]):
            assert left.value_at(b) == right.value_at(b)
        for seg in s.segments:
            c, d = seg.witness
            assert seg.slope == -((c + d) ** 2)
            assert seg.intercept == d * d + lam * c * c
        assert s.value_at(s.mu_max) == 0


def test_large_denominator_profile():
    s = cross_section(F(355, 452))
    assert s.value_at(s.mu_max) == 0
    slopes = [seg.slope for seg in s.segments]
    assert slopes == sorted(slopes, reverse=True)
    rng = random.Random(2)
    for _ in range(10):
        mu = s.mu_max - F(rng.randint(1, 9), rng.randint(1, 9))
        k = 452 * mu.denominator
        L = ns_class(Surface.NO_CM, (k, int(k * F(355, 452)), int(-k * mu)))
        assert s.value_at(mu) * k == seshadri_constant(L).value


def test_agrees_with_integral_constant():
    rng = random.Random(11)
    for _ in range(60):
        lam = F(rng.randint(1, 8), rng.randint(1, 8))
        if lam > 1:
            lam = 1 / lam
        s = cross_section(lam)
        mu = s.mu_max - F(rng.randint(1, 6), rng.randint(1, 6))
        k = lam.denominator * mu.denominator
        L = ns_class(Surface.NO_CM, (k, int(k * lam), int(-k * mu)))
        assert s.value_at(mu) * k == seshadri_constant(L).value
