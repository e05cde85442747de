"""Seshadri function along rays of the nef cone of the rank-3 surface.

For fixed rational slope t in (0, 1] the classes F1 + t*F2 - mu*Delta are nef
for mu up to t/(1+t), and the Seshadri constant is the pointwise minimum of
the finitely many affine functions mu -> L . N over the curves that can be
submaximal somewhere on the ray.  The envelope is computed exactly over the
rationals.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .kernels import _lin_window
from .nocm import GENERATOR_PAIRS, Pair, pair_sort_key


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    intercept: Fraction
    witness: Pair

    def value_at(self, mu: Fraction) -> Fraction:
        return self.intercept + self.slope * mu


@dataclass(frozen=True)
class CrossSection:
    """Piecewise-linear envelope on (-inf, mu_max].

    Segment i governs the interval between breakpoints i-1 and i (the first
    extends to -infinity, the last ends at mu_max); adjacent segments agree
    at the shared breakpoint.
    """

    slope_ratio: Fraction
    mu_max: Fraction
    breakpoints: tuple[Fraction, ...]
    segments: tuple[Segment, ...]

    def value_at(self, mu) -> Fraction:
        mu = Fraction(mu)
        if mu > self.mu_max:
            raise ValueError("outside nef range")
        return self.segments[bisect_left(self.breakpoints, mu)].value_at(mu)

    def witness_at(self, mu) -> Pair:
        mu = Fraction(mu)
        if mu > self.mu_max:
            raise ValueError("outside nef range")
        return self.segments[bisect_left(self.breakpoints, mu)].witness


def _check_ratio(lam, lo_open: bool) -> Fraction:
    lam = Fraction(lam)
    if lam > 1 or lam < 0 or (lo_open and lam == 0):
        raise ValueError("lambda out of range")
    return lam


def candidate_curves(lam) -> frozenset[Pair]:
    """Curve pairs that can be weakly submaximal somewhere on the ray.

    Contains the basis curves, the exact-ratio pair (q, p) for lam = p/q,
    and every coprime positive pair with 2 (c+d)^2 <= (q+p)^2: outside that
    range the necessary inequality (q+p)^2 >= 2 (qd-pc)^2 (c+d)^2 fails for
    every mu, so nothing is lost and dominated extras cost nothing.
    """
    lam = _check_ratio(lam, lo_open=False)
    p, q = lam.numerator, lam.denominator
    pairs: set[Pair] = set(GENERATOR_PAIRS)
    if p >= 1:
        pairs.add((q, p))
    s_max = isqrt((q + p) ** 2 // 2)
    for s in range(2, s_max + 1):
        if 2 * s * s > (q + p) ** 2:
            break
        for c in range(1, s):
            if gcd(c, s - c) == 1:
                pairs.add((c, s - c))
    return frozenset(pairs)


def _envelope_curves(lam: Fraction) -> set[Pair]:
    """The subset of candidates that can be weakly submaximal on the ray.

    A pair off the exact ratio needs 2 (qd - pc)^2 (c+d)^2 <= (q+p)^2, which
    pins c to a near-empty window for each value of c + d; curves failing it
    sit strictly above the envelope everywhere, so dropping them changes
    nothing while keeping the line count linear in q + p.
    """
    p, q = lam.numerator, lam.denominator
    pairs: set[Pair] = set(GENERATOR_PAIRS)
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


def _line(lam: Fraction, pair: Pair) -> tuple[Fraction, Fraction]:
    c, d = pair
    return (Fraction(-((c + d) ** 2)), d * d + lam * c * c)


def cross_section(lam) -> CrossSection:
    """Exact lower envelope of the candidate degree lines on the ray."""
    lam = _check_ratio(lam, lo_open=True)
    mu_max = lam / (1 + lam)

    by_slope: dict[Fraction, tuple[Fraction, Pair]] = {}
    for pair in sorted(_envelope_curves(lam), key=pair_sort_key):
        slope, intercept = _line(lam, pair)
        kept = by_slope.get(slope)
        if kept is None or intercept < kept[0]:
            by_slope[slope] = (intercept, pair)

    # Decreasing slope = left-to-right order of appearance on the envelope.
    lines = [
        Segment(slope, by_slope[slope][0], by_slope[slope][1])
        for slope in sorted(by_slope, reverse=True)
    ]

    hull: list[Segment] = []
    starts: list[Fraction] = []
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

    # Clip to the nef range; a segment starting at or past mu_max is
    # shadowed by its left neighbour at the boundary.
    while starts and starts[-1] >= mu_max:
        starts.pop()
        hull.pop()

    section = CrossSection(lam, mu_max, tuple(starts), tuple(hull))
    assert section.value_at(mu_max) == 0
    return section
