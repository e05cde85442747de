"""Seshadri function along rays of the nef cone of the rank-3 surface.

For fixed rational slope t in (0, 1] the classes F1 + t*F2 - mu*Delta are nef
for mu up to t/(1+t), and the Seshadri constant is the pointwise minimum of
the finitely many affine functions mu -> L . N over the curves that can be
submaximal somewhere on the ray.  The envelope is computed exactly, over
integer lines scaled by q, and the result is those integers: the
`CrossSection` named tuple holds lambda, the integer breakpoints and the
integer lines, and a `Fraction` is built only when a caller reads
`mu_max`, `breakpoints` or `segments` (on every access) or a value from
`value_at`.

For t = p/q, a curve N_{c,d} off the basis and the exact ratio can touch the
envelope only if c/(c+d) approximates q/(p+q) to better than 1/(c+d)^2, so
the candidates are convergents and intermediate fractions of the continued
fraction of q/(p+q).  They are enumerated level by level, O(1) work per
partial quotient and O(log q) in all, instead of a walk over every c + d up
to (p+q)/sqrt(2).  They stream into the hull in one pass, by non-decreasing
s = c + d; on equal s the smaller intercept wins, and then the first line.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import NamedTuple

from .kernels import _quad_window
from .lattice import _rational
from .nocm import Pair


class Segment(NamedTuple):
    slope: Fraction
    intercept: Fraction
    witness: Pair

    def value_at(self, mu: Fraction) -> Fraction:
        return self.intercept + self.slope * mu


class CrossSection(NamedTuple):
    """Piecewise-linear envelope on (-inf, mu_max], as the hull's integers.

    With lambda = `slope_ratio` = p/q, breakpoint i is num/den for the i-th
    (num, den) of `starts` (den > 0, not reduced), and segment i is the i-th
    (k, b, witness) of `lines`, with slope -k and intercept b/q.  Segment i
    governs the interval between breakpoints i-1 and i (the first extends to
    -infinity, the last ends at mu_max); adjacent segments agree at the
    shared breakpoint.  `mu_max`, `breakpoints` and `segments` build their
    `Fraction`s on every access.
    """

    slope_ratio: Fraction
    starts: tuple[tuple[int, int], ...]
    lines: tuple[tuple[int, int, Pair], ...]

    @property
    def mu_max(self) -> Fraction:
        p = self.slope_ratio.numerator
        return Fraction(p, p + self.slope_ratio.denominator)

    # tuple() of lists, not of generators: CPython resizes a tuple built from
    # a generator, stranding tuples on its free lists (~2 MB RSS in 10^5 calls).
    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(num, den) for num, den in self.starts])

    @property
    def segments(self) -> tuple[Segment, ...]:
        q = self.slope_ratio.denominator
        return tuple([Segment(Fraction(-k), Fraction(b, q), w) for k, b, w in self.lines])

    def _line_at(self, mu) -> tuple[int, int, tuple[int, int, Pair]]:
        """(n, d, line) with mu = n/d, d > 0, and the line governing mu."""
        if not isinstance(mu, Fraction):
            mu = _rational(mu)
        n, d = mu.numerator, mu.denominator
        p = self.slope_ratio.numerator
        if n * (p + self.slope_ratio.denominator) > p * d:
            raise ValueError("outside nef range")
        # the first breakpoint num/den >= n/d; den > 0
        i = bisect_left(self.starts, 0, key=lambda s: s[0] * d - n * s[1])
        return n, d, self.lines[i]

    def value_at(self, mu) -> Fraction:
        n, d, (k, b, _) = self._line_at(mu)
        q = self.slope_ratio.denominator
        return Fraction(b * d - q * k * n, q * d)

    def witness_at(self, mu) -> Pair:
        _, _, (_, _, witness) = self._line_at(mu)
        return witness


def _envelope_curves(lam: Fraction) -> list[Pair]:
    """Curve pairs that can be weakly submaximal somewhere on the ray.

    Besides the basis curves, a pair (c, d) with c, d >= 1 can only touch
    the envelope if 2 k^2 s^2 <= S^2, where S = p + q, s = c + d and
    k = |q s - S c|; every other curve sits strictly above the envelope
    everywhere.  k = 0 is the exact-ratio pair (q, p), the last convergent
    of q/S.  For k >= 1 the bound gives |q/S - c/s| < 1/s^2, so c/s is a
    convergent or an intermediate fraction (h2 + j h1) / (t2 + j t1),
    1 <= j <= a, of the continued fraction of q/S (Legendre; Hardy &
    Wright, ch. X), and such fractions are already in lowest terms.  Along
    one level k = A - j B falls and s rises linearly in j, so k s is concave
    and the j breaking the bound form one exact integer window: the
    survivors are the two ends of [1, a] outside it.  The cost is O(1) per
    partial quotient, O(log q) in all.

    The list has no repeats and is in hull order: Delta (s = 0), F1 = (1, 0)
    (first level, j = 1: k s = p <= M), F2 (s = 1: ties F1, loses as p <= q),
    then s = t2 + j t1 strictly rising with j up to t1' = t2 + a t1, the next
    convergent's denominator, and from t1 + t1' on in the next level.
    """
    p, q = lam.numerator, lam.denominator
    S = p + q
    M = isqrt(S * S // 2)  # k s <= M  <=>  2 k^2 s^2 <= S^2
    pairs: list[Pair] = [(1, -1)]
    # Convergents h2/t2, h1/t1 of q/S from 1/0, 0/1; A, B their |q t - S h|.
    h2, t2, h1, t1 = 1, 0, 0, 1
    A, B = S, q
    while B:
        a = A // B
        lo, hi = _quad_window(B * t1, B * t2 - A * t1, M + 1 - A * t2)
        for j in chain(range(1, min(lo, a + 1)), range(max(hi, 0) + 1, a + 1)):
            c = h2 + j * h1
            pairs.append((c, t2 + j * t1 - c))
        h2, t2, h1, t1 = h1, t1, h2 + a * h1, t2 + a * t1
        A, B = B, A - a * B
    pairs.insert(2, (0, 1))  # F2, right after F1 = pairs[1]
    return pairs


def cross_section(lam) -> CrossSection:
    """Exact lower envelope of the candidate degree lines on the ray.

    Lines are scaled by q: N_{c,d} gives q (L . N) = b - q s^2 mu with
    s = c + d and b = q d^2 + p c^2, so the hull runs on integers only.
    Increasing s^2 = decreasing slope = left-to-right order on the envelope;
    the line (k, b) meets (k0, b0) at mu = (b - b0) / (q (k - k0)).
    """
    if not isinstance(lam, Fraction):
        lam = _rational(lam)
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise ValueError("lambda out of range")
    S = p + q  # mu_max = p / S
    hull: list[tuple[int, int, Pair]] = []
    starts: list[tuple[int, int]] = []
    for pair in _envelope_curves(lam):
        c, d = pair
        k, b = (c + d) ** 2, q * d * d + p * c * c
        if hull and k <= hull[-1][0]:  # equal s: the lower line, else the first
            if k < hull[-1][0]:
                raise ArithmeticError(f"candidates of lambda = {lam} out of order")
            if b >= hull[-1][1]:
                continue
            del hull[-1], starts[-1:]
        while hull:
            k0, b0, _ = hull[-1]
            num, den = b - b0, q * (k - k0)
            if starts and num * starts[-1][1] <= starts[-1][0] * den:
                del hull[-1], starts[-1]
            else:
                starts.append((num, den))
                break
        hull.append((k, b, pair))

    # The envelope must vanish at mu_max, where q (L . N) = (q d - p c)^2 / S
    # is 0 only for N_{q,p}: when the check passes, every other line is
    # positive there and every breakpoint lies left of it, so none is clipped.
    k, b, _ = hull[-1]
    if b * S != q * k * p:
        raise ArithmeticError(
            f"envelope of lambda = {lam} does not vanish at mu_max = {p}/{S}"
        )
    return CrossSection(lam, tuple(starts), tuple(hull))
