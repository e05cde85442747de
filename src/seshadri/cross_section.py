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

For t = p/q and S = p + q, a curve N_{c,d} with c, d >= 1 can touch the
envelope only if 2 e^2 s^2 <= S^2, where s = c + d and e = |q s - S c|;
every other curve sits strictly above it everywhere.  e = 0 is N_{q,p}, the
last convergent of q/S.  For e >= 1, |q/S - c/s| < 1/s^2, so c/s is a
convergent or an intermediate fraction (h2 + j h1) / (t2 + j t1),
1 <= j <= a, of the continued fraction of q/S (Legendre; Hardy & Wright,
ch. X), already in lowest terms.  Along one level e = A - j B falls and s
rises linearly in j, so e s is concave and the j breaking the bound form one
exact integer window, which the walk skips: O(1) work per partial quotient,
O(log q) in all, instead of a walk over every s up to S/sqrt(2).

`cross_section` makes the candidates and builds the hull in one pass, with
no candidate list: Delta (s = 0), F1 (the first level's j = 1, e s = p),
then s = t2 + j t1 strictly rising with j up to the next convergent's
denominator t2 + a t1, and from there on in the next level.  F2 = (0, 1) is
left out: its line has F1's slope and the intercept q >= p, so it lies on
or above F1's everywhere and never governs alone (at p = q it ties F1,
which is kept).  Two guards raise `ArithmeticError`: the slopes must fall
strictly from line to line, and the envelope must vanish at mu_max.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

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


def _partial_quotients(n: int, d: int) -> list[int]:
    """The partial quotients of n/d, n, d >= 1, by Euclid's algorithm."""
    quotients = []
    while d:
        a = n // d
        quotients.append(a)
        n, d = d, n - a * d
    return quotients


def cross_section(lam) -> CrossSection:
    """Exact lower envelope of the candidate degree lines on the ray.

    Lines are scaled by q: N_{c,d} gives q (L . N) = b - q k mu with k = s^2
    and b = q d^2 + p c^2, so the hull runs on integers only.  Increasing k
    = decreasing slope = left-to-right order on the envelope; the line
    (k, b) meets (k0, b0) at mu = (b - b0) / (q (k - k0)).
    """
    if not isinstance(lam, Fraction):
        lam = _rational(lam)
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise ValueError("lambda out of range")
    S = p + q  # mu_max = p / S
    M = isqrt(S * S // 2) + 1  # e s < M  <=>  2 e^2 s^2 <= S^2
    k0, b0 = 0, S  # Delta = (1, -1)
    hull: list[tuple[int, int, Pair]] = [(k0, b0, (1, -1))]
    starts: list[tuple[int, int]] = []
    # Convergents h2/t2, h1/t1 of q/S from 1/0, 0/1; A, B their |q t - S h|.
    h2, t2, h1, t1 = 1, 0, 0, 1
    A, B = S, q
    for a in _partial_quotients(S, q):
        # j is skipped iff (B t1) j^2 + (B t2 - A t1) j + M - A t2 <= 0,
        # iff |2 B t1 j + f| <= isqrt(disc)
        u, f = 2 * B * t1, B * t2 - A * t1
        disc = f * f - 2 * u * (M - A * t2)
        if disc < 0:  # no j is skipped
            lo = hi = a + 1
        else:
            r = isqrt(disc)
            lo, hi = -((f + r) // u), (r - f) // u
        j = 1 if lo > 1 else max(hi + 1, 1)
        while j <= a:
            c, s = h2 + j * h1, t2 + j * t1
            d = s - c
            k, b = s * s, q * d * d + p * c * c
            if k <= k0:
                raise ArithmeticError(f"candidates of lambda = {lam} out of order")
            num, den = b - b0, q * (k - k0)
            while starts and num * starts[-1][1] <= starts[-1][0] * den:
                del hull[-1], starts[-1]
                k0, b0, _ = hull[-1]
                num, den = b - b0, q * (k - k0)
            starts.append((num, den))
            hull.append((k, b, (c, d)))
            k0, b0 = k, b
            j += 1
            if j == lo:
                j = hi + 1
        h2, t2, h1, t1 = h1, t1, h2 + a * h1, t2 + a * t1
        A, B = B, A - a * B

    # The envelope must vanish at mu_max, where q (L . N) = (q d - p c)^2 / S
    # is 0 only for N_{q,p}: when the check passes, every other line is
    # positive there and every breakpoint lies left of it, so none is clipped.
    if b0 * S != q * k0 * p:
        raise ArithmeticError(
            f"envelope of lambda = {lam} does not vanish at mu_max = {p}/{S}"
        )
    return CrossSection(lam, tuple(starts), tuple(hull))
