"""The paper's supporting lemmas, as the tests check them.

The library computes the Seshadri constants from the paper's explicit
formulas; these are the lemmas behind them, computed literally so that the
tests can check the identities they state:

* `congruence_solution_count`: the solutions of the four kernel congruences
  on cm-i number D, the gcd invariant of the tuple;
* `division_point_count`: the torus points x with a x + b i(x) = 0 number
  a^2 + b^2;
* `decompose_pair`: the (m, c, d) decomposition of a degree pair on the
  rank-3 surface;
* `leading_minors` and `is_positive_definite`: the leading principal minors
  of a Gram matrix, built on the oracle's own integer elimination.
"""
from fractions import Fraction
from math import gcd
from typing import Sequence

from seshadri.cm import Tuple4, _require_primitive, tuple_gcd
from seshadri.lattice import Surface
from seshadri.oracle import _bareiss, _integer_gram


def congruence_solution_count(t: Tuple4) -> int:
    """Solutions (m, n) mod D of the four kernel congruences on cm-i, by count."""
    _require_primitive(t)
    a, b, c, d = t
    dd = tuple_gcd(t, Surface.CM_GAUSSIAN)
    count = 0
    for m in range(dd):
        for n in range(dd):
            if (
                (a * m - b * n) % dd == 0
                and (b * m + a * n) % dd == 0
                and (c * m - d * n) % dd == 0
                and (d * m + c * n) % dd == 0
            ):
                count += 1
    return count


def division_point_count(a: int, b: int) -> int:
    """Number of torus points x with a x + b i(x) = 0, counted directly.

    Solutions are the l-division points [m/l + i n/l], l = a^2 + b^2, with
    l | a m - b n and l | a n + b m; for each m the first condition is a
    linear congruence in n whose solutions are checked against the second.
    """
    if a == 0 and b == 0:
        raise ValueError("(0, 0) has no associated equation")
    ell = a * a + b * b
    count = 0
    for m in range(ell):
        # b n = a m (mod ell)
        g = gcd(b % ell, ell)
        if (a * m) % g:
            continue
        step = ell // g
        if g == ell:  # b = 0 mod ell: any n passes the first congruence
            n0 = 0
        else:
            inv = pow((b % ell) // g, -1, step)
            n0 = ((a * m) // g * inv) % step
        for k in range(g):
            n = n0 + k * step
            if (a * n + b * m) % ell == 0:
                count += 1
    return count


def decompose_pair(a: int, b: int) -> tuple[int, int, int]:
    """Write a = m c (c+d), b = m d (c+d) with gcd(c, d) = 1.

    Defined whenever a, b, a+b are nonzero and a+b divides a*b; follows the
    constructive proof: l = gcd(a, b), c = a/l, d = b/l, m = l/(c+d).
    """
    if a == 0 or b == 0 or a + b == 0 or (a * b) % (a + b):
        raise ValueError(f"({a}, {b}) is not decomposable")
    ell = gcd(a, b)
    c, d = a // ell, b // ell
    if ell % (c + d):
        raise ValueError(f"({a}, {b}) is not decomposable")
    m = ell // (c + d)
    return m, c, d


def leading_minors(gram: Sequence[Sequence]) -> list[Fraction]:
    """Leading principal minors of `gram`, all but the last nonzero."""
    s, a = _integer_gram(gram)
    minors = _bareiss(a)[0]
    if len(minors) <= len(a):
        raise ValueError("a leading minor other than the last vanishes")
    return [Fraction(d, s**k) for k, d in enumerate(minors) if k]


def is_positive_definite(gram: Sequence[Sequence]) -> bool:
    # an early stop leaves the zero pivot last in the list
    return all(d > 0 for d in _bareiss(_integer_gram(gram)[1])[0])
