"""Seeded cross-validation of the closed forms against the oracle at large
coefficients, far beyond the example tables.

Each case draws a fixed seeded set of ample classes with |coefficients| up to
the bound and requires the closed-form constant to equal the certified
lattice minimum, with every reported witness attaining it.  On the rank-4
surfaces the box scan's minimizers must also meet each unit orbit of the
oracle's minimizers, which no box limits, exactly once.  `seshadri check
--bound 1000000000000 --count 200` runs the same comparison on more classes.

Rejection sampling from a box almost never lands near the boundary of the
nef cone, where coefficients are large and L^2 is small.  The rank-3
near-boundary families below are built with a known answer instead.
"""
from math import gcd, isqrt
from random import Random

import pytest

from scan_references import (
    assert_one_minimizer_per_orbit,
    paper_seshadri_constant,
    paper_submaximal_curves,
)
from seshadri import cm, kernels, nocm, oracle
from seshadri.lattice import Surface, generator_pairings, ns_class
from seshadri.sampling import random_ample_classes

BOUNDS = (10**4, 10**6, 10**9, 10**12)

# classes per (surface, bound): the rank-3 pair costs ~0.1 ms, a rank-4
# class ~0.6 ms
COUNTS = {Surface.NO_CM: 250, Surface.CM_GAUSSIAN: 100, Surface.CM_EISENSTEIN: 100}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("surface", list(Surface), ids=lambda s: s.value)
def test_closed_form_matches_oracle(surface, bound):
    for L in random_ample_classes(surface, COUNTS[surface], bound, seed=bound % 997):
        if surface is Surface.NO_CM:
            result = nocm.seshadri_constant(L)
            assert result.value == oracle.nocm_seshadri(L), L.coeffs
            assert all(nocm.degree(L, p) == result.value for p in result.witnesses)
        else:
            result = cm.seshadri_constant(L)
            report = oracle.min_quadratic_form(cm.degree_form(L))
            assert result.value == oracle.cm_seshadri(L) == report.minimum, L.coeffs
            assert all(
                cm.degree_value(L, w.representative) == result.value
                for w in result.witnesses
            ), L.coeffs
            _, mins = kernels.minimize_quartic(
                cm._KIND[surface], L.coeffs, int(cm.search_bound(L)),
                min(generator_pairings(L)),
            )
            assert_one_minimizer_per_orbit(mins, report.minimizers, surface)


# Reduced binary forms (A, B, C), degree A x^2 + 2B xy + C y^2, with their
# minimal vectors and their vectors of degree <= isqrt(2 (AC - B^2)), the
# weak submaximal threshold of a class whose degree form is equivalent to
# them (L^2 = 2 det).  One vector of each +- pair.
REDUCED_FORMS = {
    (1, 0, 1): (((1, 0), (0, 1)), ((1, 0), (0, 1))),
    (2, 1, 2): (((1, 0), (0, 1), (1, -1)), ((1, 0), (0, 1), (1, -1))),
    (3, 1, 5): (((1, 0),), ((1, 0), (0, 1))),
}

NEAR_BOUNDARY_SIZES = (10**4, 10**6, 10**8, 10**12, 10**40)


def _unimodular(rng, size):
    """Seeded ((p, q), (r, s)) of determinant 1, entries up to ~sqrt(size)."""
    root = isqrt(size)
    while True:
        p, r = rng.randint(root // 2, root), rng.randint(root // 2, root)
        if gcd(p, r) == 1:
            break
    s = pow(p, -1, r)
    return (p, (p * s - 1) // r), (r, s)


def near_boundary_classes(size, seed, per_form=2):
    """Rank-3 classes whose degree form is U^T G0 U, with U a seeded
    unimodular matrix of entries near sqrt(size) and G0 in REDUCED_FORMS,
    each with its known constant, witnesses and weak submaximal curves."""
    rng = Random(seed)
    out = []
    for (A0, B0, C0), (minimal, short) in REDUCED_FORMS.items():
        for _ in range(per_form):
            (p, q), (r, s) = _unimodular(rng, size)
            A = A0 * p * p + 2 * B0 * p * r + C0 * r * r
            B = A0 * p * q + B0 * (p * s + q * r) + C0 * r * s
            C = A0 * q * q + 2 * B0 * q * s + C0 * s * s
            L = ns_class(Surface.NO_CM, (C - B, A - B, B))

            # a vector w of G0 is U^-1 w = (s w0 - q w1, p w1 - r w0) here
            def image(vectors):
                return frozenset(
                    nocm.canonical_pair(s * x - q * y, p * y - r * x) for x, y in vectors
                )

            out.append((L, A0, image(minimal), image(short)))
    return out


@pytest.mark.parametrize("size", NEAR_BOUNDARY_SIZES)
def test_near_boundary_known_answer(size):
    for L, value, witnesses, weak in near_boundary_classes(size, seed=size % 983):
        result = nocm.seshadri_constant(L)
        assert result == nocm.SeshadriResult(value, witnesses), L.coeffs
        assert nocm.submaximal_curves(L, weak=True) == weak, L.coeffs


@pytest.mark.parametrize("size", [10**4, 10**6, 10**8])
def test_near_boundary_matches_paper_formula(size):
    # the paper formula scans O(sqrt(coeff)) values of s: ~0.25 s per class
    # at 10^8, so one class per form there
    per_form = 1 if size == 10**8 else 2
    for L, *_ in near_boundary_classes(size, size % 983, per_form):
        assert nocm.seshadri_constant(L) == paper_seshadri_constant(L), L.coeffs
        for weak in (True, False):
            assert nocm.submaximal_curves(L, weak) == paper_submaximal_curves(L, weak)


def test_near_boundary_matches_oracle():
    # the unreduced oracle costs seconds per class from 10^6 on
    size = 10**4
    for L, *_ in near_boundary_classes(size, size % 983):
        assert nocm.seshadri_constant(L).value == oracle.nocm_seshadri(L), L.coeffs
