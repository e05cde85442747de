"""Seeded cross-validation of the closed forms against the oracle at large
coefficients, far beyond the example tables.

Each case draws a fixed seeded set of ample classes with |coefficients| up to
the bound and requires the closed-form constant to equal the certified
lattice minimum, with every reported witness attaining it.  On the rank-4
surfaces the minimizers of `kernels.minimize_quartic` must also meet each
unit orbit of the oracle's minimizers exactly once.  `seshadri check
--bound 1000000000000 --count 200` runs the same comparison on more classes.

Rejection sampling from a box almost never lands near the boundary of the
nef cone, where coefficients are large and L^2 is small.  The near-boundary
families below, of rank 3 and rank 4, are built with a known answer instead.
"""
from math import gcd, isqrt
from random import Random

import pytest

from scan_references import (
    assert_one_minimizer_per_orbit,
    count_walks,
    paper_seshadri_constant,
    paper_submaximal_curves,
)
from seshadri import cm, kernels, nocm, oracle
from seshadri.lattice import Surface, is_ample, ns_class
from seshadri.sampling import random_ample_classes

BOUNDS = (10**4, 10**6, 10**9, 10**12)

# classes per (surface, bound): one rank-3 class costs ~0.05-0.06 ms here,
# one rank-4 class ~0.4-0.7 ms (best of 5 per bound, Python 3.11.7, one
# pinned CPU)
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
            report = oracle.min_quadratic_form(oracle.degree_form(L))
            assert result.value == oracle.cm_seshadri(L) == report.minimum, L.coeffs
            assert all(
                cm.degree_value(L, w.representative) == result.value
                for w in result.witnesses
            ), L.coeffs
            _, mins = kernels.minimize_quartic(surface.trace, L.coeffs)
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


def test_near_boundary_listing_keeps_y_at_most_one(monkeypatch):
    # `nocm._curves_up_to` lists only y in {0, 1}, which needs A threshold <
    # 4 det from both callers, here on the 10^40 classes
    calls = []
    listing = nocm._curves_up_to
    monkeypatch.setattr(nocm, "_curves_up_to", lambda *args: calls.append(args) or listing(*args))
    classes = near_boundary_classes(10**40, seed=10**40 % 983)
    for L, *_ in classes:
        nocm.seshadri_constant(L)
        for weak in (True, False):
            nocm.submaximal_curves(L, weak)
    assert len(calls) == 3 * len(classes)
    for (A, B, C, *_), threshold in calls:
        assert A * threshold < 4 * (A * C - B * B), (A, B, C, threshold)


def test_near_boundary_matches_oracle():
    # the unreduced oracle takes ~0.0005 s, ~0.004 s and ~0.05-0.06 s for the
    # six classes at these sizes and ~0.9-1.3 s at 10^10 (Python 3.11.7)
    for size in (10**4, 10**6, 10**8):
        for L, *_ in near_boundary_classes(size, size % 983):
            assert nocm.seshadri_constant(L).value == oracle.nocm_seshadri(L), L.coeffs


# Reduced Hermitian forms (A0, C0, b0, b1) in the notation of `kernels`,
# Q = A0 n(s1) + C0 n(s2) + Lc c + Ld d, with the number of curves attaining
# their minimum A0.
REDUCED_HERMITIAN = {
    Surface.CM_GAUSSIAN: {(1, 1, 0, 0): 2, (2, 2, 2, 0): 3, (2, 2, 2, 2): 6, (3, 4, 2, -2): 1},
    Surface.CM_EISENSTEIN: {(1, 1, 0, 0): 2, (2, 2, 1, -1): 3, (3, 3, 3, 0): 4, (2, 3, 1, 2): 1},
}


def near_boundary_cm_classes(surface, size, seed):
    """Rank-4 classes whose Hermitian degree form is H0 in REDUCED_HERMITIAN
    after seeded unimodular steps over the order (f2 += k f1, then a swap)
    until an entry reaches `size`, each with H0's minimum and curve count."""
    t = surface.trace
    rng = Random(seed)
    out = []
    for (A, C, b0, b1), curves in REDUCED_HERMITIAN[surface].items():
        value = A
        while max(A, C) < size:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)  # k = x + y w
            C += A * (x * x + t * x * y + y * y) + x * b0 + y * b1
            b0 += A * (2 * x + t * y)
            b1 += A * (t * x + 2 * y)
            A, C, b0, b1 = C, A, b0, t * b0 - b1
        if surface is Surface.CM_GAUSSIAN:
            a3, a4 = -b0 // 2, b1 // 2
        else:
            a3 = -(b0 + b1) // 3
            a4 = b1 + a3
        out.append((ns_class(surface, (A - a3 - a4, C - a3 - a4, a3, a4)), value, curves))
    return out


CM_SURFACES = [Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN]


@pytest.mark.parametrize("size", NEAR_BOUNDARY_SIZES)
@pytest.mark.parametrize("surface", CM_SURFACES, ids=lambda s: s.value)
def test_near_boundary_rank4_known_answer(surface, size, monkeypatch):
    # a form with C > A is answered by its reduction alone, a tie C = A by
    # one tie listing
    walks = count_walks(monkeypatch)
    classes = near_boundary_cm_classes(surface, size, seed=size % 983)
    for (A, C, _, _), (L, value, curves) in zip(REDUCED_HERMITIAN[surface], classes):
        assert is_ample(L), L.coeffs
        before = walks[0]
        result = cm.seshadri_constant(L)
        assert walks[0] - before == (C == A), L.coeffs
        assert result.value == value, L.coeffs
        assert len(result.witnesses) == curves, L.coeffs
        assert all(
            cm.degree_value(L, w.representative) == value for w in result.witnesses
        ), L.coeffs


@pytest.mark.parametrize("surface", CM_SURFACES, ids=lambda s: s.value)
def test_near_boundary_rank4_matches_oracle(surface):
    # the unreduced oracle takes ~0.001 s for the four classes at 10^2,
    # ~0.015-0.025 s at 10^3 and ~0.3-0.6 s at 10^4 (Python 3.11.7)
    for size in (10**2, 10**3):
        for L, value, _ in near_boundary_cm_classes(surface, size, seed=size % 983):
            assert cm.seshadri_constant(L).value == oracle.cm_seshadri(L) == value, L.coeffs
