"""Seeded cross-validation of the closed forms against the oracle at large
coefficients, far beyond the example tables.

Each case draws a fixed seeded set of ample classes with |coefficients| up to
the bound and requires the closed-form constant to equal the certified
lattice minimum, with every reported witness attaining it.  On the rank-4
surfaces the box scan's minimizers must also meet each unit orbit of the
oracle's minimizers, which no box limits, exactly once.  `seshadri check
--bound 1000000000000 --count 200` runs the same comparison on more classes.
"""
import pytest

from scan_references import assert_one_minimizer_per_orbit
from seshadri import cm, kernels, nocm, oracle
from seshadri.lattice import generator_pairings
from seshadri.lattice import Surface
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
