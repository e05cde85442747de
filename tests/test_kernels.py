import random
from itertools import product

import pytest

from scan_references import (
    _lin_window,
    _quad_window,
    assert_one_minimizer_per_orbit,
    count_loop_passes,
    count_walks,
    domain_walk,
    in_domain,
    naive_domain_min,
    tuple_min_reduce,
)
from seshadri import cli, cm, kernels, oracle
from seshadri.cm import search_bound, unit_orbit
from seshadri.kernels import _value
from seshadri.lattice import Surface, _class_form, ns_class
from seshadri.sampling import random_ample_classes

SURFACES = (Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN)


def _random_definite(rng, trace):
    while True:
        coeffs = tuple(rng.randint(-6, 7) for _ in range(4))
        a1, a2, a3, a4 = coeffs
        A, C = a1 + a3 + a4, a2 + a3 + a4
        cross = a3 * a3 + trace * a3 * a4 + a4 * a4
        if A > 0 and C > 0 and A * C - cross > 0:
            return coeffs


def test_quad_window_against_scan():
    rng = random.Random(3)
    for _ in range(300):
        alpha = rng.randint(1, 9)
        beta = rng.randint(-20, 20)
        gamma = rng.randint(-60, 30)
        lo, hi = _quad_window(alpha, beta, gamma)
        want = [x for x in range(-100, 101) if alpha * x * x + beta * x + gamma <= 0]
        got = list(range(lo, hi + 1))
        assert got == want


def test_lin_window_against_scan():
    rng = random.Random(4)
    for _ in range(300):
        e = rng.randint(1, 9)
        f = rng.randint(-30, 30)
        bound = rng.randint(-10, 400)
        lo, hi = _lin_window(e, f, bound)
        want = [x for x in range(-120, 121) if (e * x + f) ** 2 <= bound]
        assert list(range(lo, hi + 1)) == want


def test_reduced_walk_matches_naive_domain_scan():
    # `minimize_quartic` against the naive domain scan of the paper's box,
    # which holds every minimizer; only classes with small boxes
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        surface = rng.choice(SURFACES)
        coeffs = _random_definite(rng, surface.trace)
        radius = int(search_bound(ns_class(surface, coeffs)))
        if radius > 10:
            continue
        checked += 1
        best0 = coeffs[0] + coeffs[2] + coeffs[3]  # value at (1, 0, 0, 0)
        best, mins = naive_domain_min(surface.trace, coeffs, radius, best0)
        naive = best, sorted(cm.canonical_tuple(t, surface) for t in mins)
        form = _class_form(surface, coeffs)
        assert kernels.minimize_quartic(surface.trace, form) == naive, (surface, coeffs, radius)


def test_oversized_inputs_match_oracle():
    # coefficients far past any fixed-width integer budget
    for surface in SURFACES:
        L = ns_class(surface, (10**6, 10**6, -1, -1))
        best, mins = kernels.minimize_quartic(surface.trace, _class_form(surface, L.coeffs))
        report = oracle.min_quadratic_form(oracle.degree_form(L))
        assert best == oracle.cm_seshadri(L) == report.minimum, surface
        assert_one_minimizer_per_orbit(mins, report.minimizers, surface)


def test_indefinite_form_raises():
    # a real check, not an assert: the reduction needs a definite form
    for surface, coeffs in zip(SURFACES, ((1, 0, 0, 0), (1, 1, -3, 0))):
        with pytest.raises(ValueError, match="not positive definite"):
            kernels.minimize_quartic(surface.trace, _class_form(surface, coeffs))


def test_naive_box_is_exhaustive_small():
    # tiny box recomputed literally: the naive domain scan keeps exactly the
    # box minimizers in the domain, one per unit orbit
    trace = Surface.CM_GAUSSIAN.trace
    coeffs = (2, 2, -1, 1)
    best, mins = naive_domain_min(trace, coeffs, 2, 10**9)
    lit = {}
    for t in product(range(-2, 3), repeat=4):
        if any(t):
            lit.setdefault(_value(trace, *coeffs, *t), []).append(t)
    assert best == min(lit)
    assert mins == sorted(t for t in lit[best] if in_domain(t))
    assert 4 * len(mins) == len(lit[best])


@pytest.mark.parametrize("surface", [Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN])
def test_domain_meets_each_unit_orbit_once(surface):
    for t in product(range(-3, 4), repeat=4):
        if any(t):
            assert sum(map(in_domain, unit_orbit(t, surface))) == 1, t


def _times(t, a, b, x, y):
    """(a + b w)(x + y w) as (real, w) coordinates."""
    return a * x - b * y, a * y + b * x + t * b * y


def _walk_reference(t, form):
    """`minimize_quartic` with the walk on every reduced form, ties or not:
    reduce, walk, map each minimizer back by the ring product and sort."""
    A, C, b0, b1, f1, f2 = kernels._reduce(t, *form)
    mins = domain_walk(t, A, C, b0, b1)
    out = []
    for a, b, c, d in mins:
        tup = []
        for i in (0, 2):  # s1, then s2, of (a + b w) f1 + (c + d w) f2
            u = _times(t, a, b, f1[i], f1[i + 1])
            v = _times(t, c, d, f2[i], f2[i + 1])
            tup += [u[0] + v[0], u[1] + v[1]]
        out.append(kernels._orbit_min(t, tuple(tup)))
    return A, sorted(out)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.value)
def test_shortcut_matches_walk(surface):
    # the C > A return against the walk it skips; bound 8 holds most ties
    t = surface.trace
    for bound in (8, 10**4, 10**30):
        for L in random_ample_classes(surface, 500, bound, seed=bound % 991):
            form = _class_form(surface, L.coeffs)
            assert kernels.minimize_quartic(t, form) == _walk_reference(t, form), L


def _one_step_off(reduce):
    """`_reduce` followed by one step f2 -= k f1, k = -1 or 1 against the sign
    of b0: the basis stays unimodular and the form exact, but the step back
    lowers C, so 0 is no longer the ring element nearest mu."""
    def off(t, A, C, b0, b1):
        A, C, b0, b1, f1, f2 = reduce(t, A, C, b0, b1)
        k = -1 if b0 > 0 else 1
        C += A - k * b0
        b0 -= 2 * k * A
        b1 -= t * k * A
        return A, C, b0, b1, f1, tuple(y - k * x for x, y in zip(f1, f2))
    return off


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.value)
def test_unreduced_form_raises(surface, monkeypatch, capsys):
    # the shortcut trusts the reduction, so a form one unit step off must
    # raise, and the CLI must exit 70, never answer
    t = surface.trace
    monkeypatch.setattr(kernels, "_reduce", _one_step_off(kernels._reduce))
    for L in random_ample_classes(surface, 20, 100, seed=5):
        A, C, b0, b1, f1, f2 = kernels._reduce(t, *_class_form(surface, L.coeffs))
        # the off form is still exact: A and C are the degrees at f1 and f2
        assert (A, C) == (_value(t, *L.coeffs, *f1), _value(t, *L.coeffs, *f2))
        with pytest.raises(ArithmeticError, match="unit step"):
            kernels.minimize_quartic(t, _class_form(surface, L.coeffs))
        coeffs = ",".join(map(str, L.coeffs))
        assert cli.main(["epsilon", "--surface", surface.value, "--coeffs", coeffs]) == 70
        assert "internal error" in capsys.readouterr().err


def test_eisenstein_step_by_one_minus_w_raises(monkeypatch, capsys):
    # a definite Z[w] form with |b0|, |b1| <= A < |b1 - b0|: only the unit
    # steps +-(1 - w), which change C by A - |b1 - b0| < 0, show that it is
    # not reduced, so the check must keep its Z[w] term
    A, C, b0, b1 = 10, 12, 8, -8
    assert 3 * A * C > b0 * b0 - b0 * b1 + b1 * b1 and max(abs(b0), abs(b1)) <= A
    monkeypatch.setattr(kernels, "_reduce",
                        lambda *form: (A, C, b0, b1, (1, 0, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(ArithmeticError, match="unit step"):
        kernels.minimize_quartic(1, _class_form(Surface.CM_EISENSTEIN, (1, 1, 1, 1)))
    assert cli.main(["epsilon", "--surface", "cm-eisenstein", "--coeffs", "1,1,1,1"]) == 70
    assert capsys.readouterr().err.startswith("seshadri: internal error: ")


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.value)
def test_walk_below_A_raises(surface):
    # (A, C, b0, b1) = (2, 2, 3, 0) is a definite tie, but not reduced: a unit
    # step lowers C, and the tie candidate (1, 0, -1, 0) takes A + C - b0 =
    # 1 < A, which the listing must refuse rather than drop as a non-minimum
    t = surface.trace
    A, C, b0, b1 = 2, 2, 3, 0
    assert (4 - t * t) * A * C > b0 * b0 - t * b0 * b1 + b1 * b1
    with pytest.raises(ArithmeticError, match="below the reduced form's A"):
        kernels.quartic_min_box(t, A, C, b0, b1)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.value)
def test_tie_census_matches_walk(surface):
    # every reduced tie form with A <= 20 (C = A, |b0|, |b1| <= A and, on
    # Z[w], |b1 - b0| <= A; all definite): the candidate list names the
    # walk's curves, one tuple each, at most 6 resp. 4 (24, the kissing
    # number of D4, over the 4 resp. 6 units).  One past a bound, a unit
    # step lowers C to A - 1, and both must raise.
    t = surface.trace
    count, counts, families = 0, set(), set()
    for A in range(1, 21):
        for b0, b1 in product(range(-A - 1, A + 2), repeat=2):
            excess = max(abs(b0), abs(b1), t * abs(b1 - b0)) - A
            if (4 - t * t) * A * A <= b0 * b0 - t * b0 * b1 + b1 * b1:
                continue
            if excess == 1:
                for listing in (kernels.quartic_min_box, domain_walk):
                    with pytest.raises(ArithmeticError, match="below the reduced form's A"):
                        listing(t, A, A, b0, b1)
            if excess > 0:
                continue
            count += 1
            mins = kernels.quartic_min_box(t, A, A, b0, b1)
            got = sorted(kernels._orbit_min(t, v) for v in mins)
            want = sorted(kernels._orbit_min(t, v) for v in domain_walk(t, A, A, b0, b1))
            assert got == want, (A, b0, b1)
            counts.add(len(mins))
            for a, b, c, d in mins:
                if (c, d) == (1, 1):
                    families.add("s2 = 1 + i")
                elif (c, d) == (1, 0) and a * a + t * a * b + b * b == 2:
                    families.add("k = +-1 +-i")
    assert count == (12340 if t == 0 else 9260)
    assert counts == ({2, 3, 6} if t == 0 else {2, 3, 4})  # f1 and f2 always tie
    assert families == ({"s2 = 1 + i", "k = +-1 +-i"} if t == 0 else set())


@pytest.mark.parametrize("surface, ties", [(Surface.CM_GAUSSIAN, 5),
                                           (Surface.CM_EISENSTEIN, 4)],
                         ids=["cm-i", "cm-eisenstein"])
def test_tie_count_is_pinned(surface, ties, monkeypatch):
    # the tie listings over a fixed seeded set: a change that lists on more
    # (or fewer) classes than the ties C = A moves this count
    walks = count_walks(monkeypatch)
    for L in random_ample_classes(surface, 200, 100, 1):
        cm.seshadri_constant(L)
    assert walks[0] == ties


# the TABLE2_CLASSES whose reduced form has C > A; the other seven are ties
TABLE2_SHORTCUT = {(2, 1, 0, 0), (1, 0, 1, 1), (-1, 2, 1, 2), (4, 2, 3, -2), (8, 5, -1, -2)}


def test_table2_paths(monkeypatch):
    walks = count_walks(monkeypatch)
    gauss = Surface.CM_GAUSSIAN
    for coeffs in cli.TABLE2_CLASSES:
        before = walks[0]
        kernels.minimize_quartic(gauss.trace, _class_form(gauss, coeffs))
        assert walks[0] - before == (coeffs not in TABLE2_SHORTCUT), coeffs
    assert walks[0] == len(cli.TABLE2_CLASSES) - len(TABLE2_SHORTCUT) == 7


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.value)
def test_reduce_matches_the_tuple_min_reference(surface):
    # every definite form with A, C <= 12 and |b0|, |b1| <= 12, where corners
    # tie often, then seeded definite forms with entries up to 10^30: the
    # corner comparisons keep the tuple minimum's tie order
    t = surface.trace
    m = 4 - t * t
    count = 0
    for A, C in product(range(1, 13), repeat=2):
        for b0, b1 in product(range(-12, 13), repeat=2):
            if m * A * C > b0 * b0 - t * b0 * b1 + b1 * b1:
                count += 1
                want = tuple_min_reduce(t, A, C, b0, b1)
                assert kernels._reduce(t, A, C, b0, b1) == want, (A, C, b0, b1)
    assert count == (55092 if t == 0 else 49214)
    rng = random.Random(62 + t)
    count = 0
    while count < 2000:
        size = 10 ** rng.randint(1, 30)
        A, C = rng.randint(1, size), rng.randint(1, size)
        b0, b1 = rng.randint(-size, size), rng.randint(-size, size)
        if m * A * C > b0 * b0 - t * b0 * b1 + b1 * b1:
            count += 1
            want = tuple_min_reduce(t, A, C, b0, b1)
            assert kernels._reduce(t, A, C, b0, b1) == want, (A, C, b0, b1)


@pytest.mark.parametrize("surface, passes", [(Surface.CM_GAUSSIAN, 1591),
                                             (Surface.CM_EISENSTEIN, 1640)],
                         ids=["cm-i", "cm-eisenstein"])
def test_reduction_steps_are_pinned(surface, passes):
    # the passes of `_reduce`'s loop over fixed seeded classes: a change to
    # the reduction's step or stopping rule moves this count
    t = surface.trace
    forms = [_class_form(surface, L.coeffs) for bound in (8, 10**4, 10**12)
             for L in random_ample_classes(surface, 300, bound, seed=bound % 991)]

    def run():
        for form in forms:
            kernels._reduce(t, *form)

    first = "x = (2 * b0 - t * b1) // (m * A)"
    assert count_loop_passes(kernels._reduce, first, run) == passes
