import ast
import gc
import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, product
from math import floor, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_lemmas import division_point_count, is_positive_definite, leading_minors
from scan_references import full_bareiss, windowed_minimize
from seshadri import cm, kernels, lattice, nocm, oracle, sampling
from seshadri.lattice import Surface, ns_class
from seshadri.sampling import random_ample_classes
from test_large_coefficients import near_boundary_classes, near_boundary_cm_classes


def _canonical_sign(p):
    """p or -p, whichever has its first nonzero coordinate positive."""
    for v in p:
        if v:
            return p if v > 0 else tuple(-c for c in p)
    return p


# Reference: the Fraction-arithmetic Fincke-Pohst search the integer oracle
# replaced, kept to pin `min_quadratic_form` down report for report.
def _ldl(m):
    """Decompose Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(m)
    work = [list(row) for row in m]
    diag = []
    upper = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        d = work[i][i]
        diag.append(d)
        for j in range(i + 1, n):
            upper[i][j] = work[i][j] / d
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                work[r][c] -= work[i][r] * work[i][c] / d
    return diag, upper


def _floor_shift(c, budget):
    """floor(-c + sqrt(budget)) computed exactly, budget >= 0."""
    lo = floor(-c)
    hi = lo + isqrt(floor(budget)) + 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        s = mid + c
        if s <= 0 or s * s <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _window(center, budget):
    """Integer t range with (t + center)^2 <= budget (may be empty)."""
    if budget < 0:
        return 1, 0
    return -_floor_shift(-center, budget), _floor_shift(center, budget)


def _search_box(diag, upper, radius, best):
    """All x in [-radius, radius]^n with Q(x) <= best, via exact windows."""
    n = len(diag)
    x = [0] * n
    found = []
    running = best

    def rec(i, partial):
        nonlocal running
        center = sum((upper[i][j] * x[j] for j in range(i + 1, n)), F(0))
        lo, hi = _window(center, (running - partial) / diag[i])
        for t in range(max(lo, -radius), min(hi, radius) + 1):
            x[i] = t
            value = partial + diag[i] * (t + center) ** 2
            if value > running:
                continue
            if i == 0:
                if any(x):
                    if value < running:
                        running = value
                    found.append((value, tuple(x)))
            else:
                rec(i - 1, value)

    rec(n - 1, F(0))
    best_found = min((v for v, _ in found), default=best)
    return best_found, [p for v, p in found if v == best_found]


def _reference_min(gram):
    m = [[F(v) for v in row] for row in gram]
    n = len(m)
    diag, upper = _ldl(m)
    gersh = min(m[i][i] - sum(abs(m[i][j]) for j in range(n) if j != i) for i in range(n))
    row_max = max(sum(abs(v) for v in row) for row in m)
    lam = max(gersh, prod(diag) / row_max ** (n - 1))
    # one pass: lam (radius + 1)^2 exceeds the starting best
    best = min(m[i][i] for i in range(n))
    radius = isqrt(floor(best / lam))
    best, pts = _search_box(diag, upper, radius, best)
    minimizers = sorted({_canonical_sign(p) for p in pts})
    return oracle.ShellSearchReport(best, tuple(minimizers))


def _literal_min(gram, radius):
    """Brute double/quadruple loop, the most literal check possible."""
    n = len(gram)
    best = None
    mins = set()
    for x in product(range(-radius, radius + 1), repeat=n):
        if not any(x):
            continue
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if best is None or q < best:
            best, mins = q, set()
        if q == best:
            mins.add(_canonical_sign(x))
    return best, mins


def test_identity_forms():
    rep = oracle.min_quadratic_form(((1, 0), (0, 1)))
    assert rep.minimum == 1
    assert rep.minimizers == ((0, 1), (1, 0))
    rep = oracle.min_quadratic_form([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert rep.minimum == 1
    assert len(rep.minimizers) == 4


def test_small_2d_example():
    rep = oracle.min_quadratic_form(((2, 1), (1, 2)))
    assert rep.minimum == 2
    best, mins = _literal_min(((2, 1), (1, 2)), 3)
    assert rep.minimum == best and set(rep.minimizers) == mins


def test_one_by_one_grams_match_reference():
    # level 0 is the only level and nothing lies above it: t = 1 alone
    for v in (1, 2, 7, 10**12, F(1, 3), F(7, 2), 0.25, "5/6"):
        gram = ((v,),)
        assert oracle.min_quadratic_form(gram) == _reference_min(gram) == (F(v), ((1,),))


# Level 0 of [[D1, b], [b, c]] at x = (t, x1) is w (D1 t + b x1)^2.  For even
# D1 with b x1 = D1/2 mod D1 its centre sits half-way: t0 and t0 - 1 tie, and
# both are kept, once each.  For odd D1 no t ties with t0.
@pytest.mark.parametrize(
    "gram,minimizers",
    [
        (((2, 1), (1, 2)), ((0, 1), (1, -1), (1, 0))),  # t0 = 0, mirror -1
        (((4, 2), (2, 3)), ((0, 1), (1, -1))),  # the mirror is a minimizer
        (((4, -2), (-2, 3)), ((0, 1), (1, 1))),  # t0 = 1, mirror 0
        (((6, -9), (-9, 15)), ((1, 1), (2, 1))),  # t0 = 2, mirror 1
        (((6, 3), (3, 2)), ((0, 1), (1, -2), (1, -1))),  # ties at x1 = 1, 2
        (((3, 1), (1, 2)), ((0, 1),)),  # odd D1: t = -1 gives 3, not 2
        (((5, 2), (2, 2)), ((0, 1),)),
        (((5, -2), (-2, 2)), ((0, 1),)),
    ],
)
def test_half_way_centre_keeps_each_mirror_once(gram, minimizers):
    rep = oracle.min_quadratic_form(gram)
    assert rep == _reference_min(gram)
    assert rep.minimizers == minimizers
    assert (rep.minimum, set(minimizers)) == _literal_min(gram, 4)


@pytest.mark.parametrize("d1", range(1, 9))
def test_two_by_two_grams_match_reference(d1):
    # every b mod D1, so every offset of the level-0 centre, both parities
    for b in range(-d1, d1 + 1):
        for c in range(b * b // d1 + 1, b * b // d1 + d1 + 3):
            gram = ((d1, b), (b, c))
            assert oracle.min_quadratic_form(gram) == _reference_min(gram), gram


def test_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        oracle.min_quadratic_form(((1, 2), (2, 1)))
    for gram in (((1, 0), (0,)), ((1, 0, 0), (0, 1, 0)), ((F(1, 2), 0), (0, 1, 0))):
        with pytest.raises(ValueError, match=r"^gram matrix must be square$"):
            oracle.min_quadratic_form(gram)
    # 1/2 and 1/3 differ once scaled by s = 6, also where 1/2 is a float
    for gram in (((1, 2), (0, 1)), ((1, F(1, 2)), (F(1, 3), 1)), ((1, 0.5), (F(1, 3), 1))):
        with pytest.raises(ValueError, match=r"^gram matrix must be symmetric$"):
            oracle.min_quadratic_form(gram)


def test_rejects_empty_gram():
    for gram in ((), []):
        with pytest.raises(ValueError) as info:
            oracle.min_quadratic_form(gram)
        assert type(info.value) is ValueError
        assert str(info.value) == "gram matrix must be non-empty"


def test_rejects_non_finite_entries():
    # Fraction(inf) raises OverflowError and Fraction("1/0") ZeroDivisionError
    for v in (float("inf"), float("-inf"), "1/0"):
        for gram in ([[v]], ((1, v), (v, 1))):
            with pytest.raises(ValueError) as info:
                oracle.min_quadratic_form(gram)
            assert type(info.value) is ValueError
            assert str(info.value) == f"not a finite rational: {v!r}"
    with pytest.raises(ValueError, match="NaN"):
        oracle.min_quadratic_form([[float("nan")]])


@pytest.mark.parametrize("bad", [None, 1j, object()])
def test_non_number_entry_raises_type_error(bad):
    for gram in ([[bad]], ((1, bad), (bad, 1))):
        with pytest.raises(TypeError):
            oracle.min_quadratic_form(gram)


def test_gram_entry_encodings_give_one_report():
    # ints, Fractions, mixed, and floats (read exactly, as Fraction(0.5) is)
    plain = ((3, 1, -1), (1, 2, 0), (-1, 0, 4))
    want = oracle.min_quadratic_form(plain)
    as_fractions = tuple(tuple(F(v) for v in row) for row in plain)
    mixed = ((F(3), 1, F(-1)), (1, F(2), 0), (-1, F(0), 4))
    for gram in (as_fractions, mixed, tuple(tuple(float(v) for v in row) for row in plain)):
        assert oracle.min_quadratic_form(gram) == want
    halves = ((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)))
    for gram in (((1.5, 0.5), (0.5, 1.5)), ((1.5, F(1, 2)), (0.5, F(3, 2)))):
        assert oracle.min_quadratic_form(gram) == oracle.min_quadratic_form(halves)
    assert oracle.min_quadratic_form(halves).minimum == F(3, 2)


def _random_pd_gram(rng, n, spread):
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        if is_positive_definite(g):
            return tuple(tuple(row) for row in g)


def test_windowed_search_matches_literal_scan():
    # scan a box just large enough to hold every reported minimizer: any
    # point in it matching the reported minimum is a global minimizer, so
    # set equality plus the complete search pins the result down
    rng = random.Random(20)
    for n in (2, 4):
        for _ in range(25 if n == 2 else 10):
            gram = _random_pd_gram(rng, n, 3)
            rep = oracle.min_quadratic_form(gram)
            radius = max(2, *(abs(v) for p in rep.minimizers for v in p))
            best, mins = _literal_min(gram, radius)
            assert rep.minimum == best
            assert set(rep.minimizers) == mins


def _half_integral(gram):
    # (G + diag G) / 2 is definite with G, and its off-diagonal is in Z/2
    return tuple(
        tuple(F(v) if i == j else F(v, 2) for j, v in enumerate(row))
        for i, row in enumerate(gram)
    )


def _assert_matches_reference(gram):
    assert oracle.min_quadratic_form(gram) == _reference_min(gram), gram
    diag = _ldl([[F(v) for v in row] for row in gram])[0]
    assert leading_minors(gram) == list(accumulate(diag, F.__mul__))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_fraction_reference_on_random_grams(n):
    rng = random.Random(40 + n)
    for _ in range(30):
        gram = _random_pd_gram(rng, n, 4)
        _assert_matches_reference(gram)
        _assert_matches_reference(_half_integral(gram))


@st.composite
def _pd_grams(draw):
    """A^T A + k I for an integer n x n matrix A, n = 1..4, k = 1..3, or
    its half-integral variant."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    gram = tuple(
        tuple(sum(row[i] * row[j] for row in a) + k * (i == j) for j in range(n))
        for i in range(n)
    )
    return _half_integral(gram) if draw(st.booleans()) else gram


@given(_pd_grams())
@settings(max_examples=200, deadline=None)
def test_box_free_search_matches_the_boxed_reference(gram):
    # the reference clamps its windows to its eigenvalue box; the oracle's
    # exact windows need no box and find the same report
    rep = oracle.min_quadratic_form(gram)
    assert rep == _reference_min(gram)


def test_root_lattices_match_reference():
    # Cartan matrices of A2, D4, E6 and E8 (Bourbaki's numbering, from 0):
    # minimum 2 on the roots, so the minimizers are half the kissing number:
    # many tied minimizers, each to be kept once of its pair +-x
    for n, edges, roots in (
        (2, {(0, 1)}, 3),
        (4, {(0, 1), (1, 2), (1, 3)}, 12),
        (6, {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}, 36),
        (8, {(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)}, 120),
    ):
        gram = [
            [2 if i == j else -((i, j) in edges or (j, i) in edges) for j in range(n)]
            for i in range(n)
        ]
        rep = oracle.min_quadratic_form(gram)
        assert rep == _reference_min(gram), n
        assert rep.minimum == 2 and len(rep.minimizers) == roots, n


def _unimodular(rng, n, size):
    """Seeded (U, U^-1) of determinant 1, built by column steps
    col_j += k col_i until an entry of U reaches `size`."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    while max(abs(v) for row in u for v in row) < size:
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in u:
            row[j] += k * row[i]
        inv[i] = [a - k * b for a, b in zip(inv[i], inv[j])]
    return u, inv


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# U entries of ~10^3 give Gram entries of ~10^8 on a basis far from reduced.
# Rank 4 runs at ~10^2: its 60 forms take ~0.2 s there and ~5-7 s at 10^3;
# rank 3 takes ~0.5 s and rank 2 ~0.1 s (Python 3.11.7)
@pytest.mark.parametrize("n,size", [(2, 10**3), (3, 10**3), (4, 10**2)])
def test_ill_conditioned_bases_keep_the_minimum(n, size):
    # Q(U y) = Q(x) for y = U^-1 x, so U^T G U has G's minimum and its
    # minimizers are U^-1 of G's, up to sign
    rng, unimodular_rng = random.Random(40 + n), random.Random(n)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(30):
        gram = _random_pd_gram(rng, n, 4)
        u, inv = _unimodular(unimodular_rng, n, size)
        assert _product(u, inv) == identity
        for g in (gram, _half_integral(gram)):
            want = oracle.min_quadratic_form(g)
            moved = _product(_product(list(zip(*u)), g), u)
            rep = oracle.min_quadratic_form(moved)
            assert rep.minimum == want.minimum, moved
            images = {
                _canonical_sign(tuple(sum(a * b for a, b in zip(row, x)) for row in inv))
                for x in want.minimizers
            }
            assert rep.minimizers == tuple(sorted(images)), moved


@pytest.mark.parametrize("bound", [10**2, 10**4, 10**6, 10**9, 10**12])
def test_matches_fraction_reference_on_class_grams(bound):
    for surface in Surface:
        for L in random_ample_classes(surface, 15, bound, bound % 1009):
            gram = oracle.degree_form(L)
            _assert_matches_reference(gram)
            # degree_form's plain ints read as its former Fraction entries
            as_fractions = tuple(tuple(F(v) for v in row) for row in gram)
            assert oracle.min_quadratic_form(as_fractions) == oracle.min_quadratic_form(gram)


def _random_symmetric(rng, n, kind):
    """A seeded symmetric integer matrix: definite, indefinite, or singular
    (B B^T with B of rank below n, or a zero first pivot)."""
    if kind == "definite":
        return [list(row) for row in _random_pd_gram(rng, n, 4)]
    if kind == "singular":
        b = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)]
        a = [[sum(u * v for u, v in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            a[0][0] = 0
        return a
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-9, 9)
    return a


def test_bareiss_matches_the_full_elimination():
    # the upper-triangle elimination against the one over the whole block:
    # the same minors, and the same rows from the diagonal on
    rng = random.Random(60)
    stops = negatives = 0
    for n in range(1, 7):
        for kind in ("definite", "indefinite", "singular"):
            for _ in range(25):
                a = _random_symmetric(rng, n, kind)
                frozen = [row[:] for row in a]
                minors, rows = oracle._bareiss(a)
                want_minors, want_rows = full_bareiss(a)
                assert a == frozen
                assert minors == want_minors, a
                assert [row[i:] for i, row in enumerate(rows)] == [
                    row[i:] for i, row in enumerate(want_rows)
                ], a
                stops += len(minors) <= n
                negatives += min(minors) < 0
    assert stops > 50 and negatives > 50


def _minimize_cases():
    """Integer Grams: class Grams of all three surfaces from bound 1 to
    10^12, the near-boundary families, and random definite Grams, n = 1..5."""
    grams = []
    for surface in Surface:
        for bound in (1, 8, 100, 10**4, 10**6, 10**9, 10**12):
            for L in random_ample_classes(surface, 12, bound, bound % 1013):
                grams.append(oracle._scaled_degree_form(L)[1])
    for size in (10**4, 10**6, 10**8):
        for L, *_ in near_boundary_classes(size, size % 983):
            grams.append(oracle._scaled_degree_form(L)[1])
    for surface in (Surface.CM_GAUSSIAN, Surface.CM_EISENSTEIN):
        for size in (10**2, 10**3):
            for L, *_ in near_boundary_cm_classes(surface, size, size % 983):
                grams.append(oracle._scaled_degree_form(L)[1])
    rng = random.Random(61)
    for n in range(1, 6):
        for _ in range(30):
            grams.append([list(row) for row in _random_pd_gram(rng, n, 4)])
    return grams


def test_minimize_matches_the_windowed_search():
    # the window-free walk visits the nodes of the windowed one in the same
    # order, so it returns the same scale, minimum and minimizer list
    for a in _minimize_cases():
        assert oracle._minimize(a) == windowed_minimize(a), a


# The search's exact work: its calls of `walk` (a level above 0) and `last`
# (level 0) over 200 seeded classes per surface.  A change of the walk that
# visits the same nodes in the same order keeps both counts.
@pytest.mark.parametrize(
    "surface, walks, lasts",
    [
        (Surface.NO_CM, 200, 362),
        (Surface.CM_GAUSSIAN, 1264, 696),
        (Surface.CM_EISENSTEIN, 1393, 960),
    ],
)
def test_search_work_is_pinned(surface, walks, lasts):
    classes = list(random_ample_classes(surface, 200, 100, 1))
    reference = oracle.nocm_seshadri if surface is Surface.NO_CM else oracle.cm_seshadri
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == oracle.__file__:
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        for L in classes:
            reference(L)
    finally:
        sys.setprofile(None)
    assert (calls["walk"], calls["last"]) == (walks, lasts)


def test_search_leaves_no_garbage():
    # the walk's closure refers to itself; `_search` breaks that cycle, so a
    # class function frees its search at once and leaves the GC nothing
    classes = [L for surface in Surface for L in random_ample_classes(surface, 20, 100, 2)]
    gc.collect()
    gc.disable()
    try:
        for L in classes:
            (oracle.nocm_seshadri if L.surface is Surface.NO_CM else oracle.cm_seshadri)(L)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_leading_minors_of_indefinite_and_degenerate_forms():
    assert leading_minors(((1, 2), (2, 1))) == [1, -3]
    assert leading_minors(((2, 1, 0), (1, 2, 1), (0, 1, -5))) == [2, 3, -17]
    assert leading_minors(((F(1, 2), 0), (0, 0))) == [F(1, 2), 0]
    for gram in (((1, 2), (2, 1)), ((1, 0), (0, 0)), ((0, 1), (1, 0)), ((-1, 0), (0, -1))):
        assert not is_positive_definite(gram)
    with pytest.raises(ValueError, match="leading minor"):
        leading_minors(((0, 1), (1, 0)))


def _package_modules_imported(source):
    """The `seshadri` modules that `source` imports, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = "seshadri." + node.module if node.module else "seshadri"
            else:
                base = "." * node.level + (node.module or "")
            if base == "seshadri":  # `from . import cm` names the module cm
                names += [f"seshadri.{alias.name}" for alias in node.names]
            else:
                names.append(base)
    modules = set()
    for name in names:
        root, _, rest = name.partition(".")
        if root == "seshadri":
            modules.add(rest.partition(".")[0] or name)
        elif root == "":  # a relative import from above the package
            modules.add(name)
    return modules


@pytest.mark.parametrize(
    "source,modules",
    [
        ("from .lattice import NSClass\nimport math", {"lattice"}),
        ("def f():\n    from . import cm", {"cm"}),
        ("from seshadri.kernels import _value", {"kernels"}),
        ("import seshadri.nocm as n", {"nocm"}),
        ("from seshadri import cross_section, lattice", {"cross_section", "lattice"}),
        ("import seshadri", {"seshadri"}),
        ("class A:\n    def f(self):\n        from ..other import x", {"..other"}),
        ("from fractions import Fraction", set()),
    ],
    ids=["relative", "in_function", "absolute_from", "import_as", "two_names",
         "bare_package", "above_package", "stdlib"],
)
def test_package_import_parser(source, modules):
    assert _package_modules_imported(source) == modules


def test_oracle_imports_no_closed_form_module():
    # the certified search must stay independent of the closed forms it
    # checks: of the package it may import `lattice` alone, even in a function
    source = Path(oracle.__file__).read_text()
    assert _package_modules_imported(source) == {"lattice"}


@pytest.mark.parametrize(
    "module,modules",
    [(kernels, set()), (lattice, set()), (nocm, {"lattice"}), (sampling, {"lattice"}),
     (cm, {"kernels", "lattice"})],
    ids=["kernels", "lattice", "nocm", "sampling", "cm"],
)
def test_closed_form_modules_import_only_the_layers_below(module, modules):
    # `lattice` holds the class -> form map, `kernels` sees forms only, and
    # each closed form sits on those two
    assert _package_modules_imported(Path(module.__file__).read_text()) == modules


def test_rank3_gram_matches_nocm_degree():
    # the rank-3 Gram's value is L . N_{c,d}, on every class of a box and a
    # box of pairs, ample or not
    pairs = list(product(range(-4, 5), repeat=2))
    for coeffs in product(range(-3, 4), repeat=3):
        L = ns_class(Surface.NO_CM, coeffs)
        gram = oracle.degree_form(L)
        assert len(gram) == 2 and gram[0][1] == gram[1][0]
        for c, d in pairs:
            value = gram[0][0] * c * c + 2 * gram[0][1] * c * d + gram[1][1] * d * d
            assert value == nocm.degree(L, (c, d)), (coeffs, c, d)


def test_hermite_bound_on_random_2d_forms():
    rng = random.Random(8)
    for _ in range(60):
        gram = _random_pd_gram(rng, 2, 5)
        rep = oracle.min_quadratic_form(gram)
        det = leading_minors(gram)[-1]
        assert 3 * rep.minimum**2 <= 4 * det


def test_mahler_bound_on_random_4d_forms():
    rng = random.Random(9)
    for _ in range(25):
        gram = _random_pd_gram(rng, 4, 3)
        rep = oracle.min_quadratic_form(gram)
        det = leading_minors(gram)[-1]
        assert rep.minimum**4 <= 4 * det


def test_fractional_gram():
    rep = oracle.min_quadratic_form(((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))))
    best, mins = _literal_min(((F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))), 4)
    assert rep.minimum == best and set(rep.minimizers) == mins


@pytest.mark.parametrize(
    "coeffs,expected",
    [((7, 6, -3), 1), ((1, 1, 1), 2), ((45, 15, -11), 4)],
)
def test_nocm_reference_values(coeffs, expected):
    assert oracle.nocm_seshadri(ns_class(Surface.NO_CM, coeffs)) == expected


@pytest.mark.parametrize(
    "coeffs,expected",
    [((1, 1, 0, 0), 1), ((0, 0, 1, 1), 2), ((-1, 1, 2, 2), 3)],
)
def test_cm_reference_values(coeffs, expected):
    assert oracle.cm_seshadri(ns_class(Surface.CM_GAUSSIAN, coeffs)) == expected


def test_reference_rejects_non_ample():
    with pytest.raises(ValueError, match="not ample"):
        oracle.nocm_seshadri(ns_class(Surface.NO_CM, (1, 0, 0)))
    with pytest.raises(ValueError, match="not ample"):
        oracle.cm_seshadri(ns_class(Surface.CM_GAUSSIAN, (0, 0, 0, 1)))


def test_reference_surface_mismatch_messages():
    with pytest.raises(ValueError) as info:
        oracle.nocm_seshadri(ns_class(Surface.CM_EISENSTEIN, (1, 1, 0, 0)))
    assert str(info.value) == "surface mismatch: expected the nocm surface"
    with pytest.raises(ValueError) as info:
        oracle.cm_seshadri(ns_class(Surface.NO_CM, (7, 6, -3)))
    assert str(info.value) == "surface mismatch: expected a CM surface"
    # ampleness is still reported first
    with pytest.raises(ValueError, match="^not ample"):
        oracle.cm_seshadri(ns_class(Surface.NO_CM, (1, 0, 0)))


@pytest.mark.parametrize(
    "report",
    [
        # (class function, class, the core's (P, P * m, minimizers), error);
        # the Gram's s is 1 on nocm and cm-i, and 2 for this odd
        # cm-eisenstein class
        (oracle.nocm_seshadri, Surface.NO_CM, (7, 6, -3), (2, 3, [(1, 0)]),
         "non-integral form minimum 3/2 for (7, 6, -3)"),
        (oracle.nocm_seshadri, Surface.NO_CM, (7, 6, -3), (1, 4, [(2, 0)]),
         "imprimitive form minimizer for (7, 6, -3)"),
        (oracle.nocm_seshadri, Surface.NO_CM, (7, 6, -3), (3, 6, [(1, 0), (2, 2)]),
         "imprimitive form minimizer for (7, 6, -3)"),
        (oracle.cm_seshadri, Surface.CM_GAUSSIAN, (1, 1, 0, 0), (2, 3, [(1, 0, 0, 0)]),
         "non-integral form minimum 3/2 for (1, 1, 0, 0)"),
        (oracle.cm_seshadri, Surface.CM_EISENSTEIN, (1, 1, 0, 0), (1, 3, [(1, 0, 0, 0)]),
         "non-integral form minimum 3/2 for (1, 1, 0, 0)"),
    ],
)
def test_reference_invariant_violation_raises(monkeypatch, report):
    fn, surface, coeffs, found, message = report
    # the class functions call the integer core on their own Gram
    monkeypatch.setattr(oracle, "_minimize", lambda a: found)
    with pytest.raises(ArithmeticError) as info:
        fn(ns_class(surface, coeffs))
    assert str(info.value) == message


@pytest.mark.parametrize("a,b,expected", [(1, 0, 1), (1, 1, 2), (2, 1, 5)])
def test_division_point_examples(a, b, expected):
    assert division_point_count(a, b) == expected


def test_division_point_rejects_zero():
    with pytest.raises(ValueError):
        division_point_count(0, 0)


def test_division_point_literal_crosscheck():
    # tiny cases recounted with the obvious double loop
    for a, b in ((1, 2), (2, 3), (-2, 1), (3, 0)):
        ell = a * a + b * b
        direct = sum(
            1
            for m in range(ell)
            for n in range(ell)
            if (a * m - b * n) % ell == 0 and (a * n + b * m) % ell == 0
        )
        assert division_point_count(a, b) == direct == ell
