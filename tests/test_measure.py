"""Measure dimension: worked examples, bounds, and quick property checks.

The full 1000-trial property suites live in test_acceptance; these are the
fast per-property smoke versions plus every pinned example value.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rankpit.domains import PrimeField, Rationals
from rankpit.errors import HypothesisViolated, InvalidParams, MatrixTooLarge
from rankpit.measure import (MeasureSpec, circuit_measure_bound,
                             composition_upper_bound, psp_dimension)
from rankpit.poly import Polynomial, compose

Q = Rationals()
FP = PrimeField(1_000_003)


def xs(nvars, dom=Q):
    return [Polynomial.variable(dom, nvars, i) for i in range(nvars)]


def test_worked_example_dimension_five():
    v = xs(4)
    p = v[0] * v[1] + v[2] * v[3]
    spec = MeasureSpec.of([((0, 1),), ((2, 1),)], 1)
    rep = psp_dimension(p, spec)
    assert rep.dimension == 5


def test_zero_polynomial_dimension_zero():
    spec = MeasureSpec.of([((0, 1),)], 1)
    assert psp_dimension(Polynomial.zero(Q, 4), spec).dimension == 0


def test_single_derivative_no_shift():
    v = xs(2)
    spec = MeasureSpec.of([((0, 1),)], 0)
    assert psp_dimension(v[0] * v[1], spec).dimension == 1


def test_spec_requires_uniform_degree():
    with pytest.raises(InvalidParams):
        MeasureSpec.of([((0, 1),), ((0, 2),)], 1)


def test_matrix_cap():
    v = xs(10)
    p = v[0] * v[1]
    spec = MeasureSpec.multilinear(10, 2, 3)
    with pytest.raises(MatrixTooLarge):
        psp_dimension(p, spec, matrix_cap=100)


def test_matrix_cap_is_checked_before_a_derivative_is_listed(monkeypatch):
    import rankpit.measure

    def listed(*args):
        raise AssertionError("a derivative monomial was listed")

    monkeypatch.setattr(rankpit.measure, "combinations", listed)
    spec = MeasureSpec.multilinear(10**8, 1, 1)
    assert len(spec.monomials) == 10**8
    with pytest.raises(MatrixTooLarge) as info:
        psp_dimension(Polynomial.variable(Q, 10**8, 0), spec)
    assert info.value.cells == 10**24


def test_multilinear_monomials_in_combinations_order():
    spec = MeasureSpec.multilinear(6, 2, 1)
    assert tuple(spec.monomials) == (
        ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((0, 1), (3, 1)), ((0, 1), (4, 1)),
        ((0, 1), (5, 1)), ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((1, 1), (4, 1)),
        ((1, 1), (5, 1)), ((2, 1), (3, 1)), ((2, 1), (4, 1)), ((2, 1), (5, 1)),
        ((3, 1), (4, 1)), ((3, 1), (5, 1)), ((4, 1), (5, 1)))
    assert (len(spec.monomials), spec.degree, spec.shift_degree) == (15, 2, 1)


@pytest.mark.parametrize("r, m, detail", [
    (-1, -1, "derivative degree must be >= 0"),
    (4, -1, "shift degree must be >= 0"),
    (4, 0, "derivative set must be nonempty"),
])
def test_multilinear_refuses_bad_degrees_in_order(r, m, detail):
    with pytest.raises(InvalidParams, match=detail):
        MeasureSpec.multilinear(3, r, m)


def test_composition_upper_bound_values():
    assert composition_upper_bound(8, 2, 1, 1, 1) == 672
    assert composition_upper_bound(8, 2, 0, 1, 1) == 8 * 1 * 8  # r=0: N*C(N,m)
    assert composition_upper_bound(8, 2, 1, 3, 1) > 0  # boundary m+rs = N/2
    with pytest.raises(HypothesisViolated):
        composition_upper_bound(8, 2, 1, 4, 1)


def test_circuit_measure_bound_values():
    assert circuit_measure_bound(1, 8, 1, 2, 1, 1, 1) == 896
    assert circuit_measure_bound(2, 8, 1, 2, 1, 1, 1) == 2 * 896  # linear in T
    assert circuit_measure_bound(1, 8, 0, 5, 0, 2, 1) == 8 * 28  # k=0, r=0


def test_subadditivity_quick():
    rng = random.Random(97)
    from test_poly import random_poly
    for _ in range(40):
        n = 6
        p = random_poly(rng, FP, n, 3)
        q = random_poly(rng, FP, n, 3)
        alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
        spec = MeasureSpec.multilinear(n, 1, 1)
        lhs = psp_dimension(p.scale(alpha) + q.scale(beta), spec).dimension
        assert lhs <= psp_dimension(p, spec).dimension + psp_dimension(q, spec).dimension


def test_homogeneous_component_inequality_quick():
    rng = random.Random(101)
    from test_poly import random_poly
    for _ in range(30):
        n = 6
        p = random_poly(rng, FP, n, 3)
        spec = MeasureSpec.multilinear(n, 1, 1)
        full = psp_dimension(p, spec).dimension
        for i in range(p.degree() + 1):
            assert psp_dimension(p.homogeneous_component(i), spec).dimension <= full


def test_composition_bound_quick():
    rng = random.Random(103)
    from test_poly import random_poly
    for _ in range(20):
        n, t, r, m, s = 8, 2, 1, 1, 1
        inner = []
        while len(inner) < t:
            cand = random_poly(rng, FP, n, 2)
            if all(len(mono) <= s for mono in cand.terms):
                inner.append(cand)
        f = random_poly(rng, FP, t, 2)
        composed = compose(f, inner)
        spec = MeasureSpec.multilinear(n, r, m)
        val = psp_dimension(composed, spec).dimension
        assert val <= composition_upper_bound(n, t, r, m, s)


def test_monotone_in_derivative_set():
    rng = random.Random(107)
    from test_poly import random_poly
    n = 6
    for _ in range(20):
        p = random_poly(rng, FP, n, 3)
        small = [((0, 1),), ((1, 1),)]
        large = small + [((2, 1),), ((4, 1),)]
        v_small = psp_dimension(p, MeasureSpec.of(small, 1)).dimension
        v_large = psp_dimension(p, MeasureSpec.of(large, 1)).dimension
        assert v_small <= v_large


def test_permutation_invariance():
    rng = random.Random(109)
    from test_poly import random_poly
    n = 5
    for _ in range(15):
        p = random_poly(rng, Q, n, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        p_perm = Polynomial(Q, n, {
            tuple(sorted((perm[v], e) for v, e in mono)): c
            for mono, c in p.terms.items()})
        gammas = [((0, 1), (1, 1))] if rng.random() < 0.5 else [((0, 2),)]
        gammas_perm = [tuple(sorted((perm[v], e) for v, e in g)) for g in gammas]
        m = rng.randrange(0, 3)
        a = psp_dimension(p, MeasureSpec.of(gammas, m)).dimension
        b = psp_dimension(p_perm, MeasureSpec.of(gammas_perm, m)).dimension
        assert a == b


def test_dimension_bounded_by_row_count():
    rng = random.Random(113)
    from test_poly import random_poly
    from math import comb
    for _ in range(15):
        n = 6
        p = random_poly(rng, Q, n, 3)
        spec = MeasureSpec.multilinear(n, 1, 2)
        rep = psp_dimension(p, spec)
        assert rep.dimension <= len(spec.monomials) * comb(n, 2)
        assert rep.dimension <= min(rep.rows, rep.cols) or rep.rows == 0


@pytest.mark.parametrize("case,expected", [
    ((3, 5, 2, 1, 2), (1275, 1575, 1350, "exact-elimination")),
    ((2, 7, 2, 1, 2), (168, 1274, 364, "exact-elimination")),
    ((2, 5, 2, 1, 2), (80, 450, 120, "exact-elimination")),
    ((4, 5, 2, 1, 1), (397, 400, 1625, "exact-elimination")),
    ((3, 5, 2, 2, 2), (455, 6825, 455, "exact-elimination")),
    ((2, 7, 2, 2, 2), (91, 4459, 91, "exact-elimination")),
    ((3, 7, 1, 1, 2), (3150, 3591, 3150, "exact-elimination")),
    ((3, 3, 2, 2, 2), (84, 756, 84, "exact-elimination")),
    ((2, 7, 2, 1, 1), (27, 196, 91, "exact-elimination")),
    ((3, 5, 2, 1, 1), (215, 225, 425, "exact-elimination")),
])
def test_pinned_nw_measure_values(case, expected):
    """(n, q, e, r, m) -> (dimension, rows, cols, rank_method) of NW(n,q,e)."""
    from rankpit.nw import NWParams, nw_polynomial
    n, q, e, r, m = case

    def measured(dom):
        poly = nw_polynomial(NWParams(n, q, e), dom)
        rep = psp_dimension(poly, MeasureSpec.multilinear(poly.nvars, r, m))
        return rep.dimension, rep.rows, rep.cols, rep.rank_method

    assert measured(Q) == expected
    assert measured(FP) == expected


def _reference_psp(p, spec):
    """(dimension, rows, cols) of the full matrix, repeated rows included:
    one row per derivative monomial gamma and shift set S with a nonzero
    mult[X^S * dP/dgamma], one column per multilinear monomial that occurs,
    and the rank by dense elimination in the domain's own arithmetic."""
    dom, n = p.domain, p.nvars
    rows = []
    for gamma in spec.monomials:
        deriv = {}
        for mono, c in p.terms.items():
            e = dict(mono)
            if any(e.get(v, 0) < g for v, g in gamma):
                continue
            for v, g in gamma:
                for i in range(g):
                    c = dom.mul(c, dom.coerce(e[v] - i))
                e[v] -= g
            if all(x <= 1 for x in e.values()):
                support = frozenset(v for v, x in e.items() if x)
                deriv[support] = dom.add(deriv.get(support, dom.zero), c)
        for shift in combinations(range(n), spec.shift_degree):
            row = {support | set(shift): c for support, c in deriv.items()
                   if not dom.is_zero(c) and not support & set(shift)}
            if row:
                rows.append(row)
    cols = sorted({col for row in rows for col in row}, key=sorted)
    basis = {}  # pivot column -> dense row with 1 there, zero before it
    for sparse in rows:
        row = [sparse.get(col, dom.zero) for col in cols]
        for c, b in sorted(basis.items()):
            f = row[c]
            if not dom.is_zero(f):
                row = [x if dom.is_zero(y) else dom.sub(x, dom.mul(f, y))
                       for x, y in zip(row, b)]
        pivot = next((j for j, x in enumerate(row) if not dom.is_zero(x)), None)
        if pivot is not None:
            inv = dom.inv(row[pivot])
            basis[pivot] = [dom.mul(x, inv) for x in row]
    return len(basis), len(rows), len(cols)


def _psp_cases():
    """(polynomial, spec) pairs over Q with fractional coefficients and over
    F_p, most with repeated derivatives or repeated rows."""
    from rankpit.nw import NWParams, nw_polynomial
    for dom in (Q, FP):
        nw = nw_polynomial(NWParams(2, 5, 2), dom)
        n = nw.nvars
        yield nw, MeasureSpec.multilinear(n, 1, 2)  # 450 rows, 90 distinct
        tweak = Polynomial(dom, n, {((0, 1), (7, 1)): Fraction(5, 6),
                                    ((3, 1), (6, 1), (9, 1)): Fraction(-2, 9)})
        yield nw.scale(Fraction(-3, 4)) + tweak, MeasureSpec.multilinear(n, 1, 2)
        # every x0-derivative is 3 times the x1-one: the partners of x0 and
        # x1 are shared, and so are those of x2 and x3
        v = xs(6, dom)
        prod = ((v[0] + v[1].scale(Fraction(1, 3))) * (v[2] - v[3].scale(Fraction(2, 5)))
                * (v[4] + v[5]))
        for r, m in [(1, 1), (1, 2), (2, 1)]:
            yield prod, MeasureSpec.multilinear(6, r, m)
        yield prod * prod, MeasureSpec.of([((0, 2),), ((1, 2),), ((0, 1), (1, 1))], 1)
        # d/dx0 and d/dx1 share the multilinear part x2*x3 and differ in
        # x4^2: with coefficient 1 they share their rows, with 1/3 the
        # integer forms scale the x0 rows by 3
        v = xs(5, dom)
        for c in (1, Fraction(1, 3)):
            p = (v[0] + v[1]) * v[2] * v[3] + (v[0] * v[4] * v[4]).scale(c)
            for m in (1, 2):
                yield p, MeasureSpec.multilinear(5, 1, m)
        rng = random.Random(127)
        from test_poly import random_poly
        for _ in range(6):
            p = random_poly(rng, dom, 6, 4).scale(Fraction(rng.choice([1, 2, 5]), 7))
            yield p, MeasureSpec.multilinear(6, rng.randrange(3), rng.randrange(3))
    # over F_3 the falling factorial 3*2 of x0^3 and of x1^3 is 0, so the
    # x0^2- and x1^2-derivatives both reduce to 2*x3
    v = xs(4, PrimeField(3))
    p = (v[0].pow(3) * v[2] + v[0] * v[0] * v[3] + v[1].pow(3) * v[3]
         + v[1] * v[1] * v[3] + v[0] * v[1] * v[2])
    yield p, MeasureSpec.of([((0, 2),), ((1, 2),), ((0, 1), (1, 1))], 1)


@pytest.mark.parametrize("case", list(_psp_cases()), ids=lambda case: (
    f"{case[0].domain}-n{case[0].nvars}-r{case[1].degree}-m{case[1].shift_degree}"))
def test_psp_dimension_matches_the_full_dense_matrix(case):
    p, spec = case
    rep = psp_dimension(p, spec)
    assert (rep.dimension, rep.rows, rep.cols) == _reference_psp(p, spec)


def _path(nvars, dom=Q):
    """x0*x1 + x1*x2 + ... : d/dx_i is x_{i-1} + x_{i+1}, a chain of rows."""
    v = xs(nvars, dom)
    return sum((v[i] * v[i + 1] for i in range(1, nvars - 1)), v[0] * v[1])


def _streamed(monkeypatch, p, spec):
    """psp_dimension's report and the rows that reached the elimination."""
    import rankpit.measure
    from rankpit.linalg import rank_stream
    streamed = []

    def counted(rows, domain):
        rows = list(rows)
        streamed.extend(rows)
        return rank_stream(rows, domain)

    monkeypatch.setattr(rankpit.measure, "rank_stream", counted)
    return psp_dimension(p, spec), streamed


@pytest.mark.parametrize("dom", [Q, FP])
def test_singleton_columns_cascade(monkeypatch, dom):
    # x0 and x7 are reached by d/dx1 and d/dx6 alone; pruning those leaves
    # x2 reached by d/dx3 alone, and so on inward: no row is eliminated
    p, spec = _path(8, dom), MeasureSpec.multilinear(8, 1, 0)
    rep, streamed = _streamed(monkeypatch, p, spec)
    assert (rep.dimension, rep.rows, rep.cols) == _reference_psp(p, spec) == (8, 8, 8)
    assert streamed == []


@pytest.mark.parametrize("dom", [Q, FP])
def test_pruning_stops_at_a_rank_deficient_core(monkeypatch, dom):
    # d/dx1 and d/dx3 are pruned (x0 and x4); x1 and x3 are then each reached
    # by two of x1, x1 + x3, x3, whose rank is 2, not 3
    p, spec = _path(5, dom), MeasureSpec.multilinear(5, 1, 0)
    rep, streamed = _streamed(monkeypatch, p, spec)
    assert (rep.dimension, rep.rows, rep.cols) == _reference_psp(p, spec) == (4, 5, 5)
    assert sorted(map(sorted, streamed)) == [[2], [2, 8], [8]]


def test_one_derivative_of_a_wide_term_is_tested_once(monkeypatch):
    # x0*...*x59 has C(60, 5) = 5,461,512 subsets of 5 variables: with one
    # gamma in M the term is tested against that gamma, not its subsets
    import itertools

    import rankpit.measure
    listed = []

    def counted(items, k):
        for item in itertools.combinations(items, k):
            listed.append(item)
            yield item

    monkeypatch.setattr(rankpit.measure, "combinations", counted)
    n = 60
    p = Polynomial(Q, n, {tuple((v, 1) for v in range(n)): Fraction(3, 2),
                          ((0, 2), (1, 1), (2, 1), (3, 1), (4, 1)): 1})
    spec = MeasureSpec.of([tuple((v, 1) for v in range(5))], 1)
    rep = psp_dimension(p, spec)
    assert len(listed) == n  # the shifts by one variable alone
    assert (rep.dimension, rep.rows, rep.cols) == _reference_psp(p, spec) == (60, 60, 64)
