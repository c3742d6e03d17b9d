"""Identity testing: support bounds, hitting sets, oracle, driver."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product
from math import comb

import pytest

from rankpit import algdep, linalg, pit
from rankpit.algdep import rewrite_circuit
from rankpit.circuit import (Circuit, DeclaredBounds, Gate, OuterExpr,
                             evaluate_circuit, expand, parse, serialize)
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import BoundViolation, FieldTooSmall, InvalidParams, SetTooLarge
from rankpit.pit import (hitting_set, hitting_set_size, pit_test,
                         schwartz_zippel_test, support_bound)
from rankpit.poly import Polynomial, compose, mono_support

Q = Rationals()
FP = PrimeField(1_000_003)


def x(i, nvars=2, dom=Q):
    return Polynomial.variable(dom, nvars, i)


def zero_fixture():
    return Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=2), [
        Gate("product", [x(0) + x(1), x(0) - x(1)]),
        Gate("product", [Polynomial.constant(Q, 2, -1),
                         x(0) * x(0) - x(1) * x(1)]),
    ])


def nonzero_fixture():
    return Circuit(Q, 2, DeclaredBounds(d=1, k=2, delta=2),
                   [Gate("product", [x(0), x(1)])])


# ----------------------------------------------------------------------
# support bound

def test_support_bound_pinned_value():
    assert support_bound(1, 1, 1, 1, "general").ell == 208


def test_support_bound_monotone():
    base = support_bound(2, 2, 3, 5, "general").ell
    assert support_bound(3, 2, 3, 5, "general").ell >= base
    assert support_bound(2, 3, 3, 5, "general").ell >= base
    assert support_bound(2, 2, 9, 5, "general").ell >= base
    assert support_bound(2, 2, 3, 9, "general").ell >= base


def test_support_bound_homogeneous_at_most_general():
    rng = random.Random(151)
    for _ in range(30):
        d, k, t, delta = (rng.randrange(1, 5) for _ in range(4))
        hom = support_bound(d, k, t, delta, "homogeneous").ell
        gen = support_bound(d, k, t, delta, "general").ell
        assert hom <= gen


def test_support_bound_validates_inputs():
    with pytest.raises(InvalidParams):
        support_bound(0, 1, 1, 1)


# ----------------------------------------------------------------------
# hitting sets

def _reference_points(nvars, ell, values):
    """W-valued points with at most ell nonzero coordinates, in enumeration
    order, built one tuple at a time."""
    zero, nonzero_values = values[0], values[1:]
    yield tuple(zero for _ in range(nvars))
    for j in range(1, ell + 1):
        for support in combinations(range(nvars), j):
            for nonzero in product(nonzero_values, repeat=j):
                point = [zero] * nvars
                for v, val in zip(support, nonzero):
                    point[v] = val
                yield tuple(point)


def _lattice_points(nvars, ell, values):
    """The points of `_reference_points` whose value indices sum to at most
    delta = |W| - 1, in the same order: the principal lattice L_delta."""
    return [pt for pt in _reference_points(nvars, ell, values)
            if sum(values.index(a) for a in pt) <= len(values) - 1]


def _lattice_size(nvars, delta, ell):
    """The number of points of H in nvars variables whose value indices sum
    to at most delta, counted over the full grid {0..delta}^nvars."""
    return sum(1 for a in product(range(delta + 1), repeat=nvars)
               if sum(a) <= delta and len([x for x in a if x]) <= ell)


def _fraction_text(value):
    """json.dumps default that accepts a Fraction and nothing else."""
    if type(value) is Fraction:
        return str(value)
    raise TypeError(f"{type(value).__name__} is not a JSON coordinate")


@pytest.mark.parametrize("domain", [Q, PrimeField(7), PrimeField(2147483659)],
                         ids=["Q", "F7", "first-prime-above-2^31"])
@pytest.mark.parametrize("nvars,delta,ell", [
    (0, 3, 0), (0, 3, 2), (4, 0, 2), (5, 2, 0), (5, 3, 2), (4, 2, 3), (3, 2, 50)])
def test_hitting_set_points_match_reference_enumeration(domain, nvars, delta, ell):
    # (0, 3, 2) and (3, 2, 50) clamp ell to nvars; delta = 0 leaves the origin
    hs = hitting_set(nvars, delta, ell, domain)
    assert hs.clamped == (ell > nvars)
    assert hs.points == tuple(_reference_points(nvars, min(ell, nvars), hs.values))
    kind = Fraction if domain == Q else int
    assert all(type(v) is kind for pt in hs.points for v in pt)
    assert json.loads(json.dumps(hs.points, default=_fraction_text))[0] == (
        [0 if kind is int else "0"] * nvars)


def test_hitting_set_pinned_count():
    hs = hitting_set(6, 4, 2, Q)
    assert len(hs.points) == 265
    assert hitting_set_size(6, 4, 2) == 265


def test_hitting_set_support_and_values():
    hs = hitting_set(5, 3, 2, Q)
    values = set(hs.values)
    for point in hs.points:
        nonzero = [v for v in point if v != 0]
        assert len(nonzero) <= 2
        assert all(v in values and v != 0 for v in nonzero)
    assert len(set(hs.points)) == len(hs.points)


def test_hitting_set_ell_zero_origin_only():
    hs = hitting_set(4, 5, 0, Q)
    assert len(hs.points) == 1
    assert all(v == 0 for v in hs.points[0])


def test_hitting_set_ell_at_least_n_is_full_grid():
    hs = hitting_set(3, 2, 50, Q)
    assert hs.clamped
    assert len(hs.points) == 3 ** 3
    assert hitting_set_size(3, 2, 50) == 27


def test_hitting_set_too_large_reports_exact_count():
    with pytest.raises(SetTooLarge) as info:
        hitting_set(10, 12, 10, Q, point_cap=1000)
    assert info.value.size == 13 ** 10


def test_hitting_set_field_too_small():
    with pytest.raises(FieldTooSmall):
        hitting_set(3, 4, 1, PrimeField(3))


def test_a_set_of_the_origin_alone_lists_one_grid_value():
    """With ell = 0 (here: no variables) the set is the origin, whatever delta
    is: W = {0}, not the delta + 1 values of a grid the scan never reaches,
    and over F_p no p > delta is needed."""
    hs = hitting_set(0, 10 ** 8, 5, Q)
    assert (hs.points, hs.values, hs.ell) == (((),), (0,), 0)
    assert hitting_set(3, 4, 0, PrimeField(3)).points == ((0, 0, 0),)
    c = Circuit(Q, 0, DeclaredBounds(d=0, k=1, delta=10 ** 8),
                [Gate("product", [Polynomial.constant(Q, 0, 3)])])
    report = pit_test(c)
    assert (report.verdict, report.witness, report.hitting_set_size) == ("nonzero", (), 1)


def test_hitting_set_counting_formula_sweep():
    for (n, delta, ell) in [(4, 1, 2), (5, 2, 3), (6, 4, 2), (7, 3, 1),
                            (8, 2, 2), (3, 7, 3), (2, 12, 2)]:
        hs = hitting_set(n, delta, ell, Q)
        expected = sum(comb(n, j) * delta ** j for j in range(min(ell, n) + 1))
        assert len(hs.points) == expected


# ----------------------------------------------------------------------
# randomized oracle

def test_oracle_zero_fixture():
    verdict = schwartz_zippel_test(zero_fixture(), rounds=10, seed=3)
    assert not verdict.nonzero
    assert verdict.error_bound <= (1 / (2 * 1024)) ** 10 * 2 ** 10


def test_oracle_nonzero_fixture_has_witness():
    verdict = schwartz_zippel_test(nonzero_fixture(), rounds=10, seed=3)
    assert verdict.nonzero
    from rankpit.circuit import evaluate_circuit
    assert evaluate_circuit(nonzero_fixture(), verdict.witness) != 0


def test_oracle_field_too_small():
    f3 = PrimeField(3)
    y = Polynomial.variable(f3, 1, 0)
    c = Circuit(f3, 1, DeclaredBounds(d=2, k=1, delta=2),
                [Gate("product", [y, y])])
    with pytest.raises(FieldTooSmall):
        schwartz_zippel_test(c)


# ----------------------------------------------------------------------
# the driver

def test_pit_zero_fixture_certified():
    rep = pit_test(zero_fixture(), mode="both", expansion_term_cap=10 ** 5)
    assert rep.verdict == "zero"
    assert rep.consistent
    assert rep.expansion_nonzero is False


def test_pit_nonzero_with_verified_witness():
    rep = pit_test(nonzero_fixture(), mode="both", expansion_term_cap=10 ** 5)
    assert rep.verdict == "nonzero"
    from rankpit.circuit import evaluate_circuit
    assert evaluate_circuit(nonzero_fixture(), rep.witness) != 0
    assert rep.consistent


def test_pit_witness_first_in_order():
    assert pit_test(nonzero_fixture()).witness == (1, 1)


def test_pit_oracle_mode():
    rep = pit_test(zero_fixture(), mode="oracle", seed=5)
    assert rep.verdict == "zero"
    assert rep.hitting_set_size is None


def test_a_scalar_witness_is_evaluated_once(monkeypatch):
    # an origin or oracle witness already comes from evaluate_circuit; only a
    # scanned witness is re-evaluated, to cross-check the scan's evaluation
    points = []
    real = pit.evaluate_circuit

    def spy(c, point):
        points.append(point)
        return real(c, point)
    monkeypatch.setattr(pit, "evaluate_circuit", spy)
    one_plus_x = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=1),
                         [Gate("product", [x(0) + Polynomial.constant(Q, 2, 1)])])
    assert pit_test(one_plus_x).witness_index == 0 and points == [(0, 0)]
    points.clear()
    assert pit_test(one_plus_x, mode="oracle", seed=5).oracle.nonzero
    assert len(points) == 1
    points.clear()
    assert pit_test(nonzero_fixture()).witness == (1, 1)
    assert points == [(0, 0), (1, 1)]


def test_pit_certify_rank_flag():
    rep = pit_test(nonzero_fixture(), certify_rank=True)
    assert rep.rank_certified
    from rankpit.errors import BoundViolation
    tight = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=2),
                    [Gate("product", [x(0), x(1)])])
    with pytest.raises(BoundViolation):
        pit_test(tight, certify_rank=True)


def test_pit_certify_rank_in_small_characteristic():
    """The certified rank has no characteristic gate: over F_7 the gate
    (x^2, x^4), whose degree product is 8, has rank 1 = k."""
    f7 = PrimeField(7)
    y = Polynomial.variable(f7, 1, 0)
    c = Circuit(f7, 1, DeclaredBounds(d=4, k=1, delta=6),
                [Gate("product", [y.pow(2), y.pow(4)])])
    rep = pit_test(c, certify_rank=True)
    assert rep.rank_certified and rep.verdict == "nonzero"


def test_trailing_support_within_bound_small_corpus():
    rng = random.Random(163)
    from test_poly import random_poly
    checked = 0
    for _ in range(40):
        gates = []
        for _ in range(rng.randrange(1, 3)):
            inner = [random_poly(rng, FP, 4, 2) for _ in range(rng.randrange(1, 3))]
            if any(q.is_zero() for q in inner):
                continue
            gates.append(Gate("product", inner))
        if not gates:
            continue
        delta = max((g.formal_degree() for g in gates), default=1)
        c = Circuit(FP, 4, DeclaredBounds(d=2, k=2, delta=max(1, delta)), gates)
        p = expand(c)
        if p.is_zero():
            continue
        sb = support_bound(2, 2, max(1, len(gates)), max(1, delta), "general")
        assert len(mono_support(p.trailing_monomial())) <= sb.ell
        checked += 1
    assert checked >= 20


def test_sz_false_zero_rate_on_planted_nonzero_corpus():
    # the per-run false-zero bound is (delta/|S|)^rounds < 2^-100; observing
    # even one false zero in 100 runs would exceed it wildly
    rng = random.Random(167)
    from test_poly import random_poly
    false_zeros = 0
    runs = 0
    attempt = 0
    while runs < 100:
        attempt += 1
        inner = [random_poly(rng, FP, 4, 2) for _ in range(2)]
        if any(q.is_zero() for q in inner):
            continue
        c = Circuit(FP, 4, DeclaredBounds(d=2, k=2, delta=4),
                    [Gate("product", inner)])
        if expand(c).is_zero():
            continue
        runs += 1
        verdict = schwartz_zippel_test(c, rounds=10, seed=attempt)
        if not verdict.nonzero:
            false_zeros += 1
    assert false_zeros == 0


def test_pit_e1_based_circuit_agrees_with_oracle_over_seeds():
    # N=4, d=2, k=2, T=2: dependent triples in disjoint variable pairs
    def v(i):
        return x(i, nvars=4)
    g1 = Gate("product", [v(0) + v(1), v(0) * v(1), v(0) * v(0) + v(1) * v(1)])
    g2 = Gate("product", [v(2) + v(3), v(2) * v(3)])
    c = Circuit(Q, 4, DeclaredBounds(d=2, k=2, delta=5), [g1, g2])
    rep = pit_test(c)
    assert rep.verdict == "nonzero"
    from rankpit.circuit import evaluate_circuit
    assert evaluate_circuit(c, rep.witness) != 0
    for seed in range(100):
        verdict = schwartz_zippel_test(c, rounds=10, seed=seed)
        assert verdict.nonzero


def test_pit_catches_high_support_only_circuit():
    # the expansion has exactly one monomial, of full support: the witness
    # must come from the deepest enumeration block
    n = 6
    mono = Polynomial(Q, n, {tuple((v, 1) for v in range(n)): 1})
    c = Circuit(Q, n, DeclaredBounds(d=n, k=1, delta=n),
                [Gate("product", [mono])])
    rep = pit_test(c)
    assert rep.verdict == "nonzero"
    assert sum(1 for v in rep.witness if v != 0) == n


def test_pit_certified_rank_on_random_corpus_slice():
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import random_class_circuit
    for seed in range(6):
        c = random_class_circuit(60_000 + seed)
        rep = pit_test(c, certify_rank=True)
        assert rep.rank_certified


def test_streamed_scan_matches_materialized_hitting_set():
    # the witness is the first point of hitting_set(...).points that
    # evaluates nonzero, and a zero verdict means no point does
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import random_class_circuit
    from rankpit.circuit import evaluate_circuit
    verdicts = set()
    for seed in range(36):
        c = random_class_circuit(70_000 + seed, gamma_outer=seed % 2 == 1,
                                 zero=seed % 4 == 0)
        rep = pit_test(c)
        hs = hitting_set(c.nvars, c.declared.delta, rep.ell, c.domain)
        first = next((pt for pt in hs.points
                      if not c.domain.is_zero(evaluate_circuit(c, pt))), None)
        assert rep.witness == first
        assert rep.verdict == ("zero" if first is None else "nonzero")
        assert rep.hitting_set_size == len(hs.points)
        assert (rep.ell_used, rep.clamped) == (hs.ell, hs.clamped)
        verdicts.add(rep.verdict)
    assert verdicts == {"zero", "nonzero"}


# ----------------------------------------------------------------------
# the scan against the point-by-point reference

P31 = PrimeField(2 ** 31 - 1)


def _corpus():
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).parent))
    import _corpus
    return _corpus


def _over(c, domain):
    """c re-read over another field; rational coefficients become residues."""
    obj = json.loads(serialize(c))
    obj["field"] = domain.to_json()
    return parse(json.dumps(obj))


def _with_negated_twins(c):
    """c plus a negated copy of every gate: identically zero."""
    twins = []
    for g in c.gates:
        if g.is_product:
            twins.append(Gate("product", [g.inner[0].scale(-1)] + g.inner[1:]))
        else:
            base = len(g.outer.nodes)
            nodes = list(g.outer.nodes) + [("const", c.domain.coerce(-1)),
                                           ("mul", (g.outer.root, base))]
            twins.append(Gate(OuterExpr(g.outer.arity, nodes, base + 1), g.inner))
    return Circuit(c.domain, c.nvars, c.declared, c.gates + twins)


def _rewritten(seed, domain):
    """A rewritten circuit (its DAG outers have call nodes) over `domain`."""
    rewritten, _ = rewrite_circuit(_corpus().rewrite_fixture(seed), seed=seed)
    return _over(rewritten, domain)


def _scalar_reference(c, ell):
    """(witness, index) of the first point in enumeration order that
    `evaluate_circuit` finds nonzero, one point at a time."""
    values = tuple(c.domain.coerce(i) for i in range(c.declared.delta + 1))
    points = _reference_points(c.nvars, min(ell, c.nvars), values)
    return next(((pt, i) for i, pt in enumerate(points)
                 if not c.domain.is_zero(evaluate_circuit(c, pt))), (None, None))


@pytest.fixture
def point_calls(monkeypatch):
    """The points past the origin that the scan evaluates, in order."""
    calls = []
    real = pit._point_value

    def spy(dom, qs, folds, pt):
        calls.append(tuple(pt))
        return real(dom, qs, folds, pt)
    monkeypatch.setattr(pit, "_point_value", spy)
    return calls


def _check_against_reference(circuits):
    """pit_test agrees with the scalar reference on verdict, witness and index."""
    seen = set()
    for c in circuits:
        rep = pit_test(c)
        witness, index = _scalar_reference(c, rep.ell)
        assert (rep.witness, rep.witness_index) == (witness, index)
        assert rep.verdict == ("zero" if witness is None else "nonzero")
        seen.add("zero" if index is None else "origin" if index == 0 else "later")
    return seen


@pytest.mark.parametrize("nvars,ell,delta,first", [
    (0, 0, 3, 4096), (4, 0, 3, 4096), (4, 3, 0, 4096), (5, 2, 3, 4096),
    (5, 3, 2, 4096), (6, 4, 1, 5), (3, 3, 2, 5), (2, 2, 4, 7),
    (3, 3, 17, 4096), (3, 3, 3, 5)])
def test_point_chunks_concatenate_to_enumeration_order(nvars, ell, delta, first):
    # the scan takes the points past the origin in two pieces, the first
    # coordinate's axis and then the rest, over coordinates that need not
    # start at 0 (here first, first + 1, ...): together they are `_supports`
    # over all of them, which lists H's points in enumeration order
    coords = range(first, first + nvars)
    points = list(pit._supports(coords, ell, delta))
    if points:
        assert (list(pit._supports(coords[:1], 1, delta))
                + list(islice(pit._supports(coords, ell, delta), delta, None))) == points
    rows = [(0,) * nvars]
    for support, values in points:
        row = [0] * nvars
        for v, a in zip(support, values):
            row[v - first] = a
        rows.append(tuple(row))
    assert rows == list(_reference_points(nvars, ell, tuple(range(delta + 1))))


def test_array_scan_matches_scalar_loop_on_corpus(point_calls):
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(80_000 + s, gamma_outer=s % 2 == 1,
                                            zero=s % 3 == 0) for s in range(24)]
    circuits += [_rewritten(s, FP) for s in range(4)]
    circuits += [_with_negated_twins(_rewritten(s, FP)) for s in range(2)]
    assert any(op[0] == "call" for c in circuits[-6:] for g in c.gates
               if not g.is_product for op in g.outer.nodes)
    assert _check_against_reference(circuits) == {"zero", "origin", "later"}
    assert point_calls


def _dense_poly(domain, nvars, degree, coeff):
    """Every monomial of degree 1..degree, each with coefficient coeff."""
    return Polynomial(domain, nvars, {
        tuple(sorted(Counter(vs).items())): coeff for deg in range(1, degree + 1)
        for vs in combinations_with_replacement(range(nvars), deg)})


def test_array_scan_exact_at_the_largest_accepted_prime(point_calls):
    # residues up to p - 1 = 2^31 - 2 in every coefficient and term
    p = P31.p
    corpus = _corpus()
    v = [Polynomial.variable(P31, 3, i) for i in range(3)]
    big = Polynomial(P31, 3, {((0, 2),): p - 1, ((1, 1), (2, 1)): p - 2, (): p - 3})
    near_p = Circuit(P31, 3, DeclaredBounds(d=2, k=3, delta=6), [
        Gate("product", [big, v[0].scale(p - 1) + v[1], big]),
        Gate("product", [big.scale(p - 5), big, v[2]])])
    # a DAG built in code may hold a constant far above p
    raw_const = Circuit(P31, 3, DeclaredBounds(d=1, k=1, delta=1), [
        Gate(OuterExpr(1, [("input", 0), ("const", 2 ** 70 + 3), ("mul", (0, 1))], 2),
             [v[1]])])
    circuits = [near_p, _with_negated_twins(near_p), raw_const,
                _with_negated_twins(raw_const)]
    circuits += [corpus.random_class_circuit(81_000 + s, domain=P31,
                                             gamma_outer=s % 2 == 1, zero=s % 3 == 0)
                 for s in range(12)]
    circuits += [_rewritten(s, P31) for s in range(3)]
    circuits.append(_with_negated_twins(_rewritten(1, P31)))
    # every monomial of degree 1..3 in 4 variables, each with coefficient p - 1
    q = _dense_poly(P31, 4, 3, p - 1)
    r = _dense_poly(P31, 4, 2, p - 1) + Polynomial.variable(P31, 4, 3).scale(p - 2)
    assert len(q.terms) == 34
    dense = Circuit(P31, 4, DeclaredBounds(d=3, k=2, delta=5), [Gate("product", [q, r])])
    circuits += [dense, _with_negated_twins(dense)]
    assert _check_against_reference(circuits) == {"zero", "origin", "later"}
    assert point_calls


@pytest.mark.parametrize("domain", [PrimeField(2147483659), Q],
                         ids=["first-prime-above-2^31", "Q"])
def test_object_scan_beyond_the_int64_range(point_calls, domain):
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(82_000 + s, domain=domain,
                                            gamma_outer=s % 2 == 1, zero=s % 3 == 0)
                for s in range(9)]
    circuits.append(Circuit(domain, 2, DeclaredBounds(d=1, k=2, delta=2), [
        Gate("product", [Polynomial.variable(domain, 2, 0),
                         Polynomial.variable(domain, 2, 1)])]))
    assert "later" in _check_against_reference(circuits)
    # every coordinate is the domain's own value: an exact int or a Fraction
    kind = Fraction if domain == Q else int
    assert point_calls and all(type(a) is kind for pt in point_calls for a in pt)


def test_scan_folds_each_gates_own_dag(monkeypatch, point_calls):
    # the scan evaluates the circuit it was given: no DAG is copied
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(80_000 + s, gamma_outer=s % 2 == 1,
                                            zero=s % 3 == 0) for s in range(6)]
    circuits += [_rewritten(s, FP) for s in range(2)]
    circuits.append(_with_negated_twins(_rewritten(0, FP)))
    built = []
    real = OuterExpr.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)
    monkeypatch.setattr(OuterExpr, "__init__", counting)
    scanned = [c for c in circuits if pit_test(c).witness_index != 0]
    # scans went past the origin, through gates with call nodes
    assert point_calls and any(op[0] == "call" for c in scanned for g in c.gates
                               if not g.is_product for op in g.outer.nodes)
    assert built == []


def test_witness_index_locates_the_witness_in_the_hitting_set():
    rep = pit_test(nonzero_fixture())
    hs = hitting_set(2, 2, rep.ell, Q)
    assert hs.points.index(rep.witness) == rep.witness_index == 5
    assert pit_test(zero_fixture()).witness_index is None
    assert pit_test(nonzero_fixture(), mode="oracle").witness_index is None


def test_support_bound_repeated_calls_agree_and_validate():
    first = support_bound(2, 2, 3, 5, "general")
    assert support_bound(2, 2, 3, 5, "general") == first
    assert support_bound(1, 1, 1, 1, "general").ell == 208
    for _ in range(3):
        with pytest.raises(InvalidParams):
            support_bound(0, 1, 1, 1)
        with pytest.raises(InvalidParams):
            support_bound(1, 1, 1, 1, "bogus")


@pytest.fixture
def interval_calls(monkeypatch):
    calls = []
    real = pit._interval_ell

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(pit, "_interval_ell", spy)
    return calls


def test_float_support_bound_equals_the_interval_ceiling():
    for d, k, t, delta in product(range(1, 7), repeat=4):
        for variant, v in (("homogeneous", 1), ("general", 2)):
            assert (support_bound(d, k, t, delta, variant).ell
                    == pit._interval_ell(d, k, t, delta, v)), (d, k, t, delta, variant)


def test_support_bound_near_an_integer_falls_back_to_intervals(interval_calls):
    assert support_bound(1, 1, 1, 1, "general").ell == 208
    assert interval_calls == []
    # x = 89243.0000076...: within the float margin of an integer
    assert support_bound(7, 8, 7, 6, "general").ell == 89244
    assert interval_calls == [(7, 8, 7, 6, 2)]


def test_support_bound_beyond_the_float_range(interval_calls):
    d = 10**400
    ell = support_bound(d, 1, 1, 1, "general").ell
    assert interval_calls == [(d, 1, 1, 1, 2)]
    assert ell == pit._interval_ell(d, 1, 1, 1, 2) and len(str(ell)) > 800


# ----------------------------------------------------------------------
# the scan's order, one value per distinct inner polynomial

def _x1_x2(domain):
    """x1 * x2 in 4 variables with delta = 2: it vanishes at every point of
    support <= 1, so its first witness is point 9, (1, 1, 0, 0)."""
    v = [Polynomial.variable(domain, 4, i) for i in range(4)]
    return Circuit(domain, 4, DeclaredBounds(d=1, k=2, delta=2),
                   [Gate("product", [v[0], v[1]])])


def _x1_x2_plus_x3_x4(domain):
    """x1*x2 + x3*x4 with delta = 2: each variable is essential, so a zero
    scan of its negated twins visits the whole grid."""
    v = [Polynomial.variable(domain, 4, i) for i in range(4)]
    return Circuit(domain, 4, DeclaredBounds(d=1, k=2, delta=2),
                   [Gate("product", [v[0], v[1]]), Gate("product", [v[2], v[3]])])


@pytest.mark.parametrize("domain", [FP, Q], ids=["F1000003", "Q"])
def test_a_zero_scan_visits_every_point_in_enumeration_order(point_calls, domain):
    rep = pit_test(_with_negated_twins(_x1_x2_plus_x3_x4(domain)))
    assert (rep.verdict, rep.ell_used) == ("zero", 4)
    # x1's axis first, then every other point of H whose value indices sum
    # to at most delta, across support sizes: C(4 + 2, 2) = 15 with the origin
    values = tuple(domain.coerce(i) for i in range(3))
    assert [values[:1] * 4] + point_calls == _lattice_points(4, 4, values)
    assert len(point_calls) == comb(4 + 2, 2) - 1
    c = _x1_x2(domain)
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell) == (
        (1, 1, 0, 0), 9)


@pytest.fixture
def value_counts(monkeypatch):
    """Per point past the origin, [`Polynomial._value` calls on the scan's
    distinct inner polynomials, other calls (a call node's polynomial)]."""
    counts = []
    real_point, real_value = pit._point_value, Polynomial._value

    def point_spy(dom, qs, folds, pt):
        counts.append([0, 0])
        point_spy.qs = qs
        try:
            return real_point(dom, qs, folds, pt)
        finally:
            point_spy.qs = None
    point_spy.qs = None

    def value_spy(poly, pt):
        if point_spy.qs is not None:
            counts[-1][all(poly is not q for q in point_spy.qs)] += 1
        return real_value(poly, pt)
    monkeypatch.setattr(pit, "_point_value", point_spy)
    monkeypatch.setattr(Polynomial, "_value", value_spy)
    return counts


def test_equal_inner_polynomials_share_one_column(value_counts):
    twins = _with_negated_twins(_corpus().random_class_circuit(83_006, gamma_outer=True))
    assert not any(g.is_product for g in twins.gates)
    reread = parse(serialize(twins))
    half = len(reread.gates) // 2
    # the re-read twins hold equal, not identical, inner polynomials
    assert all(p == q and p is not q for g, h in zip(reread.gates[:half], reread.gates[half:])
               for p, q in zip(g.inner, h.inner))
    rewritten = _with_negated_twins(_rewritten(0, FP))
    assert any(op[0] == "call" for g in rewritten.gates if not g.is_product
               for op in g.outer.nodes)
    for c in (twins, reread, rewritten):
        value_counts.clear()
        assert _check_against_reference([c]) == {"zero"}
        distinct = len({q for g in c.gates for q in g.inner})
        assert distinct < sum(len(g.inner) for g in c.gates)
        assert value_counts and all(own == distinct for own, _ in value_counts)
    # a call node's polynomial is evaluated at its own arguments
    assert all(other > 0 for _, other in value_counts)


# ----------------------------------------------------------------------
# essential coordinates: past the origin, the scan visits only the points
# of H supported on them

def _inners(c):
    """The distinct inner polynomials of c, in the order the scan takes them."""
    return list(dict.fromkeys(q for g in c.gates for q in g.inner))


def _x1_x3_times_x2_x3(domain):
    """(x1 + x3)(x2 + x3), delta = 2: x3 is not essential."""
    v = [Polynomial.variable(domain, 3, i) for i in range(3)]
    return Circuit(domain, 3, DeclaredBounds(d=1, k=2, delta=2),
                   [Gate("product", [v[0] + v[2], v[1] + v[2]])])


@pytest.mark.parametrize("domain", [Q, FP], ids=["Q", "F1000003"])
def test_witness_is_the_first_point_supported_on_the_essential_coordinates(domain):
    c = _x1_x3_times_x2_x3(domain)
    assert pit._essential(_inners(c)) == [0, 1]
    rep = pit_test(c)
    # H's first nonzero point is (0, 0, 1) at 5; the scan never sets x3
    assert _scalar_reference(c, rep.ell) == ((0, 0, 1), 5)
    assert (rep.witness, rep.witness_index) == ((1, 1, 0), 7)
    hs = hitting_set(3, 2, rep.ell, domain)
    assert hs.points.index(rep.witness) == rep.witness_index
    assert rep.hitting_set_size == len(hs.points) == 27


def test_index_ranks_every_point_of_small_grids():
    for nvars in range(6):
        for delta in range(1, 4):
            for ell in range(nvars + 2):
                points = hitting_set(nvars, delta, ell, FP).points
                assert [pit._index(list(pt), delta) for pt in points] == list(
                    range(len(points))), (nvars, delta, ell)


def _essential_reference(c):
    """The greedy independent columns of dq/dx_v over the distinct inner
    polynomials, from `partial_derivative` and elimination in the domain."""
    dom = c.domain
    qs = list(dict.fromkeys(q for g in c.gates for q in g.inner))
    basis, essential = [], []
    for v in range(c.nvars):
        col = {(n, m): a for n, q in enumerate(qs)
               for m, a in q.partial_derivative(((v, 1),)).terms.items()}
        for pivot, b in basis:
            if pivot in col:
                f = dom.mul(col[pivot], dom.inv(b[pivot]))
                for key, a in b.items():
                    col[key] = dom.sub(col.get(key, dom.zero), dom.mul(f, a))
                col = {key: a for key, a in col.items() if not dom.is_zero(a)}
        if col:
            basis.append((min(col), col))
            essential.append(v)
    return essential


def _form_circuit(seed, domain, zero):
    """Product gates whose inner polynomials are functions of one or two
    seeded linear forms in 3-6 variables; zero=True adds negated twins."""
    rng = random.Random(seed)
    nvars = rng.randrange(3, 7)
    forms = [Polynomial(domain, nvars, {((v, 1),): rng.choice([-3, -2, -1, 1, 2, 3])
                                        for v in rng.sample(range(nvars), rng.randrange(1, nvars + 1))})
             for _ in range(rng.randrange(1, 3))]
    gates = []
    for _ in range(rng.randrange(1, 3)):
        inner = []
        for _ in range(rng.randrange(1, 3)):
            f = Polynomial(domain, len(forms), {
                tuple(sorted(Counter(rng.choices(range(len(forms)), k=deg)).items())):
                rng.randrange(-3, 4) for deg in range(3)})
            inner.append(compose(f, forms))
        gates.append(Gate("product", inner))
    c = Circuit(domain, nvars, DeclaredBounds(
        d=max(1, max(q.degree() for g in gates for q in g.inner)), k=2,
        delta=max(1, max(g.formal_degree() for g in gates))), gates)
    return _with_negated_twins(c) if zero else c


@pytest.mark.parametrize("domain", [Q, FP, P31], ids=["Q", "F1000003", "F2^31-1"])
def test_essential_scan_agrees_with_expansion_and_the_reference(point_calls, domain):
    kinds = Counter()
    for seed in range(36):
        c = _form_circuit(85_000 + seed, domain, zero=seed % 3 == 0)
        point_calls.clear()
        rep = pit_test(c)
        assert rep.verdict == ("nonzero" if not expand(c).is_zero() else "zero"), seed
        essential = _essential_reference(c)
        values = tuple(domain.coerce(i) for i in range(c.declared.delta + 1))
        first = next(((pt, i) for i, pt in enumerate(
            _reference_points(c.nvars, rep.ell_used, values))
            if all(v in essential for v, a in enumerate(pt) if a)
            and not domain.is_zero(evaluate_circuit(c, pt))), (None, None))
        assert (rep.witness, rep.witness_index) == first, seed
        if rep.witness is not None:
            points = hitting_set(c.nvars, c.declared.delta, rep.ell, domain).points
            assert points.index(rep.witness) == rep.witness_index
        else:
            assert len(point_calls) == _lattice_size(
                len(essential), c.declared.delta, rep.ell) - 1
        kinds[rep.verdict, len(essential) < c.nvars, rep.witness_index == 0] += 1
    # zero and nonzero verdicts, past the origin, with coordinates dropped
    assert kinds["zero", True, False] and kinds["nonzero", True, False]


def test_reduction_is_skipped_when_p_is_at_most_an_inner_degree(point_calls):
    # over F_3, d(x2^3)/dx2 = 3 x2^2 = 0: x2's column vanishes, yet the
    # outer z1 ignores x2^3, so delta = 1 < p holds
    F3 = PrimeField(3)
    v = [Polynomial.variable(F3, 2, i) for i in range(2)]
    c = _with_negated_twins(Circuit(F3, 2, DeclaredBounds(d=3, k=2, delta=1), [
        Gate(OuterExpr(2, [("input", 0)], 0), [v[0], v[1].pow(3)])]))
    assert pit._essential(_inners(c)) == [0, 1]
    assert pit_test(c).verdict == "zero"
    assert len(point_calls) == _lattice_size(2, 1, 2) - 1 == 2
    # the columns alone would drop x2
    assert _essential_reference(c) == [0]


def test_small_characteristic_scans_only_the_variables_that_occur(point_calls):
    # over F_3 with the input x3^3 + x1 the reduction fails, so I is every
    # variable that occurs: x2 occurs in no inner polynomial and is never set
    F3 = PrimeField(3)
    v = [Polynomial.variable(F3, 3, i) for i in range(3)]
    c = Circuit(F3, 3, DeclaredBounds(d=3, k=3, delta=2), [
        Gate(OuterExpr(3, [("input", 0), ("input", 1), ("mul", (0, 1))], 2),
             [v[2], _linear(F3, 3, {0: 1}, 1), v[2].pow(3) + v[0]])])
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell) == (
        (0, 0, 1), 5)
    assert point_calls == [(1, 0, 0), (2, 0, 0), (0, 0, 1)]
    point_calls.clear()
    zero = pit_test(_with_negated_twins(c))
    assert zero.verdict == "zero"
    # the lattice on the 2 variables that occur, not on all 3
    assert len(point_calls) == _lattice_size(2, 2, zero.ell_used) - 1 == 5
    assert all(pt[1] == 0 for pt in point_calls)
    assert rep.hitting_set_size == zero.hitting_set_size == len(
        hitting_set(3, 2, rep.ell, F3).points) == 27
    assert pit._essential(_inners(c)) == [0, 2]


@pytest.fixture
def essential_calls(monkeypatch):
    found = []
    real = pit._essential

    def spy(qs):
        found.append(real(qs))
        return found[-1]
    monkeypatch.setattr(pit, "_essential", spy)
    return found


def test_origin_verdicts_never_compute_the_essential_coordinates(
        essential_calls, point_calls):
    found = essential_calls
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(s, zero=s % 7 == 0) for s in range(60)]
    circuits += [corpus.random_class_circuit(10_000 + s, gamma_outer=True, zero=s % 7 == 0)
                 for s in range(20)]
    kinds = Counter()
    for c in circuits:
        found.clear()
        point_calls.clear()
        rep = pit_test(c)
        if rep.witness_index == 0:
            assert found == [] and point_calls == []
            kinds["origin"] += 1
            continue
        v0 = min(algdep._essential(_inners(c)), default=None)
        if rep.verdict == "nonzero" and [v for v, a in enumerate(rep.witness) if a] == [v0]:
            # a witness on the first essential axis: I unknown
            assert found == [] and all(
                [v for v, a in enumerate(pt) if a] == [v0] for pt in point_calls)
            kinds["axis"] += 1
            continue
        assert len(found) == 1
        if rep.verdict == "zero":
            assert len(point_calls) == _lattice_size(
                len(found[0]), c.declared.delta, rep.ell) - 1
            kinds["zero"] += 1
    assert kinds["origin"] and kinds["axis"] and kinds["zero"]


def test_a_dependency_that_fails_its_exact_check_raises(monkeypatch):
    # the kernel is re-checked before a coordinate is dropped, by a raise
    # that `python -O` keeps
    monkeypatch.setattr(linalg, "dependent_columns", lambda cols, p: iter([(2, {0: 1, 2: 1})]))
    with pytest.raises(AssertionError, match="internal bug"):
        pit._essential(_inners(_x1_x3_times_x2_x3(Q)))


# ----------------------------------------------------------------------
# the first essential axis, scanned before I is computed; no point sets a
# coordinate outside I

BIG = PrimeField(2147483659)  # the first prime above 2^31
DOMAINS = pytest.mark.parametrize("domain", [Q, FP, P31, BIG],
                                  ids=["Q", "F1000003", "F2^31-1", "first-prime-above-2^31"])


def _linear(domain, nvars, coeffs, const=0):
    """sum_v coeffs[v] x_v + const in nvars variables."""
    terms = {((v, 1),): a for v, a in coeffs.items()}
    terms[()] = const
    return Polynomial(domain, nvars, terms)


@DOMAINS
def test_an_axis_witness_never_computes_the_essential_coordinates(essential_calls,
                                                                  point_calls, domain):
    # x1 * (x2 + 1) + x3^2: nonzero at (1, 0, 0), the first point past the origin
    v = [Polynomial.variable(domain, 3, i) for i in range(3)]
    c = Circuit(domain, 3, DeclaredBounds(d=2, k=3, delta=3), [
        Gate("product", [v[0], _linear(domain, 3, {1: 1}, 1)]),
        Gate("product", [v[2].pow(2)])])
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell) == (
        (1, 0, 0), 1)
    assert essential_calls == []
    assert point_calls == [(1, 0, 0)]


@DOMAINS
def test_the_first_axis_is_the_first_variable_that_occurs(essential_calls, point_calls,
                                                          domain):
    # x1 does not occur: the first essential coordinate is x2, and a scan
    # that took x1's axis first would find I[0] != x1 and raise
    v = [Polynomial.variable(domain, 3, i) for i in range(3)]
    c = Circuit(domain, 3, DeclaredBounds(d=1, k=2, delta=2), [
        Gate("product", [v[1], _linear(domain, 3, {2: 1}, 1)])])
    assert algdep._essential(_inners(c))[:1] == [1]
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell) == (
        (0, 1, 0), 3)
    assert essential_calls == [] and point_calls == [(0, 1, 0)]
    zero = _with_negated_twins(c)
    point_calls.clear()
    assert pit_test(zero).verdict == "zero"
    assert essential_calls == [[1, 2]]
    assert len(point_calls) == _lattice_size(2, 2, 2) - 1 == 5
    assert all(pt[0] == 0 for pt in point_calls)


@DOMAINS
def test_an_empty_essential_set_stops_after_the_origin(essential_calls, point_calls,
                                                       domain):
    one = Polynomial.constant(domain, 3, 1)
    c = Circuit(domain, 3, DeclaredBounds(d=1, k=1, delta=2), [
        Gate("product", [one, one]), Gate("product", [one.scale(-1)])])
    assert algdep._essential(_inners(c)) == []
    rep = pit_test(c)
    assert (rep.verdict, rep.hitting_set_size) == ("zero", 27)
    assert essential_calls == [] and point_calls == []


@DOMAINS
def test_the_axis_spans_two_arrays(essential_calls, point_calls, domain):
    # x1 (x1 - 1)...(x1 - 5) (x2 + 1) with delta = 7 vanishes at x1 = 1..5:
    # the witness x1 = 6 lies deep in the axis, which is scanned whole
    # before I is computed
    c = Circuit(domain, 2, DeclaredBounds(d=1, k=2, delta=7), [
        Gate("product", [_linear(domain, 2, {0: 1}, -a) for a in range(6)]
             + [_linear(domain, 2, {1: 1}, 1)])])
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell)
    assert rep.witness_index == 6
    assert essential_calls == []
    assert point_calls == [(a, 0) for a in range(1, 7)]
    point_calls.clear()
    assert _check_against_reference([_with_negated_twins(c)]) == {"zero"}
    assert len(essential_calls) == 1
    assert point_calls[:7] == [(a, 0) for a in range(1, 8)]
    assert len(point_calls) == _lattice_size(2, 7, 2) - 1 == 35


@pytest.mark.parametrize("domain", [Q, FP], ids=["Q", "F1000003"])
def test_no_term_is_multiplied_by_a_column_outside_the_essential_coordinates(
        point_calls, domain):
    # x3 is 0 at every point the scan evaluates, so `Polynomial._value`
    # stops every term through x3 at it
    c = _x1_x3_times_x2_x3(domain)
    assert (pit_test(c).witness, pit_test(_with_negated_twins(c)).verdict) == (
        (1, 1, 0), "zero")
    assert point_calls and all(pt[2] == 0 for pt in point_calls)


def _zero_at_origin(c):
    """c minus its value at the origin: it goes past the origin."""
    value = evaluate_circuit(c, (c.domain.zero,) * c.nvars)
    return Circuit(c.domain, c.nvars, c.declared, c.gates + [
        Gate("product", [Polynomial.constant(c.domain, c.nvars, c.domain.neg(value))])])


@DOMAINS
def test_rewritten_circuits_with_scalar_call_arguments_agree_with_the_reference(
        value_counts, domain):
    circuits = [_zero_at_origin(_rewritten(s, domain)) for s in range(3)]
    circuits.append(_with_negated_twins(_rewritten(1, domain)))
    assert _check_against_reference(circuits) == {"zero", "later"}
    # past the origin, call nodes were evaluated at their scalar arguments
    assert any(other for _, other in value_counts)


# ----------------------------------------------------------------------
# the principal lattice: past the origin, the scan visits only the points
# of H on I whose value indices sum to at most delta

@pytest.mark.parametrize("nvars,ell,delta,first", [
    (0, 0, 3, 4096), (4, 0, 3, 4096), (4, 3, 0, 4096), (5, 2, 3, 4096),
    (5, 3, 2, 4096), (6, 4, 1, 5), (3, 3, 2, 5), (2, 2, 4, 7),
    (3, 3, 17, 4096), (4, 4, 3, 5), (6, 6, 6, 0)])
def test_the_lattice_is_the_grid_filtered_by_index_sum(nvars, ell, delta, first):
    # as the scan takes it, the first coordinate's axis and then the rest
    coords = range(first, first + nvars)
    points = list(pit._lattice(coords, ell, delta))
    if points:
        assert (list(pit._lattice(coords[:1], 1, delta))
                + list(islice(pit._lattice(coords, ell, delta), delta, None))) == points
    rows = [(0,) * nvars]
    for support, values in points:
        row = [0] * nvars
        for v, a in zip(support, values):
            row[v - first] = a
        rows.append(tuple(row))
    assert rows == _lattice_points(nvars, ell, tuple(range(delta + 1)))
    if ell >= min(nvars, delta):
        assert len(rows) == comb(nvars + delta, delta)


def _degree_bounded(rng, domain, m, delta):
    """A seeded polynomial of total degree <= delta in m variables: a product
    of affine factors plus sparse terms.  The factors x_v - w_b, b < a_v, for
    a random a with sum <= delta make a staircase whose first nonzero point
    of the grid is a itself; random affine factors fill the degree left."""
    a = [0] * m
    for _ in range(rng.randrange(delta + 1)):
        a[rng.randrange(m)] += 1
    factors = [_linear(domain, m, {v: 1}, -b) for v in range(m) for b in range(a[v])]
    for _ in range(rng.randrange(delta - sum(a) + 1)):
        factors.append(_linear(domain, m, {v: rng.randrange(-2, 3) for v in range(m)},
                               rng.randrange(-2, 3)))
    f = Polynomial.constant(domain, m, rng.randrange(1, 4))
    for factor in factors:
        f = f * factor
    for _ in range(rng.choice([0, 0, 1, 2])):
        mono = Counter(rng.choices(range(m), k=rng.randrange(delta + 1)))
        f = f + Polynomial(domain, m, {tuple(sorted(mono.items())): rng.randrange(-3, 4)})
    return f


@pytest.mark.parametrize("domain", [PrimeField(7), PrimeField(11), Q], ids=["F7", "F11", "Q"])
def test_the_first_nonzero_grid_point_lies_on_the_lattice(domain):
    # a polynomial of total degree <= delta that is nonzero on the grid
    # {w_0..w_delta}^m is first nonzero, in H's order, at a point whose
    # value indices sum to at most delta (Chung and Yao, 1977)
    rng = random.Random(44_000 + domain.characteristic)
    sums = Counter()
    for _ in range(600):
        m, delta = rng.randrange(1, 5), rng.randrange(1, 6)
        f = _degree_bounded(rng, domain, m, delta)
        assert f.degree() <= delta
        values = tuple(domain.scalars(delta + 1))
        first = next((pt for pt in _reference_points(m, m, values)
                      if not domain.is_zero(f.evaluate(pt))), None)
        if first is None:
            assert f.is_zero()
            continue
        total = sum(values.index(a) for a in first)
        assert total <= delta, (m, delta, f, first)
        sums["deep" if total == delta > 1 else "shallow"] += 1
    # many first nonzero points sit on the lattice's outer face
    assert sums["deep"] >= 40 and sums["shallow"], sums


def _first_on(c, ell, essential):
    """(witness, index) of the first point of the full grid H, in its order,
    supported on `essential` where `evaluate_circuit` is nonzero."""
    values = tuple(c.domain.scalars(c.declared.delta + 1))
    points = _reference_points(c.nvars, min(ell, c.nvars), values)
    return next(((pt, i) for i, pt in enumerate(points)
                 if all(v in essential for v, a in enumerate(pt) if a)
                 and not c.domain.is_zero(evaluate_circuit(c, pt))), (None, None))


@pytest.mark.parametrize("domain", [Q, FP, P31], ids=["Q", "F1000003", "F2^31-1"])
def test_lattice_witnesses_equal_the_full_grid_references(domain):
    corpus = _corpus()
    circuits = [_form_circuit(86_000 + s, domain, zero=s % 3 == 0) for s in range(24)]
    if domain == FP:
        circuits += [corpus.random_class_circuit(87_000 + s, gamma_outer=s % 2 == 1,
                                                 zero=s % 4 == 0) for s in range(16)]
    kinds = Counter()
    for c in circuits:
        rep = pit_test(c)
        essential = _essential_reference(c)
        assert (rep.witness, rep.witness_index) == _first_on(c, rep.ell, essential)
        if len(essential) == c.nvars:
            assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell)
        past_axis = (rep.witness_index or 0) > c.declared.delta
        kinds[rep.verdict, len(essential) < c.nvars, past_axis] += 1
    # planted zeros with |I| < N, and witnesses past H's first axis
    assert kinds["zero", True, False]
    assert kinds["nonzero", True, True] + kinds["nonzero", False, True]


@pytest.mark.parametrize("domain", [Q, FP], ids=["Q", "F1000003"])
@pytest.mark.parametrize("m,delta", [(2, 2), (3, 2), (2, 3), (4, 1)])
def test_the_lattice_rests_on_the_checked_degree_bound(domain, m, delta):
    # prod_{k=0..delta} (x1 + ... + xm - k) vanishes at every point of
    # L_delta, whose value indices sum to 0..delta, but not on the grid: its
    # degree is delta + 1, which a circuit declared at delta refuses
    factors = [_linear(domain, m, {v: 1 for v in range(m)}, -k) for k in range(delta + 1)]
    f = factors[0]
    for g in factors[1:]:
        f = f * g
    values = tuple(domain.scalars(delta + 1))
    assert all(domain.is_zero(f.evaluate(pt)) for pt in _lattice_points(m, m, values))
    assert any(not domain.is_zero(f.evaluate(pt)) for pt in _reference_points(m, m, values))
    with pytest.raises(BoundViolation, match="delta"):
        Circuit(domain, m, DeclaredBounds(d=1, k=1, delta=delta), [Gate("product", factors)])
    c = Circuit(domain, m, DeclaredBounds(d=1, k=1, delta=delta + 1), [Gate("product", factors)])
    rep = pit_test(c)
    assert (rep.witness, rep.witness_index) == _scalar_reference(c, rep.ell)
    assert rep.verdict == "nonzero"


def test_an_eight_variable_planted_zero_scans_the_lattice(essential_calls, point_calls):
    # (x1x2 + x3x4)(x5x6 + x7x8) and its negation, delta = 4: I is all eight
    # variables, so H on I is the grid {0..4}^8 of 390,625 points, and the
    # scan visits its C(8 + 4, 4) = 495 lattice points
    v = [Polynomial.variable(FP, 8, i) for i in range(8)]
    left, right = v[0] * v[1] + v[2] * v[3], v[4] * v[5] + v[6] * v[7]
    c = Circuit(FP, 8, DeclaredBounds(d=2, k=2, delta=4), [
        Gate("product", [left, right]), Gate("product", [left.scale(-1), right])])
    rep = pit_test(c)
    assert (rep.verdict, rep.ell_used, rep.hitting_set_size) == ("zero", 8, 5 ** 8)
    assert essential_calls == [list(range(8))]
    assert len(point_calls) == len(set(point_calls)) == comb(8 + 4, 4) - 1 == 494
    assert all(0 < sum(pt) <= 4 for pt in point_calls)
