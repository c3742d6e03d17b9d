"""Identity testing: support bounds, hitting sets, oracle, driver."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np
import pytest

from rankpit import pit
from rankpit.algdep import rewrite_circuit
from rankpit.circuit import (Circuit, DeclaredBounds, Gate, OuterExpr,
                             evaluate_circuit, expand, parse, serialize)
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import FieldTooSmall, InvalidParams, SetTooLarge
from rankpit.pit import (hitting_set, hitting_set_size, pit_test,
                         schwartz_zippel_test, support_bound)
from rankpit.poly import Polynomial, mono_support

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


def _fraction_text(value):
    """json.dumps default that accepts a Fraction and nothing else (not np.int64)."""
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
    # chunk's witness is re-evaluated, to cross-check the column path
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
# the chunked scan against the point-by-point reference

P31 = PrimeField(2 ** 31 - 1)  # the largest prime the int64 columns accept


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
def chunk_calls(monkeypatch):
    calls = []
    real = pit._evaluate_chunk

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(pit, "_evaluate_chunk", spy)
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


@pytest.mark.parametrize("nvars,ell,delta,chunk", [
    (0, 0, 3, 4096), (4, 0, 3, 4096), (4, 3, 0, 4096), (5, 2, 3, 4096),
    (6, 4, 1, 5), (3, 3, 2, 5), (2, 2, 4, 7)])
def test_point_chunks_concatenate_to_enumeration_order(monkeypatch, nvars, ell,
                                                       delta, chunk):
    # the last three cases split a support's delta^j value block across chunks
    monkeypatch.setattr(pit, "_CHUNK", chunk)
    chunks = list(pit._point_chunks(nvars, ell, delta))
    assert all(ch.dtype == np.int64 and 0 < len(ch) <= chunk for ch in chunks)
    rows = [(0,) * nvars] + [tuple(int(v) for v in row) for ch in chunks for row in ch]
    assert rows == list(_reference_points(nvars, ell, tuple(range(delta + 1))))


def test_array_scan_matches_scalar_loop_on_corpus(chunk_calls):
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(80_000 + s, gamma_outer=s % 2 == 1,
                                            zero=s % 3 == 0) for s in range(24)]
    circuits += [_rewritten(s, FP) for s in range(4)]
    circuits += [_with_negated_twins(_rewritten(s, FP)) for s in range(2)]
    assert any(op[0] == "call" for c in circuits[-6:] for g in c.gates
               if not g.is_product for op in g.outer.nodes)
    assert _check_against_reference(circuits) == {"zero", "origin", "later"}
    assert chunk_calls


def test_array_scan_exact_at_the_largest_accepted_prime(chunk_calls):
    # residues up to p - 1 = 2^31 - 2: every product must stay exact in int64
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
    assert _check_against_reference(circuits) == {"zero", "origin", "later"}
    assert chunk_calls


@pytest.mark.parametrize("domain", [PrimeField(2147483659), Q],
                         ids=["first-prime-above-2^31", "Q"])
def test_object_scan_beyond_the_int64_range(chunk_calls, domain):
    corpus = _corpus()
    circuits = [corpus.random_class_circuit(82_000 + s, domain=domain,
                                            gamma_outer=s % 2 == 1, zero=s % 3 == 0)
                for s in range(9)]
    circuits.append(Circuit(domain, 2, DeclaredBounds(d=1, k=2, delta=2), [
        Gate("product", [Polynomial.variable(domain, 2, 0),
                         Polynomial.variable(domain, 2, 1)])]))
    assert "later" in _check_against_reference(circuits)
    assert chunk_calls
    assert all(cols.dtype == object for _, cols in chunk_calls)


def test_scan_folds_each_gates_own_dag(monkeypatch, chunk_calls):
    # the column path evaluates the circuit it was given: no DAG is copied
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
    assert chunk_calls and any(op[0] == "call" for c in scanned for g in c.gates
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
# the column sum, reduced once at its end

def _dense_poly(domain, nvars, degree, coeff):
    """Every monomial of degree 1..degree, each with coefficient coeff."""
    return Polynomial(domain, nvars, {
        tuple(sorted(Counter(vs).items())): coeff for deg in range(1, degree + 1)
        for vs in combinations_with_replacement(range(nvars), deg)})


@pytest.mark.parametrize("sum_terms", [1 << 32, 3, 1], ids=["once", "every-3", "every-1"])
def test_deferred_column_sum_at_the_largest_accepted_prime(monkeypatch, chunk_calls,
                                                           sum_terms):
    # residues up to p - 1 in every term: the column sums are the largest
    # the int64 scan can meet; a smaller _SUM_TERMS reduces along the way
    monkeypatch.setattr(pit, "_SUM_TERMS", sum_terms)
    p = P31.p
    q = _dense_poly(P31, 4, 3, p - 1)
    r = _dense_poly(P31, 4, 2, p - 1) + Polynomial.variable(P31, 4, 3).scale(p - 2)
    assert len(q.terms) == 34
    nonzero = Circuit(P31, 4, DeclaredBounds(d=3, k=2, delta=5),
                      [Gate("product", [q, r])])
    assert _check_against_reference([nonzero, _with_negated_twins(nonzero)]) == {
        "zero", "later"}
    assert chunk_calls
