"""The acceptance gate: one test per criterion, one printed verdict line each.

Every tolerance and corpus size is pinned here; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from _corpus import (dependent_tuple, random_class_circuit, random_poly,
                     rank_oracle_tuple, rewrite_fixture)
from rankpit import algdep, cli, nw, pit
from rankpit.circuit import expand, parse
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import NoAnnihilatorWithinCap
from rankpit.measure import (MeasureSpec, composition_upper_bound,
                             psp_dimension)
from rankpit.poly import Polynomial, compose, mono_support

Q = Rationals()
FP = PrimeField(1_000_003)
DATA = Path(__file__).parent / "data"


def _verdict(number: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ----------------------------------------------------------------------

def test_criterion_01_pit_agreement_corpus():
    """500 product + 100 general circuits: hitting-set verdict == expansion."""
    start = time.time()
    mismatches = 0
    for i in range(500):
        c = random_class_circuit(i, zero=(i % 7 == 0))
        if (pit.pit_test(c).verdict == "nonzero") == expand(c).is_zero():
            mismatches += 1
    for i in range(100):
        c = random_class_circuit(10_000 + i, gamma_outer=True, zero=(i % 7 == 0))
        if (pit.pit_test(c).verdict == "nonzero") == expand(c).is_zero():
            mismatches += 1
    elapsed = time.time() - start
    _verdict(1, mismatches == 0 and elapsed < 600,
             f"600 circuits, {mismatches} discrepancies, {elapsed:.1f}s (< 600s)")


def test_criterion_02_trailing_support_bound():
    """Trailing-monomial support <= ell on every nonzero corpus instance."""
    violations = 0
    max_ratio = Fraction(0)
    nonzero = 0
    for i in range(500):
        c = random_class_circuit(i, zero=(i % 7 == 0))
        p = expand(c)
        if p.is_zero():
            continue
        nonzero += 1
        ell = pit.support_bound(max(1, c.declared.d), max(1, c.declared.k),
                                max(1, c.top_fanin), max(1, c.declared.delta),
                                "general").ell
        supp = len(mono_support(p.trailing_monomial()))
        if supp > ell:
            violations += 1
        max_ratio = max(max_ratio, Fraction(supp, ell))
    for i in range(100):
        c = random_class_circuit(10_000 + i, gamma_outer=True, zero=(i % 7 == 0))
        p = expand(c)
        if p.is_zero():
            continue
        nonzero += 1
        ell = pit.support_bound(max(1, c.declared.d), max(1, c.declared.k),
                                max(1, c.top_fanin), max(1, c.declared.delta),
                                "general").ell
        supp = len(mono_support(p.trailing_monomial()))
        if supp > ell:
            violations += 1
        max_ratio = max(max_ratio, Fraction(supp, ell))
    _verdict(2, violations == 0,
             f"{nonzero} nonzero instances, 0 required violations, "
             f"max support/ell = {float(max_ratio):.4f} (slack, not violation)")


def test_criterion_03_rank_oracle_equivalence():
    """200 tuples: randomized rank == symbolic rank == annihilator oracle."""
    disagreements = 0
    for i in range(200):
        polys, _ = rank_oracle_tuple(i)
        t = len(polys)
        sym = algdep.algebraic_rank(polys, mode="symbolic").rank
        rand = algdep.algebraic_rank(polys, mode="randomized", seed=i).rank
        d = max(1, max(q.degree() for q in polys))
        try:
            algdep.find_annihilator(polys, cap=t * d ** (t - 1))
            expected = t - 1
        except NoAnnihilatorWithinCap:
            expected = t
        if not (rand == sym == expected):
            disagreements += 1
    _verdict(3, disagreements == 0, f"200 tuples, {disagreements} disagreements")


def test_criterion_04_annihilator_exactness():
    """Every annihilator composes to zero; E1 pins z1^2 - 2*z2 - z3 at deg 2."""
    x1, x2 = (Polynomial.variable(Q, 2, i) for i in range(2))
    e1 = [x1 + x2, x1 * x2, x1 * x1 + x2 * x2]
    ann = algdep.find_annihilator(e1)
    e1_ok = (ann.degree == 2 and ann.degree <= 12 and
             ann.R.to_text("z") == "z1^2 - 2*z2 - z3"
             and compose(ann.R, e1).is_zero())
    rng = random.Random(404)
    compose_failures = 0
    checked = 0
    for i in range(60):
        base = random_poly(rng, FP, 3, 2, allow_zero=False)
        f = random_poly(rng, FP, 1, rng.choice([1, 2]), allow_zero=False)
        qs = [base, compose(f, [base])]
        try:
            a = algdep.find_annihilator(qs)
        except NoAnnihilatorWithinCap:
            continue
        checked += 1
        if not compose(a.R, qs).is_zero():
            compose_failures += 1
    _verdict(4, e1_ok and compose_failures == 0 and checked >= 30,
             f"E1 = z1^2 - 2*z2 - z3 at degree 2 (cap 12); "
             f"{checked} random annihilators compose to 0 exactly")


def test_criterion_05_functional_dependence():
    """100 dependent tuples: exact witnesses, Newton agreement, <= 10 retries."""
    failures = 0
    for i in range(100):
        polys, basis = dependent_tuple(i)
        k = len(basis)
        d = max(1, max(q.degree() for q in polys))
        sampler = algdep.TranslationSampler.for_tuple(
            len(polys), k, d, seed=i, max_retries=10)
        try:
            a = algdep.sample_good_translation(polys, basis, sampler)
            witness = algdep.reconstruct_dependence(polys, basis, a)
        except Exception:
            failures += 1
            continue
        for idx, f_i in witness.F.items():
            d_i = witness.truncation_degrees[idx]
            lhs = polys[idx].translate(a)
            rhs = compose(f_i, [polys[b].translate(a) for b in basis])
            if lhs != rhs.homogeneous_le(d_i):
                failures += 1
                continue
            newton = algdep.newton_reconstruct(polys, basis, a, idx)
            if newton != lhs.homogeneous_le(d_i):
                failures += 1
    _verdict(5, failures == 0,
             "100 tuples: witness identities exact, Newton agrees, "
             "translations found within 10 retries")


def test_criterion_06_rewrite_identity():
    """50 fixtures: expand(C')(X) = expand(C)(X+a), inner counts <= k(d+1)."""
    failures = 0
    for i in range(50):
        c = rewrite_fixture(i)
        rewritten, a = algdep.rewrite_circuit(c, seed=i)
        if expand(rewritten) != expand(c).translate(a):
            failures += 1
            continue
        bound = c.declared.k * (c.declared.d + 1)
        if any(len(g.inner) > bound for g in rewritten.gates):
            failures += 1
    _verdict(6, failures == 0,
             "50 fixtures: exact translated-expansion identity, "
             "inner lists within k(d+1)")


def _random_measure_spec(rng, nvars, r=None, max_m=3):
    r = rng.randrange(0, 3) if r is None else r
    m = rng.randrange(0, max_m + 1)
    if r == 0:
        monos = [()]
    else:
        supports = list(combinations(range(nvars), r))
        rng.shuffle(supports)
        monos = [tuple((v, 1) for v in s) for s in supports[:rng.randrange(1, 4)]]
    return MeasureSpec.of(monos, m)


def test_criterion_07_measure_properties():
    """4 x 1000 randomized trials at N <= 10, m <= 3, r <= 2, plus Phi = 5."""
    v = [Polynomial.variable(Q, 4, i) for i in range(4)]
    worked = psp_dimension(v[0] * v[1] + v[2] * v[3],
                           MeasureSpec.of([((0, 1),), ((2, 1),)], 1)).dimension
    counterexamples = 0
    rng = random.Random(7_001)

    for _ in range(1000):  # subadditivity
        n = rng.randrange(4, 11)
        spec = _random_measure_spec(rng, n)
        p = random_poly(rng, FP, n, 3, max_terms=12)
        q = random_poly(rng, FP, n, 3, max_terms=12)
        alpha, beta = rng.randrange(1, 9), rng.randrange(1, 9)
        lhs = psp_dimension(p.scale(alpha) + q.scale(beta), spec).dimension
        if lhs > psp_dimension(p, spec).dimension + psp_dimension(q, spec).dimension:
            counterexamples += 1

    for _ in range(1000):  # homogeneous-component inequality
        n = rng.randrange(4, 11)
        spec = _random_measure_spec(rng, n)
        p = random_poly(rng, FP, n, 3, max_terms=12)
        full = psp_dimension(p, spec).dimension
        i = rng.randrange(0, p.degree() + 1)
        if psp_dimension(p.homogeneous_component(i), spec).dimension > full:
            counterexamples += 1

    for _ in range(1000):  # composition upper bound
        n = rng.randrange(6, 11)
        t = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        s = rng.randrange(1, 3)
        m_max = n // 2 - r * s
        if m_max < 0:
            continue
        m = rng.randrange(0, min(3, m_max) + 1)
        inner = []
        while len(inner) < t:
            cand = random_poly(rng, FP, n, 2, max_terms=8)
            if not cand.is_zero() and all(len(mono) <= s for mono in cand.terms):
                inner.append(cand)
        f = random_poly(rng, FP, t, 2, allow_zero=False)
        composed = compose(f, inner)
        spec = MeasureSpec.multilinear(n, r, m)
        if psp_dimension(composed, spec).dimension > \
                composition_upper_bound(n, t, r, m, s):
            counterexamples += 1

    for _ in range(1000):  # monotone in the derivative set
        n = rng.randrange(4, 11)
        r = rng.randrange(1, 3)
        supports = list(combinations(range(n), r))
        rng.shuffle(supports)
        cut = rng.randrange(1, min(4, len(supports)))
        small = [tuple((v, 1) for v in s) for s in supports[:cut]]
        extra = [tuple((v, 1) for v in s) for s in supports[cut:cut + 2]]
        if not extra:
            continue
        m = rng.randrange(0, 3)
        p = random_poly(rng, FP, n, 3, max_terms=12)
        a = psp_dimension(p, MeasureSpec.of(small, m)).dimension
        b = psp_dimension(p, MeasureSpec.of(small + extra, m)).dimension
        if a > b:
            counterexamples += 1

    _verdict(7, worked == 5 and counterexamples == 0,
             f"worked example dimension = {worked} (expected 5); "
             f"4 x 1000 trials, {counterexamples} counterexamples")


def test_criterion_08_nw_exactness():
    """Monomial counts, pairwise slot intersections, survival statistics."""
    count_ok = True
    inter_ok = True
    for q in (2, 3, 5):
        for n in range(1, q + 1):
            for e in range(1, min(3, n) + 1):
                poly = nw.nw_polynomial(nw.NWParams(n, q, e))
                if poly.num_terms() != q ** e:
                    count_ok = False
                if any(len(mono) != n or any(ex != 1 for _, ex in mono)
                       for mono in poly.terms):
                    count_ok = False
                monos = [set(mono_support(m)) for m in poly.terms]
                for i in range(len(monos)):
                    for j in range(i + 1, len(monos)):
                        if len(monos[i] & monos[j]) >= e:
                            inter_ok = False
    params = nw.HardPolyParams(nw.NWParams(2, 3, 1), gamma=3, p=Fraction(2, 5))
    stats = nw.survival_experiment(params, trials=1000, seed=2024)
    _verdict(8, count_ok and inter_ok and stats["within_3_sigma"],
             f"counts = q^e and pairwise intersections < e for q in {{2,3,5}}; "
             f"dead-slot rate {float(stats['dead_slot_fraction']):.4f} vs "
             f"(1-p)^gamma = {float(stats['expected_fraction']):.4f} "
             f"within 3 sigma = {3 * stats['sigma']:.4f}")


def test_criterion_09_hitting_set_cardinality():
    """|H| matches the counting formula on 20 combos; pinned ell = 208."""
    combos = [(2, 1, 1), (3, 2, 2), (4, 1, 3), (4, 3, 2), (5, 2, 2),
              (5, 4, 1), (6, 4, 2), (6, 2, 3), (7, 1, 4), (7, 3, 2),
              (8, 2, 2), (8, 5, 1), (9, 2, 2), (9, 1, 5), (10, 1, 3),
              (10, 2, 2), (3, 12, 1), (4, 7, 2), (2, 12, 2), (5, 5, 5)]
    assert len(combos) == 20
    formula_ok = True
    for (n, delta, ell) in combos:
        hs = pit.hitting_set(n, delta, ell, Q)
        expected = sum(math.comb(n, j) * delta ** j
                       for j in range(min(ell, n) + 1))
        if len(hs.points) != expected or len(set(hs.points)) != expected:
            formula_ok = False
        if any(sum(1 for v in pt if v != 0) > min(ell, n) for pt in hs.points):
            formula_ok = False
    pinned = pit.support_bound(1, 1, 1, 1, "general").ell
    _verdict(9, formula_ok and pinned == 208,
             f"20 combos match sum C(N,j)*delta^j exactly; "
             f"support_bound(1,1,1,1,general) = {pinned} (expected 208)")


def test_criterion_10_report_determinism(tmp_path):
    """Byte-identical JSON reports for a fixed seed across pools 1, 4, 8."""
    circuit_path = DATA / "e1_circuit.json"
    poly_path = tmp_path / "polys.json"
    poly_path.write_text(json.dumps({
        "field": {"type": "rational"},
        "nvars": 2,
        "polys": [
            [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}],
            [{"coeff": "1", "mono": {"1": 1, "2": 1}}],
            [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "1", "mono": {"2": 2}}],
        ],
    }))
    invocations = [
        ["pit", "--circuit", str(circuit_path), "--mode", "both",
         "--json", "--seed", "7"],
        ["rank", "--poly-file", str(poly_path), "--json", "--seed", "7"],
        ["depend", "--poly-file", str(poly_path), "--json", "--seed", "7"],
        ["measure", "--poly-file", str(poly_path), "--index", "2",
         "--r", "1", "--m", "1", "--json", "--seed", "7"],
    ]
    stable = True
    for argv in invocations:
        outputs = set()
        for workers in ("1", "4", "8"):
            for _ in range(2):
                code, out = cli.run(argv + ["--workers", workers])
                outputs.add(out)
        if len(outputs) != 1:
            stable = False
    _verdict(10, stable,
             "4 subcommands x pools {1,4,8} x 2 repeats: byte-identical JSON")
