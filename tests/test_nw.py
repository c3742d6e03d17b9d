"""Design polynomial family, restrictions, projection, instantiation."""

from fractions import Fraction

import pytest

from rankpit.domains import PrimeField, Rationals
from rankpit.errors import ExpansionTooLarge, InvalidParams, SlotDied
from rankpit.nw import (HardPolyParams, NWParams, RestrictionSample,
                        extract_nw_projection, hard_polynomial,
                        instantiate_parameters, nw_polynomial, restrict,
                        sample_restriction, survival_experiment)
from rankpit.poly import Polynomial, mono_support

Q = Rationals()


def test_params_validation():
    with pytest.raises(InvalidParams):
        NWParams(2, 4, 1)  # q not prime
    with pytest.raises(InvalidParams):
        NWParams(3, 2, 1)  # n > q
    with pytest.raises(InvalidParams):
        NWParams(2, 5, 3)  # e > n: monomial count would break


def test_nw_smallest_instance():
    p = nw_polynomial(NWParams(2, 2, 1))
    base = NWParams(2, 2, 1)
    expected = {
        tuple(sorted([(base.var(0, 0), 1), (base.var(1, 0), 1)])),
        tuple(sorted([(base.var(0, 1), 1), (base.var(1, 1), 1)])),
    }
    assert set(p.terms) == expected
    assert all(c == 1 for c in p.terms.values())


def test_nw_monomial_count_is_q_to_e():
    for q in (2, 3, 5):
        for n in range(1, q + 1):
            for e in range(1, min(3, n) + 1):
                poly = nw_polynomial(NWParams(n, q, e))
                assert poly.num_terms() == q ** e
                assert all(len(mono) == n for mono in poly.terms)
                assert all(e_ == 1 for mono in poly.terms for _, e_ in mono)


def test_nw_e_zero_is_empty_sum():
    assert nw_polynomial(NWParams(2, 2, 0)).is_zero()


def test_nw_pairwise_intersection_below_e():
    for (n, q, e) in [(2, 3, 2), (3, 3, 2), (3, 5, 3), (5, 5, 2)]:
        poly = nw_polynomial(NWParams(n, q, e))
        monos = [set(mono_support(m)) for m in poly.terms]
        for i in range(len(monos)):
            for j in range(i + 1, len(monos)):
                assert len(monos[i] & monos[j]) < e


def test_hard_polynomial_counts():
    params = HardPolyParams(NWParams(2, 2, 1), gamma=2, p=Fraction(1, 2))
    h = hard_polynomial(params)
    assert h.num_terms() == 2 * 2 ** 2
    assert all(c == 1 for c in h.terms.values())
    assert h.nvars == 2 * 2 * 2


def test_hard_polynomial_gamma_one_matches_base():
    params = HardPolyParams(NWParams(2, 3, 1), gamma=1, p=Fraction(1, 2))
    h = hard_polynomial(params)
    base = nw_polynomial(NWParams(2, 3, 1))
    assert h.terms == base.terms  # same flat indices when gamma = 1


def test_hard_polynomial_term_cap():
    params = HardPolyParams(NWParams(3, 5, 2), gamma=4, p=Fraction(1, 2))
    with pytest.raises(ExpansionTooLarge):
        hard_polynomial(params, term_cap=100)


def test_restrict_examples():
    x1, x2, x3 = (Polynomial.variable(Q, 3, i) for i in range(3))
    p = x1 * x2 + x3
    assert restrict(p, {0, 1}) == x1 * x2
    assert restrict(p, set()) .is_zero()
    full = sample_restriction(3, Fraction(1), seed=5)
    assert len(full.alive) == 3
    assert restrict(p, full.alive) == p
    none_alive = sample_restriction(3, Fraction(1, 10 ** 9), seed=5)
    assert restrict(p, none_alive.alive) == p.homogeneous_component(0)


def test_restrict_commutes_with_homogeneous_component():
    import random
    from test_poly import random_poly
    rng = random.Random(131)
    for _ in range(25):
        p = random_poly(rng, Q, 5, 3)
        alive = {v for v in range(5) if rng.random() < 0.6}
        for i in range(4):
            assert restrict(p.homogeneous_component(i), alive) == \
                restrict(p, alive).homogeneous_component(i)


def test_projection_full_alive_is_identity():
    params = HardPolyParams(NWParams(2, 2, 1), gamma=2, p=Fraction(1, 2))
    h = hard_polynomial(params)
    sample = RestrictionSample(alive=frozenset(range(h.nvars)), seed=0,
                               p=Fraction(1, 2))
    proj = extract_nw_projection(restrict(h, sample.alive), params, sample)
    assert proj == nw_polynomial(params.base)


def test_projection_single_survivor_per_slot():
    params = HardPolyParams(NWParams(2, 2, 1), gamma=3, p=Fraction(1, 2))
    h = hard_polynomial(params)
    # keep copy 2 of every slot alive: projection must relabel onto the base
    alive = frozenset(params.var(i, j, 2)
                      for i in range(2) for j in range(2))
    sample = RestrictionSample(alive=alive, seed=0, p=Fraction(1, 2))
    proj = extract_nw_projection(restrict(h, alive), params, sample)
    assert proj == nw_polynomial(params.base)


def test_projection_dead_slot():
    params = HardPolyParams(NWParams(2, 2, 1), gamma=2, p=Fraction(1, 2))
    h = hard_polynomial(params)
    alive = frozenset(range(params.nvars)) - {params.var(0, 0, 0), params.var(0, 0, 1)}
    sample = RestrictionSample(alive=alive, seed=0, p=Fraction(1, 2))
    with pytest.raises(SlotDied) as info:
        extract_nw_projection(restrict(h, alive), params, sample)
    assert info.value.slot == (1, 0)


def test_survival_statistics_within_three_sigma():
    params = HardPolyParams(NWParams(2, 2, 1), gamma=3, p=Fraction(1, 2))
    stats = survival_experiment(params, trials=1000, seed=42)
    assert stats["within_3_sigma"]
    assert stats["expected_fraction"] == Fraction(1, 8)


def test_restriction_distribution_is_bernoulli():
    sample = sample_restriction(10_000, Fraction(3, 10), seed=9)
    frac = len(sample.alive) / 10_000
    assert abs(frac - 0.3) < 0.02


def test_nw_over_prime_field():
    f7 = PrimeField(7)
    poly = nw_polynomial(NWParams(2, 3, 1), f7)
    assert poly.num_terms() == 3
    assert all(c == 1 for c in poly.terms.values())


def test_instantiate_parameters_values():
    inst = instantiate_parameters(10_000)
    assert inst.r == 100
    assert inst.s == 1
    assert inst.q == 10_000 ** 10
    assert inst.valid
    lo, hi = (float(v) for v in inst.epsilon)
    assert abs(lo - 0.36841) < 1e-4 and abs(hi - 0.36841) < 1e-4
    assert inst.qr_constraint_ok

    bad = instantiate_parameters(100)
    lo, hi = (float(v) for v in bad.epsilon)
    assert abs(lo - 1.8421) < 1e-3
    assert not bad.valid


def test_instantiation_m_matches_display():
    inst = instantiate_parameters(10_000)
    lo, hi = (float(v) for v in inst.m)
    eps_mid = sum(float(v) for v in inst.epsilon) / 2
    reference = inst.nvars / 2 * (1 - eps_mid)
    assert abs(lo / reference - 1) < 1e-6
    assert abs(hi / reference - 1) < 1e-6
