"""Polynomial substrate: operation examples and algebraic properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankpit.circuit import Circuit, DeclaredBounds, Gate, OuterExpr, evaluate_circuit
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import (ArityMismatch, DimensionMismatch, ExpansionTooLarge,
                            InvalidParams, ZeroPolynomial)
from rankpit import poly
from rankpit.poly import Polynomial, compose, grlex_key, mono_degree, mono_from_dict

Q = Rationals()
F11 = PrimeField(11)
FP = PrimeField(1_000_003)


def x(i, nvars=2, dom=Q):
    return Polynomial.variable(dom, nvars, i)


def const(c, nvars=2, dom=Q):
    return Polynomial.constant(dom, nvars, c)


def random_poly(rng, dom, nvars, max_deg, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = {}
        for _ in range(rng.randrange(max_deg + 1)):
            v = rng.randrange(nvars)
            mono[v] = mono.get(v, 0) + 1
        c = rng.randrange(-4, 5)
        m = tuple(sorted(mono.items()))
        terms[m] = terms.get(m, 0) + c
    return Polynomial(dom, nvars, terms)


def _reference_mono_mul(a, b):
    """The product of two monomials, by a dict and a sort."""
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


# ----------------------------------------------------------------------
# trailing monomial

def test_trailing_monomial_examples():
    p = x(0) * x(0) + x(0) * x(1)
    assert p.trailing_monomial() == ((0, 1), (1, 1))  # x1*x2 below x1^2
    assert (const(1) + x(0)).trailing_monomial() == ()
    p2 = x(0).pow(3) * x(1) + x(0) * x(1).pow(3) + x(1)
    assert p2.trailing_monomial() == ((1, 1),)


def test_trailing_monomial_zero_errors():
    with pytest.raises(ZeroPolynomial):
        Polynomial.zero(Q, 2).trailing_monomial()


def test_trailing_monomial_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng, Q, 3, 3)
        q = random_poly(rng, Q, 3, 3)
        if p.is_zero() or q.is_zero():
            continue
        lhs = (p * q).trailing_monomial()
        rhs = _reference_mono_mul(p.trailing_monomial(), q.trailing_monomial())
        assert lhs == rhs


def test_order_total_and_one_minimal():
    rng = random.Random(3)
    monos = set()
    for _ in range(40):
        p = random_poly(rng, Q, 3, 4)
        monos.update(p.terms)
    for m in monos:
        assert grlex_key(()) <= grlex_key(m)
        assert grlex_key(m) < grlex_key(_reference_mono_mul(m, ((0, 1),)))


# ----------------------------------------------------------------------
# homogeneous components

def test_homogeneous_component_examples():
    p = const(1) + x(0) + x(0) * x(0)
    assert p.homogeneous_component(1) == x(0)
    cube = (x(0) + const(1)).pow(3)
    assert cube.homogeneous_component(2) == x(0) * x(0) * 3
    assert cube.homogeneous_component(9).is_zero()


def test_homogeneous_decomposition_identity():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng, Q, 3, 4)
        total = Polynomial.zero(Q, 3)
        for i in range(p.degree() + 1):
            total = total + p.homogeneous_component(i)
        assert total == p
        assert p.homogeneous_component(p.degree() + 1).is_zero()


def test_homogeneous_of_product_convolves():
    rng = random.Random(13)
    for _ in range(40):
        p = random_poly(rng, Q, 3, 3)
        q = random_poly(rng, Q, 3, 3)
        prod = p * q
        for i in range(p.degree() + q.degree() + 1):
            acc = Polynomial.zero(Q, 3)
            for j in range(i + 1):
                acc = acc + p.homogeneous_component(j) * q.homogeneous_component(i - j)
            assert acc == prod.homogeneous_component(i)


def test_h_le_ge_split():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, Q, 3, 4)
        comps = [p.homogeneous_component(j) for j in range(p.degree() + 1)]
        for i in range(6):
            low = sum(comps[:i + 1], Polynomial.zero(Q, 3))
            high = sum(comps[i + 1:], Polynomial.zero(Q, 3))
            assert p.homogeneous_le(i) == low
            assert low + high == p


# ----------------------------------------------------------------------
# translation

def test_translate_examples():
    p = x(0) * x(0)
    assert p.translate([1, 0]) == p + x(0) * 2 + const(1)
    q = x(0) * x(1)
    expected = Polynomial.from_text(Q, 2, "x1*x2 + 2*x1 + x2 + 2")
    assert q.translate([1, 2]) == expected
    assert q.translate([0, 0]) == q


def test_translate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        x(0).translate([1])


def test_translate_roundtrip_and_degree():
    rng = random.Random(19)
    for dom in (Q, FP):
        for _ in range(30):
            p = random_poly(rng, dom, 3, 3)
            a = [dom.coerce(rng.randrange(-3, 7)) for _ in range(3)]
            back = [dom.neg(v) for v in a]
            assert p.translate(a).translate(back) == p
            assert p.translate(a).degree() == p.degree()


# ----------------------------------------------------------------------
# derivatives, projection, evaluation

def test_partial_derivative_examples():
    assert (x(0) * x(1)).partial_derivative(((0, 1),)) == x(1)
    assert x(0).pow(3).partial_derivative(((0, 2),)) == x(0) * 6
    assert x(0).partial_derivative(((0, 2),)).is_zero()


def test_partial_derivative_vanishes_in_characteristic_p():
    f5 = PrimeField(5)
    a, b = x(0, dom=f5), x(1, dom=f5)
    assert a.pow(5).partial_derivative(((0, 1),)).is_zero()
    assert (a.pow(5) * b + a).partial_derivative(((0, 1),)) == const(1, dom=f5)


@pytest.mark.parametrize("dom", [Q, PrimeField(5), PrimeField(3)], ids=str)
def test_partial_derivative_equals_one_variable_steps(dom):
    rng = random.Random(47)
    for _ in range(60):
        p = random_poly(rng, dom, 3, 7, max_terms=8)
        gamma = tuple((v, g) for v in range(3) if (g := rng.randrange(3)))
        d = p.partial_derivative(gamma)
        steps = p
        for v, g in gamma:
            for _ in range(g):
                steps = steps.partial_derivative(((v, 1),))
        assert d == steps
        # stored in normal form: no term with a vanished coefficient
        assert d == Polynomial(dom, 3, dict(d.terms))


def test_evaluate_examples():
    assert (x(0) + x(1)).evaluate([1, 2]) == 3
    p = x(0) * x(1) + const(5)
    assert p.evaluate([0, 0]) == 5
    pm = x(0, dom=F11) * x(1, dom=F11) - const(1, dom=F11)
    assert pm.evaluate([3, 4]) == 0


def test_evaluate_huge_exponent_is_a_modular_power():
    p = (1 << 61) - 1
    big = Polynomial(PrimeField(p), 1, {((0, 10**9),): 1})
    for a in (0, 1, 2, 12345, p - 1):
        assert big.evaluate([a]) == pow(a, 10**9, p)


# ----------------------------------------------------------------------
# evaluation against the domain-call loop

def _reference_evaluate(poly, point):
    """The value at `point` by the domain's own coerce, mul, pow and add."""
    dom = poly.domain
    pt = [dom.coerce(x) for x in point]
    total = dom.zero
    for mono, c in poly.terms.items():
        term = c
        for v, e in mono:
            term = dom.mul(term, dom.pow(pt[v], e))
            if dom.is_zero(term):
                break
        total = dom.add(total, term)
    return total


def _reference_circuit(c, point):
    """evaluate_circuit by the reference loop: products and DAG folds over the
    domain, call nodes through `_reference_evaluate`."""
    dom = c.domain
    total = dom.zero
    for g in c.gates:
        vals = [_reference_evaluate(q, point) for q in g.inner]
        if g.is_product:
            value = dom.one
            for v in vals:
                value = dom.mul(value, v)
        else:
            value = g.outer._fold(vals, lambda k: k, _reference_evaluate, dom.add,
                                  dom.mul)
        total = dom.add(total, value)
    return total


EVAL_DOMAINS = [Q, PrimeField(7), FP, PrimeField(2**64 - 59)]
EVAL_IDS = ["Q", "F7", "F1000003", "2^64-59"]


def _eval_poly(rng, dom, nvars, max_deg=4, max_terms=6):
    """A random polynomial whose coefficients include p - 1, negatives and
    (over Q) proper fractions; nvars = 0 gives a constant."""
    p = dom.characteristic
    coeffs = [1, 2, -1, -3, (p or 1 << 70) - 1, Fraction(5, 2) if not p else 2**40 + 1]
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = {}
        for _ in range(rng.randrange(max_deg + 1) if nvars else 0):
            v = rng.randrange(nvars)
            mono[v] = mono.get(v, 0) + 1
        terms[tuple(sorted(mono.items()))] = rng.choice(coeffs)
    return Polynomial(dom, nvars, terms)


def _eval_point(rng, dom, nvars):
    """Coordinates of every kind `coerce` accepts: Fraction (denominator
    prime to p), negative, bool, zero and integers at or above p."""
    p = dom.characteristic
    kinds = [0, 1, -1, -12345, True, False, Fraction(3, 4), Fraction(-7, 2),
             rng.randrange(1, 1 << 70)]
    if p:
        kinds += [p, p + 1, 2 * p - 1, -p - 2]
    return [rng.choice(kinds) for _ in range(nvars)]


@pytest.mark.parametrize("dom", EVAL_DOMAINS, ids=EVAL_IDS)
def test_evaluate_matches_the_domain_call_loop(dom):
    rng = random.Random(dom.characteristic)
    polys = [Polynomial.zero(dom, 3), Polynomial.zero(dom, 0),
             Polynomial.constant(dom, 0, 5), _eval_poly(rng, dom, 0)]
    polys += [_eval_poly(rng, dom, rng.randrange(1, 5)) for _ in range(60)]
    for poly in polys:
        for _ in range(8):
            point = _eval_point(rng, dom, poly.nvars)
            got, want = poly.evaluate(point), _reference_evaluate(poly, point)
            assert type(got) is type(want) and got == want, (poly.to_text(), point)


@pytest.mark.parametrize("dom", EVAL_DOMAINS, ids=EVAL_IDS)
def test_evaluate_circuit_matches_the_domain_call_loop(dom):
    rng = random.Random(dom.characteristic + 1)
    for nvars in (0, 1, 2, 4):
        for _ in range(6):
            inner = [_eval_poly(rng, dom, nvars, max_deg=2) for _ in range(3)]
            call = _eval_poly(rng, dom, 2, max_deg=2)
            dag = OuterExpr(3, [("input", 0), ("input", 1), ("input", 2),
                                ("const", dom.coerce(rng.choice([-2, 3, 2**70]))),
                                ("mul", (0, 3)), ("call", call, (1, 2)),
                                ("add", (4, 5, 2))], 6)
            gates = [Gate("product", inner), Gate(dag, inner),
                     Gate("product", [Polynomial.zero(dom, nvars)])]
            c = Circuit(dom, nvars, DeclaredBounds(d=10, k=3, delta=100), gates)
            for _ in range(5):
                point = _eval_point(rng, dom, nvars)
                got, want = evaluate_circuit(c, point), _reference_circuit(c, point)
                assert type(got) is type(want) and got == want
                for g in gates:
                    assert g.evaluate(point) == _reference_circuit(
                        Circuit(dom, nvars, c.declared, [g]), point)


@pytest.mark.parametrize("dom", [Q, FP], ids=["Q", "Fp"])
def test_wrong_point_length_raises_from_gate_and_circuit(dom):
    g = Gate("product", [x(0, dom=dom), x(1, dom=dom)])
    c = Circuit(dom, 2, DeclaredBounds(d=1, k=2, delta=2), [g])
    for point in ([1], [1, 2, 3], []):
        with pytest.raises(DimensionMismatch):
            g.evaluate(point)
        with pytest.raises(DimensionMismatch):
            evaluate_circuit(c, point)


def test_evaluate_circuit_coerces_each_coordinate_once(monkeypatch):
    nvars = 5
    rng = random.Random(3)
    gates = [Gate("product", [_eval_poly(rng, FP, nvars, max_deg=2) for _ in range(3)])
             for _ in range(4)]
    c = Circuit(FP, nvars, DeclaredBounds(d=10, k=3, delta=100), gates)
    calls = []
    real = PrimeField.coerce

    def counting(self, value):
        calls.append(value)
        return real(self, value)
    monkeypatch.setattr(PrimeField, "coerce", counting)
    point = [3, -1, True, FP.p + 2, Fraction(1, 2)]
    value = evaluate_circuit(c, point)
    assert len(calls) == nvars
    monkeypatch.undo()
    assert value == _reference_circuit(c, point)


# ----------------------------------------------------------------------
# multiplication against the domain-call loop

def _reference_mul(a, b, term_cap=None, degree_cap=None) -> dict:
    """The product loop on domain calls that Polynomial.mul replaced."""
    dom = a.domain
    out = {}
    for ma, ca in a.terms.items():
        da = mono_degree(ma)
        for mb, cb in b.terms.items():
            if degree_cap is not None and da + mono_degree(mb) > degree_cap:
                continue
            m = _reference_mono_mul(ma, mb)
            s = dom.add(out.get(m, dom.zero), dom.mul(ca, cb))
            if dom.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        if term_cap is not None and len(out) > term_cap:
            raise ExpansionTooLarge(len(out), term_cap)
    return out


_MONO = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: mono_from_dict(dict(enumerate(e))))
_COEFF = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 6]))


@st.composite
def _poly_pair(draw):
    """Two polynomials in 3 variables over one field; small coefficient and
    exponent ranges make products collide and cancel."""
    dom = draw(st.sampled_from([Q, FP, PrimeField((1 << 61) - 1)]))
    return tuple(Polynomial(dom, 3, draw(st.dictionaries(_MONO, _COEFF, max_size=6)))
                 for _ in range(2))


# x*y cancels mod p (1 + (p - 1) = p) on the second row and comes back on
# the third: a reduction deferred past the add would keep it in place
_CANCEL_AND_RETURN = (Polynomial.from_text(FP, 3, "x1 + x2 + 1"),
                      Polynomial.from_text(FP, 3, "x2 - x1 + x1*x2"))


@settings(max_examples=150, deadline=None)
@given(_poly_pair(), st.sampled_from([None, 0, 1, 2, 3, 5]),
       st.sampled_from([None, 1, 3, 6]))
@example(_CANCEL_AND_RETURN, None, None)
@example(_CANCEL_AND_RETURN, None, 4)
def test_mul_matches_reference_loop(pair, degree_cap, term_cap):
    a, b = pair
    try:
        expected = _reference_mul(a, b, term_cap, degree_cap)
    except ExpansionTooLarge as err:
        with pytest.raises(ExpansionTooLarge) as info:
            a.mul(b, term_cap=term_cap, degree_cap=degree_cap)
        assert (info.value.terms, info.value.cap) == (err.terms, err.cap)
        return
    got = a.mul(b, term_cap=term_cap, degree_cap=degree_cap).terms
    assert list(got.items()) == list(expected.items())
    assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]


def _reference_int_terms(terms: dict, p: int) -> tuple[list, int]:
    """The conversion `mul` once ran on both operands on every call: the
    residues with denominator 1 over F_p, or over Q the numerators over the
    lcm of the denominators."""
    if p:
        return list(terms.items()), 1
    den = math.lcm(*(c.denominator for c in terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()], den


@settings(max_examples=100, deadline=None)
@given(_poly_pair())
@example((Polynomial.zero(Q, 3), Polynomial.from_text(Q, 3, "1/6*x1 - 2/3*x2^2 + 5/1000000007")))
def test_int_form_is_the_conversion_computed_once(pair):
    for poly in pair:
        form = poly._int_form()
        assert poly._int_form() is form
        terms, den = form
        expected = _reference_int_terms(poly.terms, poly.domain.characteristic)
        assert ([(m, c) for m, _, c in terms], den) == expected
        assert [d for _, d, _ in terms] == [mono_degree(m) for m in poly.terms]
        assert all(type(c) is int for _, _, c in terms) and type(den) is int


# ----------------------------------------------------------------------
# composition

def test_compose_examples():
    f = Polynomial.from_text(Q, 2, "z1^2 - 2*z2", var_prefix="z")
    assert compose(f, [x(0) + x(1), x(0) * x(1)]) == x(0).pow(2) + x(1).pow(2)
    proj = Polynomial.variable(Q, 2, 0)
    assert compose(proj, [x(0) * x(1), x(1)]) == x(0) * x(1)
    ann = Polynomial.from_text(Q, 2, "z2 - z1^2", var_prefix="z")
    assert compose(ann, [x(0), x(0).pow(2)]).is_zero()


def test_compose_arity_mismatch():
    f = Polynomial.from_text(Q, 2, "z1 + z2", var_prefix="z")
    with pytest.raises(ArityMismatch):
        compose(f, [x(0)])


def test_compose_term_cap():
    f = Polynomial.variable(Q, 1, 0)
    big = sum((x(i, nvars=8) for i in range(8)), Polynomial.zero(Q, 8)).pow(3)
    with pytest.raises(ExpansionTooLarge):
        compose(f.pow(4), [big], term_cap=10)


def test_compose_evaluate_homomorphism():
    rng = random.Random(29)
    for dom in (Q, FP):
        for _ in range(25):
            f = random_poly(rng, dom, 2, 2)
            qs = [random_poly(rng, dom, 3, 2) for _ in range(2)]
            pt = [dom.coerce(rng.randrange(9)) for _ in range(3)]
            lhs = compose(f, qs).evaluate(pt)
            rhs = f.evaluate([q.evaluate(pt) for q in qs])
            assert lhs == rhs


def _power_products(f, qs):
    """sum of c * prod q_j^e_j over the terms of f, built term by term."""
    dom, nvars = qs[0].domain, qs[0].nvars
    direct = Polynomial.zero(dom, nvars)
    for mono, c in f.terms.items():
        piece = Polynomial.constant(dom, nvars, c)
        for v, e in mono:
            piece = piece * qs[v].pow(e)
        direct = direct + piece
    return direct


def test_compose_by_horner_matches_power_products():
    """compose equals the sum of c * prod q_j^e_j built term by term, and
    with a degree cap its truncation."""
    rng = random.Random(43)
    for dom in (Q, F11):
        for _ in range(25):
            f = random_poly(rng, dom, 3, 4)
            qs = [random_poly(rng, dom, 2, 2) for _ in range(3)]
            direct = _power_products(f, qs)
            assert compose(f, qs) == direct
            assert compose(f, qs, degree_cap=3) == direct.homogeneous_le(3)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_compose_with_rational_denominators(dom):
    """The outer and each inner carry their own denominators (1/2, 2/3, 5/7,
    -3/4): the packed kernel brings the inners to one denominator and scales
    the outer's terms, and the result is still the power-product sum."""
    rng = random.Random(53)
    dens = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(-3, 4)]
    for _ in range(20):
        f = (random_poly(rng, dom, 3, 4).scale(dens[0])
             + random_poly(rng, dom, 3, 2).scale(dens[1]))
        qs = [random_poly(rng, dom, 2, 2).scale(dens[j + 1])
              + random_poly(rng, dom, 2, 1).scale(dens[j]) for j in range(3)]
        direct = _power_products(f, qs)
        assert compose(f, qs) == direct
        for cap in (0, 2, 3):
            assert compose(f, qs, degree_cap=cap) == direct.homogeneous_le(cap)


def test_compose_packing_edges():
    """Exponents that fill their packed field exactly, a lone variable at
    the top of a 2000-variable ring, constant and zero outers, inners with
    constant terms, and a degree cap of 0."""
    z3 = Polynomial(Q, 1, {((0, 3),): 1})
    # x1^3 fills its 2-bit field
    assert poly._Layout([x(0)._int_form()[0]], 3).width == 2
    assert compose(z3, [x(0)]) == x(0).pow(3)
    assert compose(z3, [x(0) + x(1)]) == (x(0) + x(1)).pow(3)
    n = 2000
    last = x(n - 1, nvars=n)
    f = Polynomial.from_text(Q, 1, "z1^3 - 2*z1 + 1/3", var_prefix="z")
    shifted = last + const(2, nvars=n)
    assert compose(f, [shifted]) == _power_products(f, [shifted])
    p = last.pow(3).scale(Fraction(5, 2)) - last
    point = [0] * (n - 1) + [Fraction(-1, 3)]
    assert p.translate(point) == _reference_translate(p, point)
    for dom in (Q, FP):
        inners = [x(0, dom=dom) + const(3, dom=dom), x(1, dom=dom) - const(Fraction(1, 2), dom=dom)]
        assert compose(const(5, dom=dom), inners) == const(5, dom=dom)
        assert compose(Polynomial.zero(dom, 2), inners).is_zero()
        assert compose(Polynomial.zero(dom, 2), inners, degree_cap=0).is_zero()
        f = Polynomial.from_text(dom, 2, "z1*z2 + z2^2 - 4", var_prefix="z")
        direct = _power_products(f, inners)
        assert compose(f, inners) == direct
        assert compose(f, inners, degree_cap=0) == direct.homogeneous_le(0)
        assert compose(f, [const(2, dom=dom), const(3, dom=dom)]) == const(11, dom=dom)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_a_wide_ring_packs_only_the_variables_that_occur(dom, monkeypatch):
    """In a 10^6-variable ring, mul, pow, compose and translate of
    polynomials in x1 and x_N equal the same operations in a 2-variable
    ring, x2 relabelled x_N, and every packed layout has a field for each
    of the two variables that occur and no other: its shift is width * 2."""
    n = 10**6
    layouts = []

    class Recorded(poly._Layout):
        def __init__(self, *args):
            super().__init__(*args)
            layouts.append(self)

    monkeypatch.setattr(poly, "_Layout", Recorded)

    def wide(p):
        return Polynomial(p.domain, n, {tuple((v and n - 1, e) for v, e in m): c
                                        for m, c in p.terms.items()})

    f = Polynomial.from_text(dom, 2, "1/2*x1^2*x2 - 3*x2 + 5")
    g = Polynomial.from_text(dom, 2, "x1 - 2/3*x2^2")
    outer = Polynomial.from_text(dom, 2, "z1*z2 - z2^2 + 7", var_prefix="z")
    point = [Fraction(0)] * n
    point[0], point[-1] = Fraction(1, 2), Fraction(-3)
    narrow = [f.mul(g), f.mul(g, degree_cap=3), f.pow(3), compose(outer, [f, g]),
              compose(outer, [f, g], degree_cap=2), f.translate([Fraction(1, 2), -3])]
    layouts.clear()
    f, g = wide(f), wide(g)
    got = [f.mul(g), f.mul(g, degree_cap=3), f.pow(3), compose(outer, [f, g]),
           compose(outer, [f, g], degree_cap=2), f.translate(point)]
    assert [list(p.terms.items()) for p in got] == [list(wide(p).terms.items()) for p in narrow]
    assert {layout.frame for layout in layouts} == {(0, n - 1)}
    assert all(layout.shift == 2 * layout.width for layout in layouts)
    # a coordinate of a variable that does not occur is still coerced
    point[5] = Fraction(1, FP.p) if dom == FP else "not a number"
    with pytest.raises(ZeroDivisionError if dom == FP else ValueError):
        f.translate(point)


def _reference_horner(outer, inners, term_cap=None, degree_cap=None):
    """Horner's rule on `Polynomial.mul` and `+`, the composition loop that the
    packed kernel replaced: the parts by the largest variable, summed as
    parts[0] + (parts[1] + (...))."""
    dom, nvars = inners[0].domain, inners[0].nvars

    def horner(terms):
        v = max((mono[-1][0] for mono in terms if mono), default=-1)
        if v < 0:
            return Polynomial.constant(dom, nvars, terms.get((), 0))
        by_exp = {}
        for mono, c in terms.items():
            e = mono[-1][1] if mono and mono[-1][0] == v else 0
            by_exp.setdefault(e, {})[mono[:-1] if e else mono] = c
        acc = horner(by_exp[max(by_exp)])
        for e in range(max(by_exp) - 1, -1, -1):
            acc = acc.mul(inners[v], term_cap=term_cap, degree_cap=degree_cap)
            if e and e in by_exp:
                acc = acc + horner(by_exp[e])
                if term_cap is not None and acc.num_terms() > term_cap:
                    raise ExpansionTooLarge(acc.num_terms(), term_cap)
        if 0 not in by_exp:
            return acc
        total = acc + horner(by_exp[0])
        if term_cap is not None and total.num_terms() > term_cap:
            raise ExpansionTooLarge(total.num_terms(), term_cap)
        return total

    return horner(outer.terms)


@pytest.mark.parametrize("dom", [Q, F11, FP], ids=str)
def test_compose_terms_come_in_horner_order(dom):
    """Term for term and in order, compose and translate give what Horner's
    rule on `Polynomial.mul` and `+` gives, and a term cap stops both at
    the same count."""
    rng = random.Random(59)
    for _ in range(40):
        f = random_poly(rng, dom, 3, 4).scale(rng.choice([1, Fraction(3, 4)]))
        qs = [random_poly(rng, dom, 3, 2).scale(rng.choice([1, Fraction(-2, 5)]))
              for _ in range(3)]
        cap, term_cap = rng.choice([None, 0, 2, 3]), rng.choice([None, 4, 12])
        try:
            expected = _reference_horner(f, qs, term_cap, cap)
        except ExpansionTooLarge as err:
            with pytest.raises(ExpansionTooLarge) as info:
                compose(f, qs, term_cap=term_cap, degree_cap=cap)
            assert (info.value.terms, info.value.cap) == (err.terms, err.cap)
        else:
            got = compose(f, qs, term_cap=term_cap, degree_cap=cap)
            assert list(got.terms.items()) == list(expected.terms.items())
        a = [rng.choice([0, 2, Fraction(-1, 3)]) for _ in range(3)]
        shifts = [x(j, 3, dom) + const(aj, 3, dom) for j, aj in enumerate(a)]
        expected = _reference_horner(f, shifts)
        assert list(f.translate(a).terms.items()) == list(expected.terms.items())


# ----------------------------------------------------------------------
# ring axioms, exactness

def test_ring_axioms_random():
    rng = random.Random(31)
    for dom in (Q, F11):
        for _ in range(40):
            p = random_poly(rng, dom, 3, 3)
            q = random_poly(rng, dom, 3, 3)
            r = random_poly(rng, dom, 3, 3)
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p + (-p) == Polynomial.zero(dom, 3)


def test_exact_rational_arithmetic():
    third = const(Fraction(1, 3))
    assert (third * 3) == const(1)
    p = const(Fraction(1, 3)) + const(Fraction(1, 6))
    assert p == const(Fraction(1, 2))


# ----------------------------------------------------------------------
# text and JSON forms

def test_text_form_canonical():
    p = x(0).pow(2) - x(0) * x(1) * 2 + const(Fraction(3, 4))
    assert p.to_text() == "x1^2 - 2*x1*x2 + 3/4"
    assert Polynomial.zero(Q, 2).to_text() == "0"
    assert Polynomial.from_text(Q, 2, p.to_text()) == p


def test_text_descending_default_order():
    p = x(1) + x(0) + x(0) * x(1)
    assert p.to_text() == "x1*x2 + x1 + x2"


def test_json_terms_roundtrip():
    rng = random.Random(37)
    for dom in (Q, F11):
        for _ in range(25):
            p = random_poly(rng, dom, 4, 3)
            items = p.terms_to_json()
            assert Polynomial.terms_from_json(dom, 4, items) == p


def test_dilate_matches_component_scaling():
    rng = random.Random(43)
    for _ in range(20):
        p = random_poly(rng, Q, 3, 4)
        z = Fraction(rng.randrange(1, 5))
        dil = p.dilate(z)
        acc = Polynomial.zero(Q, 3)
        for i in range(p.degree() + 1):
            acc = acc + p.homogeneous_component(i).scale(z ** i)
        assert dil == acc


def test_from_text_rejects_garbage():
    import rankpit.errors as errors
    with pytest.raises(errors.InvalidParams):
        Polynomial.from_text(Q, 2, "x1 + * x2")
    with pytest.raises(errors.InvalidParams):
        Polynomial.from_text(Q, 2, "x9")  # out of range
    with pytest.raises(ValueError):
        Polynomial.from_text(Q, 2, "spam*x1")


@pytest.mark.parametrize("nvars, text", [(12, "x1_0"), (3, "x01^0_2"), (3, "x1^+2")])
def test_from_text_refuses_non_canonical_decimals(nvars, text):
    """int() reads these as x10, x1^2 and x1^2; as in terms_from_json, a
    variable index or exponent must be written as str() writes it."""
    import rankpit.errors as errors
    with pytest.raises(errors.InvalidParams):
        Polynomial.from_text(Q, nvars, text)


def test_non_canonical_monomials_are_refused():
    # a monomial names each variable once, ascending: x2*x1 or x1*x1^2
    # would not compare equal to x1*x2 or x1^3 built in order
    for mono in (((1, 1), (0, 1)), ((0, 1), (0, 2))):
        with pytest.raises(InvalidParams):
            Polynomial(Q, 2, {mono: 1})
    # a JSON variable key is the 1-based index as `terms_to_json` writes it;
    # int() would read "01" as x1, dropping a factor, and "1_0" as x10
    for mono in ({"1": 1, "01": 2}, {"1_0": 1}, {" 1": 1}, {"+1": 1}):
        with pytest.raises(InvalidParams):
            Polynomial.terms_from_json(Q, 10, [{"coeff": "1", "mono": mono}])


def _reference_translate(p, point):
    """The binomial loop on domain calls, one variable at a time, that
    Polynomial.translate replaced."""
    dom = p.domain
    result = p
    for j, aj in enumerate(point):
        aj = dom.coerce(aj)
        if dom.is_zero(aj):
            continue
        out: dict = {}
        for mono, c in result.terms.items():
            md = dict(mono)
            e = md.pop(j, 0)
            if e == 0:
                s = dom.add(out.get(mono, dom.zero), c)
                if dom.is_zero(s):
                    out.pop(mono, None)
                else:
                    out[mono] = s
                continue
            rest = tuple(sorted(md.items()))
            # (X_j + a_j)^e expanded binomially, exact in the domain
            apow = dom.one
            for i in range(e, -1, -1):
                coeff = dom.mul(c, dom.mul(dom.coerce(math.comb(e, i)), apow))
                m = _reference_mono_mul(rest, ((j, i),) if i else ())
                s = dom.add(out.get(m, dom.zero), coeff)
                if dom.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
                apow = dom.mul(apow, aj)
        result = Polynomial(dom, p.nvars, out, _normalized=True)
    return result


@pytest.mark.parametrize("dom", [Q, F11, FP], ids=str)
def test_translate_matches_reference_loop(dom):
    rng = random.Random(47)
    shifts = [0, 0, 1, -2, 5, Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(40):
        nvars = rng.randrange(1, 4)
        p = random_poly(rng, dom, nvars, 4).scale(rng.choice([1, Fraction(3, 4)]))
        a = [rng.choice(shifts) for _ in range(nvars)]
        assert p.translate(a) == _reference_translate(p, a)


def test_translate_in_many_variables():
    """Composition runs in a loop over the variables, not one stack frame
    each, so a polynomial in 2000 variables translates as the loop does."""
    n = 2000
    p = Polynomial(Q, n, {((j, 1),): j + 1 for j in range(n)}
                   | {(): 1, ((0, 1), (n - 1, 2)): Fraction(3, 4)})
    a = [Fraction(j, 7) if j % 97 == 0 else 0 for j in range(n - 1)] + [-2]
    assert p.translate(a) == _reference_translate(p, a)
    assert Polynomial.constant(Q, n, 3).translate([1] * n) == Polynomial.constant(Q, n, 3)


def test_compose_term_cap_counts_the_summed_parts():
    """z_1 + ... + z_30 at distinct variables: only the sum of the parts
    reaches 30 terms."""
    outer = Polynomial(FP, 30, {((j, 1),): 1 for j in range(30)})
    inners = [x(j, nvars=30, dom=FP) for j in range(30)]
    assert compose(outer, inners, term_cap=30).num_terms() == 30
    with pytest.raises(ExpansionTooLarge) as info:
        compose(outer, inners, term_cap=29)
    assert (info.value.terms, info.value.cap) == (30, 29)


def test_translate_in_no_variables():
    for c in (3, 0):
        p = Polynomial.constant(Q, 0, c)
        assert p.translate(()) == p == _reference_translate(p, ())


def test_substitution_nests_deeper_than_the_recursion_limit():
    # Horner's rule nests once per variable of a monomial: 1,200 variables
    # are more levels than Python's default recursion limit of 1,000
    n = 1200
    xs = [Polynomial.variable(Q, n, v) for v in range(n)]
    p = Polynomial(Q, n, {tuple((v, 1) for v in range(n)): 1})
    tail = Polynomial(Q, n, {tuple((v, 1) for v in range(1, n)): 1})
    assert p.translate([1] + [0] * (n - 1)) == p + tail
    assert compose(p, xs) == p


def test_prime_field_parse_fractions():
    f7 = PrimeField(7)
    assert f7.parse("1/3") == 5
    assert f7.parse("-2/3") == 4
    assert f7.parse("12") == 5
    with pytest.raises(InvalidParams):
        f7.parse("1/7")
    p = Polynomial.terms_from_json(f7, 1, [{"coeff": "1/3", "mono": {"1": 1}}])
    assert p == x(0, 1, f7).scale(5)
