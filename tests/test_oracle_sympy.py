"""Outside oracle: rankpit's text form, expansion, hitting-set verdicts,
shifted-partials measure and randomized algebraic rank against sympy.

Each circuit is rebuilt as a sympy expression straight from its inner
polynomials' terms and its outer DAG's nodes, then expanded by sympy over Q,
or as a polynomial over GF(p) (`modulus=p`).  rankpit's `expand` must give the
same polynomial, and the hitting-set verdict must be "zero" exactly when
sympy's polynomial is zero.  The measure's matrix is rebuilt with `sympy.diff`
and `expand`, and its rank taken by sympy over Q or over GF(p).  The text
that `to_text` prints is read back by sympy's own parser.  Randomized rank
over Q, which reads each trial's Jacobian modulo a prime it draws, must equal
the rank of the symbolic Jacobian that sympy builds with `sympy.diff`.  The
minimal annihilator must generate the elimination ideal that sympy's lex
Groebner basis gives.  `Polynomial.mul` (with and without its degree and
term caps), `compose`, `translate` and `partial_derivative`, on small
hypothesis-drawn polynomials, must give what `sympy.expand` and
`sympy.diff` give; so must `compose` and `translate` on wide ones, with many
variables and few terms.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from rankpit.algdep import algebraic_rank, find_annihilator
from rankpit.circuit import expand
from rankpit.domains import PrimeField
from rankpit.errors import ExpansionTooLarge
from rankpit.measure import MeasureSpec, psp_dimension
from rankpit.pit import pit_test
from rankpit.poly import Polynomial, compose
from rankpit.util import derive_seed

sys.path.insert(0, str(Path(__file__).parent))
import _corpus  # noqa: E402
from test_algdep import _drawn_prime  # noqa: E402
from test_pit import _rewritten, _with_negated_twins  # noqa: E402

Q = _corpus.Q
FP = _corpus.FP
P = FP.p


def _scalar(value):
    if isinstance(value, Fraction):
        return sympy.Rational(value.numerator, value.denominator)
    return sympy.Integer(value)


def _sympy_poly(poly, args):
    """poly's terms, read by hand, at the sympy expressions `args`."""
    return sympy.Add(*(_scalar(c) * prod((args[v] ** e for v, e in mono), start=1)
                       for mono, c in poly.terms.items()))


def _sympy_circuit(c, xs):
    """The circuit as one sympy expression: each gate's DAG nodes, in order."""
    total = sympy.Integer(0)
    for g in c.gates:
        vals = []
        for node in g.outer.nodes:
            op = node[0]
            if op == "input":
                vals.append(_sympy_poly(g.inner[node[1]], xs))
            elif op == "const":
                vals.append(_scalar(node[1]))
            elif op == "add":
                vals.append(sympy.Add(*(vals[j] for j in node[1])))
            elif op == "mul":
                vals.append(sympy.Mul(*(vals[j] for j in node[1])))
            else:
                vals.append(_sympy_poly(node[1], [vals[j] for j in node[2]]))
        total += vals[g.outer.root]
    return total


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_sympy_reads_the_text_form_as_the_polynomial(dom):
    """sympy parses `to_text` (`^` read as `**`) to the polynomial's own
    terms, over Q and modulo p: signs, rational coefficients, exponents and
    the zero polynomial."""
    rng = random.Random(97)
    coeffs = [1, -1, 2, -3, Fraction(3, 4), Fraction(-5, 7), Fraction(1, 1000000007)]
    for trial in range(60):
        nvars = rng.randrange(1, 5)
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            mono = {}
            for _ in range(rng.randrange(0, 5)):
                v = rng.randrange(nvars)
                mono[v] = mono.get(v, 0) + 1
            terms[tuple(sorted(mono.items()))] = rng.choice(coeffs)
        poly = Polynomial(dom, nvars, terms)
        xs = sympy.symbols(f"x1:{nvars + 1}")
        parsed = sympy.parse_expr(poly.to_text().replace("^", "**"),
                                  local_dict={str(v): v for v in xs})
        assert (_sympy_poly_of(poly, parsed, xs)
                == _sympy_poly_of(poly, _sympy_poly(poly, xs), xs)), poly.to_text()


def _case(seed, **kind):
    return lambda: _corpus.random_class_circuit(seed, **kind)


def _call(seed, domain, twins=False):
    """A rewritten circuit (its DAG outers have call nodes), with its negated
    twins when `twins`."""
    def build():
        c = _rewritten(seed, domain)
        return _with_negated_twins(c) if twins else c
    return build


# tiny corpus circuits (at most 5 variables): product and DAG outers, planted
# twins, and rewritten circuits with call nodes, over F_p and over Q
CASES = {
    **{f"product-Fp-{s}": _case(s) for s in (3, 4, 14)},
    **{f"product-Q-{s}": _case(s, domain=Q) for s in (2, 6)},
    **{f"dag-Fp-{s}": _case(s, gamma_outer=True) for s in (3, 5)},
    **{f"dag-Q-{s}": _case(s, gamma_outer=True, domain=Q) for s in (4, 8)},
    **{f"twins-Fp-{s}": _case(s, zero=True) for s in (3, 6)},
    "twins-Q-4": _case(4, zero=True, domain=Q),
    "twins-dag-Fp-8": _case(8, zero=True, gamma_outer=True),
    **{f"twins-dag-Q-{s}": _case(s, zero=True, gamma_outer=True, domain=Q) for s in (3, 14)},
    **{f"call-Q-{s}": _call(s, Q) for s in (0, 1, 2)},
    **{f"call-Fp-{s}": _call(s, FP) for s in (0, 3)},
    "call-twins-Q-1": _call(1, Q, twins=True),
    "call-twins-Fp-2": _call(2, FP, twins=True),
}


def _sympy_poly_of(c, expr, xs):
    """expr as a sympy polynomial over the field of c (a circuit or a
    polynomial): GF(p) or QQ."""
    p = c.domain.characteristic
    return sympy.Poly(expr, *xs, modulus=p) if p else sympy.Poly(expr, *xs, domain="QQ")


@pytest.mark.parametrize("case", sorted(CASES))
def test_expansion_and_verdict_agree_with_sympy(case):
    c = CASES[case]()
    xs = sympy.symbols(f"x1:{c.nvars + 1}")
    expected = _sympy_poly_of(c, sympy.expand(_sympy_circuit(c, xs)), xs)
    assert _sympy_poly_of(c, _sympy_poly(expand(c), xs), xs) == expected
    assert pit_test(c).verdict == ("zero" if expected.is_zero else "nonzero")


def test_the_cases_cover_both_fields_twins_dags_and_calls():
    circuits = [build() for build in CASES.values()]
    assert {c.domain.characteristic for c in circuits} == {0, P}
    outers = {op[0] for c in circuits for g in c.gates if not g.is_product
              for op in g.outer.nodes}
    assert {"call", "add", "mul", "const"} <= outers
    assert {expand(c).is_zero() for c in circuits} == {True, False}
    assert max(c.nvars for c in circuits) <= 5


# ----------------------------------------------------------------------
# the shifted-partials measure

def _sympy_psp_rank(poly, spec, p):
    """rank of mult[(prod_{i in S} x_i) * d^gamma P] over gamma in the spec and
    |S| = m, built and ranked by sympy alone."""
    xs = sympy.symbols(f"x1:{poly.nvars + 1}")
    expr = _sympy_poly(poly, xs)
    rows, cols = [], {}
    for gamma in spec.monomials:
        d = sympy.diff(expr, *((xs[v], e) for v, e in gamma)) if gamma else expr
        for shift in combinations(xs, spec.shift_degree):
            terms = sympy.Poly(sympy.expand(prod(shift, start=1) * d), *xs).terms()
            rows.append({cols.setdefault(e, len(cols)): c for e, c in terms if max(e) <= 1})
    if not cols:
        return 0
    dense = [[row.get(j, 0) for j in range(len(cols))] for row in rows]
    if p:
        field = GF(p)
        return DomainMatrix([[field(int(c)) for c in row] for row in dense],
                            (len(dense), len(cols)), field).rank()
    return sympy.Matrix(dense).rank()


def _measure_case(seed):
    """A seeded polynomial in <= 6 variables of degree <= 3 with non-unit
    coefficients, its field, and a multilinear spec with r <= 1, m <= 2."""
    rng = random.Random(seed)
    dom = [Q, PrimeField(5), PrimeField(1_000_003)][seed % 3]
    coeffs = [2, -3, 4, 6, -10, 12] + ([Fraction(3, 2), Fraction(-5, 7)] if dom == Q else [])
    n = rng.randrange(4, 7)
    terms = {}
    for _ in range(rng.randrange(3, 8)):
        mono = {}
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(n)
            mono[v] = mono.get(v, 0) + 1
        terms[tuple(sorted(mono.items()))] = rng.choice(coeffs)
    r, m = [(1, 2), (1, 1), (1, 2), (0, 2), (1, 2), (1, 1)][seed]
    return Polynomial(dom, n, terms), MeasureSpec.multilinear(n, r, m)


def _worked_example():
    """Criterion 7: x1*x2 + x3*x4, M = {x1, x3}, m = 1, dimension 5."""
    v = [Polynomial.variable(Q, 4, i) for i in range(4)]
    return v[0] * v[1] + v[2] * v[3], MeasureSpec.of([((0, 1),), ((2, 1),)], 1)


@pytest.mark.parametrize("seed", [None, *range(6)],
                         ids=lambda s: "criterion-7" if s is None else f"seeded-{s}")
def test_psp_dimension_agrees_with_sympy(seed):
    poly, spec = _worked_example() if seed is None else _measure_case(seed)
    expected = _sympy_psp_rank(poly, spec, poly.domain.characteristic)
    assert psp_dimension(poly, spec).dimension == expected
    if seed is None:
        assert expected == 5


# ----------------------------------------------------------------------
# randomized algebraic rank over Q

M61 = (1 << 61) - 1


def _rank_case(seed):
    """A tuple of 2-3 polynomials of degree <= 2 in 2-3 variables over Q, with
    coefficients that are multiples of 2^61-1 and of the prime p0 that the
    first trial draws at `seed`; odd seeds replace the last by q1^2 + p0*q1."""
    rng = random.Random(seed)
    p0 = _drawn_prime(random.Random(derive_seed(seed, "algrank")))
    coeffs = [1, -2, Fraction(3, 2), M61, -2 * M61, p0, 3 * p0, p0 * M61]
    n, t = rng.randrange(2, 4), rng.randrange(2, 4)
    qs = []
    for _ in range(t):
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            v, w = rng.randrange(n), rng.randrange(n)
            mono = {v: 1}
            if rng.random() < 0.5:
                mono[w] = mono.get(w, 0) + 1
            terms[tuple(sorted(mono.items()))] = rng.choice(coeffs)
        qs.append(Polynomial(Q, n, terms))
    if seed % 2:
        qs[-1] = qs[0] * qs[0] + qs[0].scale(p0)
    return qs


@pytest.mark.parametrize("seed", range(8), ids=lambda s: f"seeded-{s}")
def test_randomized_rank_over_q_agrees_with_sympy(seed):
    qs = _rank_case(seed)
    xs = sympy.symbols(f"x1:{qs[0].nvars + 1}")
    jac = sympy.Matrix([[sympy.diff(_sympy_poly(q, xs), v) for v in xs] for q in qs])
    assert algebraic_rank(qs, seed=seed).rank == jac.rank()


def test_the_rank_cases_cover_full_and_deficient_rank():
    ranks = {algebraic_rank(qs := _rank_case(seed), seed=seed).rank < len(qs)
             for seed in range(8)}
    assert ranks == {True, False}


# ----------------------------------------------------------------------
# annihilator minimality

def _annihilator_cases(dom):
    """Tiny tuples of rank t-1 over dom: three by hand, and four seeded ones,
    each one or two linear forms in two variables (or their squares) and a
    quadratic in the forms."""
    x1, x2 = (Polynomial.variable(dom, 2, i) for i in range(2))
    cases = [[x1.pow(2), x1.pow(3)], [x1 + x2, x1 * x2, x1 * x1 + x2 * x2],
             [x1 * x1, x1 * x2, x2 * x2]]
    rng = random.Random(113)
    while len(cases) < 7:
        forms = [_corpus.random_linear(rng, dom, 2) for _ in range(rng.randrange(1, 3))]
        extra = compose(_corpus.random_poly(rng, dom, len(forms), 2, max_terms=3), forms)
        qs = [f.pow(rng.randrange(1, 3)) for f in forms] + [extra]
        if extra.degree() >= 1 and algebraic_rank(qs, mode="symbolic").rank == len(forms):
            cases.append(qs)
    return cases


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_annihilator_is_the_elimination_ideal_generator(dom):
    """For t polynomials of rank t-1, the ideal of (z_i - q_i) meets the z's in
    a principal ideal, generated by the minimal annihilator (Cox-Little-
    O'Shea, ch. 3).  So the lex Groebner basis with x > z, over Q or over
    GF(p), has exactly one element free of x, and find_annihilator's R is a
    scalar multiple of it: same degree, same ideal, so minimal."""
    p = dom.characteristic
    for qs in _annihilator_cases(dom):
        xs = sympy.symbols(f"x1:{qs[0].nvars + 1}")
        zs = sympy.symbols(f"z1:{len(qs) + 1}")
        field = {"modulus": p} if p else {"domain": "QQ"}
        basis = sympy.groebner([z - _sympy_poly(q, xs) for z, q in zip(zs, qs)],
                               *xs, *zs, order="lex", **field)
        eliminated = [g for g in basis.exprs if not g.free_symbols & set(xs)]
        assert len(eliminated) == 1, [q.to_text() for q in qs]
        expected = sympy.Poly(eliminated[0], *zs, **field)
        got = sympy.Poly(_sympy_poly(find_annihilator(qs).R, zs), *zs, **field)
        assert got.monic() == expected.monic(), [q.to_text() for q in qs]


# ----------------------------------------------------------------------
# the Polynomial operations

# derandomized: tier-1 draws the same examples on every run
_DRAWS = settings(max_examples=25, deadline=None, derandomize=True)


def _coefficients(dom):
    if dom.characteristic:
        return st.integers(0, dom.characteristic - 1)
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def _polynomials(dom, nvars, max_terms=4, max_exp=3):
    """Polynomials over dom in nvars variables: up to max_terms terms, each
    exponent at most max_exp."""
    mono = st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars).map(
        lambda es: tuple((v, e) for v, e in enumerate(es) if e))
    return st.dictionaries(mono, _coefficients(dom), max_size=max_terms).map(
        lambda terms: Polynomial(dom, nvars, terms))


def _truncated(poly, cap):
    """The sympy polynomial's terms of total degree <= cap (all if None)."""
    if cap is None:
        return poly
    return sympy.Poly.from_dict({m: c for m, c in poly.as_dict().items() if sum(m) <= cap},
                                poly.gens, domain=poly.domain)


def _agrees(got, expr, xs, cap=None):
    """got is the sympy expression expr, expanded and truncated to degree cap."""
    return _sympy_poly_of(got, _sympy_poly(got, xs), xs) == _truncated(
        _sympy_poly_of(got, sympy.expand(expr), xs), cap)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@_DRAWS
@given(data=st.data())
def test_mul_agrees_with_sympy(dom, data):
    """The product, truncated at degree_cap, and its term cap: it raises
    exactly when the product has more terms, and is exact under a cap of
    len(a) * len(b), which no partial sum exceeds."""
    nvars = data.draw(st.integers(1, 3))
    a, b = (data.draw(_polynomials(dom, nvars)) for _ in range(2))
    cap = data.draw(st.none() | st.integers(0, 6))
    xs = sympy.symbols(f"x1:{nvars + 1}")
    got = a.mul(b, degree_cap=cap)
    assert _agrees(got, _sympy_poly(a, xs) * _sympy_poly(b, xs), xs, cap)
    assert a.mul(b, term_cap=len(a.terms) * len(b.terms), degree_cap=cap) == got
    if got.terms:
        with pytest.raises(ExpansionTooLarge):
            a.mul(b, term_cap=len(got.terms) - 1, degree_cap=cap)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@_DRAWS
@given(data=st.data())
def test_compose_agrees_with_sympy(dom, data):
    """outer(inners), substituted and expanded by sympy, truncated at
    degree_cap as `compose` truncates inside its products."""
    nvars, t = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    outer = data.draw(_polynomials(dom, t, max_exp=2))
    inners = [data.draw(_polynomials(dom, nvars, max_terms=3, max_exp=2)) for _ in range(t)]
    cap = data.draw(st.none() | st.integers(0, 8))
    xs = sympy.symbols(f"x1:{nvars + 1}")
    got = compose(outer, inners, degree_cap=cap)
    assert _agrees(got, _sympy_poly(outer, [_sympy_poly(q, xs) for q in inners]), xs, cap)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@_DRAWS
@given(data=st.data())
def test_translate_agrees_with_sympy(dom, data):
    nvars = data.draw(st.integers(1, 3))
    q = data.draw(_polynomials(dom, nvars))
    point = data.draw(st.lists(_coefficients(dom), min_size=nvars, max_size=nvars))
    xs = sympy.symbols(f"x1:{nvars + 1}")
    shifted = [x + _scalar(a) for x, a in zip(xs, point)]
    assert _agrees(q.translate(point), _sympy_poly(q, shifted), xs)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@_DRAWS
@given(data=st.data())
def test_partial_derivative_agrees_with_sympy(dom, data):
    """d^gamma q for a monomial gamma, as iterated `sympy.diff`."""
    nvars = data.draw(st.integers(1, 3))
    q = data.draw(_polynomials(dom, nvars, max_exp=4))
    orders = data.draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    gamma = tuple((v, g) for v, g in enumerate(orders) if g)
    xs = sympy.symbols(f"x1:{nvars + 1}")
    expected = _sympy_poly(q, xs)
    for v, g in gamma:
        expected = sympy.diff(expected, xs[v], g)
    assert _agrees(q.partial_derivative(gamma), expected, xs)


def _wide_polynomials(dom, nvars, max_terms, max_exp=2):
    """Polynomials over dom in nvars variables, up to max_terms terms, each
    term in at most 2 of them with exponents at most max_exp."""
    mono = st.dictionaries(st.integers(0, nvars - 1), st.integers(1, max_exp), max_size=2).map(
        lambda d: tuple(sorted(d.items())))
    return st.dictionaries(mono, _coefficients(dom), max_size=max_terms).map(
        lambda terms: Polynomial(dom, nvars, terms))


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@_DRAWS
@given(data=st.data())
def test_wide_compose_and_translate_agree_with_sympy(dom, data):
    """Many variables and few terms, the shape in which Horner's rule meets
    many small parts: an outer in 40 variables composed with 40 sparse inners
    in 30 variables, and translated at a point of mostly zeros."""
    t, nvars = 40, 30
    outer = data.draw(_wide_polynomials(dom, t, max_terms=10))
    used = {v for m in outer.terms for v, _ in m}
    inners = [data.draw(_wide_polynomials(dom, nvars, max_terms=2, max_exp=1)) if v in used
              else Polynomial.zero(dom, nvars) for v in range(t)]
    point = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 5]) | _coefficients(dom),
                               min_size=t, max_size=t))
    xs = sympy.symbols(f"x1:{nvars + 1}")
    zs = sympy.symbols(f"z1:{t + 1}")
    assert _agrees(compose(outer, inners), _sympy_poly(outer, [_sympy_poly(q, xs) for q in inners]),
                   xs)
    shifted = [z + _scalar(dom.coerce(a)) for z, a in zip(zs, point)]
    assert _agrees(outer.translate(point), _sympy_poly(outer, shifted), zs)
