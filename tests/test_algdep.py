"""Rank certificates, annihilators, translations, reconstruction, rewrite."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from rankpit import algdep, cli, linalg
from rankpit.algdep import (TranslationSampler, algebraic_rank, find_annihilator,
                            jacobian, newton_reconstruct, reconstruct_dependence,
                            rewrite_circuit, sample_good_translation)
from rankpit.circuit import Circuit, DeclaredBounds, Gate, OuterExpr, expand
from rankpit.domains import PrimeField, Rationals, is_prime
from rankpit.errors import (BoundViolation, CharacteristicTooSmall,
                            DerivativeVanishes, DimensionMismatch, DomainMismatch,
                            ExpansionTooLarge, FieldTooSmall, InvalidParams,
                            NoAnnihilatorWithinCap, NoGoodTranslation,
                            NonConvergence, NoSolutionWithinCap, RankNotCertified)
from rankpit.poly import (DEFAULT_TERM_CAP, Polynomial, _CompositionTable,
                          _dense_monos_exact, _dense_to_mono, compose, grlex_key,
                          mono_from_dict)

Q = Rationals()
FP = PrimeField(1_000_003)
M61 = (1 << 61) - 1


def x(i, nvars=2, dom=Q):
    return Polynomial.variable(dom, nvars, i)


def e1_triple(dom=Q):
    a, b = x(0, dom=dom), x(1, dom=dom)
    return [a + b, a * b, a * a + b * b]


# ----------------------------------------------------------------------
# jacobian

def test_jacobian_examples():
    pair = [x(0), x(0) * x(0)]
    jac = jacobian(pair)
    assert jac[0][0] == Polynomial.constant(Q, 2, 1)
    assert jac[0][1].is_zero()
    assert jac[1][0] == x(0) * 2
    jac2 = jacobian([x(0) + x(1), x(0) * x(1)])
    assert jac2[1] == [x(1), x(0)]
    jac3 = jacobian([Polynomial.constant(Q, 2, 7)])
    assert all(entry.is_zero() for entry in jac3[0])


def test_jacobian_characteristic_gate():
    f5 = PrimeField(5)
    qs = [Polynomial.variable(f5, 1, 0).pow(3),
          Polynomial.variable(f5, 1, 0).pow(2)]
    with pytest.raises(CharacteristicTooSmall):
        jacobian(qs)


def _quadratic_jacobian_rows(qs, point, p):
    """Row i, entry v: the sum over the terms c*x^mono of D_i*q_i of
    c * e_v * x_v^(e_v - 1) * prod_{w != v} x_w^(e_w), each factor formed
    anew for every v, reduced mod p at the end (exact for p = 0)."""
    rows = []
    for q in qs:
        row = [0] * len(point)
        for mono, _, c in q._int_form()[0]:
            for v, e in mono:
                term = c * e * point[v] ** (e - 1)
                for w, f in mono:
                    if w != v:
                        term *= point[w] ** f
                row[v] += term
        rows.append([x % p for x in row] if p else row)
    return rows


@pytest.mark.parametrize("dom, p", [(Q, 0), (Q, M61), (FP, FP.p)],
                         ids=["Q-exact", "Q-mod", "F_p"])
def test_jacobian_rows_match_the_quadratic_formula(dom, p):
    from test_poly import random_poly
    rng = random.Random(331)
    for _ in range(25):
        n = rng.randrange(1, 7)
        qs = [random_poly(rng, dom, n, 7).scale(Fraction(rng.randrange(1, 9), 3))
              for _ in range(rng.randrange(1, 4))]
        point = [rng.choice([0, 1, rng.randrange(p or 1000)]) for _ in range(n)]
        assert algdep._jacobian_rows(qs, point, p) == _quadratic_jacobian_rows(qs, point, p)


# ----------------------------------------------------------------------
# algebraic rank

def test_rank_examples_symbolic():
    cert = algebraic_rank([x(0), x(0) * x(0)], mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (1, (0,))
    cert = algebraic_rank(e1_triple(), mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (2, (0, 1))
    linears = [x(0, 3) + x(1, 3), x(1, 3) + x(2, 3), x(0, 3) - x(2, 3) * 2]
    cert = algebraic_rank(linears, mode="symbolic")
    assert cert.rank == 3


def test_symbolic_rank_of_many_linear_forms():
    """13 independent linear forms in 25 variables: one Jacobian point
    certifies rank 13, with no annihilator to search for."""
    rng = random.Random(97)
    forms = [sum((x(v, 25).scale(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
                  for v in range(25)), Polynomial.zero(Q, 25)) + x(i, 25)
             for i in range(13)]
    cert = algebraic_rank(forms, mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (13, tuple(range(13)))
    assert cert.method == "jacobian-certified"


def test_symbolic_rank_in_small_characteristic():
    """Over F_5 the Jacobian of (x^3, x^2) is read at a point and the
    annihilator z2^3 - z1^2 bounds the rank; (x^5, y) has rank 2 but a
    Jacobian of rank 1 everywhere, so no point is certified."""
    f5 = PrimeField(5)
    a, b = x(0, dom=f5), x(1, dom=f5)
    cert = algebraic_rank([a.pow(3), a.pow(2)], mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (1, (0,))
    with pytest.raises(RankNotCertified) as info:
        algebraic_rank([a.pow(5), b], mode="symbolic")
    assert info.value.attempts == 3


def test_randomized_rank_refuses_small_characteristic():
    """(x^5, y) over F_5: the Jacobian criterion needs p > 5."""
    f5 = PrimeField(5)
    with pytest.raises(CharacteristicTooSmall):
        algebraic_rank([x(0, dom=f5).pow(5), x(1, dom=f5)])


@pytest.mark.parametrize("mode", ["randomized", "symbolic"])
def test_rank_refuses_mismatched_tuples(mode):
    for qs in ([x(0), x(2, nvars=3)], [x(0, nvars=3), x(1)]):
        with pytest.raises(DimensionMismatch):
            algebraic_rank(qs, mode=mode)
    with pytest.raises(DomainMismatch):
        algebraic_rank([x(0), x(1, dom=FP)], mode=mode)


def test_randomized_rank_over_q_is_exact():
    """(x, P*y) with P = 2^61-1 has Jacobian diag(1, P): rank 2 over Q, but
    rank 1 mod P."""
    cert = algebraic_rank([x(0), x(1).scale(M61)])
    assert (cert.rank, cert.basis_indices) == (2, (0, 1))


def test_symbolic_rank_as_large_as_the_variables_needs_no_annihilator(monkeypatch):
    """4 generic cubics in 3 variables: rank 3 at one point is the number of
    variables, so no annihilator (minimal degree 27) is searched: no
    composition table is built."""
    calls = []
    table = algdep._CompositionTable
    monkeypatch.setattr(algdep, "_CompositionTable",
                        lambda *args, **kw: calls.append(args) or table(*args, **kw))
    rng = random.Random(5)
    monos = [mono_from_dict(dict(enumerate(e)))
             for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    cubics = [Polynomial(Q, 3, {m: rng.randrange(1, 9) for m in monos}) for _ in range(4)]
    cert = algebraic_rank(cubics, mode="symbolic")
    assert (cert.rank, cert.basis_indices, calls) == (3, (0, 1, 2), [])


def test_symbolic_rank_refutes_an_unlucky_point(monkeypatch):
    """Over F_11, (x^2, (y+z)^4, x^2 + (y+z)^4) at seed 2: the first point
    has x = 0 or y+z = 0, so its basis is (1,).  The independent pair
    ((y+z)^4, x^2) is refuted at a fresh point without a search (no
    composition table), and the next point certifies rank 2 with one
    search, for q_3."""
    f11 = PrimeField(11)
    a, b, c = (x(v, 3, f11) for v in range(3))
    s = (b + c).pow(4)
    qs = [a.pow(2), s, a.pow(2) + s]
    assert algdep._point_basis(qs, algdep.derive_seed(2, "certified-rank", 0)) == [1]
    sizes = []
    table = algdep._CompositionTable
    monkeypatch.setattr(algdep, "_CompositionTable",
                        lambda sub, *args, **kw: sizes.append(len(sub))
                        or table(sub, *args, **kw))
    cert = algebraic_rank(qs, mode="symbolic", seed=2)
    assert (cert.rank, cert.basis_indices, sizes) == (2, (0, 1), [3])


def _certificate_prime(seed, attempt):
    """The prime that `_certified_rank`'s attempt reads a Q Jacobian modulo:
    the first odd candidate in [2^61, 2^62) that the point seed draws."""
    rng = random.Random(algdep.derive_seed(seed, "certified-rank", attempt))
    while not is_prime(c := rng.randrange((1 << 61) + 1, 1 << 62, 2)):
        pass
    return c


def test_symbolic_rank_over_q_is_not_hidden_by_one_prime():
    """2^61-1 divides a Jacobian entry: rank 2 of (P*x, y) and rank 1 of P*x
    are still certified, because the prime is drawn from the point seed."""
    cert = algebraic_rank([x(0).scale(M61), x(1)], mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (2, (0, 1))
    cert = algebraic_rank([x(0, 1).scale(M61)], mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (1, (0,))


def test_symbolic_rank_over_q_moves_to_the_next_prime():
    """(p0*x, y), with p0 the prime of attempt 0: singular mod p0 at every
    point, so attempt 0 sees rank 1 and its search for an annihilator of
    (y, p0*x) is refuted; attempt 1 reads another prime and certifies 2."""
    p0, p1 = _certificate_prime(3, 0), _certificate_prime(3, 1)
    assert p0 != p1 and all(1 << 61 < p < 1 << 62 for p in (p0, p1))
    qs = [x(0).scale(p0), x(1)]
    seeds = [algdep.derive_seed(3, "certified-rank", attempt) for attempt in (0, 1)]
    assert [algdep._point_basis(qs, s) for s in seeds] == [[1], [0, 1]]
    cert = algebraic_rank(qs, mode="symbolic", seed=3)
    assert (cert.rank, cert.basis_indices) == (2, (0, 1))


def test_rewrite_and_depend_reuse_the_rank_annihilators(monkeypatch, tmp_path):
    """Each sub-annihilator is searched once: by the rank certificate, which
    hands it on, or, when the basis is as large as the number of variables
    (E1: rank 2 in 2 variables), by the goodness certificates alone."""
    calls = []
    search = algdep._annihilator
    monkeypatch.setattr(algdep, "_annihilator",
                        lambda sub, *args: calls.append(sub[-1]) or search(sub, *args))
    a, b, c = (x(v, 3) for v in range(3))
    for inner in (e1_triple(), [a + b, (a + b) * (a + b) + c, c]):
        calls.clear()
        nvars = inner[0].nvars
        circuit = Circuit(Q, nvars, DeclaredBounds(d=2, k=2, delta=5),
                          [Gate("product", inner)])
        rewritten, shift = rewrite_circuit(circuit, seed=11)
        assert expand(rewritten) == expand(circuit).translate(shift)
        assert calls == [inner[2]]
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": nvars,
                                    "polys": [q.terms_to_json() for q in inner]}))
        code, _ = cli.run(["depend", "--poly-file", str(path), "--json"])
        assert (code, calls) == (0, [inner[2], inner[2]])


def _planted_dependent_tuple(rng, dom):
    """k <= 2 independent seeds over dom and one or two polynomials in them."""
    from _corpus import random_linear, random_poly
    k, nvars = rng.randrange(1, 3), rng.randrange(2, 5)
    while True:
        seeds = [random_linear(rng, dom, nvars) if rng.random() < 0.5
                 else random_poly(rng, dom, nvars, 2, max_terms=3, allow_zero=False)
                 for _ in range(k)]
        if algebraic_rank(seeds, mode="symbolic").rank == k:
            break
    extras = [compose(random_poly(rng, dom, k, 2, max_terms=3, allow_zero=False), seeds)
              for _ in range(rng.randrange(1, 3))]
    return seeds + [q if q.degree() >= 1 else seeds[0] for q in extras]


def test_every_caller_gets_the_same_annihilator(monkeypatch):
    """For each non-basis q_i, the annihilator of (basis, q_i) that the rank
    certificate hands on, the ones that the goodness certificates and the
    Newton lift search when none is handed on, and find_annihilator on the
    sub-tuple are one R, with its terms in one order."""
    from _corpus import dependent_tuple
    rng = random.Random(107)
    tuples = [dependent_tuple(i)[0] for i in range(100)]
    tuples += [_planted_dependent_tuple(rng, dom) for dom in (Q, FP) for _ in range(8)]
    searched = []
    search = algdep._annihilator
    monkeypatch.setattr(algdep, "_annihilator",
                        lambda *args: searched.append(search(*args)) or searched[-1])
    handed_on = 0
    for qs in tuples:
        cert, handed = algdep._certified_rank(qs, 0, DEFAULT_TERM_CAP)
        basis, dom, nvars = cert.basis_indices, qs[0].domain, qs[0].nvars
        others = [i for i in range(len(qs)) if i not in basis]
        searched.clear()
        ls = algdep._goodness_certificates(qs, basis, None, DEFAULT_TERM_CAP)
        sampler = TranslationSampler.for_tuple(
            len(qs), len(basis), max(1, max(q.degree() for q in qs)))
        a = algdep._sample_translation(ls, dom, nvars, sampler)
        for i in others:
            newton_reconstruct(qs, basis, a, i)
        assert len(searched) == 2 * len(others)
        for i, goodness, newton in zip(others, searched[:len(others)], searched[len(others):]):
            sub = [qs[b] for b in basis] + [qs[i]]
            answers = [goodness, newton, find_annihilator(sub)] + ([handed[i]] if handed else [])
            handed_on += bool(handed)
            assert len({tuple(ann.R.terms.items()) for ann in answers}) == 1
    assert handed_on >= 20


def test_randomized_rank_never_exceeds_symbolic():
    rng = random.Random(61)
    from test_poly import random_poly
    for trial in range(30):
        qs = [random_poly(rng, Q, 3, 2) for _ in range(3)]
        sym = algebraic_rank(qs, mode="symbolic").rank
        rand = algebraic_rank(qs, mode="randomized", seed=trial).rank
        assert rand <= sym
        assert rand == sym  # desk fixtures: equality holds


def test_rank_matroid_monotone():
    rng = random.Random(67)
    from test_poly import random_poly
    for _ in range(20):
        qs = [random_poly(rng, Q, 3, 2) for _ in range(3)]
        full = algebraic_rank(qs, mode="symbolic").rank
        for drop in range(3):
            sub = [q for i, q in enumerate(qs) if i != drop]
            assert algebraic_rank(sub, mode="symbolic").rank <= full


# ----------------------------------------------------------------------
# annihilators

def test_annihilator_pair():
    ann = find_annihilator([x(0), x(0) * x(0)])
    assert ann.degree == 2
    # leading-monic normalization: z1^2 - z2
    assert ann.R == Polynomial.from_text(Q, 2, "z1^2 - z2", var_prefix="z")


def test_annihilator_e1():
    ann = find_annihilator(e1_triple())
    assert ann.degree == 2
    assert ann.R == Polynomial.from_text(Q, 3, "z1^2 - 2*z2 - z3", var_prefix="z")
    assert compose(ann.R, e1_triple()).is_zero()


def test_annihilator_independent_pair_errors():
    with pytest.raises(NoAnnihilatorWithinCap) as info:
        find_annihilator([x(0), x(1)], cap=4)
    assert info.value.cap == 4


def test_annihilator_composes_to_zero_random():
    rng = random.Random(71)
    from test_poly import random_poly
    found = 0
    for trial in range(30):
        base = random_poly(rng, FP, 3, 2)
        if base.is_zero():
            continue
        f = random_poly(rng, FP, 1, 2)
        qs = [base, compose(f, [base])]
        try:
            ann = find_annihilator(qs)
        except NoAnnihilatorWithinCap:
            continue
        assert compose(ann.R, qs).is_zero()
        found += 1
    assert found >= 15


def test_rank_t_iff_no_annihilator_at_cap():
    rng = random.Random(73)
    from test_poly import random_poly
    for trial in range(25):
        t = rng.choice([2, 3])
        d = rng.choice([1, 2]) if t == 2 else 1
        qs = [random_poly(rng, FP, 3, d) for _ in range(t)]
        rank = algebraic_rank(qs, mode="symbolic").rank
        cap = t * max(1, max(q.degree() for q in qs)) ** (t - 1)
        try:
            find_annihilator(qs, cap=cap)
            has_ann = True
        except NoAnnihilatorWithinCap:
            has_ann = False
        assert has_ann == (rank < t)


def test_dense_monos_ascend_in_graded_lex():
    """The annihilator and witness searches take the columns z^alpha in
    this order."""
    for t in range(1, 5):
        alphas = [a for d in range(6) for a in _dense_monos_exact(t, d)]
        keys = [grlex_key(_dense_to_mono(a)) for a in alphas]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_dense_monos_of_a_long_tuple():
    # one exponent per tuple member: 1,200 members would nest deeper than
    # Python's default recursion limit of 1,000 if built member by member
    x1 = Polynomial.variable(Q, 1, 0)
    ann = find_annihilator([x1] * 1200)
    assert ann.degree == 1
    assert ann.R.to_text(var_prefix="z") == "z1199 - z1200"


def _canonical_kernel_poly(polys):
    """Echelonize kernel polynomials by leading monomial; the monic element
    whose leading monomial is order-minimal (unique in the space)."""
    dom = polys[0].domain
    by_lead = {}
    for poly in polys:
        cur = poly
        while not cur.is_zero():
            lm = max(cur.terms, key=grlex_key)
            if lm in by_lead:
                cur = cur - by_lead[lm].scale(cur.terms[lm])
            else:
                by_lead[lm] = cur.scale(dom.inv(cur.terms[lm]))
                break
    return by_lead[min(by_lead, key=grlex_key)]


def _power_product(qs, alpha, degree_cap=None, term_cap=None):
    """q^alpha = prod_j q_j^alpha_j by public `Polynomial.mul` products,
    truncated after each one when degree_cap is given."""
    dom, nvars = qs[0].domain, qs[0].nvars
    out = Polynomial.constant(dom, nvars, dom.one)
    for q, e in zip(qs, alpha):
        for _ in range(e):
            out = out.mul(q, degree_cap=degree_cap, term_cap=term_cap)
    return out


def _reference_annihilator(qs, cap):
    """The earlier search: at each degree D, the kernel of the dense matrix
    of every column q^alpha with |alpha| <= D, canonicalized."""
    t, dom = len(qs), qs[0].domain
    columns = _dense_monos_exact(t, 0)
    for deg in range(1, cap + 1):
        columns = columns + _dense_monos_exact(t, deg)
        entries = [_power_product(qs, alpha).terms for alpha in columns]
        row_index = {}
        for terms in entries:
            for mono in terms:
                row_index.setdefault(mono, len(row_index))
        rows = [[dom.zero] * len(columns) for _ in row_index]
        for ci, terms in enumerate(entries):
            for mono, c in terms.items():
                rows[row_index[mono]][ci] = c
        rref, pivots = linalg.rref_dense(rows, dom)
        kernel = []
        for free in [c for c in range(len(columns)) if c not in pivots]:
            vec = {free: dom.one}
            for i, pc in enumerate(pivots):
                vec[pc] = dom.neg(rref[i][free])
            kernel.append(Polynomial(dom, t, {
                _dense_to_mono(columns[ci]): vec[ci]
                for ci in sorted(vec) if not dom.is_zero(vec[ci])}, _normalized=True))
        if kernel:
            return _canonical_kernel_poly(kernel)
    raise NoAnnihilatorWithinCap(cap)


@pytest.mark.parametrize("dom", [Q, FP, PrimeField((1 << 61) - 1)], ids=str)
def test_annihilator_matches_reference_search(dom):
    rng = random.Random(79)
    from test_poly import random_poly

    def nonconstant(nvars, deg):
        while True:
            q = random_poly(rng, dom, nvars, deg)
            if q.degree() >= 1:
                return q

    found = missing = 0
    for trial in range(120):
        nvars = rng.choice([2, 3])
        qs = [nonconstant(nvars, rng.choice([1, 2])) for _ in range(rng.choice([1, 2, 2]))]
        kind = trial % 4
        if kind == 1:  # a planted dependent member
            qs.append(compose(nonconstant(len(qs), 2), qs))
        elif kind == 2:  # a zero or constant member
            qs.insert(rng.randrange(len(qs) + 1),
                      Polynomial.constant(dom, nvars, rng.choice([0, 1, 5])))
        elif kind == 3 and nvars == 2:  # three members in two variables
            qs.append(nonconstant(nvars, 1))
        d = max(1, max(q.degree() for q in qs))
        cap = min(len(qs) * d ** (len(qs) - 1), 4)
        try:
            expected = _reference_annihilator(qs, cap)
        except NoAnnihilatorWithinCap:
            with pytest.raises(NoAnnihilatorWithinCap):
                find_annihilator(qs, cap=cap)
            missing += 1
            continue
        got = find_annihilator(qs, cap=cap).R
        assert got == expected
        assert list(got.terms.items()) == list(expected.terms.items())
        found += 1
    assert found >= 40 and missing >= 10


# ----------------------------------------------------------------------
# the packed composition table against public products

def _unpacked(table, alpha) -> dict:
    """The entry for alpha as the terms of q^alpha, decoded by the table's
    layout (each key's degree field must agree), each coefficient over
    D^alpha."""
    layout, entry = table.layout, table.get(alpha)
    out = layout.unpack(entry, None if table.p else table.den(alpha))
    assert [key >> layout.shift for key in entry] == [sum(e for _, e in m) for m in out]
    return out


def _assert_entries_are_products(table, qs, degree_cap):
    list(table.columns())
    for alpha in table.alphas:
        expected = _power_product(qs, alpha, degree_cap).terms
        assert list(_unpacked(table, alpha).items()) == list(expected.items())


def _fractional_poly(rng, dom, nvars, max_exp=2):
    """Random terms; over Q the coefficients have denominators among 1, 2,
    3, 5, 7 and either sign, over F_p they are the numerators."""
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        mono = mono_from_dict({rng.randrange(nvars): rng.randrange(1, max_exp + 1)
                               for _ in range(rng.randrange(3))})
        c = Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5, 7]))
        terms[mono] = c if dom == Q else c.numerator
    return Polynomial(dom, nvars, terms)


@pytest.mark.parametrize("dom", [Q, FP, PrimeField(2), PrimeField((1 << 61) - 1)], ids=str)
def test_packed_entries_are_the_public_products(dom):
    """Over Q the members have several distinct denominators and negative
    coefficients; every tuple also holds a zero and a constant member."""
    rng = random.Random(97)
    for trial in range(12):
        nvars = rng.choice([1, 2, 3])
        qs = [_fractional_poly(rng, dom, nvars) for _ in range(rng.choice([1, 2]))]
        qs.insert(rng.randrange(len(qs) + 1), Polynomial.zero(dom, nvars))
        qs.insert(rng.randrange(len(qs) + 1),
                  Polynomial.constant(dom, nvars, Fraction(5, 3) if dom == Q else 5))
        for degree_cap in (None, 0, 1, 3):
            table = _CompositionTable(qs, 3, degree_cap=degree_cap)
            _assert_entries_are_products(table, qs, degree_cap)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_packed_table_round_trips_at_its_width_bound(dom):
    """x1^2 at |alpha| = cap = 4 is x1^8, whose exponent equals the bound
    B = cap*d = 8 that sets the width (4 bits; 3 would carry).  The
    truncated table forms products of degree up to degree_cap + 5 from a
    member of degree 5 above degree_cap = 3, whose exponents overflow the
    2-bit fields that degree_cap sets; the limit drops every one of them."""
    x1, x2 = x(0, dom=dom), x(1, dom=dom)
    qs = [x1.pow(2).scale(Fraction(1, 3) if dom == Q else 3), x2]
    table = _CompositionTable(qs, 4)
    _assert_entries_are_products(table, qs, None)
    assert list(_unpacked(table, (4, 0))) == [((0, 8),)] and table.layout.width == 4
    qs = [x1.pow(5) + x1 * x2 + x2, x1 + x2.scale(2)]
    table = _CompositionTable(qs, 6, degree_cap=3)
    _assert_entries_are_products(table, qs, 3)
    assert table.layout.width == 2


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@pytest.mark.parametrize("term_cap", [1, 4, 9, 20])
def test_packed_table_meets_the_term_cap_as_mul_does(dom, term_cap):
    """The first entry to pass term_cap raises ExpansionTooLarge with the
    count that the same chain of public products raises with."""
    a, b, c = (x(i, 3, dom) for i in range(3))
    qs = [a.scale(Fraction(1, 2) if dom == Q else 2) + b + c,
          a * a + b * b.scale(Fraction(-2, 3) if dom == Q else 5) + c * c]
    table = _CompositionTable(qs, 5, term_cap=term_cap)
    for alpha in [al for deg in range(6) for al in _dense_monos_exact(2, deg)]:
        try:
            _power_product(qs, alpha, term_cap=term_cap)
        except ExpansionTooLarge as err:
            with pytest.raises(ExpansionTooLarge) as info:
                table.get(alpha)
            assert (info.value.terms, info.value.cap) == (err.terms, err.cap)
            return
        table.get(alpha)
    pytest.fail("no entry passed the term cap")


def test_searches_map_packed_columns_back_over_q():
    """Members with distinct denominators, so that each packed column is
    D^alpha != 1 times q^alpha: both searches give the reference answers."""
    rng = random.Random(101)

    def nonconstant(nvars):
        while True:
            q = _fractional_poly(rng, Q, nvars, max_exp=1)
            if q.degree() >= 1 and any(c.denominator > 1 for c in q.terms.values()):
                return q

    found = 0
    for trial in range(12):
        nvars = rng.choice([2, 3])
        base = [nonconstant(nvars) for _ in range(rng.choice([1, 2]))]
        outer = _fractional_poly(rng, Q, len(base))
        qs = base + [compose(outer + Polynomial.variable(Q, len(base), 0).pow(2), base)]
        cap = min(len(qs) * max(q.degree() for q in qs) ** (len(qs) - 1), 4)
        try:
            expected = _reference_annihilator(qs, cap)
        except NoAnnihilatorWithinCap:
            expected = None
        if expected is not None:
            got = find_annihilator(qs, cap=cap).R
            assert list(got.terms.items()) == list(expected.terms.items())
            found += 1
        a = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(nvars))
        basis = tuple(range(len(base)))
        witness = _reference_reconstruct(qs, basis, a)
        got = reconstruct_dependence(qs, basis, a).F
        assert list(got[len(base)].terms.items()) == list(witness[len(base)].terms.items())
    assert found >= 6


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_a_corrupted_column_is_caught_by_the_exact_checks(dom, monkeypatch):
    """Doubling one streamed column (a wrong D^alpha, say) makes each search
    raise at its exact check; neither returns a wrong polynomial."""
    qs = [x(0, dom=dom), x(0, dom=dom).pow(2)]
    assert find_annihilator(qs).R == Polynomial.from_text(dom, 2, "z1^2 - z2",
                                                           var_prefix="z")
    assert reconstruct_dependence(qs, (0,), (0, 0)).F[1].degree() == 2
    columns = _CompositionTable.columns
    corrupt_at = []

    def corrupted(table):
        for n, col in enumerate(columns(table)):
            yield {m: 2 * c for m, c in col.items()} if n in corrupt_at else col

    monkeypatch.setattr(_CompositionTable, "columns", corrupted)
    corrupt_at[:] = [1]  # the column q_2 of the search 1, q_2, q_1, ...
    with pytest.raises(AssertionError, match="does not annihilate"):
        find_annihilator(qs)
    corrupt_at[:] = [2]  # the column x^2 of the witness search 1, x, x^2
    with pytest.raises(AssertionError, match="failed exact verification"):
        reconstruct_dependence(qs, (0,), (0, 0))


# ----------------------------------------------------------------------
# the Jacobian certificate of find_annihilator


def _full_rank_at_the_certificate_point(qs):
    return len(algdep._point_basis(qs, algdep._CERTIFICATE_SEED)) == len(qs)


@pytest.mark.parametrize("dom", [Q, FP, PrimeField(M61), PrimeField(2), PrimeField(3),
                                 PrimeField(5)], ids=str)
def test_certificate_answers_as_the_search(dom):
    """find_annihilator, certificate first, gives the bare search's answer:
    the same R in the same term order, or the same cap."""
    rng = random.Random(83)
    from test_poly import random_poly
    certified = found = 0
    for trial in range(120):
        nvars = rng.choice([1, 2, 3])
        t = rng.choice([1, 2, 2, 3, 4])  # t > nvars for some trials
        qs = [random_poly(rng, dom, nvars, rng.choice([1, 2])) for _ in range(t)]
        if trial % 4 == 0:  # a zero or constant member
            qs[rng.randrange(t)] = Polynomial.constant(dom, nvars, rng.choice([0, 1, 5]))
        d = max(1, max(q.degree() for q in qs))
        cap = min(t * d ** (t - 1), 4)
        try:
            expected = algdep._annihilator(qs, cap, DEFAULT_TERM_CAP, None).R
        except NoAnnihilatorWithinCap:
            with pytest.raises(NoAnnihilatorWithinCap) as info:
                find_annihilator(qs, cap=cap)
            assert info.value.cap == cap
            certified += _full_rank_at_the_certificate_point(qs)
            continue
        assert not _full_rank_at_the_certificate_point(qs)
        got = find_annihilator(qs, cap=cap).R
        assert list(got.terms.items()) == list(expected.terms.items())
        found += 1
    assert certified >= 5 and found >= 60


def test_frobenius_tuples_fall_through_to_the_search():
    """Over F_p the Jacobian of (x^p, y) and of (x, x^p) is singular at every
    point; the first tuple is independent, the second is not."""
    f5 = PrimeField(5)
    a, b = x(0, dom=f5), x(1, dom=f5)
    for qs in ([a.pow(5), b], [a, a.pow(5)]):
        assert not _full_rank_at_the_certificate_point(qs)
    with pytest.raises(NoAnnihilatorWithinCap) as info:
        find_annihilator([a.pow(5), b])
    assert info.value.cap == 10
    ann = find_annihilator([a, a.pow(5)])
    assert ann.R == Polynomial.from_text(f5, 2, "z1^5 - z2", var_prefix="z")


def test_certified_tuple_builds_no_column():
    """p1, p2, p3 in 3 variables are independent: the search would meet
    term cap 5 at p1^2, the certificate answers first."""
    qs = [sum((x(i, 3).pow(e) for i in range(3)), Polynomial.zero(Q, 3))
          for e in (1, 2, 3)]
    with pytest.raises(ExpansionTooLarge):
        algdep._annihilator(qs, 27, 5, None)
    with pytest.raises(NoAnnihilatorWithinCap) as info:
        find_annihilator(qs, term_cap=5)
    assert info.value.cap == 27


def test_certificate_fires_when_2_61_minus_1_divides_a_denominator():
    """(x+y)/(2^61-1) enters the Jacobian as its integer multiple x+y, so
    the certificate answers before the search would meet term cap 2 at the
    square."""
    s, d = x(0) + x(1), x(0) - x(1)
    scaled = s.scale(Fraction(1, M61))
    with pytest.raises(ExpansionTooLarge):
        algdep._annihilator([scaled, d], 2, 2, None)
    assert _full_rank_at_the_certificate_point([scaled, d])
    with pytest.raises(NoAnnihilatorWithinCap):
        find_annihilator([scaled, d], term_cap=2)


def test_mismatched_tuples_are_refused_before_the_certificate():
    with pytest.raises(DomainMismatch):
        find_annihilator([x(0), x(1, dom=FP)])
    with pytest.raises(DimensionMismatch):
        find_annihilator([x(0), x(1, nvars=3)])


def test_huge_exponent_is_certified_at_once(tmp_path):
    """{x1^(10^9), x2/3 + x1}: the search would build columns up to degree
    2*10^9; the certificate needs one power mod 2^61-1."""
    obj = {"field": {"type": "rational"}, "nvars": 2, "polys": [
        [{"coeff": "1", "mono": {"1": 10**9}}],
        [{"coeff": "1/3", "mono": {"2": 1}}, {"coeff": "1", "mono": {"1": 1}}],
    ]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["annihilate", "--poly-file", str(path), "--json"])
    error = json.loads(out)
    assert (code, error["error"], error["cap"]) == (2, "NoAnnihilatorWithinCap", 2 * 10**9)


# ----------------------------------------------------------------------
# translations

def test_translation_pair_trivially_good():
    a = sample_good_translation([x(0), x(0) * x(0)], (0,))
    assert len(a) == 2  # the certificate is constant: the very first draw works


def test_translation_e1_certificate_nonzero():
    qs = e1_triple()
    a = sample_good_translation(qs, (0, 1),
                                TranslationSampler(grid_size=64, seed=2))
    ann = find_annihilator([qs[0], qs[1], qs[2]])
    el = compose(ann.R.partial_derivative(((2, 1),)), qs)
    assert el.evaluate(a) != 0


def test_translation_adversarial_avoids_origin():
    # (x1^2, x1^3): the derivative certificate is a multiple of x1^3,
    # so a = 0 is bad and any good a must have a nonzero first coordinate
    qs = [x(0).pow(2), x(0).pow(3)]
    a = sample_good_translation(qs, (0,), TranslationSampler(grid_size=48, seed=0))
    assert a[0] != 0


@pytest.mark.parametrize("retries", [0, -3])
def test_translation_sampler_refuses_fewer_than_one_retry(retries):
    with pytest.raises(InvalidParams):
        TranslationSampler(grid_size=4, max_retries=retries)
    with pytest.raises(InvalidParams):
        TranslationSampler.for_tuple(3, 2, 2, max_retries=retries)


def test_translation_exhausts_retries():
    f101 = PrimeField(101)
    y = Polynomial.variable(f101, 1, 0)
    qs = [y.pow(2), y.pow(3)]
    # grid {0}: the only candidate translation is the bad origin
    with pytest.raises(NoGoodTranslation):
        sample_good_translation(qs, (0,), TranslationSampler(grid_size=1, seed=0))


def test_translation_grid_larger_than_the_field():
    f5 = PrimeField(5)
    qs = [Polynomial.variable(f5, 1, 0)] * 2
    with pytest.raises(FieldTooSmall):
        sample_good_translation(qs, (0,), TranslationSampler(grid_size=6, seed=0))
    a = sample_good_translation(qs, (0,), TranslationSampler(grid_size=5, seed=0))
    assert len(a) == 1 and type(a[0]) is int and 0 <= a[0] < 5


def test_translation_draws_the_grid_scalars_of_the_domain():
    # each retry draws uniform indices into dom.scalars(grid_size)
    for dom in (Q, PrimeField(1_000_003)):
        certificates = [Polynomial.variable(dom, 3, i) for i in range(2)]
        sampler = TranslationSampler(grid_size=3, seed=1)
        a = algdep._sample_translation(certificates, dom, 3, sampler)
        rng = random.Random(algdep.derive_seed(1, "translation"))
        grid = dom.scalars(3)
        draws = []
        while not draws or any(dom.is_zero(v) for v in draws[-1][:2]):
            draws.append(tuple(grid[rng.randrange(3)] for _ in range(3)))
        assert len(draws) > 1
        assert a == draws[-1] and [type(v) for v in a] == [type(dom.one)] * 3


# ----------------------------------------------------------------------
# reconstruction

def test_reconstruct_pair_at_origin():
    w = reconstruct_dependence([x(0), x(0) * x(0)], (0,), (0, 0))
    assert w.F[1] == Polynomial.from_text(Q, 1, "z1^2", var_prefix="z")


def test_reconstruct_e1_at_origin():
    w = reconstruct_dependence(e1_triple(), (0, 1), (0, 0))
    assert w.F[2] == Polynomial.from_text(Q, 2, "z1^2 - 2*z2", var_prefix="z")


def test_reconstruct_affine_pair():
    w = reconstruct_dependence([x(0), x(0) * x(0) + x(0)], (0,), (0, 0))
    assert w.F[1] == Polynomial.from_text(Q, 1, "z1^2 + z1", var_prefix="z")


def test_reconstruct_witness_identity_holds():
    rng = random.Random(79)
    from test_poly import random_poly
    for trial in range(15):
        g1 = random_poly(rng, Q, 3, 1)
        g2 = random_poly(rng, Q, 3, 1)
        f = random_poly(rng, Q, 2, 2)
        qs = [g1, g2, compose(f, [g1, g2])]
        cert = algebraic_rank(qs, mode="symbolic")
        if cert.rank != 2 or cert.basis_indices != (0, 1):
            continue
        a = sample_good_translation(qs, cert.basis_indices,
                                    TranslationSampler(grid_size=128, seed=trial))
        w = reconstruct_dependence(qs, cert.basis_indices, a)
        for i, f_i in w.F.items():
            lhs = qs[i].translate(a)
            rhs = compose(f_i, [qs[b].translate(a) for b in w.basis])
            assert lhs == rhs.homogeneous_le(w.truncation_degrees[i])


# ----------------------------------------------------------------------
# Newton cross-check

def test_newton_pair_single_step():
    out = newton_reconstruct([x(0), x(0) * x(0)], (0,), (0, 0), 1)
    assert out == x(0) * x(0)


def test_newton_matches_reconstruction_on_e1():
    qs = e1_triple()
    a = sample_good_translation(qs, (0, 1), TranslationSampler(grid_size=64, seed=4))
    w = reconstruct_dependence(qs, (0, 1), a)
    newton = newton_reconstruct(qs, (0, 1), a, 2)
    composed = compose(w.F[2], [qs[0].translate(a), qs[1].translate(a)])
    assert newton == composed.homogeneous_le(2)
    assert newton == qs[2].translate(a)


def test_newton_bad_translation_raises():
    qs = [x(0).pow(2), x(0).pow(3)]
    with pytest.raises(DerivativeVanishes):
        newton_reconstruct(qs, (0,), (0, 0), 1)


def quadratic_root_pair(dom, degree: int = 4):
    """[b, q] with b = q^2 + q and q = x1^h x2^h + x1 + x2^(degree-1),
    h = degree/2: R = Y^2 + Y - Z has the non-constant dR/dY = 2Y + 1, so
    each lift step needs 1/R_Y to the step's precision (a chord step with
    its constant term falls short).  At degree 8 the lift doubles through
    e = 1, 2, 4, 8, and 1/R_Y updated only after the first step falls short."""
    x1, x2 = x(0, dom=dom), x(1, dom=dom)
    q = x1.pow(degree // 2) * x2.pow(degree // 2) + x1 + x2.pow(degree - 1)
    return [q * q + q, q]


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_newton_lift_needs_the_full_series_inverse(dom):
    a = (2, 3)
    for degree in (4, 8):
        qs = quadratic_root_pair(dom, degree)
        assert newton_reconstruct(qs, (0,), a, 1) == qs[1].translate(a)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_newton_wrong_annihilator_does_not_converge(dom):
    z, y = x(0, dom=dom), x(1, dom=dom)
    wrong = algdep.Annihilator(R=z - y, degree=1)
    with pytest.raises(NonConvergence):
        newton_reconstruct(quadratic_root_pair(dom), (0,), (2, 3), 1, annihilator=wrong)


def test_newton_rank_zero_over_fp():
    qs = [Polynomial.constant(FP, 2, 3), Polynomial.constant(FP, 2, 7)]
    assert newton_reconstruct(qs, (), (5, 6), 1) == Polynomial.constant(FP, 2, 7)


# ----------------------------------------------------------------------
# rewrite

def test_rewrite_single_gate_sum():
    outer = OuterExpr(2, [("input", 0), ("input", 1), ("add", (0, 1))], 2)
    g = Gate(outer, [x(0), x(0) * x(0)])
    c = Circuit(Q, 2, DeclaredBounds(d=2, k=1, delta=2), [g])
    rewritten, a = rewrite_circuit(c, seed=3)
    assert expand(rewritten) == expand(c).translate(a)
    assert len(rewritten.gates[0].inner) <= 1 * (2 + 1)


def test_rewrite_full_rank_gate_componentizes_only():
    g = Gate("product", [x(0) + Polynomial.constant(Q, 2, 1), x(1)])
    c = Circuit(Q, 2, DeclaredBounds(d=1, k=2, delta=2), [g])
    rewritten, a = rewrite_circuit(c, seed=1)
    assert expand(rewritten) == expand(c).translate(a)
    inner = rewritten.gates[0].inner
    # full rank: inner lists are exactly the translated components
    expected = []
    for q in g.inner:
        tq = q.translate(a)
        expected.extend(tq.homogeneous_component(j) for j in range(tq.degree() + 1))
    assert inner == expected


def test_rewrite_two_gate_mixed_shared_translation():
    g1 = Gate("product", e1_triple())
    g2 = Gate("product", [x(0), x(0) * x(0)])
    c = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=5), [g1, g2])
    rewritten, a = rewrite_circuit(c, seed=11)
    assert expand(rewritten) == expand(c).translate(a)
    for g in rewritten.gates:
        assert len(g.inner) <= 2 * (2 + 1)


def test_rewrite_requires_char_zero():
    y = Polynomial.variable(FP, 1, 0)
    c = Circuit(FP, 1, DeclaredBounds(d=1, k=1, delta=1),
                [Gate("product", [y])])
    with pytest.raises(CharacteristicTooSmall):
        rewrite_circuit(c)


def test_rewrite_rejects_rank_above_declared():
    g = Gate("product", [x(0), x(1)])
    c = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=2), [g])
    with pytest.raises(BoundViolation) as info:
        rewrite_circuit(c)
    assert info.value.bound == "k"


def test_reconstruct_constant_non_basis():
    qs = [x(0), Polynomial.constant(Q, 2, 5)]
    cert = algebraic_rank(qs, mode="symbolic")
    assert (cert.rank, cert.basis_indices) == (1, (0,))
    w = reconstruct_dependence(qs, cert.basis_indices, (0, 0))
    assert w.F[1] == Polynomial.constant(Q, 1, 5)


def test_rank_zero_tuple_of_constants():
    qs = [Polynomial.constant(Q, 2, 3), Polynomial.constant(Q, 2, 7)]
    cert = algebraic_rank(qs, mode="symbolic")
    assert cert.rank == 0 and cert.basis_indices == ()
    a = sample_good_translation(qs, ())
    w = reconstruct_dependence(qs, (), a)
    assert w.F[0].coefficient(()) == 3
    assert w.F[1].coefficient(()) == 7
    out = newton_reconstruct(qs, (), a, 1)
    assert out == Polynomial.constant(Q, 2, 7)


def test_rewrite_all_constant_gate():
    g = Gate("product", [Polynomial.constant(Q, 2, 3),
                         Polynomial.constant(Q, 2, 7)])
    c = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=1), [g])
    rewritten, a = rewrite_circuit(c, seed=5)
    assert expand(rewritten) == Polynomial.constant(Q, 2, 21)


# ----------------------------------------------------------------------
# the one span query against the earlier dense paths

def _reference_reconstruct(qs, basis, a):
    """The earlier reconstruction: for dd = 1, 2, ..., one dense augmented
    elimination over every column h^{<=d_i}[basis(X+a)^alpha], |alpha| <= dd,
    until the target is in their span; free variables set to 0."""
    k, dom = len(basis), qs[0].domain
    b_polys = [qs[b].translate(a) for b in basis]
    d = max(1, max(q.degree() for q in qs))
    witnesses = {}
    for i in [i for i in range(len(qs)) if i not in basis]:
        d_i = qs[i].degree()
        target = qs[i].translate(a).terms
        cap_i = max(1, d_i * (k + 1) * d ** k)
        for dd in range(1, cap_i + 1):
            alphas = [al for e in range(dd + 1) for al in _dense_monos_exact(k, e)]
            entries = [_power_product(b_polys, al, d_i).terms for al in alphas] + [target]
            row_index = {}
            for terms in entries:
                for mono in terms:
                    row_index.setdefault(mono, len(row_index))
            rows = [[dom.zero] * len(entries) for _ in row_index]
            for ci, terms in enumerate(entries):
                for mono, c in terms.items():
                    rows[row_index[mono]][ci] = c
            rref, pivots = linalg.rref_dense(rows, dom)
            if pivots[-1] == len(alphas):  # the target is not in the span
                continue
            witnesses[i] = Polynomial(dom, k, {
                _dense_to_mono(alphas[pc]): rref[r][-1]
                for r, pc in enumerate(pivots) if not dom.is_zero(rref[r][-1])},
                _normalized=True)
            break
        else:
            raise NoSolutionWithinCap(i, cap_i)
    return witnesses


@pytest.mark.parametrize("dom", [Q, FP, PrimeField((1 << 61) - 1)], ids=str)
def test_witness_matches_reference_reconstruction(dom):
    rng = random.Random(83)
    from test_poly import random_poly

    def nonconstant(nvars, deg):
        while True:
            q = random_poly(rng, dom, nvars, deg)
            if q.degree() >= 1:
                return q

    for trial in range(40):
        nvars = rng.choice([2, 3])
        base = [nonconstant(nvars, rng.choice([1, 2])) for _ in range(rng.choice([1, 2]))]
        # planted dependents, truncated back to degree d_i after the
        # translation, and a zero or constant member, in shuffled positions
        members = base + [compose(nonconstant(len(base), 2), base),
                          Polynomial.constant(dom, nvars, rng.choice([0, 1, 5]))]
        if trial % 2:
            members.append(compose(nonconstant(len(base), 1), base))
        order = list(range(len(members)))
        rng.shuffle(order)
        qs = [members[o] for o in order]
        basis = tuple(sorted(order.index(b) for b in range(len(base))))
        a = tuple(dom.coerce(rng.randrange(-3, 4)) for _ in range(nvars))
        expected = _reference_reconstruct(qs, basis, a)
        got = reconstruct_dependence(qs, basis, a)
        assert set(got.F) == set(expected)
        for i, f_i in expected.items():
            assert list(got.F[i].terms.items()) == list(f_i.terms.items())


def test_bad_translation_has_no_witness_within_cap():
    # (x^2, x^3) at a = 0: x^3 = z^(3/2) is no polynomial in z = x^2, so no
    # degree up to the cap d_i*(k+1)*d^k = 3*2*3 = 18 solves it
    qs = [x(0, 1).pow(2), x(0, 1).pow(3)]
    for reconstruct in (_reference_reconstruct, reconstruct_dependence):
        with pytest.raises(NoSolutionWithinCap) as info:
            reconstruct(qs, (0,), (0,))
        assert (info.value.index, info.value.cap) == (1, 18)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
@pytest.mark.parametrize("texts, basis, expected, streamed_caps", [
    (["x1", "x2"], (0,), (1, 2), []),
    (["x1^3", "x1", "x2^2"], (1,), (2, 12), [18])])
def test_a_target_variable_outside_the_basis_has_no_witness(dom, texts, basis, expected,
                                                            streamed_caps, monkeypatch):
    """x2 occurs in the target and in no basis member, so no combination of
    basis powers is the target: NoSolutionWithinCap with the (index, cap) of
    the full column search, raised before any column for it streams (q_1 =
    x1^3 in the second tuple streams its own, with cap 3*2*3 = 18)."""
    qs = [Polynomial.from_text(dom, 2, text) for text in texts]
    a = (dom.coerce(1), dom.coerce(-2))
    with pytest.raises(NoSolutionWithinCap) as info:
        _reference_reconstruct(qs, basis, a)
    assert (info.value.index, info.value.cap) == expected
    columns, caps = _CompositionTable.columns, []

    def streamed(table):
        caps.append(table.cap)
        yield from columns(table)

    monkeypatch.setattr(_CompositionTable, "columns", streamed)
    with pytest.raises(NoSolutionWithinCap) as info:
        reconstruct_dependence(qs, basis, a)
    assert (info.value.index, info.value.cap) == expected
    assert caps == streamed_caps


def _greedy_basis(matrix, dom, rank):
    """The earlier greedy scan: keep row i when it raises the dense rank."""
    basis, chosen = [], []
    for i, row in enumerate(matrix):
        if len(basis) == rank:
            break
        if linalg.rank_dense(chosen + [row], dom) > len(basis):
            basis.append(i)
            chosen.append(row)
    return tuple(basis)


@pytest.mark.parametrize("dom", [Q, FP], ids=str)
def test_randomized_basis_matches_greedy_scan(dom):
    """The rank and basis agree with the symbolic Jacobian evaluated at each
    point and eliminated densely, an independent reference."""
    rng = random.Random(89)
    from test_poly import random_poly
    for trial in range(30):
        nvars = rng.choice([2, 3])
        qs = [random_poly(rng, dom, nvars, rng.choice([1, 2])) for _ in range(2)]
        qs.insert(rng.randrange(3), compose(random_poly(rng, dom, 2, 2), qs))
        qs.insert(rng.randrange(4), Polynomial.constant(dom, nvars, rng.choice([0, 3])))
        qs.append(random_poly(rng, dom, nvars, 2))
        cert = algebraic_rank(qs, seed=trial)
        jac = jacobian(qs)
        numeric = [[[e.evaluate(pt) for e in row] for row in jac]
                   for pt in cert.evaluation_points]
        ranks = [linalg.rank_dense(m, dom) for m in numeric]
        assert cert.rank == max(ranks)
        best = numeric[ranks.index(max(ranks))]
        assert cert.basis_indices == _greedy_basis(best, dom, cert.rank)
