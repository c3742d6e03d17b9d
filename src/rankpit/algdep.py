"""Algebraic rank, annihilating polynomials, and functional dependence.

The constructive core: certify the algebraic rank of a polynomial tuple,
exhibit a minimal-degree annihilator as the first dependent column in
graded order, and reconstruct every dependent polynomial as a truncated
polynomial function of a transcendence basis after a good translation, as
the first dependency on it in that graded stream; both searches ask the one
span query `linalg.dependent_columns`, over the power products that
`poly._CompositionTable` builds.  Every annihilator, whether it proves a
rank, answers `find_annihilator`, certifies a translation or seeds the
Newton lift, comes from the one search `_annihilator`.
Both bounds of the exact rank are checked.  A Jacobian of rank r at one
point of a prime field makes an r x r minor a nonzero polynomial.  If those
r polynomials had a minimal annihilator A, the chain rule would make
((dA/dy_i)(q))_i a nonzero left-kernel vector of their Jacobian (if every
dA/dy_i vanished, A would be a p-th power over the perfect field; a nonzero
one has smaller degree than A, so it does not vanish at q).  So rank >= r
in every characteristic, and an annihilator of the r plus any other q_i,
checked by composing it to zero, gives rank <= r, as does r equal to the
number of variables that occur.  The same point answers
an independent tuple before any annihilator column is built.  Every
Jacobian point, certified or randomized, is read by `_jacobian_rows`.
A power-series Newton lift of the annihilator root cross-checks the
reconstruction: it carries 1/R_Y with the root, one Newton step on each per
doubling of the precision, and skips the Y-derivative at the last step.  The
whole machinery drives the circuit rewrite that replaces a gate's inputs by
the homogeneous components of its basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .circuit import (Circuit, DeclaredBounds, Gate, OuterExpr, _graft,
                      _interpolation_weights)
from .domains import PrimeField, is_prime
from .errors import (BoundViolation, CharacteristicTooSmall, DerivativeVanishes,
                     FieldTooSmall, InvalidParams, NoAnnihilatorWithinCap,
                     NoGoodTranslation, NonConvergence, NoSolutionWithinCap,
                     RankNotCertified)
from .poly import DEFAULT_TERM_CAP, Polynomial, _CompositionTable, compose
from .util import derive_seed

_CERTIFY_ATTEMPTS = 3
_CERTIFICATE_SEED = derive_seed(0, "annihilator-certificate")  # find_annihilator's point
_SECURITY_BITS = 30  # randomized rank draws from >= 2*t*d*2^30 scalars
_TRIALS = 3  # Jacobian points per randomized rank


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    basis_indices: tuple
    method: str                      # "jacobian-randomized" | "jacobian-certified"
    evaluation_points: tuple = ()
    security: int | None = None
    error_bound: Fraction | None = None


@dataclass(frozen=True)
class Annihilator:
    R: Polynomial      # in t variables, leading coefficient 1 under graded-lex
    degree: int


@dataclass(frozen=True)
class DependenceWitness:
    a: tuple
    basis: tuple
    F: dict            # non-basis index -> Polynomial in k = len(basis) variables
    truncation_degrees: dict


@dataclass(frozen=True)
class TranslationSampler:
    grid_size: int
    seed: int = 0
    max_retries: int = 10

    def __post_init__(self):
        if self.max_retries < 1:
            raise InvalidParams(f"max_retries must be >= 1, got {self.max_retries}")

    @classmethod
    def for_tuple(cls, t: int, k: int, d: int, seed: int = 0,
                  max_retries: int = 10) -> "TranslationSampler":
        # grid of size 2*t*(k+1)*d^(k+1): each goodness certificate has degree
        # at most (k+1)*d^(k+1), so one uniform sample is bad w.p. <= 1/2t
        return cls(grid_size=2 * max(1, t) * (k + 1) * max(1, d) ** (k + 1),
                   seed=seed, max_retries=max_retries)


# ----------------------------------------------------------------------
# Jacobian and rank

def jacobian(qs: list[Polynomial]) -> list[list[Polynomial]]:
    """J[i][j] = d q_i / d x_j.  Refuses small characteristic."""
    if not qs:
        return []
    _check_jacobian_characteristic(qs)
    nvars = qs[0].nvars
    return [[q.partial_derivative(((j, 1),)) for j in range(nvars)] for q in qs]


def _check_jacobian_characteristic(qs):
    dom = qs[0].domain
    if dom.characteristic == 0:
        return
    prod = 1
    for q in qs:
        prod *= max(1, q.degree())
    if dom.characteristic <= prod:
        raise CharacteristicTooSmall(
            f"rank criterion needs char 0 or p > {prod}, have p = {dom.characteristic}")


def algebraic_rank(qs: list[Polynomial], mode: str = "randomized", *,
                   seed: int = 0,
                   term_cap: int | None = DEFAULT_TERM_CAP) -> RankCertificate:
    """Rank certificate for a polynomial tuple via the Jacobian criterion.

    Randomized mode evaluates the Jacobian at `_TRIALS` points drawn from a
    scalar set of size >= 2*t*d*2^30 (`_SECURITY_BITS`) and reports the
    maximum rank seen: one-sided, never above the true rank, below it with
    probability at most (t*d/|S|)^_TRIALS.  `_jacobian_rows` reads each
    point exactly (mod no prime over Q), and the basis is the greedy matroid scan at the first
    point of maximum rank: keep q_i whenever it raises the rank.  Symbolic mode is exact in
    every characteristic and never guesses: the greedy basis at a Jacobian
    point is proved independent, and maximal by checked annihilators or by
    its size, the number of variables that occur (`_certified_rank`).
    """
    if mode == "symbolic":
        return _certified_rank(qs, seed, term_cap)[0]
    if mode != "randomized":
        raise InvalidParams(f"unknown rank mode {mode!r}")
    t = len(qs)
    if t == 0:
        return RankCertificate(0, (), "jacobian-randomized")
    _check_jacobian_characteristic(qs)
    dom = qs[0].domain
    d = max(1, max(q.degree() for q in qs))
    target = 2 * t * d * (1 << _SECURITY_BITS)
    size = min(dom.p, target) if isinstance(dom, PrimeField) else target
    rng = random.Random(derive_seed(seed, "algrank"))
    char = dom.characteristic
    basis, points = [], []
    for _ in range(_TRIALS):
        point = tuple(dom.coerce(rng.randrange(size)) for _ in range(qs[0].nvars))
        points.append(point)
        found = _independent_rows(_jacobian_rows(qs, [int(x) for x in point], char), char)
        if len(found) > len(basis):
            basis = found
    bound = (Fraction(t * d, size)) ** _TRIALS
    return RankCertificate(len(basis), tuple(basis), "jacobian-randomized",
                           evaluation_points=tuple(points), security=_SECURITY_BITS,
                           error_bound=bound)


def _independent_rows(rows, p: int) -> list[int]:
    """The greedy row basis: the rows that no earlier rows span."""
    dependent = {j for j, _ in linalg.dependent_columns(
        (dict(enumerate(row)) for row in rows), p)}
    return [i for i in range(len(rows)) if i not in dependent]


def _certified_rank(qs: list[Polynomial], seed: int,
                    term_cap) -> tuple[RankCertificate, dict]:
    """The exact rank of qs, proved as the module docstring says, and the
    annihilators of (basis, q_i) that prove it: none if the basis is as large
    as the number of variables that occur.  An unlucky point, refuted by an
    independent (basis, q_i), or a tuple such as (x^p, y), singular
    everywhere, moves on to the next point, up to _CERTIFY_ATTEMPTS."""
    if not qs:
        return RankCertificate(0, (), "jacobian-certified"), {}
    occurring = len({v for q in qs for mono in q.terms for v, _ in mono})
    for attempt in range(_CERTIFY_ATTEMPTS):
        point_seed = derive_seed(seed, "certified-rank", attempt)
        basis = _point_basis(qs, point_seed)
        try:
            annihilators = {} if len(basis) == occurring else {
                i: _annihilator([qs[b] for b in basis] + [qs[i]], None, term_cap,
                                derive_seed(point_seed, i))
                for i in range(len(qs)) if i not in basis}
        except NoAnnihilatorWithinCap:
            continue
        return RankCertificate(len(basis), tuple(basis), "jacobian-certified"), annihilators
    raise RankNotCertified(_CERTIFY_ATTEMPTS)


# ----------------------------------------------------------------------
# annihilators

def find_annihilator(qs: list[Polynomial], cap: int | None = None, *,
                     term_cap: int | None = DEFAULT_TERM_CAP) -> Annihilator:
    """Minimal-total-degree annihilator R with R(q_1, ..., q_t) = 0 exactly.

    The columns q^alpha = prod_j q_j^alpha_j are taken in ascending graded-lex
    order of z^alpha and stream through `linalg.dependent_columns`.  The
    first column that depends on the earlier ones, q^alpha = sum c_beta
    q^beta, gives R = z^alpha - sum c_beta z^beta: an annihilator with a
    smaller leading monomial would make an earlier column dependent, and two
    monic ones with leading monomial z^alpha would differ by one, so R is
    the monic minimal-degree annihilator with order-minimal leading monomial
    (the dependency test of FGLM).

    The default cap is t*d^(t-1), the annihilator degree bound (k+1)*d^k for
    degree-d inputs of rank k instantiated at the dependent regime k = t-1.

    Before any column is built, the Jacobian is evaluated at one fixed
    seeded point of a prime field (`_point_basis`).  Rank t there proves, in
    every characteristic, that no annihilator exists at any degree (see the
    module docstring), so NoAnnihilatorWithinCap is raised at once; a
    smaller rank proves nothing and the search runs.
    """
    if not qs:
        raise InvalidParams("empty tuple has no annihilator")
    if cap is not None and cap < 1:
        raise InvalidParams("annihilator cap must be >= 1")
    return _annihilator(qs, cap, term_cap, _CERTIFICATE_SEED)


def _annihilator(qs: list[Polynomial], cap: int | None, term_cap,
                 seed: int | None) -> Annihilator:
    """The one annihilator search, without `find_annihilator`'s checks.

    cap=None is the bound t*d^(t-1).  Given a seed, full Jacobian rank at
    the point that `_point_basis` draws from it raises NoAnnihilatorWithinCap
    before any column is built; seed=None reads no point.  Then the graded
    column search runs, and its answer is checked by composing it to zero."""
    if cap is None:
        cap = len(qs) * max(1, max(q.degree() for q in qs)) ** (len(qs) - 1)
    if seed is not None and len(_point_basis(qs, seed)) == len(qs):
        raise NoAnnihilatorWithinCap(cap)
    table = _CompositionTable(qs, cap, term_cap=term_cap)
    j, lam = next(linalg.dependent_columns(table.columns(), table.p), (None, None))
    if lam is None:
        raise NoAnnihilatorWithinCap(cap)
    r_poly = table.combination(lam, table.den(table.alphas[j]))
    if not compose(r_poly, qs, term_cap=term_cap).is_zero():
        raise AssertionError("kernel element does not annihilate (internal bug)")
    return Annihilator(R=r_poly, degree=r_poly.degree())


def _point_basis(qs: list[Polynomial], seed: int) -> list[int]:
    """The greedy basis of `_jacobian_rows` mod p at a point that `seed`
    draws, p = char, or over Q a prime in [2^61, 2^62) that `seed` draws
    first; a minor nonzero mod p is nonzero over Q (a ring map)."""
    p = qs[0].domain.characteristic
    rng = random.Random(seed)
    while not p:  # seeded odd candidates until one is prime
        c = rng.randrange((1 << 61) + 1, 1 << 62, 2)
        p = c if is_prime(c) else 0
    point = [rng.randrange(p) for _ in range(qs[0].nvars)]
    return _independent_rows(_jacobian_rows(qs, point, p), p)


def _jacobian_rows(qs: list[Polynomial], point: list[int], p: int) -> list[list[int]]:
    """Rows of the Jacobian at an integer point, as residues mod p, or as
    exact integers for p = 0.  Over Q, row i is the Jacobian of the integer
    polynomial D_i*q_i (`_int_form`); scaling a row by D_i != 0 keeps
    every rank and the greedy row basis.  The partial in x_v of a term is
    c * e * x_v^(e-1) times the factors before x_v and those after it; the
    products of the factors after each variable are formed once per term,
    reduced mod p as they grow, so a term costs time linear in its support.
    Refuses mismatched tuples."""
    for q in qs:
        qs[0]._check_compat(q)
    mod = p or None
    rows = []
    for q in qs:
        row = [0] * len(point)
        for mono, _, c in q._int_form()[0]:
            after = [1]  # after.pop() is the product of the factors after x_v
            for v, e in reversed(mono[1:]):
                x = after[-1] * pow(point[v], e, mod)
                after.append(x % p if p else x)
            for v, e in mono:  # c absorbs the factors before x_v
                low = pow(point[v], e - 1, mod)
                row[v] += c * e * low * after.pop()
                c *= low * point[v]
                if p:
                    c %= p
        rows.append([x % p for x in row] if p else row)
    return rows


# ----------------------------------------------------------------------
# good translations

def _goodness_certificates(qs, basis, annihilators: dict | None,
                           term_cap) -> list[Polynomial]:
    """L_i = (dA_i/dY)(basis..., q_i) for the annihilator A_i of (basis, q_i),
    for every non-basis i."""
    k = len(basis)
    basis_polys = [qs[b] for b in basis]
    ls = []
    for i in (i for i in range(len(qs)) if i not in basis):
        sub = basis_polys + [qs[i]]
        ann = (annihilators or {}).get(i) or _annihilator(sub, None, term_cap, None)
        dA = ann.R.partial_derivative(((k, 1),))
        li = compose(dA, sub, term_cap=term_cap)
        if li.is_zero():
            raise AssertionError(
                "derivative certificate vanished identically: annihilator not minimal")
        ls.append(li)
    return ls


def sample_good_translation(qs: list[Polynomial], basis,
                            sampler: TranslationSampler | None = None,
                            annihilators: dict | None = None, *,
                            term_cap: int | None = DEFAULT_TERM_CAP) -> tuple:
    """A grid point a with L_i(a) != 0 for every non-basis index i.

    The grid is the fixed deterministic scalar set {0, 1, ...} of the size the
    sampler carries; each retry is one uniform draw from grid^N.
    """
    basis = tuple(basis)
    dom = qs[0].domain
    nvars = qs[0].nvars
    if len(basis) == len(qs):
        return tuple(dom.zero for _ in range(nvars))
    sampler = sampler or TranslationSampler.for_tuple(
        len(qs), len(basis), max(1, max(q.degree() for q in qs)))
    ls = _goodness_certificates(qs, basis, annihilators, term_cap)
    return _sample_translation(ls, dom, nvars, sampler)


def _sample_translation(certificates: list[Polynomial], dom, nvars: int,
                        sampler: TranslationSampler) -> tuple:
    """The first uniform draw from grid^N where every certificate is nonzero;
    the grid is the first `grid_size` scalars 0, 1, 2, ... of `dom`."""
    size, p = sampler.grid_size, dom.characteristic
    if 0 < p < size:
        raise FieldTooSmall(f"need {size} distinct scalars, field has {p}")
    rng = random.Random(derive_seed(sampler.seed, "translation"))
    for _ in range(sampler.max_retries):
        a = tuple(dom.coerce(rng.randrange(size)) for _ in range(nvars))
        if all(not dom.is_zero(li.evaluate(a)) for li in certificates):
            return a
    raise NoGoodTranslation(sampler.max_retries)


# ----------------------------------------------------------------------
# dependence reconstruction: the first dependency on the target

def reconstruct_dependence(qs: list[Polynomial], basis, a, *,
                           term_cap: int | None = DEFAULT_TERM_CAP) -> DependenceWitness:
    """Witness polynomials F_i with q_i(X+a) = h^{<=d_i}[F_i(basis(X+a))], exact.

    For each non-basis index the target q_i(X+a) streams through
    `linalg.span_coefficients` ahead of the truncated compositions
    h^{<=d_i}[basis(X+a)^alpha] in ascending graded-lex order of z^alpha: the
    first dependency that involves the target writes it in the independent
    columns before it, and that combination is F_i.  If none appears by
    degree d_i, NoSolutionWithinCap signals a bad translation (resample and
    retry); it comes before any column when the target has a variable that
    no basis member has.  Every witness is re-verified by composition,
    truncated to degree d_i inside `compose`, before return.  No column past
    degree d_i is needed: with b(X+a) = b(a) + b~, b~ free of constants,
    span{b^alpha : |alpha| <= d_i} = span{b~^beta : |beta| <= d_i}, and
    h^{<=d_i} kills every b~^beta with |beta| > d_i.
    """
    basis = tuple(basis)
    t = len(qs)
    k = len(basis)
    dom = qs[0].domain
    non_basis = [i for i in range(t) if i not in basis]
    b_polys = [qs[b].translate(a) for b in basis]
    f_map: dict = {}
    trunc: dict = {}
    for i in non_basis:
        d_i = qs[i].degree()
        target = qs[i].translate(a)
        trunc[i] = d_i
        if k == 0:
            # rank-0 tuple: every polynomial is a constant
            f_map[i] = Polynomial.constant(dom, 0, target.coefficient(()))
            continue
        cap_i = max(1, d_i)
        table = _CompositionTable(b_polys, cap_i, degree_cap=d_i, term_cap=term_cap)
        terms, den = target._int_form()
        packed = table.pack(terms)  # None: a variable that no basis member has
        x = None if packed is None else linalg.span_coefficients(packed, table.columns(), dom)
        if x is None:
            raise NoSolutionWithinCap(i, cap_i)
        solution = table.combination(x, den)
        if compose(solution, b_polys, term_cap=term_cap, degree_cap=d_i) != target:
            raise AssertionError("witness failed exact verification (internal bug)")
        f_map[i] = solution
    return DependenceWitness(a=tuple(a), basis=basis, F=f_map,
                             truncation_degrees=trunc)


# ----------------------------------------------------------------------
# Newton cross-check oracle

def newton_reconstruct(qs: list[Polynomial], basis, a, i: int,
                       annihilator: Annihilator | None = None, *,
                       term_cap: int | None = DEFAULT_TERM_CAP) -> Polynomial:
    """Cross-check oracle: lift q_i(X+a) as the power-series root y of its
    annihilator R(Z, Y), doubling the precision e up to degree d_i.

    Per doubling, one Newton step each on y and v = 1/R_Y(b(X+a), y), right
    to degree e/2 before and to e after: y <- y - R(b(X+a), y)*v, then, but
    at the last e, v <- v*(2 - R_Y*v) at the new y; all through `compose` and
    products truncated to degree <= e.  Raises DerivativeVanishes if R_Y
    vanishes at (b(a), q_i(a)), NonConvergence unless y = q_i(X+a)."""
    basis = tuple(basis)
    dom = qs[0].domain
    R = (annihilator or _annihilator([qs[b] for b in basis] + [qs[i]], None, term_cap, None)).R
    dR = R.partial_derivative(((len(basis), 1),))
    d_i = qs[i].degree()
    target = qs[i].translate(a)
    b_translated = [qs[b].translate(a) for b in basis]
    y0 = target.coefficient(())
    l0 = dR.evaluate([b.coefficient(()) for b in b_translated] + [y0])
    if dom.is_zero(l0):
        raise DerivativeVanishes("translation is not good for this index")
    y = Polynomial.constant(dom, qs[0].nvars, y0)
    v = Polynomial.constant(dom, qs[0].nvars, dom.inv(l0))
    e = 0
    while e < d_i:
        e = min(max(1, 2 * e), d_i)
        g = compose(R, b_translated + [y], term_cap=term_cap, degree_cap=e)
        y = y - g.mul(v, degree_cap=e)
        if e < d_i:
            gp = compose(dR, b_translated + [y], term_cap=term_cap, degree_cap=e)
            v = v.scale(2) - v.mul(gp.mul(v, degree_cap=e), degree_cap=e)
    if y != target.homogeneous_le(d_i):
        raise NonConvergence("Newton lift disagrees with the translated polynomial")
    return y


# ----------------------------------------------------------------------
# circuit rewrite: inner lists become homogeneous components of a basis

def rewrite_circuit(c: Circuit, seed: int = 0, *,
                    term_cap: int | None = DEFAULT_TERM_CAP) -> tuple[Circuit, tuple]:
    """Rewrite every gate over the homogeneous components of its basis.

    One shared translation a is sampled (verified good for all gates at
    once); gate i's inner list becomes {h^j[q_ib(X+a)]} for b in its basis,
    and its outer DAG composes the old outer with the dependence witnesses
    and the interpolated truncations, so that expand(C')(X) = expand(C)(X+a).
    """
    dom = c.domain
    if dom.characteristic != 0:
        raise CharacteristicTooSmall("the rewrite requires a characteristic-zero domain")
    nvars = c.nvars
    # one shared grid: union bound over every goodness certificate
    certs, all_ls, total_nonbasis = [], [], 0
    for gi, g in enumerate(c.gates):
        cert, anns = _certified_rank(g.inner, derive_seed(seed, "rank", gi), term_cap)
        bound = c.declared.k if g.rank_bound is None else min(c.declared.k, g.rank_bound)
        if cert.rank > bound:
            raise BoundViolation(gi, "k", bound, cert.rank)
        certs.append(cert)
        total_nonbasis += len(g.inner) - cert.rank
        all_ls += _goodness_certificates(g.inner, cert.basis_indices, anns, term_cap)
    k_max = max((cert.rank for cert in certs), default=0)
    d_max = max((q.degree() for g in c.gates for q in g.inner), default=1)
    if all_ls:
        sampler = TranslationSampler.for_tuple(total_nonbasis, k_max, d_max, seed=seed)
        a = _sample_translation(all_ls, dom, nvars, sampler)
    else:
        a = tuple(dom.zero for _ in range(nvars))

    new_gates = []
    for g, cert in zip(c.gates, certs):
        witness = reconstruct_dependence(g.inner, cert.basis_indices, a,
                                         term_cap=term_cap)
        new_gates.append(_rewrite_gate(g, cert, witness, dom, nvars))
    d_new = c.declared.d
    k_new = max((len(g.inner) for g in new_gates), default=c.declared.k)
    delta_new = max((g.formal_degree() for g in new_gates), default=c.declared.delta)
    declared = DeclaredBounds(d=d_new, k=max(c.declared.k, k_new),
                              delta=max(c.declared.delta, delta_new))
    return Circuit(dom, nvars, declared, new_gates), a


def _rewrite_gate(g: Gate, cert: RankCertificate, witness: DependenceWitness,
                  dom, nvars: int) -> Gate:
    basis = cert.basis_indices
    t = len(g.inner)
    b_translated = [g.inner[b].translate(witness.a) for b in basis]
    comp_polys: list[Polynomial] = []
    comp_ids: dict[tuple[int, int], int] = {}  # (basis position, degree) -> input index
    for pos, bp in enumerate(b_translated):
        for j in range(bp.degree() + 1):
            comp_ids[(pos, j)] = len(comp_polys)
            comp_polys.append(bp.homogeneous_component(j))
    if not comp_polys:
        comp_polys = [Polynomial.constant(dom, nvars, dom.one)]  # placeholder input

    nodes: list = [("input", idx) for idx in range(len(comp_polys))]

    def push(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    arg_ids: list[int] = [0] * t
    for pos, b in enumerate(basis):
        ids = tuple(comp_ids[(pos, j)] for j in range(b_translated[pos].degree() + 1))
        arg_ids[b] = push(("add", ids))
    for i, f_i in witness.F.items():
        d_i = witness.truncation_degrees[i]
        d_f = f_i.degree()
        d_z = d_f * max((bp.degree() for bp in b_translated), default=0)
        if d_z == 0 or f_i.nvars == 0:
            arg_ids[i] = push(("const", dom.coerce(f_i.coefficient(()))))
            continue
        zs = [dom.coerce(u + 1) for u in range(d_z + 1)]
        mu = _interpolation_weights(zs, range(d_i + 1), dom)  # keeps degrees <= d_i
        terms = []
        for u, z in enumerate(zs):
            scaled_args = []
            for pos in range(len(basis)):
                addends = []
                zp = dom.one
                for j in range(b_translated[pos].degree() + 1):
                    cn = push(("const", dom.coerce(zp)))
                    addends.append(push(("mul", (cn, comp_ids[(pos, j)]))))
                    zp = dom.mul(zp, z)
                scaled_args.append(push(("add", tuple(addends))))
            call_id = push(("call", f_i, tuple(scaled_args)))
            cn = push(("const", dom.coerce(mu[u])))
            terms.append(push(("mul", (cn, call_id))))
        arg_ids[i] = push(("add", tuple(terms)))

    root = _graft(nodes, g.outer, arg_ids)
    outer = OuterExpr(len(comp_polys), nodes, root)
    # the old k bounds the old inputs; the components' rank is <= their number, nvars
    k = None if g.rank_bound is None else min(len(comp_polys), nvars)
    return Gate(outer, comp_polys, rank_bound=k)
