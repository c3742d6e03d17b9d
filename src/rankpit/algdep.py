"""Algebraic rank, annihilating polynomials, and functional dependence.

The constructive core: certify the algebraic rank of a polynomial tuple,
exhibit a minimal-degree annihilator as the first dependent column in a
monomial order, and reconstruct every dependent polynomial as a truncated
polynomial function of a transcendence basis after a good translation, as
the first dependency on it in the graded-lex stream; both searches ask the
one span query `linalg.dependent_columns`, over the power products that
`poly._CompositionTable` builds.  Every annihilator, whether it proves a
rank, answers `find_annihilator`, tests a translation or seeds the Newton
lift, comes from the one search `_annihilator`.  Where a Jacobian read
proves rank >= t-1, its columns come by weighted degree sum_j deg(q_j)*alpha_j
(ties in graded-lex), up to the annihilator's, that of Perron's bound: the
annihilators form a principal ideal (A), a height-1 prime of a UFD, and the
first dependent column in any monomial order is LM(A), so R, monic in
graded-lex, is as before.  Below rank t-1 the orders can disagree ((x, x^2,
x^3): z1*z3 - z2^2 or z1^2 - z2).  A translation a is good where L_i(a) =
(dA_i/dY)(basis(a), q_i(a)) != 0 for the annihilator A_i of (basis, q_i),
for every non-basis i: a value, with no polynomial composed.
Then each q_i(X+a) is a truncated polynomial in basis(X+a), so `depend` and
the rewrite, which never print A_i, search none: they take the first draw
where that witness exists and checks, no later than the first good one.
Both bounds of the exact rank are checked.  A Jacobian of rank r at one
point of a prime field makes an r x r minor a nonzero polynomial.  If those
r polynomials had a minimal annihilator A, the chain rule would make
((dA/dy_i)(q))_i a nonzero left-kernel vector of their Jacobian (if every
dA/dy_i vanished, A would be a p-th power over the perfect field; a nonzero
one has smaller degree than A, so it does not vanish at q).  So rank >= r
in every characteristic, and an annihilator of the r plus any other q_i,
checked by composing it to zero, gives rank <= r, as does r = |I| for the
essential coordinates I (`_essential`; Carlini, "Reducing the number of
variables of a polynomial", 2006; Kayal, SODA 2011).  Let K be the
directions v with sum_u v_u dq/dx_u = 0 for every q.  In characteristic 0,
or when p exceeds every degree, q(x + t*v) has zero t-derivative and degree
< p in t, so each q is constant along K; I is the greedy independent
columns of the partial derivatives, F^N = span(e_I) + K, and each q is a
polynomial in |I| linear forms.  Otherwise I is every variable that occurs.
The same point answers an independent tuple, and a basis of size |I| any
tuple, before any annihilator column is built.  Every Jacobian point,
certified or randomized, is read by `_point_basis`.
A power-series Newton lift of the annihilator root cross-checks the
reconstruction: it carries 1/R_Y with the root, one Newton step on each per
doubling of the precision, and skips the Y-derivative at the last step.  The
whole machinery drives the circuit rewrite that replaces a gate's inputs by
the homogeneous components of its basis, each dependent input by one call of
F_i of the component sums, cut to weighted degree <= d_i: no interpolation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .circuit import Circuit, DeclaredBounds, Gate, OuterExpr, _graft
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
_SHORTCUT_PRIME = (1 << 61) - 1  # over Q, a read that only saves work is made mod this prime


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
        # grid of size 2*t*(k+1)*d^(k+1): each L_i has degree at most
        # (k+1)*d^(k+1) in a, so one uniform sample is bad w.p. <= 1/2t
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
    p, need = qs[0].domain.characteristic, math.prod(max(1, q.degree()) for q in qs)
    if 0 < p <= need:
        raise CharacteristicTooSmall(f"rank criterion needs char 0 or p > {need}, have p = {p}")


def algebraic_rank(qs: list[Polynomial], mode: str = "randomized", *,
                   seed: int = 0,
                   term_cap: int | None = DEFAULT_TERM_CAP) -> RankCertificate:
    """Rank certificate for a polynomial tuple via the Jacobian criterion.

    Randomized mode reports the maximum rank over `_TRIALS` `_point_basis`
    reads at points of S^n, S = {0, ..., |S|-1}, |S| >= 2*t*d*2^30
    (`_SECURITY_BITS`), and the greedy basis at the first point of that rank.
    Over Q a read is mod a prime p drawn first, so never above the rank r.
    A read falls short only if an r x r minor M (degree <= t*d) vanishes at
    the point, w.p. <= t*d/|S| (Schwartz-Zippel), or if p divides v = M(point)
    != 0.  An entry of row i, of D_i*q_i with T_i terms and integer
    coefficients <= h_i, is <= T_i*h_i*d_i*|S|^(d_i-1), so Hadamard's bound
    gives log2|v| <= B = sum_i ceil(log2(n*T_i*h_i*d_i)) + (d_i-1)*ceil(log2|S|).
    v has at most B/61 prime factors >= 2^61, and p is uniform over the more
    than 3*10^16 primes of [2^61, 2^62) (about 3.9*10^16, Rosser-Schoenfeld
    1962).  So error_bound is (t*d/|S| + B/(61*3*10^16))^_TRIALS over Q, and
    (t*d/|S|)^_TRIALS over F_p.  Symbolic mode is exact in every
    characteristic and never guesses: the greedy basis at a Jacobian point
    is proved independent, and maximal by checked annihilators or by its
    size, |I| for the essential coordinates I (`_certified_rank`).
    """
    if mode == "symbolic":
        return _certified_rank(qs, seed, term_cap)
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
    reads = [_point_basis(qs, rng, size) for _ in range(_TRIALS)]
    basis = max((found for _, found in reads), key=len)  # the first of maximum rank
    points = tuple(tuple(map(dom.coerce, point)) for point, _ in reads)
    bound = Fraction(t * d, size)
    if not dom.characteristic:  # B of the docstring
        bits = 0
        for q in qs:
            h = max((abs(c) for _, _, c in q._int_form()[0]), default=0)
            bits += ((max(1, q.nvars * len(q.terms) * h * q.degree()) - 1).bit_length()
                     + max(0, q.degree() - 1) * (size - 1).bit_length())
        bound += Fraction(bits, 61 * 3 * 10 ** 16)
    return RankCertificate(len(basis), tuple(basis), "jacobian-randomized",
                           evaluation_points=points, security=_SECURITY_BITS,
                           error_bound=bound ** _TRIALS)


def _certified_rank(qs: list[Polynomial], seed: int, term_cap) -> RankCertificate:
    """The exact rank of qs, proved as the module docstring says, by checked
    annihilators of (basis, q_i) unless the basis is as large as the
    essential coordinates (`_essential`).  An unlucky point, refuted by an
    independent (basis, q_i), or a tuple such as (x^p, y), singular
    everywhere, moves on to the next point, up to _CERTIFY_ATTEMPTS."""
    if not qs:
        return RankCertificate(0, (), "jacobian-certified")
    essential = len(_essential(qs))
    for attempt in range(_CERTIFY_ATTEMPTS):
        point_seed = derive_seed(seed, "certified-rank", attempt)
        basis = _point_basis(qs, random.Random(point_seed))[1]
        others = [i for i in range(len(qs)) if i not in basis and len(basis) < essential]
        try:
            for i in others:
                _annihilator([qs[b] for b in basis] + [qs[i]], None, term_cap,
                             derive_seed(point_seed, i))
        except NoAnnihilatorWithinCap:
            continue
        return RankCertificate(len(basis), tuple(basis), "jacobian-certified")
    raise RankNotCertified(_CERTIFY_ATTEMPTS)


def _gate_ranks(c: Circuit, seed: int, label: str, term_cap) -> list[RankCertificate]:
    """Each gate's symbolic rank certificate, read at derive_seed(seed, label, index);
    BoundViolation(index, "k", ...) at the first above min(declared k, its own k)."""
    certs = []
    for gi, g in enumerate(c.gates):
        cert = algebraic_rank(g.inner, mode="symbolic", seed=derive_seed(seed, label, gi),
                              term_cap=term_cap)
        bound = c.declared.k if g.rank_bound is None else min(c.declared.k, g.rank_bound)
        if cert.rank > bound:
            raise BoundViolation(gi, "k", bound, cert.rank)
        certs.append(cert)
    return certs


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
    (the dependency test of FGLM).  A read of rank t-1 below weighs z_j by
    deg q_j, for the same R (module docstring).

    The default cap is t*d^(t-1), the annihilator degree bound (k+1)*d^k for
    degree-d inputs of rank k instantiated at the dependent regime k = t-1.

    Before any column is built, the Jacobian is evaluated at one fixed
    seeded point of a prime field (`_point_basis`).  Rank t there proves, in
    every characteristic, that no annihilator exists at any degree (see the
    module docstring), so NoAnnihilatorWithinCap is raised at once; rank t-1
    lets the search weigh its columns, and a smaller rank proves nothing.
    """
    if not qs:
        raise InvalidParams("empty tuple has no annihilator")
    if cap is not None and cap < 1:
        raise InvalidParams("annihilator cap must be >= 1")
    return _annihilator(qs, cap, term_cap, _CERTIFICATE_SEED)


def _annihilator(qs: list[Polynomial], cap: int | None, term_cap,
                 seed: int | None, ranked: bool = False) -> Annihilator:
    """The one annihilator search, without `find_annihilator`'s checks.

    cap=None is the bound t*d^(t-1).  Given a seed, full Jacobian rank at
    the point that `_point_basis` draws from it, mod 2^61 - 1 over Q, raises
    NoAnnihilatorWithinCap before any column is built; seed=None reads no
    point.  A read that falls short there only lets the search run, so it
    needs no drawn prime.  Rank t-1 there, or `ranked`, weighs z_j by
    deg q_j.  R is checked by composing it to zero."""
    degrees, t = [q.degree() for q in qs], len(qs)
    if cap is None:
        cap = t * max(1, *degrees) ** (t - 1)
    rank = None if seed is None else len(_point_basis(qs, random.Random(seed),
                                                      prime=_SHORTCUT_PRIME)[1])
    if rank == t:
        raise NoAnnihilatorWithinCap(cap)
    table = _CompositionTable(qs, cap, term_cap=term_cap,
                              weights=degrees if ranked or rank == t - 1 else None)
    _, lam = next(linalg.dependent_columns(table.columns(), table.p), (None, None))
    if lam is None:
        raise NoAnnihilatorWithinCap(cap)
    order = sorted(lam, key=lambda i: (sum(table.alphas[i]), table.alphas[i]))  # graded-lex
    lead = table.alphas[order[-1]]
    r_poly = table.combination({i: lam[i] for i in order}, lam[order[-1]] * table.den(lead))
    if not compose(r_poly, qs, term_cap=term_cap).is_zero():
        raise AssertionError("kernel element does not annihilate (internal bug)")
    return Annihilator(R=r_poly, degree=r_poly.degree())


def _ranked(qs: list[Polynomial], basis) -> bool:
    """Whether one `_point_basis` read, mod 2^61 - 1 over Q, proves the basis
    independent, so that `_annihilator` may weigh each (basis, q_i); made only
    if the nonconstant members have different degrees: else weights save nothing."""
    polys = [qs[b] for b in basis]
    return (len({q.degree() for q in qs} - {0}) > 1 and bool(polys)
            and len(_point_basis(polys, random.Random(_CERTIFICATE_SEED),
                                 prime=_SHORTCUT_PRIME)[1]) == len(polys))


def _point_basis(qs: list[Polynomial], rng: random.Random, size: int | None = None,
                 prime: int | None = None) -> tuple[list[int], list[int]]:
    """(point, greedy row basis of `_jacobian_rows` mod p there): p is the
    characteristic, or over Q the prime given, or else the first odd candidate
    in [2^61, 2^62) that `rng` draws and that is prime, uniform over the
    primes there; a minor nonzero mod p is nonzero over Q (a ring map).  Then
    `rng` draws the point from [0, size), size = p by default."""
    p = qs[0].domain.characteristic or prime
    while not p:
        c = rng.randrange((1 << 61) + 1, 1 << 62, 2)
        p = c if is_prime(c) else 0
    point = [rng.randrange(size or p) for _ in range(qs[0].nvars)]
    rows = _jacobian_rows(qs, point, p)
    dependent = {j for j, _ in linalg.dependent_columns(rows, p)}
    return point, [i for i in range(len(rows)) if i not in dependent]


def _jacobian_rows(qs: list[Polynomial], point: list[int], p: int) -> list[dict]:
    """Rows of the Jacobian at an integer point, as sparse dicts {v: residue
    mod the prime p} of the nonzero partials, over the variables that occur.
    Over Q, row i is the Jacobian of the integer polynomial D_i*q_i
    (`_int_form`); scaling a row by D_i != 0 keeps every rank over Q and the
    greedy row basis.  The partial in x_v of a term is c * e * x_v^(e-1)
    times the factors before x_v and those after it; the products of the
    factors after each variable are formed once per term, reduced mod p as
    they grow, so a term costs time linear in its support.  Refuses
    mismatched tuples."""
    rows = []
    for q in qs:
        qs[0]._check_compat(q)
        row: dict[int, int] = {}
        for mono, _, c in q._int_form()[0]:
            after = [1]  # after.pop() is the product of the factors after x_v
            for v, e in reversed(mono[1:]):
                after.append(after[-1] * pow(point[v], e, p) % p)
            for v, e in mono:  # c absorbs the factors before x_v
                low = pow(point[v], e - 1, p)
                row[v] = row.get(v, 0) + c * e * low * after.pop()
                c = c * low * point[v] % p
        rows.append({v: x % p for v, x in row.items() if x % p})
    return rows


def _essential(qs: list[Polynomial]) -> list[int]:
    """I, the essential coordinates of qs (module docstring): one column per
    variable x_v holds the coefficients of dq/dx_v over qs, keyed by (q,
    monomial), and I is the variables whose columns do not depend on those
    before them, or every variable that occurs when p is at most some
    deg q.  Each dependency is re-checked exactly before its variable is
    dropped.  Refuses mismatched tuples."""
    by_var: dict = {}  # a variable that occurs in no q has no column
    rows: dict = {}    # (q, monomial) -> its row, an int that hashes fast
    for n, q in enumerate(qs):
        qs[0]._check_compat(q)
        for mono, coef in q.terms.items():
            for i, (v, e) in enumerate(mono):
                key = n, (mono[:i] + mono[i + 1:] if e == 1
                          else mono[:i] + ((v, e - 1),) + mono[i + 1:])
                if (row := rows.get(key)) is None:
                    row = rows[key] = len(rows)
                by_var.setdefault(v, {})[row] = e * coef
    occurring = sorted(by_var)
    p = qs[0].domain.characteristic if qs else 0
    if p and p <= max(q.degree() for q in qs):
        return occurring
    cols = [by_var[v] for v in occurring]
    dropped = set()
    for j, lam in linalg.dependent_columns(cols, p):
        total: dict = {}
        get = total.get
        for u, x in lam.items():
            for row, a in cols[u].items():
                total[row] = get(row, 0) + x * a
        # col_j is a combination of the columns before it, and of no others
        if max(lam) != j or any(s % p if p else s for s in total.values()):
            raise AssertionError("column dependency fails its exact check (internal bug)")
        dropped.add(j)
    return [v for j, v in enumerate(occurring) if j not in dropped]


# ----------------------------------------------------------------------
# good translations

def _checked_basis(qs, basis, i=None) -> tuple:
    """The basis as a tuple.  Refuses an empty tuple, a basis that is not
    distinct indices into qs, and an index i out of range, before any work."""
    basis = tuple(basis)
    if not qs:
        raise InvalidParams("empty tuple has no dependence")
    if any(b not in range(len(qs)) for b in basis) or len(set(basis)) < len(basis):
        raise InvalidParams(f"basis {basis} is not distinct indices into {len(qs)} polynomials")
    if i is not None and i not in range(len(qs)):
        raise InvalidParams(f"index {i} out of range for {len(qs)} polynomials")
    return basis


def sample_good_translation(qs: list[Polynomial], basis,
                            sampler: TranslationSampler | None = None, *,
                            term_cap: int | None = DEFAULT_TERM_CAP) -> tuple:
    """A grid point a where the value L_i(a) (module docstring), read with no
    polynomial composed, is nonzero for every non-basis index i: the Newton
    lift's precondition.  Each A_i is searched here, after one `_ranked` read;
    `depend` and the rewrite search none, and test a draw by its witness.

    The grid is the fixed deterministic scalar set {0, 1, ...} of the size the
    sampler carries; each retry is one uniform draw from grid^N.
    """
    basis = _checked_basis(qs, basis)
    dom, nvars = qs[0].domain, qs[0].nvars
    if len(basis) == len(qs):
        return tuple(dom.zero for _ in range(nvars))
    sampler = sampler or TranslationSampler.for_tuple(
        len(qs), len(basis), max(1, max(q.degree() for q in qs)))
    # (dA_i/dY, (basis..., q_i)) per non-basis i: L_i(a) is the first at the
    # second's values; an entry whose variable dA_i/dY does not read is None
    pairs, ranked = [], _ranked(qs, basis)
    for i in (i for i in range(len(qs)) if i not in basis):
        sub = [qs[b] for b in basis] + [qs[i]]
        dA = _annihilator(sub, None, term_cap, None, ranked).R.partial_derivative(((len(basis), 1),))
        read = {v for mono in dA.terms for v, _ in mono}
        pairs.append((dA, [q if j in read else None for j, q in enumerate(sub)]))

    def good(a):
        return all(not dom.is_zero(dA.evaluate([0 if q is None else q.evaluate(a) for q in sub]))
                   for dA, sub in pairs) or None
    return _sample_translation(good, dom, nvars, sampler)[0]


def _witness_translation(tuples: list[tuple], dom, nvars: int, sampler: TranslationSampler,
                         term_cap) -> tuple[tuple, list[DependenceWitness]]:
    """The first draw a of `sampler` at which `reconstruct_dependence` finds and
    checks the witness of every (qs, basis) in `tuples`, with those witnesses;
    NoSolutionWithinCap draws again.  a = 0, undrawn, if no tuple has a dependent."""
    def witnesses(a):
        try:
            return [reconstruct_dependence(qs, basis, a, term_cap=term_cap)
                    for qs, basis in tuples]
        except NoSolutionWithinCap:
            return None
    if all(len(basis) == len(qs) for qs, basis in tuples):
        a = tuple(dom.zero for _ in range(nvars))
        return a, witnesses(a)
    return _sample_translation(witnesses, dom, nvars, sampler)


def _sample_translation(accept, dom, nvars: int, sampler: TranslationSampler) -> tuple:
    """(a, accept(a)) for the first uniform draw a from grid^N at which
    accept does not return None; the grid is the first `grid_size` scalars
    0, 1, 2, ... of `dom`."""
    size, p = sampler.grid_size, dom.characteristic
    if 0 < p < size:
        raise FieldTooSmall(f"need {size} distinct scalars, field has {p}")
    rng = random.Random(derive_seed(sampler.seed, "translation"))
    for _ in range(sampler.max_retries):
        a = tuple(dom.coerce(rng.randrange(size)) for _ in range(nvars))
        if (value := accept(a)) is not None:
            return a, value
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
    basis = _checked_basis(qs, basis)
    dom = qs[0].domain
    b_polys = [qs[b].translate(a, term_cap=term_cap) for b in basis]
    trunc = {i: qs[i].degree() for i in range(len(qs)) if i not in basis}
    f_map: dict = {}
    for i, d_i in trunc.items():
        target = qs[i].translate(a, term_cap=term_cap)
        if not basis:
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
    vanishes at (b(a), q_i(a)), read off the translated constants (the
    goodness value L_i(a)), NonConvergence unless y = q_i(X+a)."""
    basis = _checked_basis(qs, basis, i)
    dom = qs[0].domain
    sub = [qs[b] for b in basis] + [qs[i]]
    R = (annihilator or _annihilator(sub, None, term_cap, None, _ranked(qs, basis))).R
    dR = R.partial_derivative(((len(basis), 1),))
    d_i = qs[i].degree()
    target = qs[i].translate(a, term_cap=term_cap)
    b_translated = [qs[b].translate(a, term_cap=term_cap) for b in basis]
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

    One shared translation a is drawn, the first at which every gate's
    dependence witnesses exist and check; gate i's inner list becomes
    {h^j[q_ib(X+a)]} for b in its basis.  Its outer DAG reads each basis
    input as the sum of its components, and each dependent input q_i as one
    call of G_i = F_i(those sums), kept to the terms of weighted degree
    <= d_i, a component of degree j weighing j: so expand(C')(X) =
    expand(C)(X+a), over Q or any prime field that admits the translation
    grid.  No input's formal degree grows, so the declared delta is kept
    (`Circuit` checks it); G_i's composition is held to term_cap.  A step
    that cannot run raises its own error (RankNotCertified, FieldTooSmall).
    """
    dom, nvars = c.domain, c.nvars
    certs = _gate_ranks(c, seed, "rank", term_cap)
    # one shared grid: union bound over every non-basis L_i of every gate
    sampler = TranslationSampler.for_tuple(
        sum(len(g.inner) - cert.rank for g, cert in zip(c.gates, certs)),
        max((cert.rank for cert in certs), default=0),
        max((q.degree() for g in c.gates for q in g.inner), default=1), seed=seed)
    a, witnesses = _witness_translation(
        [(g.inner, cert.basis_indices) for g, cert in zip(c.gates, certs)],
        dom, nvars, sampler, term_cap)
    new_gates = [_rewrite_gate(g, witness, dom, nvars, term_cap)
                 for g, witness in zip(c.gates, witnesses)]
    k_new = max((len(g.inner) for g in new_gates), default=c.declared.k)
    declared = DeclaredBounds(d=c.declared.d, k=max(c.declared.k, k_new),
                              delta=c.declared.delta)
    return Circuit(dom, nvars, declared, new_gates), a


def _rewrite_gate(g: Gate, witness: DependenceWitness, dom, nvars: int, term_cap) -> Gate:
    b_translated = [g.inner[b].translate(witness.a, term_cap=term_cap) for b in witness.basis]
    # input u is the component of degree weight[u] of a basis member; ids[pos]
    # lists the inputs of the member at basis position pos
    comp_polys: list[Polynomial] = []
    weight: list[int] = []
    ids: list[tuple] = []
    for bp in b_translated:
        ids.append(tuple(range(len(comp_polys), len(comp_polys) + bp.degree() + 1)))
        comp_polys.extend(bp.homogeneous_component(j) for j in range(bp.degree() + 1))
        weight.extend(range(bp.degree() + 1))
    if not comp_polys:
        comp_polys = [Polynomial.constant(dom, nvars, dom.one)]  # placeholder input
    n = len(comp_polys)

    nodes: list = [("input", u) for u in range(n)]
    arg_ids: list[int] = [0] * len(g.inner)
    for b, us in zip(witness.basis, ids):
        arg_ids[b] = len(nodes)
        nodes.append(("add", us))
    # h^{<=d_i}[F_i(b(X+a))]: the terms of F_i(sums) with sum_u weight[u]*e_u <= d_i
    sums = [Polynomial(dom, n, {((u, 1),): 1 for u in us}) for us in ids]
    for i, f_i in witness.F.items():
        arg_ids[i] = len(nodes)
        if f_i.nvars == 0:
            nodes.append(("const", dom.coerce(f_i.coefficient(()))))
            continue
        d_i = witness.truncation_degrees[i]
        kept = {m: c for m, c in compose(f_i, sums, term_cap=term_cap).terms.items()
                if sum(weight[u] * e for u, e in m) <= d_i}
        nodes.append(("call", Polynomial(dom, n, kept, _normalized=True), tuple(range(n))))

    root = _graft(nodes, g.outer, arg_ids)
    outer = OuterExpr(n, nodes, root)
    # the old k bounds the old inputs; the components' rank is <= their number, nvars
    k = None if g.rank_bound is None else min(n, nvars)
    return Gate(outer, comp_polys, rank_bound=k)
