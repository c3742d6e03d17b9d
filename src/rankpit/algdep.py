"""Algebraic rank, annihilating polynomials, and functional dependence.

The constructive core: certify the algebraic rank of a polynomial tuple via
the Jacobian criterion, exhibit a minimal-degree annihilator as the first
dependent column in graded order, and reconstruct every dependent
polynomial as a truncated polynomial function of a transcendence basis
after a good translation.  A power-series Newton lift of the annihilator
root serves as an independent cross-check of the linear-solve
reconstruction, and the whole machinery drives the circuit rewrite that
replaces a gate's inputs by the homogeneous components of its basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .circuit import Circuit, DeclaredBounds, Gate, OuterExpr, _shift_node
from .domains import PrimeField
from .errors import (BoundViolation, CharacteristicTooSmall, DerivativeVanishes,
                     InvalidParams, NoAnnihilatorWithinCap, NoGoodTranslation,
                     NonConvergence, NoSolutionWithinCap, SymbolicTooLarge)
from .poly import (DEFAULT_TERM_CAP, Polynomial, compose, divide_exact,
                   mono_from_dict)
from .util import derive_seed

_BAREISS_VAR_LIMIT = 24
_BAREISS_ROW_LIMIT = 12
_BAREISS_TERM_LIMIT = 200_000


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    basis_indices: tuple
    method: str                      # "jacobian-randomized" | "jacobian-symbolic"
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


def _bareiss_rank(matrix: list[list[Polynomial]]) -> int:
    """Fraction-free elimination rank of a polynomial matrix over its domain."""
    if not matrix or not matrix[0]:
        return 0
    nrows, ncols = len(matrix), len(matrix[0])
    if nrows > _BAREISS_ROW_LIMIT or ncols > _BAREISS_VAR_LIMIT:
        raise SymbolicTooLarge(f"{nrows}x{ncols} symbolic matrix is beyond desk scale")
    a = [list(row) for row in matrix]
    dom = a[0][0].domain
    nv = a[0][0].nvars
    one = Polynomial.constant(dom, nv, dom.one)
    prev = one
    used_cols: set[int] = set()
    r = 0
    while r < nrows:
        pivot = None
        for j in range(ncols):
            if j in used_cols:
                continue
            for i in range(r, nrows):
                if not a[i][j].is_zero():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[r], a[pi] = a[pi], a[r]
        used_cols.add(pj)
        for i in range(r + 1, nrows):
            for j in range(ncols):
                if j == pj:
                    continue
                num = a[r][pj].mul(a[i][j]) - a[i][pj].mul(a[r][j])
                a[i][j] = divide_exact(num, prev)
                if a[i][j].num_terms() > _BAREISS_TERM_LIMIT:
                    raise SymbolicTooLarge("entry blow-up during elimination")
            a[i][pj] = Polynomial.zero(dom, nv)
        prev = a[r][pj]
        r += 1
    return r


def algebraic_rank(qs: list[Polynomial], mode: str = "randomized", *,
                   seed: int = 0, security: int = 30,
                   trials: int = 3) -> RankCertificate:
    """Rank certificate for a polynomial tuple via the Jacobian criterion.

    Randomized mode evaluates the Jacobian at `trials` points drawn from a
    scalar set of size >= 2*t*d*2^security and reports the maximum rank seen:
    one-sided, never above the true rank, below it with probability at most
    (t*d/|S|)^trials.  Symbolic mode is exact fraction-free elimination over
    the function field (desk instances only).  The basis is the greedy
    matroid scan: keep q_i whenever it raises the rank.
    """
    t = len(qs)
    if t == 0:
        return RankCertificate(0, (), f"jacobian-{mode}")
    jac = jacobian(qs)
    dom = qs[0].domain

    if mode == "symbolic":
        rank = _bareiss_rank(jac)
        basis: list[int] = []
        for i in range(t):
            if len(basis) == rank:
                break
            cand = [jac[b] for b in basis] + [jac[i]]
            if _bareiss_rank(cand) > len(basis):
                basis.append(i)
        return RankCertificate(rank, tuple(basis), "jacobian-symbolic")

    if mode != "randomized":
        raise InvalidParams(f"unknown rank mode {mode!r}")

    d = max(1, max(q.degree() for q in qs))
    target = 2 * t * d * (1 << security)
    if isinstance(dom, PrimeField):
        size = min(dom.p, target)
    else:
        size = target
    rng = random.Random(derive_seed(seed, "algrank"))
    nvars = qs[0].nvars
    best_rank = -1
    best_matrix = None
    points = []
    for _ in range(max(1, trials)):
        point = tuple(dom.coerce(rng.randrange(size)) for _ in range(nvars))
        points.append(point)
        numeric = [[entry.evaluate(point) for entry in row] for row in jac]
        rk = linalg.rank_dense(numeric, dom)
        if rk > best_rank:
            best_rank = rk
            best_matrix = numeric
    basis = []
    chosen: list[list] = []
    for i in range(t):
        if len(basis) == best_rank:
            break
        if linalg.rank_dense(chosen + [best_matrix[i]], dom) > len(basis):
            basis.append(i)
            chosen.append(best_matrix[i])
    bound = (Fraction(t * d, size)) ** max(1, trials)
    return RankCertificate(best_rank, tuple(basis), "jacobian-randomized",
                           evaluation_points=tuple(points), security=security,
                           error_bound=bound)


# ----------------------------------------------------------------------
# annihilators

def _dense_monos_exact(t: int, d: int) -> list[tuple]:
    """Dense exponent tuples of t variables and total degree d, ascending in
    GRLEX order of the monomials they name."""
    if t == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d + 1):
        for rest in _dense_monos_exact(t - 1, d - first):
            out.append((first,) + rest)
    return out


def _dense_to_mono(alpha: tuple):
    return mono_from_dict({v: e for v, e in enumerate(alpha) if e})


class _CompositionTable:
    """Memoized products prod_j q_j^alpha_j, optionally degree-truncated."""

    def __init__(self, qs: list[Polynomial], degree_cap: int | None = None,
                 term_cap: int | None = DEFAULT_TERM_CAP):
        self.qs = qs
        self.degree_cap = degree_cap
        self.term_cap = term_cap
        dom, nv = qs[0].domain, qs[0].nvars
        self.memo = {(0,) * len(qs): Polynomial.constant(dom, nv, dom.one)}

    def get(self, alpha: tuple) -> Polynomial:
        memo = self.memo
        if alpha in memo:
            return memo[alpha]
        j = max(i for i, e in enumerate(alpha) if e)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        result = self.get(prev).mul(self.qs[j], term_cap=self.term_cap,
                                    degree_cap=self.degree_cap)
        memo[alpha] = result
        return result


def find_annihilator(qs: list[Polynomial], cap: int | None = None, *,
                     term_cap: int | None = DEFAULT_TERM_CAP) -> Annihilator:
    """Minimal-total-degree annihilator R with R(q_1, ..., q_t) = 0 exactly.

    The columns q^alpha = prod_j q_j^alpha_j are taken in ascending GRLEX
    order of z^alpha and stream through `linalg.first_dependency`; each
    degree block is built in full before its first column is tested.  The
    first column that depends on the earlier ones, q^alpha = sum c_beta
    q^beta, gives R = z^alpha - sum c_beta z^beta: an annihilator with a
    smaller leading monomial would make an earlier column dependent, and two
    monic ones with leading monomial z^alpha would differ by one, so R is
    the monic minimal-degree annihilator with order-minimal leading monomial
    (the dependency test of FGLM).

    The default cap is t*d^(t-1), the annihilator degree bound (k+1)*d^k for
    degree-d inputs of rank k instantiated at the dependent regime k = t-1.
    """
    t = len(qs)
    if t == 0:
        raise InvalidParams("empty tuple has no annihilator")
    dom = qs[0].domain
    d = max(1, max(q.degree() for q in qs))
    if cap is None:
        cap = t * d ** (t - 1)
    if cap < 1:
        raise InvalidParams("annihilator cap must be >= 1")
    table = _CompositionTable(qs, term_cap=term_cap)
    alphas: list[tuple] = []

    def columns():
        for deg in range(cap + 1):
            block = _dense_monos_exact(t, deg)
            alphas.extend(block)
            yield from [table.get(alpha).terms for alpha in block]

    lam = linalg.first_dependency(columns(), dom.characteristic)
    if lam is None:
        raise NoAnnihilatorWithinCap(cap)
    r_poly = Polynomial(dom, t, {_dense_to_mono(alphas[i]): c for i, c in lam.items()},
                        _normalized=True)
    if not compose(r_poly, qs, term_cap=term_cap).is_zero():
        raise AssertionError("kernel element does not annihilate (internal bug)")
    return Annihilator(R=r_poly, degree=r_poly.degree())


# ----------------------------------------------------------------------
# good translations

def _goodness_certificates(qs, basis, non_basis,
                           annihilators: dict | None,
                           term_cap) -> tuple[dict, dict]:
    """Annihilator A_i of (basis, q_i) and L_i = (dA_i/dY)(basis..., q_i)."""
    k = len(basis)
    anns: dict = dict(annihilators or {})
    ls: dict = {}
    basis_polys = [qs[b] for b in basis]
    for i in non_basis:
        if i not in anns:
            sub = basis_polys + [qs[i]]
            d_sub = max(1, max(q.degree() for q in sub))
            anns[i] = find_annihilator(sub, cap=(k + 1) * d_sub ** k,
                                       term_cap=term_cap)
        dA = anns[i].R.partial_derivative(((k, 1),))
        li = compose(dA, basis_polys + [qs[i]], term_cap=term_cap)
        if li.is_zero():
            raise AssertionError(
                "derivative certificate vanished identically: annihilator not minimal")
        ls[i] = li
    return anns, ls


def sample_good_translation(qs: list[Polynomial], basis,
                            sampler: TranslationSampler | None = None,
                            annihilators: dict | None = None, *,
                            term_cap: int | None = DEFAULT_TERM_CAP) -> tuple:
    """A grid point a with L_i(a) != 0 for every non-basis index i.

    The grid is the fixed deterministic scalar set {0, 1, ...} of the size the
    sampler carries; each retry is one uniform draw from grid^N.
    """
    basis = tuple(basis)
    t = len(qs)
    non_basis = [i for i in range(t) if i not in basis]
    dom = qs[0].domain
    nvars = qs[0].nvars
    if not non_basis:
        return tuple(dom.zero for _ in range(nvars))
    k = len(basis)
    d = max(1, max(q.degree() for q in qs))
    if sampler is None:
        sampler = TranslationSampler.for_tuple(t, k, d)
    _, ls = _goodness_certificates(qs, basis, non_basis, annihilators, term_cap)
    return _sample_translation(list(ls.values()), dom, nvars, sampler)


def _sample_translation(certificates: list[Polynomial], dom, nvars: int,
                        sampler: TranslationSampler) -> tuple:
    """The first uniform draw from grid^N where every certificate is nonzero."""
    grid = dom.scalars(sampler.grid_size)
    rng = random.Random(derive_seed(sampler.seed, "translation"))
    for _ in range(sampler.max_retries):
        a = tuple(grid[rng.randrange(len(grid))] for _ in range(nvars))
        if all(not dom.is_zero(li.evaluate(a)) for li in certificates):
            return a
    raise NoGoodTranslation(sampler.max_retries)


# ----------------------------------------------------------------------
# dependence reconstruction by exact linear solving

def reconstruct_dependence(qs: list[Polynomial], basis, a,
                           caps: dict | None = None, *,
                           term_cap: int | None = DEFAULT_TERM_CAP) -> DependenceWitness:
    """Witness polynomials F_i with q_i(X+a) = h^{<=d_i}[F_i(basis(X+a))], exact.

    For each non-basis index the coefficients of F_i are unknowns of an exact
    linear system equating X-coefficients up to degree d_i; the degree of F_i
    is raised from 1 until a solution appears or the cap d_i*(k+1)*d^k runs
    out (which signals a bad translation: resample and retry).  Every witness
    is re-verified by full composition before it is returned.
    """
    basis = tuple(basis)
    t = len(qs)
    k = len(basis)
    dom = qs[0].domain
    non_basis = [i for i in range(t) if i not in basis]
    b_polys = [qs[b].translate(a) for b in basis]
    d = max(1, max(q.degree() for q in qs))
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
        cap_i = (caps or {}).get(i, d_i * (k + 1) * d ** k)
        cap_i = max(1, cap_i)
        table = _CompositionTable(b_polys, degree_cap=d_i, term_cap=term_cap)
        solution = None
        for dd in range(1, cap_i + 1):
            alphas = [a for e in range(dd + 1) for a in _dense_monos_exact(k, e)]
            row_index: dict = {}
            cols = []
            for alpha in alphas:
                cols.append(table.get(alpha))
                for mono in cols[-1].terms:
                    row_index.setdefault(mono, len(row_index))
            for mono in target.terms:
                row_index.setdefault(mono, len(row_index))
            nrows = len(row_index)
            rows = [[dom.zero] * len(alphas) for _ in range(nrows)]
            for ci, poly in enumerate(cols):
                for mono, coeff in poly.terms.items():
                    rows[row_index[mono]][ci] = coeff
            rhs = [dom.zero] * nrows
            for mono, coeff in target.terms.items():
                rhs[row_index[mono]] = coeff
            x = linalg.solve_dense(rows, rhs, dom)
            if x is None:
                continue
            terms = {}
            for alpha, coeff in zip(alphas, x):
                coeff = dom.coerce(coeff)
                if not dom.is_zero(coeff):
                    terms[_dense_to_mono(alpha)] = coeff
            solution = Polynomial(dom, k, terms, _normalized=True)
            break
        if solution is None:
            raise NoSolutionWithinCap(i, cap_i)
        composed = compose(solution, b_polys, term_cap=term_cap)
        if composed.homogeneous_le(d_i) != target:
            raise AssertionError("witness failed exact verification (internal bug)")
        f_map[i] = solution
    return DependenceWitness(a=tuple(a), basis=basis, F=f_map,
                             truncation_degrees=trunc)


# ----------------------------------------------------------------------
# Newton cross-check oracle

def _series_inverse(u: Polynomial, prec: int) -> Polynomial:
    dom = u.domain
    u0 = u.coefficient(())
    if dom.is_zero(u0):
        raise ZeroDivisionError("series has no inverse: zero constant term")
    v = Polynomial.constant(dom, u.nvars, dom.inv(u0))
    two = Polynomial.constant(dom, u.nvars, dom.coerce(2))
    e = 0
    while e < prec:
        e = min(max(1, 2 * e), prec)
        correction = two - u.homogeneous_le(e).mul(v, degree_cap=e)
        v = v.mul(correction, degree_cap=e)
    return v


def _coefficients_in_last_var(p: Polynomial) -> dict[int, Polynomial]:
    """View a (k+1)-variate polynomial as a polynomial in its last variable."""
    k = p.nvars - 1
    dom = p.domain
    out: dict[int, dict] = {}
    for mono, c in p.terms.items():
        md = dict(mono)
        j = md.pop(k, 0)
        out.setdefault(j, {})[tuple(sorted(md.items()))] = c
    return {j: Polynomial(dom, k, terms, _normalized=True)
            for j, terms in out.items()}


def newton_reconstruct(qs: list[Polynomial], basis, a, i: int,
                       annihilator: Annihilator | None = None, *,
                       term_cap: int | None = DEFAULT_TERM_CAP) -> Polynomial:
    """Cross-check oracle: lift q_i(X+a) as the power-series root of its
    annihilator, doubling precision up to degree d_i, and assert the result
    equals the truncation of q_i(X+a)."""
    basis = tuple(basis)
    k = len(basis)
    dom = qs[0].domain
    nvars = qs[0].nvars
    basis_polys = [qs[b] for b in basis]
    if annihilator is None:
        sub = basis_polys + [qs[i]]
        d_sub = max(1, max(q.degree() for q in sub))
        annihilator = find_annihilator(sub, cap=(k + 1) * d_sub ** k, term_cap=term_cap)
    d_i = qs[i].degree()
    target = qs[i].translate(a)
    b_translated = [q.translate(a) for q in basis_polys]
    coeffs = _coefficients_in_last_var(annihilator.R)
    # c_j(X+a) for the annihilator read as sum_j c_j(Z) * Y^j
    c_translated: dict[int, Polynomial] = {}
    for j, cj in coeffs.items():
        if k == 0:
            c_translated[j] = Polynomial.constant(dom, nvars, cj.coefficient(()))
        else:
            c_translated[j] = compose(cj, b_translated, term_cap=term_cap)
    y0_val = target.coefficient(())
    # derivative of the annihilator in Y, evaluated at (a, q_i(a))
    l_at_a = dom.zero
    ypow = dom.one
    for j in range(1, max(c_translated) + 1):
        cj0 = c_translated.get(j)
        if cj0 is not None:
            l_at_a = dom.add(l_at_a, dom.mul(dom.mul(dom.coerce(j), cj0.coefficient(())), ypow))
        ypow = dom.mul(ypow, y0_val)
    if dom.is_zero(l_at_a):
        raise DerivativeVanishes("translation is not good for this index")

    max_j = max(c_translated)
    y = Polynomial.constant(dom, nvars, y0_val)
    if d_i > 0:
        e = 0
        while e < d_i:
            e = min(max(1, 2 * e), d_i)
            # Horner evaluation of the annihilator and its Y-derivative at y
            g = Polynomial.zero(dom, nvars)
            for j in range(max_j, -1, -1):
                g = g.mul(y, degree_cap=e)
                cj = c_translated.get(j)
                if cj is not None:
                    g = g + cj.homogeneous_le(e)
            gp = Polynomial.zero(dom, nvars)
            for j in range(max_j, 0, -1):
                gp = gp.mul(y, degree_cap=e)
                cj = c_translated.get(j)
                if cj is not None:
                    gp = gp + cj.homogeneous_le(e).scale(dom.coerce(j))
            y = (y - g.mul(_series_inverse(gp, e), degree_cap=e)).homogeneous_le(e)
    result = y.homogeneous_le(d_i)
    if result != target.homogeneous_le(d_i):
        raise NonConvergence("Newton lift disagrees with the translated polynomial")
    return result


# ----------------------------------------------------------------------
# circuit rewrite: inner lists become homogeneous components of a basis

def rewrite_circuit(c: Circuit, seed: int = 0, *, rank_mode: str = "symbolic",
                    max_retries: int = 10,
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
    certs = []
    for gi, g in enumerate(c.gates):
        cert = algebraic_rank(g.inner, mode=rank_mode, seed=derive_seed(seed, "rank", gi))
        if cert.rank > c.declared.k:
            raise BoundViolation(gi, "k", c.declared.k, cert.rank)
        certs.append(cert)

    # one shared grid: union bound over every goodness certificate
    all_ls = []
    total_nonbasis = 0
    for g, cert in zip(c.gates, certs):
        nb = [i for i in range(len(g.inner)) if i not in cert.basis_indices]
        total_nonbasis += len(nb)
        _, ls = _goodness_certificates(g.inner, cert.basis_indices, nb, None, term_cap)
        all_ls.extend(ls.values())
    k_max = max((cert.rank for cert in certs), default=0)
    d_max = max((q.degree() for g in c.gates for q in g.inner), default=1)
    if all_ls:
        sampler = TranslationSampler.for_tuple(total_nonbasis, k_max, d_max, seed=seed,
                                               max_retries=max_retries)
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

    def const_node(value) -> int:
        nodes.append(("const", dom.coerce(value)))
        return len(nodes) - 1

    arg_ids: list[int] = [0] * t
    for pos, b in enumerate(basis):
        ids = tuple(comp_ids[(pos, j)] for j in range(b_translated[pos].degree() + 1))
        nodes.append(("add", ids))
        arg_ids[b] = len(nodes) - 1
    for i, f_i in witness.F.items():
        d_i = witness.truncation_degrees[i]
        d_f = f_i.degree()
        d_z = d_f * max((bp.degree() for bp in b_translated), default=0)
        if d_z == 0 or f_i.nvars == 0:
            arg_ids[i] = const_node(f_i.coefficient(()))
            continue
        zs = [dom.coerce(u + 1) for u in range(d_z + 1)]
        # sum_u mu_u z_u^j = 1 for j <= d_i, 0 for d_i < j <= d_z
        rows = [[dom.pow(z, j) for z in zs] for j in range(d_z + 1)]
        rhs = [dom.one if j <= d_i else dom.zero for j in range(d_z + 1)]
        mu = linalg.solve_dense(rows, rhs, dom)
        terms = []
        for u, z in enumerate(zs):
            scaled_args = []
            for pos in range(len(basis)):
                addends = []
                zp = dom.one
                for j in range(b_translated[pos].degree() + 1):
                    cn = const_node(zp)
                    nodes.append(("mul", (cn, comp_ids[(pos, j)])))
                    addends.append(len(nodes) - 1)
                    zp = dom.mul(zp, z)
                nodes.append(("add", tuple(addends)))
                scaled_args.append(len(nodes) - 1)
            nodes.append(("call", f_i, tuple(scaled_args)))
            call_id = len(nodes) - 1
            cn = const_node(mu[u])
            nodes.append(("mul", (cn, call_id)))
            terms.append(len(nodes) - 1)
        nodes.append(("add", tuple(terms)))
        arg_ids[i] = len(nodes) - 1

    if g.is_product:
        nodes.append(("mul", tuple(arg_ids)))
        root = len(nodes) - 1
    else:
        base = len(nodes)
        for node in g.outer.nodes:
            nodes.append(_shift_node(node, base, input_map=arg_ids))
        root = base + g.outer.root
    outer = OuterExpr(len(comp_polys), nodes, root)
    return Gate(outer, comp_polys, rank_bound=g.rank_bound)
