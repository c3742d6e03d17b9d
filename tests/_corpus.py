"""Seeded random instance generators for the acceptance corpus.

Low-rank gates are built as polynomial functions of k shared linear seeds,
which bounds the algebraic rank by k while keeping inner degrees at the
composition degree.  Grid budgets keep every hitting set enumerable: at desk
scale the support bound always exceeds N, so |H| = (delta+1)^N, and zero
instances (which must scan the whole set to certify) get smaller budgets
than nonzero ones (which stop at the first witness).
"""

from __future__ import annotations

import random

from rankpit.algdep import algebraic_rank
from rankpit.circuit import Circuit, DeclaredBounds, Gate, OuterExpr, expand
from rankpit.domains import PrimeField, Rationals
from rankpit.poly import Polynomial, compose

FP = PrimeField(1_000_003)
Q = Rationals()

NONZERO_GRID_BUDGET = 60_000
ZERO_GRID_BUDGET = 16_000


def random_poly(rng, dom, nvars, max_deg, max_terms=5, allow_zero=True):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = {}
        for _ in range(rng.randrange(max_deg + 1)):
            v = rng.randrange(nvars)
            mono[v] = mono.get(v, 0) + 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        m = tuple(sorted(mono.items()))
        terms[m] = terms.get(m, 0) + c
    p = Polynomial(dom, nvars, terms)
    if p.is_zero() and not allow_zero:
        return random_poly(rng, dom, nvars, max_deg, max_terms, allow_zero)
    return p


def random_linear(rng, dom, nvars, homogeneous=False):
    terms = {}
    for v in range(nvars):
        c = rng.randrange(-2, 3)
        if c:
            terms[((v, 1),)] = c
    if not homogeneous and rng.random() < 0.5:
        c = rng.randrange(-2, 3)
        if c:
            terms[()] = c
    if not terms:
        terms[((rng.randrange(nvars), 1),)] = 1
    return Polynomial(dom, nvars, terms)


def _low_rank_inner(rng, dom, nvars, k, d, t):
    """t polynomials of degree <= d and algebraic rank <= k."""
    if t <= k and rng.random() < 0.4:
        # small fan-in: any t polynomials have rank <= t <= k
        return [random_poly(rng, dom, nvars, d, allow_zero=False) for _ in range(t)]
    seeds = [random_linear(rng, dom, nvars) for _ in range(k)]
    inner = []
    for _ in range(t):
        f = random_poly(rng, dom, k, d, allow_zero=False)
        q = compose(f, seeds)
        if q.is_zero() or q.degree() > d:
            q = seeds[rng.randrange(k)]
        inner.append(q)
    return inner


def _random_outer_dag(rng, dom, t, max_extra=3):
    """A small random expression DAG over t inputs."""
    nodes = [("input", i) for i in range(t)]
    for _ in range(rng.randrange(1, max_extra + 1)):
        kind = rng.random()
        avail = len(nodes)
        if kind < 0.35:
            nodes.append(("const", dom.coerce(rng.choice([-2, -1, 1, 2, 3]))))
        elif kind < 0.65:
            args = tuple(rng.randrange(avail)
                         for _ in range(rng.randrange(2, 4)))
            nodes.append(("add", args))
        else:
            args = tuple(rng.randrange(avail) for _ in range(2))
            nodes.append(("mul", args))
    # root: combine the last node with every input so all inputs matter
    args = tuple(range(t)) + (len(nodes) - 1,)
    nodes.append(("add", args))
    return OuterExpr(t, nodes, len(nodes) - 1)


def _grid_budget_shape(rng, budget):
    """Pick (nvars, d, t) so (t*d + 1)^nvars stays within the point budget."""
    nvars = rng.randrange(2, 11)
    while True:
        delta_max = int(budget ** (1.0 / nvars)) - 1
        if delta_max >= 1:
            break
        nvars -= 1
    delta_max = min(delta_max, 12)
    d = rng.randrange(1, min(3, delta_max) + 1)
    t = rng.randrange(1, min(4, max(1, delta_max // d)) + 1)
    return nvars, d, t


def random_class_circuit(seed: int, *, gamma_outer: bool = False,
                         domain=FP, zero: bool = False) -> Circuit:
    """A random rank-bounded circuit; zero=True plants an identical negated twin
    of every gate so the expansion is identically zero."""
    rng = random.Random(seed)
    budget = ZERO_GRID_BUDGET if zero else NONZERO_GRID_BUDGET
    nvars, d, t = _grid_budget_shape(rng, budget)
    k = rng.randrange(1, 3)
    t_top = rng.randrange(1, 3) if zero else rng.randrange(1, 5)
    gates = []
    for _ in range(t_top):
        inner = _low_rank_inner(rng, domain, nvars, k, d, t)
        if gamma_outer:
            gates.append(Gate(_random_outer_dag(rng, domain, len(inner)), inner))
        else:
            gates.append(Gate("product", inner))
    if zero:
        for g in list(gates):
            if g.is_product:
                negated = [g.inner[0].scale(-1)] + g.inner[1:]
                gates.append(Gate("product", negated))
            else:
                base = len(g.outer.nodes)
                nodes = list(g.outer.nodes)
                nodes.append(("const", domain.coerce(-1)))
                nodes.append(("mul", (g.outer.root, base)))
                gates.append(Gate(OuterExpr(g.outer.arity, nodes, base + 1), g.inner))
    delta = max(1, max(g.formal_degree() for g in gates))
    if (delta + 1) ** nvars > budget:
        # DAG outers can push the formal degree past the planned budget:
        # resample rather than trim, so planted zeros stay zero
        return random_class_circuit(seed + 900_001, gamma_outer=gamma_outer,
                                    domain=domain, zero=zero)
    return Circuit(domain, nvars, DeclaredBounds(d=d, k=k, delta=delta), gates)


def rank_oracle_tuple(seed: int):
    """(polys, dependent) with the planted rank always t or t-1, over F_p.

    The criterion's oracle "rank = t-1 iff an annihilator exists at the cap"
    is only total when rank >= t-1, so generation verifies the planted basis
    is independent (symbolic rank, the exact reference) and resamples
    otherwise.  Cap-exhausting independent instances (t=3, d=2) are kept
    sparse and at 3 variables so the nullspace search stays fast.
    """
    rng = random.Random(seed)
    dependent = rng.random() < 0.55
    t = rng.choice([2, 2, 3])
    if dependent:
        nvars = rng.randrange(2, 5)
        while True:
            if rng.random() < 0.5:
                seeds = [random_linear(rng, FP, nvars) for _ in range(t - 1)]
                f = random_poly(rng, FP, t - 1, 2, allow_zero=False)
                extra = compose(f, seeds)
                if extra.degree() > 2:
                    continue
            else:
                seeds = [random_poly(rng, FP, nvars, 2, allow_zero=False)
                         for _ in range(t - 1)]
                coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(t - 1)]
                extra = Polynomial.zero(FP, nvars)
                for c, s in zip(coeffs, seeds):
                    extra = extra + s.scale(c)
            polys = seeds + [extra]
            if algebraic_rank(seeds, mode="symbolic").rank == t - 1:
                return polys, True
    if t == 3:
        heavy = rng.random() < 0.12
        if heavy:
            nvars, d = 3, 2
        else:
            nvars, d = rng.randrange(3, 5), 1
    else:
        nvars, d = rng.randrange(2, 5), rng.choice([1, 2])
    while True:
        polys = [random_poly(rng, FP, nvars, d, max_terms=3, allow_zero=False)
                 for _ in range(t)]
        if algebraic_rank(polys, mode="symbolic").rank == t:
            return polys, False


def dependent_tuple(seed: int):
    """(polys, basis) with planted exact dependence, k <= 2, degrees <= 3."""
    rng = random.Random(seed)
    k = rng.randrange(1, 3)
    nvars = rng.randrange(2, 5)
    while True:
        if rng.random() < 0.6:
            seeds = [random_linear(rng, Q, nvars) for _ in range(k)]
            f_deg = 3
        else:
            seeds = [random_poly(rng, Q, nvars, rng.choice([2, 3]),
                                 allow_zero=False) for _ in range(k)]
            f_deg = 1
        if algebraic_rank(seeds, mode="symbolic").rank != k:
            continue
        extras = []
        for _ in range(rng.randrange(1, 3)):
            f = random_poly(rng, Q, k, f_deg, allow_zero=False)
            q = compose(f, seeds)
            if q.degree() > 3 or q.is_zero():
                q = seeds[rng.randrange(k)].scale(rng.choice([1, 2]))
            extras.append(q)
        polys = seeds + extras
        return polys, tuple(range(k))


def rewrite_fixture(seed: int, domain=Q) -> Circuit:
    """Desk-scale rewrite inputs, over the rationals by default: k <= 2, d <= 2,
    T <= 2.  In another domain the draws are the same unless an input cancels
    there (only in a small field)."""
    rng = random.Random(seed)
    nvars = rng.randrange(2, 4)
    k = rng.randrange(1, 3)
    d = 2
    gates = []
    for _ in range(rng.randrange(1, 3)):
        t = rng.randrange(1, 4)
        seeds = [random_linear(rng, domain, nvars) for _ in range(k)]
        inner = []
        for _ in range(t):
            f = random_poly(rng, domain, k, d, max_terms=3, allow_zero=False)
            q = compose(f, seeds)
            if q.is_zero() or q.degree() > d:
                q = seeds[rng.randrange(k)]
            inner.append(q)
        if rng.random() < 0.4:
            gates.append(Gate(_random_outer_dag(rng, domain, len(inner)), inner))
        else:
            gates.append(Gate("product", inner))
    delta = max(1, max(g.formal_degree() for g in gates))
    return Circuit(domain, nvars, DeclaredBounds(d=d, k=k, delta=delta), gates)
