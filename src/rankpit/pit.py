"""Polynomial identity testing for rank-bounded circuits.

A nonzero polynomial computed by a circuit in the declared class always has
a monomial of small support: ell grows only logarithmically in the top
fan-in and formal degree (and quasi-linearly in d and k).  Every point set
that exhausts the low-support grid therefore hits the circuit, which gives a
deterministic blackbox test: enumerate all points with at most ell nonzero
coordinates taking values in {1..delta} and evaluate.  The scan is one
sequential pass that generates the points in enumeration order and stops at
the first nonzero evaluation, so its witness is always the first one in that
order.  The randomized evaluation oracle provides the classical
probabilistic counterpart.

The support bound is evaluated in outward-rounded interval arithmetic so
the integer ceiling can never be rounded down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from itertools import product as _cartesian

import mpmath

from .circuit import Circuit, evaluate_circuit
from .domains import PrimeField
from .errors import FieldTooSmall, InvalidParams, SetTooLarge
from .util import derive_seed

DEFAULT_POINT_CAP = 2_000_000


@dataclass(frozen=True)
class SupportBound:
    ell: int
    d: int
    k: int
    top_fanin: int
    delta: int
    variant: str  # "homogeneous" | "general"


def support_bound(d: int, k: int, top_fanin: int, delta: int,
                  variant: str = "general") -> SupportBound:
    """ceil(2e^3 d (ln(T (delta+1)^v) + (d+1) k ln(2 (d+1) k) + 1)), v in {1,2}.

    The homogeneous variant (v = 1) bounds the trailing-monomial support of a
    homogeneous circuit; the general variant (v = 2) absorbs the
    (delta+1)-fold top fan-in blow-up of slicing an arbitrary circuit into
    homogeneous components, so no component circuits are ever materialized.
    """
    if min(d, k, top_fanin, delta) < 1:
        raise InvalidParams("support bound inputs must all be >= 1")
    if variant == "homogeneous":
        v = 1
    elif variant == "general":
        v = 2
    else:
        raise InvalidParams(f"unknown variant {variant!r}")
    iv = mpmath.iv
    old_prec = iv.prec
    iv.prec = 120
    try:
        expr = 2 * iv.exp(3) * d * (
            iv.log(top_fanin * (delta + 1) ** v)
            + (d + 1) * k * iv.log(2 * (d + 1) * k)
            + 1)
        # the interval's upper endpoint is a dyadic rational: ceil it exactly
        num, den = mpmath.libmp.to_rational(mpmath.mpf(expr.b)._mpf_)
        ell = math.ceil(Fraction(int(num), int(den)))
    finally:
        iv.prec = old_prec
    return SupportBound(ell=ell, d=d, k=k, top_fanin=top_fanin, delta=delta,
                        variant=variant)


@dataclass(frozen=True)
class HittingSet:
    points: tuple
    ell: int
    values: tuple   # W, with 0 first; |W| = delta + 1
    nvars: int
    delta: int
    clamped: bool   # ell exceeded nvars and fell back to the full grid


def hitting_set_size(nvars: int, delta: int, ell: int) -> int:
    """|H| = sum_{j<=min(ell,N)} C(N, j) * delta^j, computed before enumeration."""
    ell = min(ell, nvars)
    return sum(math.comb(nvars, j) * delta ** j for j in range(ell + 1))


def _grid(nvars: int, delta: int, ell: int, domain, point_cap: int):
    """Validated (ell clamped to nvars, clamped?, |H|, W) for the low-support grid."""
    if ell < 0 or delta < 0 or nvars < 0:
        raise InvalidParams("hitting set parameters must be nonnegative")
    clamped = ell > nvars
    ell = min(ell, nvars)
    if isinstance(domain, PrimeField) and domain.p < delta + 1:
        raise FieldTooSmall(
            f"need {delta + 1} distinct scalars, field has {domain.p}")
    size = hitting_set_size(nvars, delta, ell)
    if size > point_cap:
        raise SetTooLarge(size, point_cap)
    return ell, clamped, size, tuple(domain.coerce(i) for i in range(delta + 1))


def _iter_points(nvars: int, ell: int, values):
    """W-valued points with at most ell nonzero coordinates, in enumeration order."""
    zero, nonzero_values = values[0], values[1:]
    yield tuple(zero for _ in range(nvars))
    for j in range(1, ell + 1):
        for support in combinations(range(nvars), j):
            for nonzero in _cartesian(nonzero_values, repeat=j):
                point = [zero] * nvars
                for v, val in zip(support, nonzero):
                    point[v] = val
                yield tuple(point)


def hitting_set(nvars: int, delta: int, ell: int, domain, *,
                point_cap: int = DEFAULT_POINT_CAP) -> HittingSet:
    """All points with at most ell nonzero coordinates valued in {1..delta}.

    Hits every nonzero polynomial of degree <= delta that has a monomial of
    support <= ell: zeroing the variables outside that monomial's support
    keeps its coefficient alive, and the surviving polynomial in <= ell
    variables of individual degree <= delta cannot vanish on the whole
    (delta+1)-grid.  Enumeration order is deterministic: support size, then
    support position, then values.
    """
    ell, clamped, size, values = _grid(nvars, delta, ell, domain, point_cap)
    points = tuple(_iter_points(nvars, ell, values))
    if len(points) != size:
        raise AssertionError("hitting set size disagrees with |H| (internal bug)")
    return HittingSet(points=points, ell=ell, values=values, nvars=nvars,
                      delta=delta, clamped=clamped)


def _verified(c: Circuit, point):
    """The witness, after re-evaluating the circuit at it exactly."""
    if c.domain.is_zero(evaluate_circuit(c, point)):
        raise AssertionError("witness evaluates to zero (internal bug)")
    return point


@dataclass(frozen=True)
class SZVerdict:
    nonzero: bool
    witness: tuple | None
    rounds: int
    sample_size: int
    error_bound: Fraction  # false-zero probability when the verdict is zero


def schwartz_zippel_test(c: Circuit, rounds: int = 20, seed: int = 0, *,
                         sample_size: int | None = None) -> SZVerdict:
    """Randomized evaluation oracle; never expands the circuit.

    Points are drawn from the first |S| scalars with |S| defaulting to
    2*delta*2^10 (capped at p over a prime field); any nonzero evaluation is
    returned as a witness, re-checked; otherwise the circuit is zero except
    with probability at most (delta/|S|)^rounds.
    """
    dom = c.domain
    delta = max(1, c.declared.delta)
    if sample_size is None:
        sample_size = 2 * delta * (1 << 10)
    if isinstance(dom, PrimeField):
        sample_size = min(dom.p, sample_size)
    if sample_size < 2 * delta:
        raise FieldTooSmall(
            f"oracle needs at least {2 * delta} scalars, have {sample_size}")
    rng = random.Random(derive_seed(seed, "sz"))
    for _ in range(max(1, rounds)):
        point = tuple(dom.coerce(rng.randrange(sample_size)) for _ in range(c.nvars))
        if not dom.is_zero(evaluate_circuit(c, point)):
            return SZVerdict(nonzero=True, witness=_verified(c, point), rounds=rounds,
                             sample_size=sample_size,
                             error_bound=Fraction(0))
    return SZVerdict(nonzero=False, witness=None, rounds=rounds,
                     sample_size=sample_size,
                     error_bound=Fraction(delta, sample_size) ** max(1, rounds))


@dataclass(frozen=True)
class PitReport:
    verdict: str            # "zero" | "nonzero"
    witness: tuple | None
    ell: int                # raw support bound
    ell_used: int           # after clamping to nvars
    clamped: bool
    hitting_set_size: int | None
    mode: str
    oracle: SZVerdict | None = None
    expansion_nonzero: bool | None = None
    consistent: bool | None = None
    rank_certified: bool = False


def pit_test(c: Circuit, mode: str = "hitting-set", *, seed: int = 0,
             point_cap: int = DEFAULT_POINT_CAP, rounds: int = 20,
             workers: int = 1, certify_rank: bool = False,
             expansion_term_cap: int | None = None) -> PitReport:
    """Deterministic blackbox identity test for the declared circuit class.

    hitting-set mode evaluates the circuit on the low-support grid derived
    from the general support bound (the (delta+1)^2 factor already accounts
    for homogeneous-component slicing, so no component circuits are built);
    a zero verdict is certified for circuits within their declared bounds.
    oracle mode runs the randomized test alone; both mode cross-checks the
    two and, when a term cap allows, full expansion as well.  The scan is
    sequential; `workers` is accepted for compatibility and has no effect.
    """
    if mode not in ("hitting-set", "oracle", "both"):
        raise InvalidParams(f"unknown mode {mode!r}")
    rank_certified = False
    if certify_rank:
        from .algdep import algebraic_rank
        from .errors import BoundViolation
        for gi, g in enumerate(c.gates):
            cert = algebraic_rank(g.inner, mode="randomized",
                                  seed=derive_seed(seed, "certify", gi))
            if cert.rank > c.declared.k:
                raise BoundViolation(gi, "k", c.declared.k, cert.rank)
        rank_certified = True

    d = max(1, c.declared.d)
    k = max(1, c.declared.k)
    top = max(1, c.top_fanin)
    delta = max(1, c.declared.delta)
    sb = support_bound(d, k, top, delta, "general")

    if mode == "oracle":
        oracle = schwartz_zippel_test(c, rounds=rounds, seed=seed)
        verdict = "nonzero" if oracle.nonzero else "zero"
        return PitReport(verdict=verdict, witness=oracle.witness, ell=sb.ell,
                         ell_used=min(sb.ell, c.nvars), clamped=sb.ell > c.nvars,
                         hitting_set_size=None, mode=mode, oracle=oracle,
                         rank_certified=rank_certified)

    ell_used, clamped, size, values = _grid(c.nvars, c.declared.delta, sb.ell,
                                            c.domain, point_cap)
    witness = next((_verified(c, pt) for pt in _iter_points(c.nvars, ell_used, values)
                    if not c.domain.is_zero(evaluate_circuit(c, pt))), None)
    verdict = "nonzero" if witness is not None else "zero"

    oracle = None
    expansion_nonzero = None
    consistent = None
    if mode == "both":
        oracle = schwartz_zippel_test(c, rounds=rounds, seed=seed)
        # an oracle witness against a certified zero verdict is a real conflict;
        # an oracle "probably-zero" against a verified witness is only a miss
        consistent = not (oracle.nonzero and verdict == "zero")
        if expansion_term_cap is not None:
            from .circuit import expand
            expansion_nonzero = not expand(c, term_cap=expansion_term_cap).is_zero()
            consistent = consistent and (expansion_nonzero == (verdict == "nonzero"))
    return PitReport(verdict=verdict, witness=witness, ell=sb.ell,
                     ell_used=ell_used, clamped=clamped,
                     hitting_set_size=size, mode=mode, oracle=oracle,
                     expansion_nonzero=expansion_nonzero, consistent=consistent,
                     rank_certified=rank_certified)

