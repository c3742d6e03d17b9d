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

The scan evaluates the origin through `evaluate_circuit` (most nonzero
circuits stop there) and the rest of the grid in the arrays `_point_chunks`
fills in place.  They cross support sizes and grow geometrically: the
enumeration's first piece, then `_GROWTH` times the points before each, at
most `_CHUNK` points each, one column per variable.  Each gate folds its own
outer DAG over its inner polynomials' columns, and equal inner polynomials
share one column: nothing is compiled or copied.  Over F_p with p < 2^31 the
columns are int64: the grid values 0..delta are the field elements
themselves (p > delta), every coefficient is reduced below p, and every
product and gate-level sum is reduced mod p at once, so no operand exceeds
2^31 and no product 2^62.  An inner polynomial's column sum is reduced once,
at its end, or after every `_SUM_TERMS` = 2^32 terms: 2^32 + 1 residues of
at most 2^31 - 2 (the terms and the carried sum) add up to less than 2^63.
The int64 arithmetic is therefore exact.  Over Q and over larger primes the
columns are object arrays of the domain's own values (`Fraction`s, exact
ints).  The witness, the lowest nonzero row of the first chunk that has one,
is re-evaluated through `evaluate_circuit` before it is returned.

The support bound is computed in floats and accepted only when its value is
far from every integer; near an integer, or beyond the float range, it
falls back to outward-rounded interval arithmetic, so the integer ceiling
can never be rounded down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .circuit import Circuit, evaluate_circuit, expand
from .domains import PrimeField
from .errors import BoundViolation, FieldTooSmall, InvalidParams, SetTooLarge
from .poly import DEFAULT_TERM_CAP
from .util import derive_seed

DEFAULT_POINT_CAP = 2_000_000

# no array `_point_chunks` yields, and so no chunk of the scan, holds more points
_CHUNK = 4096
# each chunk after the first holds 7x the points before it: a zero scan pays
# numpy's per-call costs a few times, not once per support size, and a scan
# that stops at a witness evaluates under 8x the points before its chunk.
# On the PIT benchmark 4x was slower, and 16x and 32x no faster than 7x.
_GROWTH = 7
# residues below 2^31 keep every product of two below 2^62, exact in int64;
# larger primes and Q scan object columns
_ARRAY_PRIME_LIMIT = 1 << 31
# terms an int64 column sum may add before it is reduced (module docstring)
_SUM_TERMS = 1 << 32
_SAMPLE_FACTOR = 1 << 10  # the oracle draws from 2*delta*2^10 scalars


@dataclass(frozen=True)
class SupportBound:
    ell: int
    d: int
    k: int
    top_fanin: int
    delta: int
    variant: str  # "homogeneous" | "general"


# libm's exp and log are correct to about 1e-15 relative, so a float x more
# than this relative distance from every integer has the exact value's ceiling
_FLOAT_MARGIN = 1e-9


def support_bound(d: int, k: int, top_fanin: int, delta: int,
                  variant: str = "general") -> SupportBound:
    """ceil(2e^3 d (ln(T (delta+1)^v) + (d+1) k ln(2 (d+1) k) + 1)), v in {1,2}.

    The homogeneous variant (v = 1) bounds the trailing-monomial support of a
    homogeneous circuit; the general variant (v = 2) absorbs the
    (delta+1)-fold top fan-in blow-up of slicing an arbitrary circuit into
    homogeneous components, so no component circuits are ever materialized.

    The value x is computed in floats: a product and sum of positive terms
    (every logarithm is at least ln 2), so its relative error is a few
    units of 1e-16 and x lies within 1e-14 x of the exact value.  When x
    is more than `_FLOAT_MARGIN` x away from every integer, the exact value
    lies strictly between the same two integers and ceil(x) is exact.
    Otherwise (a value near an integer, or one too large for a float) the
    ceiling comes from outward-rounded interval arithmetic.
    """
    if min(d, k, top_fanin, delta) < 1:
        raise InvalidParams("support bound inputs must all be >= 1")
    if variant == "homogeneous":
        v = 1
    elif variant == "general":
        v = 2
    else:
        raise InvalidParams(f"unknown variant {variant!r}")
    try:
        x = _support_x(d, k, top_fanin, delta, v, math.exp, math.log)
    except OverflowError:
        x = math.inf
    if math.isfinite(x) and abs(x - round(x)) > _FLOAT_MARGIN * x:
        ell = math.ceil(x)
    else:
        ell = _interval_ell(d, k, top_fanin, delta, v)
    return SupportBound(ell=ell, d=d, k=k, top_fanin=top_fanin, delta=delta,
                        variant=variant)


def _support_x(d, k, top_fanin, delta, v, exp, log):
    """The support bound before its ceiling, in the arithmetic of exp and log."""
    return 2 * exp(3) * d * (log(top_fanin * (delta + 1) ** v)
                             + (d + 1) * k * log(2 * (d + 1) * k) + 1)


def _interval_ell(d: int, k: int, top_fanin: int, delta: int, v: int) -> int:
    """The support bound's ceiling from 120-bit outward-rounded intervals,
    which can never round it down."""
    import mpmath
    iv = mpmath.iv
    old_prec = iv.prec
    iv.prec = 120
    try:
        expr = _support_x(d, k, top_fanin, delta, v, iv.exp, iv.log)
        # the interval's upper endpoint is a dyadic rational: ceil it exactly
        num, den = mpmath.libmp.to_rational(mpmath.mpf(expr.b)._mpf_)
        return math.ceil(Fraction(int(num), int(den)))
    finally:
        iv.prec = old_prec


@dataclass(frozen=True)
class HittingSet:
    points: tuple
    ell: int
    values: tuple   # W, with 0 first; |W| = delta + 1, or 1 (the origin) when ell = 0
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
    size = hitting_set_size(nvars, delta, ell)
    if size > point_cap:
        raise SetTooLarge(size, point_cap)
    # with ell = 0 the set is the origin alone: W = {0}
    return ell, clamped, size, tuple(domain.scalars(delta + 1 if ell else 1))


def _point_chunks(nvars: int, ell: int, delta: int):
    """The points with 1..ell nonzero coordinates valued in {1..delta}, as
    int64 arrays of indices into W, in enumeration order: support size, then
    support position, then values, last coordinate fastest.  The origin,
    which comes first, is not among them.  The arrays cross support sizes and
    grow: the first is the first piece the loops build (at most `_CHUNK`
    points), each later one holds min(`_CHUNK`, `_GROWTH` x the points
    before it), and the last the rest.  Each piece is written straight into
    the arrays it spans."""
    import numpy as np
    total = hitting_set_size(nvars, delta, ell) - 1
    done, chunk = 0, None
    for j in range(1, ell + 1 if delta else 1):
        block = delta ** j  # value tuples per support, last coordinate fastest
        place = delta ** np.arange(j - 1, -1, -1, dtype=np.int64)
        supports = combinations(range(nvars), j)
        while batch := list(islice(supports, max(1, _CHUNK // block))):
            sup = np.array(batch, dtype=np.int64)
            for start in range(0, block, _CHUNK):
                vals = np.arange(start, min(block, start + _CHUNK))[:, None] // place % delta + 1
                where, piece = np.repeat(sup, len(vals), axis=0), np.tile(vals, (len(sup), 1))
                while len(piece):
                    if chunk is None:  # 0 points done: the first array is the first piece
                        want = min(_CHUNK, _GROWTH * done, total - done) or len(piece)
                        chunk, filled = np.zeros((want, nvars), dtype=np.int64), 0
                    take = min(len(piece), want - filled)
                    chunk[np.arange(filled, filled + take)[:, None], where[:take]] = piece[:take]
                    where, piece, filled = where[take:], piece[take:], filled + take
                    if filled == want:
                        yield chunk
                        chunk, done = None, done + want


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
    import numpy as np
    ell, clamped, size, values = _grid(nvars, delta, ell, domain, point_cap)
    grid = np.array(values, dtype=object)
    points = ((values[0],) * nvars,) + tuple(
        tuple(row) for chunk in _point_chunks(nvars, ell, delta)
        for row in grid[chunk].tolist())
    if len(points) != size:
        raise AssertionError("hitting set size disagrees with |H| (internal bug)")
    return HittingSet(points=points, ell=ell, values=values, nvars=nvars,
                      delta=delta, clamped=clamped)


def _verified(c: Circuit, point):
    """A chunk's witness, re-evaluated exactly to cross-check the column path."""
    if c.domain.is_zero(evaluate_circuit(c, point)):
        raise AssertionError("witness evaluates to zero (internal bug)")
    return point


def _column_value(poly, cols, powers):
    """`poly`'s value on the columns `cols`, mod p over F_p; `powers` caches
    cols[v]^e for these cols."""
    p = poly.domain.characteristic
    acc = 0
    for n, (mono, c) in enumerate(poly.terms.items(), 1):
        term = c
        for v, e in mono:
            x = powers.get((v, e))
            if x is None:
                x = cols[v]
                for _ in range(e - 1):
                    x = x * cols[v] % p if p else x * cols[v]
                powers[(v, e)] = x
            term = term * x % p if p else term * x
        acc = acc + term
        if p and n % _SUM_TERMS == 0:
            acc = acc % p
    return acc % p if p else acc


def _evaluate_chunk(c: Circuit, cols):
    """The circuit's value at each point whose coordinates are the columns `cols`
    (int64 or object arrays): each gate folds its own DAG, uncompiled, over
    its inner polynomials' columns, with the domain's add and mul acting
    elementwise.  Equal inner polynomials share one column; a call node's
    polynomial gets fresh ones."""
    dom = c.domain
    powers: dict = {}
    columns: dict = {}

    def call(poly, args):  # a call node's arguments are new columns
        return _column_value(poly, args, {})

    def column(q):
        if (col := columns.get(q)) is None:
            col = columns[q] = _column_value(q, cols, powers)
        return col

    total = dom.zero
    for g in c.gates:
        vals = [column(q) for q in g.inner]
        total = dom.add(total, g.outer._fold(vals, dom.coerce, call, dom.add, dom.mul))
    return total


def _scan(c: Circuit, ell: int, values):
    """The first witness in enumeration order and its index, or (None, None)."""
    dom = c.domain
    # the origin goes through evaluate_circuit: most witnesses are there
    origin = (values[0],) * c.nvars
    if not dom.is_zero(evaluate_circuit(c, origin)):
        return origin, 0
    import numpy as np
    # over F_p with p < 2^31 the indices 0..delta into W are the field elements
    int64 = 0 < dom.characteristic < _ARRAY_PRIME_LIMIT
    grid = np.array(values, dtype=object)
    index = 1
    for chunk in _point_chunks(c.nvars, ell, len(values) - 1):
        cols = np.ascontiguousarray(chunk.T) if int64 else grid[chunk.T]
        nonzero = np.flatnonzero(_evaluate_chunk(c, cols))
        if nonzero.size:
            row = chunk[nonzero[0]]
            return _verified(c, tuple(values[x] for x in row)), index + int(nonzero[0])
        index += len(chunk)
    return None, None


@dataclass(frozen=True)
class SZVerdict:
    nonzero: bool
    witness: tuple | None
    rounds: int
    sample_size: int
    error_bound: Fraction  # false-zero probability when the verdict is zero


def schwartz_zippel_test(c: Circuit, rounds: int = 20, seed: int = 0) -> SZVerdict:
    """Randomized evaluation oracle; never expands the circuit.

    Points are drawn from the first |S| = 2*delta*2^10 scalars (capped at p
    over a prime field); any nonzero evaluation is returned as a witness;
    otherwise the circuit is zero except with probability at most
    (delta/|S|)^rounds.
    """
    dom = c.domain
    delta = max(1, c.declared.delta)
    sample_size = 2 * delta * _SAMPLE_FACTOR
    if isinstance(dom, PrimeField):
        sample_size = min(dom.p, sample_size)
    if sample_size < 2 * delta:
        raise FieldTooSmall(
            f"oracle needs at least {2 * delta} scalars, have {sample_size}")
    if rounds < 1:
        raise InvalidParams(f"oracle needs at least 1 round, got {rounds}")
    rng = random.Random(derive_seed(seed, "sz"))
    for _ in range(rounds):
        point = tuple(dom.coerce(rng.randrange(sample_size)) for _ in range(c.nvars))
        if not dom.is_zero(evaluate_circuit(c, point)):
            return SZVerdict(nonzero=True, witness=point, rounds=rounds,
                             sample_size=sample_size, error_bound=Fraction(0))
    return SZVerdict(nonzero=False, witness=None, rounds=rounds,
                     sample_size=sample_size,
                     error_bound=Fraction(delta, sample_size) ** rounds)


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
    witness_index: int | None = None  # witness's position in enumeration order


def pit_test(c: Circuit, mode: str = "hitting-set", *, seed: int = 0,
             point_cap: int = DEFAULT_POINT_CAP, rounds: int = 20,
             certify_rank: bool = False,
             expansion_term_cap: int | None = None) -> PitReport:
    """Deterministic blackbox identity test for the declared circuit class.

    hitting-set mode evaluates the circuit on the low-support grid derived
    from the general support bound (the (delta+1)^2 factor already accounts
    for homogeneous-component slicing, so no component circuits are built);
    a zero verdict is certified for circuits within their declared bounds.
    oracle mode runs the randomized test alone; both mode cross-checks the
    two and, when a term cap allows, full expansion as well.  The scan is
    sequential.  `expansion_term_cap` also caps the annihilator searches of
    `certify_rank` (`DEFAULT_TERM_CAP` when None).
    """
    if mode not in ("hitting-set", "oracle", "both"):
        raise InvalidParams(f"unknown mode {mode!r}")
    rank_certified = False
    if certify_rank:
        from .algdep import algebraic_rank
        term_cap = DEFAULT_TERM_CAP if expansion_term_cap is None else expansion_term_cap
        for gi, g in enumerate(c.gates):
            cert = algebraic_rank(g.inner, mode="symbolic", term_cap=term_cap,
                                  seed=derive_seed(seed, "certify", gi))
            bound = c.declared.k if g.rank_bound is None else min(c.declared.k, g.rank_bound)
            if cert.rank > bound:
                raise BoundViolation(gi, "k", bound, cert.rank)
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
    witness, witness_index = _scan(c, ell_used, values)
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
            expansion_nonzero = not expand(c, term_cap=expansion_term_cap).is_zero()
            consistent = consistent and (expansion_nonzero == (verdict == "nonzero"))
    return PitReport(verdict=verdict, witness=witness, ell=sb.ell,
                     ell_used=ell_used, clamped=clamped,
                     hitting_set_size=size, mode=mode, oracle=oracle,
                     expansion_nonzero=expansion_nonzero, consistent=consistent,
                     rank_certified=rank_certified, witness_index=witness_index)

