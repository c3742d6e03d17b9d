"""Polynomial identity testing for rank-bounded circuits.

A nonzero polynomial computed by a circuit in the declared class always has
a monomial of small support: ell grows only logarithmically in the top
fan-in and formal degree (and quasi-linearly in d and k).  Every point set
that exhausts the low-support grid H therefore hits the circuit, which gives a
deterministic blackbox test: enumerate all points with at most ell nonzero
coordinates taking values in {1..delta} and evaluate.  The randomized
evaluation oracle provides the classical probabilistic counterpart.

Past the origin the scan visits only the points of H supported on the
circuit's essential coordinates I, those of its distinct inner
polynomials (`algdep._essential`; Carlini, "Reducing the number of
variables of a polynomial", 2006; Kayal, SODA 2011).  Let K be the
directions v with sum_u v_u dq/dx_u = 0 for every inner polynomial q.
In characteristic 0, or when p exceeds every inner degree, q(x + t*v) has
zero t-derivative and degree < p in t, so each q, and the circuit with
them, is constant along K.  I is the greedy independent columns of the
partial derivatives, so F^N = span(e_I) + K, a direct sum: C == 0 if and
only if C with every x_j, j not in I, set to 0 is, a circuit of the same
class in |I| variables that the points of H supported on I hit.  When p
is at most some inner degree, I is every variable that occurs: one that
no inner polynomial contains cannot change C, so zeroing it at a nonzero
point gives an earlier point of H with the same value, and H's first
nonzero point sets none.

Of those points the scan visits only the principal lattice, the ones whose
value indices sum to at most delta (Chung and Yao, "On lattices admitting
unique Lagrange interpolations", SIAM J. Numer. Anal. 14, 1977):
C(|I| + delta, delta) points in place of (delta + 1)^|I|.  The circuit's
total degree is at most delta, since `Circuit` checks every gate's formal
degree, and so is f, the circuit with x_j = 0 off I.

Lemma.  Let f have total degree <= delta and take distinct w_0 = 0, w_1,
..., w_delta.  The first point of the grid {w}^m, in H's order, where f is
nonzero has value indices a with sum(a) <= delta.  Proof: let that point
have support S, s = |S|.  Every point of smaller support comes first, so
f restricted to S vanishes on the whole grid of each face x_v = 0, v in S,
and prod_{v in S} x_v divides it: f|_S = prod x_v * g, deg g <= delta - s.
Inside support S the order is lex on b = a - 1.  g vanishes at every
b' < b: each earlier slice g(w_{b'+1}, .) vanishes on a grid too large for
its degree, so prod_{b' < b_1} (x_1 - w_{b'+1}) divides g and b_1 <= deg g;
recurse on the other coordinates with deg g - b_1.  So sum(b) <= delta - s
and sum(a) <= delta.

The points of H on I are a prefix of the grid {w}^|I| in its order, even
when ell < |I|, so the scan's first nonzero lattice point is the first
nonzero point of H supported on I: its witness (not always H's first
nonzero point) and its index, the point's position in H, are those of the
full scan over I.  A zero verdict evaluates C(|I| + delta, delta) - 1
points past the origin; when min(delta, |I|) <= ell every lattice point is
in H and the verdict rests on delta alone, not on k or the support bound.

The scan evaluates the origin through `evaluate_circuit` and every other
point exactly, one at a time, in the order `_lattice` yields them: first
the axis of v0 = min I, found without I (the first variable that occurs,
in I in either case: when p > deg q its column holds e * coefficient
!= 0), then the other lattice points supported on I, which is computed
only past that axis.  At each point every distinct inner polynomial is
evaluated once, and each gate folds its own outer DAG over those values:
nothing is compiled or copied.  The witness is re-evaluated through `evaluate_circuit` before it
is returned.

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
from itertools import combinations, islice, product

from .algdep import _essential, _gate_ranks
from .circuit import Circuit, evaluate_circuit, expand
from .domains import PrimeField
from .errors import FieldTooSmall, InvalidParams, SetTooLarge
from .poly import DEFAULT_TERM_CAP
from .util import derive_seed

DEFAULT_POINT_CAP = 2_000_000

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


def _supports(coords, ell: int, delta: int):
    """(support, values) for each point with 1..ell nonzero coordinates, all
    in `coords`, valued in {1..delta} (indices into W), in H's order:
    support size, then support position, then values, last coordinate
    fastest.  The origin, which comes first, is not among them."""
    for j in range(1, ell + 1 if delta else 1):
        for support in combinations(coords, j):
            for values in product(range(1, delta + 1), repeat=j):
                yield support, values


def _lattice(coords, ell: int, delta: int):
    """The pairs of `_supports(coords, ell, delta)` whose values sum to at
    most delta, in the same order, generated directly: j values a >= 1 with
    sum <= delta are the gaps of their partial sums, a j-subset of
    {1..delta}, and `combinations` lists those in lex order, as `product`
    lists the values.  With ell >= min(len(coords), delta) there are
    C(len(coords) + delta, delta) - 1 pairs."""
    for j in range(1, min(ell, delta) + 1):
        simplex = [tuple(b - a for a, b in zip((0,) + sums, sums))
                   for sums in combinations(range(1, delta + 1), j)]
        for support in combinations(coords, j):
            for values in simplex:
                yield support, values


def hitting_set(nvars: int, delta: int, ell: int, domain, *,
                point_cap: int = DEFAULT_POINT_CAP) -> HittingSet:
    """All points with at most ell nonzero coordinates valued in {1..delta}.

    Hits every nonzero polynomial of degree <= delta that has a monomial of
    support <= ell: zeroing the variables outside that monomial's support
    keeps its coefficient alive, and the surviving polynomial in <= ell
    variables of individual degree <= delta cannot vanish on the whole
    (delta+1)-grid.  The points come in H's order, the origin first and then
    as `_supports` yields them.
    """
    ell, clamped, size, values = _grid(nvars, delta, ell, domain, point_cap)
    points = [(values[0],) * nvars]
    for support, vals in _supports(range(nvars), ell, delta):
        point = [values[0]] * nvars
        for v, a in zip(support, vals):
            point[v] = values[a]
        points.append(tuple(point))
    if len(points) != size:
        raise AssertionError("hitting set size disagrees with |H| (internal bug)")
    return HittingSet(points=tuple(points), ell=ell, values=values, nvars=nvars,
                      delta=delta, clamped=clamped)


def _verified(c: Circuit, point):
    """A scanned witness, re-evaluated through `evaluate_circuit` to
    cross-check the scan's own evaluation."""
    if c.domain.is_zero(evaluate_circuit(c, point)):
        raise AssertionError("witness evaluates to zero (internal bug)")
    return point


def _index(row: list, delta: int) -> int:
    """The position in H's enumeration of the point whose value indices are
    `row`: the points of smaller support, then its support's rank among the
    supports of its size (lex order), times delta^s, then its values read as
    base-delta digits, last coordinate fastest."""
    nvars, support = len(row), [v for v, x in enumerate(row) if x]
    s = len(support)
    rank = math.comb(nvars, s) - 1 - sum(math.comb(nvars - 1 - v, s - i)
                                         for i, v in enumerate(support))
    value = 0
    for v in support:
        value = value * delta + row[v] - 1
    return hitting_set_size(nvars, delta, s - 1) + rank * delta ** s + value


def _point_value(dom, qs: list, folds: list, pt: list):
    """The circuit's value at the canonical coordinates `pt`: each distinct
    inner polynomial of `qs` once, then each gate's own outer DAG over the
    values at its inputs' positions in `qs` (`folds`, one (outer, positions)
    pair per gate)."""
    vals = [q._value(pt) for q in qs]
    total = dom.zero
    for outer, at in folds:
        total = dom.add(total, outer.evaluate([vals[i] for i in at], dom))
    return total


def _scan(c: Circuit, ell: int, values):
    """The first witness among the points of H supported on the essential
    coordinates, in H's order, and its index in H; or (None, None).  The
    origin goes first, then v0's axis, and only then is I computed and the
    rest of its points scanned, one exact evaluation per point.  Only the
    points whose value indices sum to at most delta are visited: by the
    module docstring's lemma (Chung and Yao, 1977) the first nonzero point
    of H on I is among them."""
    dom = c.domain
    # the origin goes through evaluate_circuit: most witnesses are there
    origin = (values[0],) * c.nvars
    if not dom.is_zero(evaluate_circuit(c, origin)):
        return origin, 0
    delta = len(values) - 1
    qs = list(dict.fromkeys(q for g in c.gates for q in g.inner))
    v0 = min((m[0][0] for q in qs for m in q.terms if m), default=None)
    if not delta or v0 is None:
        return None, None  # H is the origin alone, or every inner is constant

    def points():  # every enumeration over I starts on v0's axis: I comes after it
        yield from _lattice([v0], 1, delta)
        essential = _essential(qs)
        if essential[:1] != [v0]:
            raise AssertionError("v0 is not the first essential coordinate (internal bug)")
        yield from islice(_lattice(essential, min(ell, len(essential)), delta), delta, None)

    where = {q: i for i, q in enumerate(qs)}
    folds = [(g.outer, [where[q] for q in g.inner]) for g in c.gates]
    pt = list(origin)
    for support, vals in points():
        for v, a in zip(support, vals):
            pt[v] = values[a]
        if not dom.is_zero(_point_value(dom, qs, folds, pt)):
            witness = _verified(c, tuple(pt))
            return witness, _index([values.index(x) for x in witness], delta)
        for v in support:
            pt[v] = values[0]
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
    Past the origin only the points supported on the essential coordinates
    I whose value indices sum to at most delta are scanned, the principal
    lattice (Chung and Yao, 1977; module docstring); the witness is still
    the first nonzero point of H on I in the hitting set's order, and
    `witness_index` its position in the whole set, whose size
    `hitting_set_size` still is.  oracle mode runs the randomized test
    alone; both mode cross-checks the two and, when a term cap allows, full
    expansion as well.  The scan is sequential.
    `expansion_term_cap` also caps the annihilator searches of
    `certify_rank` (`DEFAULT_TERM_CAP` when None).
    """
    if mode not in ("hitting-set", "oracle", "both"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if certify_rank:
        _gate_ranks(c, seed, "certify",
                    DEFAULT_TERM_CAP if expansion_term_cap is None else expansion_term_cap)
    rank_certified = bool(certify_rank)

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

