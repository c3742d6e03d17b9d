"""The projected-shifted-partial-derivatives dimension and its upper bounds.

For a derivative monomial set M of uniform degree r and a shift degree m, the
measure of P is the rank of the span of mult[(prod_{i in S} X_i) * dP/dgamma]
over gamma in M and |S| = m, where mult[] keeps only multilinear monomials.
`psp_dimension` lists every derivative in one pass over the T terms of P, in
at most |M| * T term tests, and prunes singleton columns before it eliminates:
a row alone in a column is outside the span of the other rows, so it adds 1
to the rank.  It checks its cell cap before it lists a derivative.  The two
closed-form bounds (the composition bound for functions of low-support
polynomials, and the per-circuit bound derived from it) are exact integers.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, prod

from .errors import HypothesisViolated, InvalidParams, MatrixTooLarge
from .linalg import rank_stream
from .poly import Polynomial, check_derivative, mono_degree

DEFAULT_MATRIX_CAP = 10**7


@dataclass(frozen=True)
class _Multilinear:
    """The multilinear monomials of degree r in nvars variables, in
    `combinations` order, listed only when iterated; len is C(nvars, r)."""

    nvars: int
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise InvalidParams("derivative degree must be >= 0")

    def __iter__(self):
        return (tuple((v, 1) for v in subset)
                for subset in combinations(range(self.nvars), self.r))

    def __len__(self) -> int:
        return comb(self.nvars, self.r)


@dataclass(frozen=True)
class MeasureSpec:
    """Derivative set M (all of one degree r) and shift degree m.  Checked
    however it is built; a `_Multilinear` M is checked without being listed."""

    monomials: tuple | _Multilinear
    shift_degree: int
    degree: int

    def __post_init__(self):
        monos = self.monomials
        if self.shift_degree < 0:
            raise InvalidParams("shift degree must be >= 0")
        multilinear = isinstance(monos, _Multilinear)
        if monos.r > monos.nvars if multilinear else not monos:
            raise InvalidParams("derivative set must be nonempty")
        for gamma in () if multilinear else monos:
            check_derivative(gamma)
        degs = {monos.r} if multilinear else {mono_degree(m) for m in monos}
        if len(degs) != 1:
            raise InvalidParams(
                f"derivative monomials must share one degree, got degrees {sorted(degs)}")
        if degs != {self.degree}:
            raise InvalidParams(
                f"spec degree {self.degree} is not the derivatives' degree {degs.pop()}")

    @classmethod
    def of(cls, monomials, shift_degree: int) -> "MeasureSpec":
        monos = tuple(monomials)
        return cls(monomials=monos, shift_degree=shift_degree,
                   degree=mono_degree(monos[0]) if monos else 0)

    @classmethod
    def multilinear(cls, nvars: int, r: int, shift_degree: int) -> "MeasureSpec":
        """All multilinear monomials of degree exactly r, listed when iterated."""
        return cls(monomials=_Multilinear(nvars, r), shift_degree=shift_degree, degree=r)


@dataclass(frozen=True)
class MeasureReport:
    dimension: int
    rows: int
    cols: int
    rank_method: str
    shift_degree: int = 0
    derivative_degree: int = 0
    derivative_count: int = 0


def psp_dimension(p: Polynomial, spec: MeasureSpec, *,
                  matrix_cap: int = DEFAULT_MATRIX_CAP) -> MeasureReport:
    """Exact dimension of the projected shifted partial-derivative span.

    One pass over P's `_int_form` lists each mult[dP/dgamma] as (mask, coeff)
    pairs.  A multilinear term tests its C(deg, r) subsets of r variables if
    they are fewer than M, any other term every gamma: at most |M| * T tests.
    Each distinct derivative is shifted once and each distinct row kept once;
    `rows` counts the full matrix.  A row alone in some column is outside the
    span of the others, which are 0 there: it adds 1 to the dimension and is
    pruned, until no such column is left (one sweep, then row by row: linear
    in the entries).  `rank_stream` eliminates the rest in order.
    MatrixTooLarge past `matrix_cap` cells, before any derivative is listed.
    """
    n = p.nvars
    m, r, q = spec.shift_degree, spec.degree, p.domain.characteristic
    count = spec.monomials.__len__()  # len() refuses counts past sys.maxsize
    cells = n * comb(n, m) * count  # n * C(n, m) cells a derivative
    if cells > matrix_cap:
        raise MatrixTooLarge(cells, matrix_cap)

    lists = {gamma: [] for gamma in spec.monomials}  # gamma -> [(mask, coeff)]
    check_derivative(max(lists, key=lambda g: g[-1][0] if g else -1), n)
    for mono, deg, c in p._int_form()[0]:
        c *= prod(factorial(e) for _, e in mono)  # e!/(e - g)! = e!, as e - g is 0 or 1
        if q and not (c := c % q):
            continue
        by_subsets = deg == len(mono) and comb(deg, r) <= len(lists)  # a multilinear term
        for gamma in combinations(mono, r) if by_subsets else lists:
            rest = dict(mono)
            for v, g in gamma:
                rest[v] = rest.get(v, 0) - g
            if gamma in lists and all(0 <= e <= 1 for e in rest.values()):
                lists[gamma].append((sum(1 << v for v, e in rest.items() if e), c))
    # sorted by mask, a row's entries come out sorted by column: the row is its key
    derivs = Counter(tuple(sorted(lists[gamma])) for gamma in spec.monomials)
    smasks = [sum(1 << v for v in subset) for subset in combinations(range(n), m)]

    distinct, nrows = {}, 0
    for ml, times in derivs.items():
        for smask in smasks:
            if row := tuple([(mask | smask, coeff) for mask, coeff in ml if not mask & smask]):
                nrows += times
                distinct[row] = None
    rows = list(map(dict, distinct))
    weight = Counter(chain.from_iterable(rows))
    ones = {col for col, w in weight.items() if w == 1}
    live = [row for row in rows if ones.isdisjoint(row)]
    pruned, cols = len(rows) - len(live), len(weight)
    reach = defaultdict(set)  # column -> its live rows, if the sweep left a singleton
    for i, row in enumerate(live if 1 in Counter(chain.from_iterable(live)).values() else ()):
        for col in row:
            reach[col].add(i)
    singles = [col for col, ids in reach.items() if len(ids) == 1]
    while singles:
        if len(ids := reach[singles.pop()]) == 1:  # 0 once its row is pruned
            i, pruned = ids.pop(), pruned + 1
            for col in live[i]:
                reach[col].discard(i)
                if len(reach[col]) == 1:
                    singles.append(col)
            live[i] = {}

    dimension = pruned + rank_stream(filter(None, live), p.domain)
    return MeasureReport(dimension=dimension, rows=nrows, cols=cols,
                         rank_method="exact-elimination",
                         shift_degree=m, derivative_degree=spec.degree,
                         derivative_count=count)


def composition_upper_bound(n: int, t: int, r: int, m: int, s: int) -> int:
    """N * C(t+r, r) * C(N, m+rs): a ceiling on the measure of any F(Q_1..Q_t)
    whose inner polynomials have monomial support at most s, valid whenever
    m + r*s <= N/2."""
    _check_bound_args(n, t, r, m, s)
    return n * comb(t + r, r) * comb(n, m + r * s)


def circuit_measure_bound(t_fanin: int, n: int, k: int, deg: int, r: int,
                          m: int, s: int) -> int:
    """T * N * C(k(deg+1)+r, r) * C(N, m+rs): the per-circuit measure ceiling
    for top fan-in T and per-gate rank at most k, same hypothesis."""
    _check_bound_args(n, t_fanin, r, m, s)
    if k < 0 or deg < 0:
        raise InvalidParams("k and degree must be >= 0")
    return t_fanin * n * comb(k * (deg + 1) + r, r) * comb(n, m + r * s)


def _check_bound_args(n, t, r, m, s):
    if min(n, t) < 1 or min(r, m, s) < 0:
        raise InvalidParams("bound inputs out of range")
    if 2 * (m + r * s) > n:
        raise HypothesisViolated(
            f"m + r*s = {m + r * s} exceeds N/2 = {Fraction(n, 2)}")
