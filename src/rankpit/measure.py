"""The projected-shifted-partial-derivatives dimension and its upper bounds.

For a derivative monomial set M of uniform degree r and a shift degree m, the
measure of P is the rank of the span of mult[(prod_{i in S} X_i) * dP/dgamma]
over gamma in M and |S| = m, where mult[] keeps only multilinear monomials.
The two closed-form bounds are the composition bound for functions of
low-support polynomials and the per-circuit bound derived from it; both are
exact big-integer formulas.  `psp_dimension` checks its cell cap before it
lists a derivative; `MeasureSpec.multilinear` lists its C(N, r) monomials
only when iterated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import HypothesisViolated, InvalidParams, MatrixTooLarge
from .linalg import rank_stream
from .poly import Polynomial, mono_degree, mono_is_multilinear

DEFAULT_MATRIX_CAP = 10**7


@dataclass(frozen=True)
class _Multilinear:
    """The multilinear monomials of degree r in nvars variables, in
    `combinations` order, listed only when iterated; len is C(nvars, r)."""

    nvars: int
    r: int

    def __iter__(self):
        return (tuple((v, 1) for v in subset)
                for subset in combinations(range(self.nvars), self.r))

    def __len__(self) -> int:
        return comb(self.nvars, self.r)


@dataclass(frozen=True)
class MeasureSpec:
    """Derivative set M (all of one degree r) and shift degree m."""

    monomials: tuple | _Multilinear
    shift_degree: int
    degree: int

    @classmethod
    def of(cls, monomials, shift_degree: int) -> "MeasureSpec":
        monos = tuple(monomials)
        if shift_degree < 0:
            raise InvalidParams("shift degree must be >= 0")
        if not monos:
            raise InvalidParams("derivative set must be nonempty")
        degs = {mono_degree(m) for m in monos}
        if len(degs) != 1:
            raise InvalidParams(
                f"derivative monomials must share one degree, got degrees {sorted(degs)}")
        return cls(monomials=monos, shift_degree=shift_degree, degree=degs.pop())

    @classmethod
    def multilinear(cls, nvars: int, r: int, shift_degree: int) -> "MeasureSpec":
        """All multilinear monomials of degree exactly r, listed when iterated."""
        if r < 0:
            raise InvalidParams("derivative degree must be >= 0")
        if shift_degree < 0:
            raise InvalidParams("shift degree must be >= 0")
        if r > nvars:
            raise InvalidParams("derivative set must be nonempty")
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

    Rows are generated lazily from each derivative's `_int_form` (scaled by
    its denominator) and eliminated exactly over the polynomial's own domain.
    Derivatives with the same multilinear part give the same rows, so each
    distinct one is shifted once, and a row equal to one already streamed
    adds nothing to the span and is skipped: memory is bounded by the
    distinct rows, while `rows` still counts the full matrix, repeats
    included.  MatrixTooLarge past `matrix_cap` cells, before any derivative
    is listed.
    """
    n = p.nvars
    m = spec.shift_degree
    count = spec.monomials.__len__()  # len() refuses counts past sys.maxsize
    cells = n * comb(n, m) * count  # n * C(n, m) cells a derivative
    if cells > matrix_cap:
        raise MatrixTooLarge(cells, matrix_cap)

    derivs = {}  # multilinear part -> [its (mask, coeff) list, times it occurs]
    for gamma in spec.monomials:
        dp = p.partial_derivative(gamma)
        ml = [(sum(1 << v for v, _ in mono), coeff)
              for mono, _, coeff in dp._int_form()[0] if mono_is_multilinear(mono)]
        if ml:
            derivs.setdefault(frozenset(ml), [ml, 0])[1] += 1
    smasks = [sum(1 << v for v in subset) for subset in combinations(range(n), m)]

    counter = {"rows": 0, "cols": set()}
    seen = set()

    def rows():
        for ml, times in derivs.values():
            for smask in smasks:
                row = {mask | smask: coeff for mask, coeff in ml if not mask & smask}
                if row:
                    counter["rows"] += times
                    key = frozenset(row.items())
                    if key not in seen:
                        seen.add(key)
                        counter["cols"].update(row)
                        yield row

    dimension = rank_stream(rows(), p.domain)
    return MeasureReport(dimension=dimension, rows=counter["rows"],
                         cols=len(counter["cols"]),
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
