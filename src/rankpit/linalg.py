"""Exact linear algebra over a coefficient domain.

`rank_stream` keeps only the echelon basis of a stream of sparse rows.
`dependent_columns` also carries each column's combination and yields every
column that depends on the ones before it: the one span query behind
annihilators, dependence witnesses, the randomized rank basis and
`span_coefficients`/`solve_dense`.  No package code calls `rref_dense`,
`rank_dense` or `nullspace_modp` any more: they are kept for the benchmark
tracer and the tests (ROADMAP item 1).  Everything is exact; nothing here
touches floating point.

One kernel, `_eliminate`, serves Q and every prime field.  `_echelon`
keeps the shorter row at each pivot collision (Markowitz's local rule),
which keeps the span and cuts fill-in.  `dependent_columns` never swaps: a
basis row's combination would move into a later column's slot.  Both run
on plain Python ints with no domain method calls:

- over F_p, entries are residues; a basis row is scaled so that its pivot is
  1, and each update is reduced mod p inline;
- over Q, rows may hold ints or Fractions.  Each row is divided by the gcd
  of its entries, after the lcm of its denominators clears any Fraction,
  and reduced fraction-free (Bareiss-style): v <- b[pivot]*v - v[pivot]*b
  cancels the pivot, and the content of v is divided out after each step.
  No Fraction is built until a combination or a finished `rref_dense` row
  is divided by its pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .domains import PrimeField
from .poly import _clear_denominators


def _echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Echelon basis of sparse rows (dict col -> coeff), as pivot -> row.

    p is the prime of the field, or 0 for Q.  A row v is reduced until it
    is empty or its smallest column c is a new pivot.  If v is strictly
    shorter than the basis row b at c, b is reduced by v in its place: the
    span is kept, each swap is followed by an elimination at c, and memory
    stays bounded by the rank.  Basis rows are monic over F_p, primitive over Q.
    """
    basis: dict[int, dict[int, int]] = {}
    for raw in rows:
        v = _integer_row(raw, p)
        while v:  # None once v is the pivot row of a new column
            c = min(v)
            b = basis.get(c)
            if b is None or len(v) < len(b):
                basis[c], v = _monic(v, c, p), b
            else:
                v = _eliminate(v, b, c, p)
    return basis


def dependent_columns(columns, p: int):
    """Every column of a stream that depends on the columns before it.

    Columns are sparse dicts (row key -> coeff) over Q (p = 0) or F_p, each
    reduced in one row that also carries its combination: row keys get
    negative ids and column i the slot i >= 0, so one `_eliminate` covers
    both, and a row whose smallest key is a slot has no row entry left.
    No basis row has a slot as its pivot, so v keeps its own slot j and is
    never empty.  Independent columns join the basis and dependent ones do
    not: for each dependent column j this yields (j, lam), lam = {i: lam_i}
    ascending over j and the independent columns before it, with lam_j = 1
    and sum lam_i * column_i = 0.

    Row ids follow first appearance, not the caller's keys: negated packed
    keys are ~7% faster on dependence_q but take `find_annihilator` on 3
    cubics in 2 linear forms of x1..x3 over Q from 17 s to 23 s.
    """
    row_id: dict = {}
    basis: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        raw = {~row_id.setdefault(r, len(row_id)): c for r, c in col.items()}
        raw[j] = 1
        v = _integer_row(raw, p)
        while (b := basis.get(pivot := min(v))) is not None:
            v = _eliminate(v, b, pivot, p)
        if pivot < 0:
            basis[pivot] = _monic(v, pivot, p)
            continue
        f = v[j]
        if p:
            inv = pow(f, -1, p)
            yield j, {i: c * inv % p for i, c in sorted(v.items())}
        else:
            yield j, {i: Fraction(c, f) for i, c in sorted(v.items())}


def span_coefficients(target: dict, columns, domain) -> dict | None:
    """{j: x_j} with target = sum x_j * column_j, or None if the columns do
    not span it.  The target streams as slot 0 ahead of the columns, so the
    first dependency that involves it writes it, in the one possible way, in
    the independent columns up to there."""
    for _, lam in dependent_columns(chain([target], columns), domain.characteristic):
        if 0 in lam:
            scale = domain.neg(domain.inv(lam[0]))
            return {j - 1: domain.mul(c, scale) for j, c in lam.items() if j}
    return None


def _integer_row(raw: dict, p: int) -> dict[int, int]:
    return {j: c % p for j, c in raw.items() if c % p} if p else _primitive(raw)


def _monic(v: dict, col: int, p: int) -> dict:
    """v scaled to v[col] = 1 over F_p; over Q, v as it is (primitive)."""
    if not p:
        return v
    inv = pow(v[col], -1, p)
    return {j: c * inv % p for j, c in v.items()}


def _eliminate(v: dict, b: dict, col: int, p: int) -> dict:
    """v with its entry at col cancelled by the basis row b (pivot col)."""
    f = v[col]
    if not p:  # scale v so that the pivot cancels: a*v[col] = f*b[col]
        g = math.gcd(f, b[col])
        f, a = f // g, b[col] // g
        if a != 1:
            v = {j: a * c for j, c in v.items()}
    for j, bj in b.items():
        # bj and f are nonzero, so s == 0 only where v already has j
        s = v.get(j, 0) - f * bj
        if p:
            s %= p
        if s:
            v[j] = s
        else:
            del v[j]
    if not p and v:
        g = math.gcd(*v.values())
        if g != 1:
            v = {j: c // g for j, c in v.items()}
    return v


def _primitive(raw: dict) -> dict[int, int]:
    """A row's nonzero entries as a primitive integer row ({} if none)."""
    try:
        g = math.gcd(*raw.values())
    except TypeError:  # a Fraction entry
        raw = dict(zip(raw, _clear_denominators(raw.values())[0]))
        g = math.gcd(*raw.values())
    return {j: c // g for j, c in raw.items() if c}


def rank_stream(rows, domain) -> int:
    """Rank of a stream of sparse rows (dict col -> coeff) by `_echelon`,
    which keeps the shorter row at each pivot and memory bounded by the rank."""
    return len(_echelon(rows, domain.characteristic))


def rref_dense(rows: list[list], domain) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of a dense matrix; returns (rref, pivot_cols).

    The echelon basis is back-reduced from the largest pivot down: each row
    is cleared at the larger pivots, whose rows are already reduced, so no
    other pivot column reappears.  Over Q each row is then divided by its
    pivot; over F_p the pivot is already 1.
    """
    p = domain.characteristic
    basis = _echelon((dict(enumerate(row)) for row in rows), p)
    pivots = sorted(basis)
    for c in reversed(pivots):
        for j in [j for j in basis[c] if j != c and j in basis]:
            basis[c] = _eliminate(basis[c], basis[j], j, p)
    ncols = len(rows[0]) if rows else 0
    zero = domain.zero
    rref = []
    for c in pivots:
        v = basis[c]
        if not p:
            d = v[c]
            v = {j: Fraction(x, d) for j, x in v.items()}
        rref.append([v.get(j, zero) for j in range(ncols)])
    rref += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return rref, pivots


def rank_dense(rows: list[list], domain) -> int:
    return len(rref_dense(rows, domain)[1]) if rows else 0


# no caller in rankpit; kept because perfbench/tracing.py resolves this name
def nullspace_modp(arr, p: int) -> list[list[int]]:
    """Kernel basis of an integer matrix mod p (reduced-echelon form basis)."""
    rows = [[int(x) % p for x in row] for row in arr]
    ncols = len(rows[0]) if rows else 0
    rref, pivots = rref_dense(rows, PrimeField(p))
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return basis


def solve_dense(rows: list[list], rhs: list, domain) -> list | None:
    """One exact solution of A x = b (free variables set to 0), or None: the
    span coefficients of b in the columns of A, which use only pivot columns."""
    if not rows:
        return None
    x = span_coefficients(dict(enumerate(rhs)),
                          (dict(enumerate(col)) for col in zip(*rows)), domain)
    return None if x is None else [x.get(j, domain.zero) for j in range(len(rows[0]))]
