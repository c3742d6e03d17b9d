"""Exact linear algebra over a coefficient domain.

Streaming sparse rank for the measure matrices, the first dependent column
of a stream for the annihilator search, and the reduced echelon form behind
dense ranks, nullspaces and linear solves.  Everything is exact; nothing
here ever touches floating point.

One elimination loop, `_reduce` over `_eliminate`, serves Q and every prime
field.  It runs on plain Python ints with no domain method calls:

- over F_p, entries are residues; a basis row is scaled so that its pivot is
  1, and each update is reduced mod p inline;
- over Q, each row is scaled to a primitive integer row (times the lcm of its
  denominators, divided by the gcd of its entries) and reduced fraction-free
  (Bareiss-style): v <- b[pivot]*v - v[pivot]*b cancels the pivot, and the
  content of v is divided out after each step.  No Fraction is built until
  `rref_dense` divides each finished row by its pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .domains import PrimeField


def _echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Echelon basis of sparse rows (dict col -> coeff), as pivot -> row.

    p is the prime of the field, or 0 for Q.  Each row is reduced against
    the basis until its smallest column is a new pivot, or nothing is left
    (the row was dependent), so memory is bounded by the rank, not by the
    number of rows.  Basis rows are monic residues over F_p and primitive
    integer rows over Q; they are not reduced against one another.
    """
    basis: dict[int, dict[int, int]] = {}
    for raw in rows:
        v = _reduce(_integer_row(raw, p), basis, p)
        if v:
            basis[min(v)] = v
    return basis


def first_dependency(columns, p: int) -> dict | None:
    """The first column of a stream that depends on the columns before it.

    Columns are sparse dicts (row key -> coeff) over Q (p = 0) or F_p, each
    reduced in one row that also carries its combination: row keys get
    negative ids and column i the slot i >= 0, so one `_eliminate` covers
    both, and a row whose smallest key is a slot has no row entry left.
    Returns {i: lam_i} ascending, with lam_j = 1 for the first dependent
    column j and sum lam_i * column_i = 0, or None if there is none.
    """
    row_id: dict = {}
    basis: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        raw = {~row_id.setdefault(r, len(row_id)): c for r, c in col.items()}
        raw[j] = 1
        v = _reduce(_integer_row(raw, p), basis, p)
        pivot = min(v)  # v keeps its slot j: no basis row has that slot
        if pivot < 0:
            basis[pivot] = v
            continue
        f = v[j]
        if p:
            inv = pow(f, -1, p)
            return {i: c * inv % p for i, c in sorted(v.items())}
        return {i: Fraction(c, f) for i, c in sorted(v.items())}
    return None


def _integer_row(raw: dict, p: int) -> dict[int, int]:
    return {j: c % p for j, c in raw.items() if c % p} if p else _primitive(raw)


def _reduce(v: dict, basis: dict, p: int) -> dict:
    """v reduced until its smallest column is not a pivot of the basis, and
    then scaled monic over F_p; empty if v was in the span of the basis."""
    while v:
        pivot = min(v)
        b = basis.get(pivot)
        if b is None:
            if p:
                inv = pow(v[pivot], -1, p)
                v = {j: c * inv % p for j, c in v.items()}
            return v
        v = _eliminate(v, b, pivot, p)
    return v


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
    """The nonzero entries of a rational row as a primitive integer row."""
    cols = [j for j, c in raw.items() if c]
    scale = math.lcm(*(raw[j].denominator for j in cols))
    ints = [raw[j].numerator * (scale // raw[j].denominator) for j in cols]
    g = math.gcd(*ints)
    return {j: c // g for j, c in zip(cols, ints)}


def rank_stream(rows, domain) -> int:
    """Rank of a stream of sparse rows (dict col -> coeff), exact elimination
    with memory bounded by the rank."""
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
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    rref, pivots = rref_dense([list(row) + [b] for row, b in zip(rows, rhs)],
                              domain)
    if pivots and pivots[-1] == ncols:
        return None
    x = [domain.zero] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = rref[row_idx][ncols]
    return x
