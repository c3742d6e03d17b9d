"""Exact linear algebra over a coefficient domain.

Streaming sparse rank for the measure matrices, dense reduced echelon form
for nullspaces and linear solves, and a vectorized numpy path for prime
fields small enough that products fit in int64.  Everything is exact;
nothing here ever touches floating point.

The streaming rank runs on plain Python ints in one loop for both domains:
residues reduced mod p inline over F_p, and fraction-free elimination on
primitive integer rows over Q (Bareiss-style: cross-multiply to cancel the
pivot, then divide out the content), so it builds no Fraction.

Over Q, a dense tall matrix (more than twice as many rows as columns) is
reduced on a row basis instead of on every row:

1. each row is scaled to integers and the matrix is reduced mod the prime
   `_ROW_PRIME`; the numpy elimination of its transpose picks a set S of
   rows independent mod that prime, hence independent over Q;
2. the Fraction elimination runs on the rows in S alone;
3. one kernel vector per free column of rref(A[S]) is checked against every
   row of A in exact integer arithmetic.  The row space of A[S] is the
   annihilator of that kernel, so a passing check proves that A and A[S]
   have the same row space and therefore the same reduced echelon form;
4. if the check fails (the prime lost rank), the Fraction elimination runs
   on the whole matrix.  It is also the path for every other shape.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import PrimeField, Rationals

# numpy int64 holds products of two residues only when p^2 < 2^63
_NUMPY_P_LIMIT = 1 << 31

# a Q matrix with more than this many rows per column is reduced on a row
# basis chosen mod _ROW_PRIME (see the module docstring)
_TALL_RATIO = 2
_ROW_PRIME = (1 << 31) - 1


def _use_numpy(domain) -> bool:
    return isinstance(domain, PrimeField) and domain.p < _NUMPY_P_LIMIT


def rank_stream(rows, domain) -> int:
    """Rank of a stream of sparse rows (dict col -> coeff), exact elimination.

    Keeps a basis of reduced rows keyed by their smallest column index, so
    memory is bounded by the rank, not by the number of rows.  The loop does
    plain int arithmetic, with no domain method calls:

    - over F_p, entries are residues; a basis row is scaled so that its
      pivot is 1, and each update is reduced mod p inline;
    - over Q, each row is scaled to a primitive integer row (times the lcm
      of its denominators, divided by the gcd of its entries) and reduced
      fraction-free by v <- b[pivot]*v - v[pivot]*b with its content divided
      out after each step.  Basis rows are primitive integer rows, so no
      Fraction is built and the result is exact by construction.
    """
    p = domain.p if isinstance(domain, PrimeField) else 0
    basis: dict[int, dict[int, int]] = {}
    for raw in rows:
        v = {j: c % p for j, c in raw.items() if c % p} if p else _primitive(raw)
        while v:
            pivot = min(v)
            b = basis.get(pivot)
            if b is None:
                if p:
                    inv = pow(v[pivot], -1, p)
                    v = {j: c * inv % p for j, c in v.items()}
                basis[pivot] = v
                break
            f = v[pivot]
            if not p:  # scale v so that the pivot cancels: a*v[pivot] = f*b[pivot]
                g = math.gcd(f, b[pivot])
                f, a = f // g, b[pivot] // g
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
        # v exhausted without a new pivot: row was dependent
    return len(basis)


def _primitive(raw: dict) -> dict[int, int]:
    """The nonzero entries of a rational row as a primitive integer row."""
    cols = [j for j, c in raw.items() if c]
    ints = _integer_row([raw[j] for j in cols])
    g = math.gcd(*ints)
    return {j: c // g for j, c in zip(cols, ints)}


def rref_dense(rows: list[list], domain) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of a dense matrix; returns (rref, pivot_cols)."""
    if (rows and isinstance(domain, Rationals)
            and len(rows) > _TALL_RATIO * len(rows[0])):
        found = _rref_on_row_basis(rows, domain)
        if found is not None:
            return found
    return _rref_exact(rows, domain)


def _rref_exact(rows: list[list], domain) -> tuple[list[list], list[int]]:
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not domain.is_zero(a[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = domain.inv(a[r][c])
        a[r] = [domain.mul(x, inv) for x in a[r]]
        for i in range(nrows):
            if i != r and not domain.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [domain.sub(x, domain.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _integer_row(row: list) -> list[int]:
    """The row times the lcm of its denominators: same span, integer entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _rref_on_row_basis(rows: list[list], domain):
    """rref of a Q matrix from the rows that carry its rank mod _ROW_PRIME,
    proven equal to the full rref by an exact kernel check; None if the
    check fails."""
    nrows, ncols = len(rows), len(rows[0])
    int_rows = [_integer_row(row) for row in rows]
    mod_t = np.array([[x % _ROW_PRIME for x in row] for row in int_rows],
                     dtype=np.int64).T
    _, chosen = _rref_modp(mod_t, _ROW_PRIME)
    rref, pivots = _rref_exact([rows[i] for i in chosen], domain)
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        # the kernel vector with a 1 at `free`, scaled to integers
        entries = [(pc, -rref[i][free]) for i, pc in enumerate(pivots)
                   if rref[i][free] != 0]
        scale = math.lcm(*(x.denominator for _, x in entries))
        w = [(free, scale)] + [(pc, x.numerator * (scale // x.denominator))
                               for pc, x in entries]
        if any(sum(row[j] * wj for j, wj in w) for row in int_rows):
            return None
    return rref + [[domain.zero] * ncols for _ in range(nrows - len(rref))], pivots


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = np.ascontiguousarray(a % p, dtype=np.int64)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col_all = a[:, c].copy()
        col_all[r] = 0
        mask = col_all != 0
        if mask.any():
            a[mask] = (a[mask] - col_all[mask, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank_dense(rows: list[list], domain) -> int:
    if not rows:
        return 0
    if _use_numpy(domain):
        arr = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
        _, pivots = _rref_modp(arr, domain.p)
        return len(pivots)
    _, pivots = rref_dense(rows, domain)
    return len(pivots)


def nullspace_modp(arr: np.ndarray, p: int) -> list[list[int]]:
    """Kernel basis of an int64 matrix mod p (reduced-echelon form basis)."""
    ncols = arr.shape[1]
    rref, pivots = _rref_modp(arr, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = (-int(rref[row_idx, free])) % p
        basis.append(v)
    return basis


def nullspace_dense(rows: list[list], ncols: int, domain) -> list[list]:
    """Basis of {x : A x = 0} for A given by dense rows with ncols columns.

    One basis vector per free column, with a 1 in the free position: the
    standard reduced-echelon kernel basis, deterministic for fixed input.
    """
    if not rows:
        one, zero = domain.one, domain.zero
        return [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]
    if _use_numpy(domain):
        arr = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
        return nullspace_modp(arr, domain.p)
    rref, pivots = rref_dense(rows, domain)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [domain.zero] * ncols
        v[free] = domain.one
        for row_idx, pc in enumerate(pivots):
            v[pc] = domain.neg(rref[row_idx][free])
        basis.append(v)
    return basis


def solve_dense(rows: list[list], rhs: list, domain) -> list | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    if _use_numpy(domain):
        p = domain.p
        arr = np.array(
            [[int(x) for x in row] + [int(b)] for row, b in zip(rows, rhs)],
            dtype=np.int64)
        rref, pivots = _rref_modp(arr, p)
        if pivots and pivots[-1] == ncols:
            return None
        x = [0] * ncols
        for row_idx, pc in enumerate(pivots):
            x[pc] = int(rref[row_idx, ncols])
        return x
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rref, pivots = rref_dense(aug, domain)
    if pivots and pivots[-1] == ncols:
        return None
    x = [domain.zero] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = rref[row_idx][ncols]
    return x
