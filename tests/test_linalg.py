"""Exact linear algebra: the dense eliminations against a reference
Gauss-Jordan elimination in domain arithmetic, and the streaming rank
against the reference rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankpit import linalg
from rankpit.domains import PrimeField, Rationals

Q = Rationals()
# every field runs the one int echelon: Q, a prime above 2^31 and one below
FIELDS = [Q, PrimeField((1 << 61) - 1), PrimeField(1_000_003)]
q = (1 << 31) - 1  # a prime modulus; the inputs below hide rank from it


def _reference_rref(rows: list[list], domain) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination with the domain's own arithmetic."""
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


def _planted(rng, nrows, ncols, rank):
    """A random nrows x ncols rational matrix of rank `rank` (with high
    probability; the reference elimination is what the tests compare to)."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def _over(rows, domain):
    return [[domain.coerce(x) for x in row] for row in rows]


def _assert_matches_reference(rows, domain):
    rows = _over(rows, domain)
    ncols = len(rows[0])
    ref, pivots = _reference_rref(rows, domain)
    got = linalg.rref_dense(rows, domain)
    assert got == (ref, pivots)
    assert [[type(x) for x in r] for r in got[0]] == [[type(x) for x in r] for r in ref]
    assert linalg.rank_dense(rows, domain) == len(pivots)
    if domain.characteristic:
        kernel = []
        for free in [c for c in range(ncols) if c not in pivots]:
            v = [domain.zero] * ncols
            v[free] = domain.one
            for i, pc in enumerate(pivots):
                v[pc] = domain.neg(ref[i][free])
            kernel.append(v)
        assert linalg.nullspace_modp(rows, domain.p) == kernel
    # consistent: x = e0 + 2 e_last solves it
    rhs = [domain.add(row[0], domain.mul(domain.coerce(2), row[-1])) for row in rows]
    aug, aug_pivots = _reference_rref([r + [b] for r, b in zip(rows, rhs)], domain)
    expected = [domain.zero] * ncols
    for i, pc in enumerate(aug_pivots):
        expected[pc] = aug[i][ncols]
    x = linalg.solve_dense(rows, rhs, domain)
    assert x == expected
    assert [domain.coerce(sum(domain.mul(a, b) for a, b in zip(row, x)))
            for row in rows] == rhs


@pytest.mark.parametrize("shape", [(9, 4, 0), (9, 4, 1), (9, 4, 3), (9, 4, 4),
                                   (25, 6, 5), (40, 8, 8), (13, 1, 1), (30, 10, 2)])
def test_tall_planted_rank_matches_plain_elimination(shape):
    nrows, ncols, rank = shape
    rng = random.Random(nrows * 100 + ncols * 10 + rank)
    for _ in range(5):
        rows = _planted(rng, nrows, ncols, rank)
        for dom in FIELDS:
            _assert_matches_reference(rows, dom)


def test_entry_shifted_by_the_prime():
    rows = [[Fraction(i), Fraction(2 * i), Fraction(i % 3)] for i in range(1, 10)]
    rows[4][1] += q  # same matrix mod q, rank 3 instead of 2
    for dom in FIELDS:
        assert len(_reference_rref(_over(rows, dom), dom)[1]) == 3
        _assert_matches_reference(rows, dom)


def test_every_entry_a_multiple_of_the_prime():
    rows = [[Fraction(q * (i + j)) for j in range(3)] for i in range(8)]
    for dom in FIELDS:
        _assert_matches_reference(rows, dom)


def test_denominator_divisible_by_the_prime():
    rng = random.Random(5)
    rows = _planted(rng, 10, 3, 2)
    rows[2] = [x / q for x in rows[2]]
    rows[7][0] += Fraction(1, q)
    for dom in FIELDS:
        _assert_matches_reference(rows, dom)


def test_inconsistent_solve_on_tall_augmented_matrix():
    rng = random.Random(11)
    planted = _planted(rng, 12, 3, 2)
    # a rhs outside the column space (rank 2 of 3 columns) with probability 1
    ints = [rng.randint(-9, 9) for _ in planted]
    for dom in FIELDS:
        rows, rhs = _over(planted, dom), [dom.coerce(b) for b in ints]
        assert len(_reference_rref([r + [b] for r, b in zip(rows, rhs)], dom)[1]) == 3
        assert linalg.solve_dense(rows, rhs, dom) is None


def test_short_and_empty_matrices_unchanged():
    rng = random.Random(3)
    short, wide = _planted(rng, 6, 3, 2), _planted(rng, 2, 5, 2)
    for dom in FIELDS:
        _assert_matches_reference(short, dom)
        _assert_matches_reference(wide, dom)
        assert linalg.rref_dense([], dom) == ([], [])
        assert linalg.rref_dense([[], [], []], dom) == ([[], [], []], [])
        assert linalg.rank_dense([], dom) == 0
        assert linalg.rank_dense([[], [], []], dom) == 0
        assert linalg.solve_dense([], [], dom) is None


@st.composite
def _sparse_rows(draw, entry, reduce):
    """(ncols, sparse rows) with explicit zero entries, empty rows and rows
    planted as combinations of earlier rows (`reduce` maps a combination
    back into the domain)."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["entries", "empty", "combination"]))
        if kind == "empty":
            rows.append({})
        elif kind == "combination" and rows:
            picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.integers(-3, 3)), min_size=1, max_size=3))
            cols = set().union(*(rows[i] for i, _ in picks))
            rows.append({j: reduce(sum(c * rows[i].get(j, 0) for i, c in picks))
                         for j in sorted(cols)})
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), unique=True))
            rows.append({j: draw(entry) for j in cols})
    return ncols, rows


def _reference_rank(rows, ncols, domain):
    return len(_reference_rref([[row.get(j, domain.zero) for j in range(ncols)]
                                for row in rows], domain)[1])


_RATIONAL = st.builds(Fraction, st.one_of(st.integers(-6, 6), st.integers(-10**15, 10**15)),
                      st.sampled_from([1, 1, 1, 2, 3, 4, 9, 10**9 + 7]))


@settings(max_examples=120, deadline=None)
@given(_sparse_rows(_RATIONAL, Fraction))
def test_rank_stream_matches_dense_rank_over_q(matrix):
    ncols, rows = matrix
    assert linalg.rank_stream(iter(rows), Q) == _reference_rank(rows, ncols, Q)


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, (1 << 61) - 1])
def test_rank_stream_matches_dense_rank_over_prime_fields(p):
    dom = PrimeField(p)

    @settings(max_examples=40, deadline=None)
    @given(_sparse_rows(st.integers(0, p - 1), lambda x: x % p))
    def check(matrix):
        ncols, rows = matrix
        assert linalg.rank_stream(iter(rows), dom) == _reference_rank(rows, ncols, dom)

    check()
