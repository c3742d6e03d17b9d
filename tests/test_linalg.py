"""Exact linear algebra: the dense row-basis path over Q against plain
elimination, and the streaming rank against the dense rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankpit import linalg
from rankpit.domains import PrimeField, Rationals

Q = Rationals()
q = linalg._ROW_PRIME


def _planted(rng, nrows, ncols, rank):
    """A random nrows x ncols rational matrix of rank `rank` (with high
    probability; the reference elimination is what the tests compare to)."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


@pytest.fixture
def plain(monkeypatch):
    """Run a linalg function with the row-basis path switched off."""
    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(linalg, "_TALL_RATIO", 10**9)
            return fn(*args)
    return call


def _assert_same_everywhere(rows, plain):
    ncols = len(rows[0])
    assert linalg.rref_dense(rows, Q) == plain(linalg.rref_dense, rows, Q)
    assert linalg.rank_dense(rows, Q) == plain(linalg.rank_dense, rows, Q)
    assert (linalg.nullspace_dense(rows, ncols, Q)
            == plain(linalg.nullspace_dense, rows, ncols, Q))
    rhs = [row[0] + 2 * row[-1] for row in rows]  # consistent: x = e0 + 2 e_last
    x = linalg.solve_dense(rows, rhs, Q)
    assert x == plain(linalg.solve_dense, rows, rhs, Q)
    assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs


@pytest.mark.parametrize("shape", [(9, 4, 0), (9, 4, 1), (9, 4, 3), (9, 4, 4),
                                   (25, 6, 5), (40, 8, 8), (13, 1, 1), (30, 10, 2)])
def test_tall_planted_rank_matches_plain_elimination(shape, plain):
    nrows, ncols, rank = shape
    rng = random.Random(nrows * 100 + ncols * 10 + rank)
    for _ in range(5):
        rows = _planted(rng, nrows, ncols, rank)
        # the row basis is proven exact, so no fallback is taken
        assert linalg._rref_on_row_basis(rows, Q) is not None
        _assert_same_everywhere(rows, plain)


def test_entry_shifted_by_the_prime_takes_the_fallback(plain):
    rows = [[Fraction(i), Fraction(2 * i), Fraction(i % 3)] for i in range(1, 10)]
    rows[4][1] += q  # same matrix mod q, rank 3 instead of 2 over Q
    assert plain(linalg.rank_dense, rows, Q) == 3
    assert linalg._rref_on_row_basis(rows, Q) is None
    _assert_same_everywhere(rows, plain)


def test_every_entry_a_multiple_of_the_prime(plain):
    # zero mod q, so no row is chosen and the check must reject the empty basis
    rows = [[Fraction(q * (i + j)) for j in range(3)] for i in range(8)]
    assert linalg._rref_on_row_basis(rows, Q) is None
    _assert_same_everywhere(rows, plain)


def test_denominator_divisible_by_the_prime(plain):
    rng = random.Random(5)
    rows = _planted(rng, 10, 3, 2)
    rows[2] = [x / q for x in rows[2]]
    rows[7][0] += Fraction(1, q)
    _assert_same_everywhere(rows, plain)


def test_inconsistent_solve_on_tall_augmented_matrix(plain):
    rng = random.Random(11)
    rows = _planted(rng, 12, 3, 2)
    # a rhs outside the column space (rank 2 of 3 columns) with probability 1
    rhs = [Fraction(rng.randint(-9, 9)) for _ in rows]
    assert plain(linalg.rank_dense, [r + [b] for r, b in zip(rows, rhs)], Q) == 3
    assert linalg.solve_dense(rows, rhs, Q) is None
    assert plain(linalg.solve_dense, rows, rhs, Q) is None


def test_short_and_empty_matrices_unchanged(plain):
    rng = random.Random(3)
    rows = _planted(rng, 6, 3, 2)  # not tall: plain elimination either way
    assert linalg.rref_dense(rows, Q) == plain(linalg.rref_dense, rows, Q)
    assert linalg.rref_dense([], Q) == ([], [])
    assert linalg.rref_dense([[], [], []], Q) == ([[], [], []], [])


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


def _dense_rank(rows, ncols, domain):
    return linalg.rank_dense([[row.get(j, domain.zero) for j in range(ncols)]
                              for row in rows], domain)


_RATIONAL = st.builds(Fraction, st.one_of(st.integers(-6, 6), st.integers(-10**15, 10**15)),
                      st.sampled_from([1, 1, 1, 2, 3, 4, 9, 10**9 + 7]))


@settings(max_examples=120, deadline=None)
@given(_sparse_rows(_RATIONAL, Fraction))
def test_rank_stream_matches_dense_rank_over_q(matrix):
    ncols, rows = matrix
    assert linalg.rank_stream(iter(rows), Q) == _dense_rank(rows, ncols, Q)


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, (1 << 61) - 1])
def test_rank_stream_matches_dense_rank_over_prime_fields(p):
    dom = PrimeField(p)

    @settings(max_examples=40, deadline=None)
    @given(_sparse_rows(st.integers(0, p - 1), lambda x: x % p))
    def check(matrix):
        ncols, rows = matrix
        assert linalg.rank_stream(iter(rows), dom) == _dense_rank(rows, ncols, dom)

    check()
