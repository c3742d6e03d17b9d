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
def _sparse_rows(draw, entry, reduce, collide=False):
    """(ncols, sparse rows) with explicit zero entries, empty rows and rows
    planted as combinations of earlier rows (`reduce` maps a combination
    back into the domain); with `collide`, also runs of rows that share an
    earlier row's leading column, so that `_echelon` swaps pivot rows,
    several rounds deep."""
    ncols = draw(st.integers(1, 7))
    rows = []
    kinds = ["entries", "empty", "combination"] + ["collision"] * collide
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "empty":
            rows.append({})
        elif kind == "collision" and any(rows):
            # rows at an earlier row's leading column, each shorter than the
            # one before, so that each may displace the pivot row before it
            lead = min(draw(st.sampled_from([row for row in rows if row])))
            cols = draw(st.permutations(range(lead + 1, ncols)))
            for size in range(len(cols), -1, -draw(st.integers(1, 3))):
                row = {j: draw(entry) for j in sorted(cols[:size])}
                rows.append({lead: draw(entry.filter(bool)), **row})
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
    return len(_reference_rref([[domain.coerce(row.get(j, 0)) for j in range(ncols)]
                                for row in rows], domain)[1])


@pytest.mark.parametrize("p", [0, 7], ids=["Q", "F_7"])
def test_echelon_keeps_the_shorter_row_at_a_pivot_collision(p):
    """A long row, then a shorter one with the same leading column: the short
    row becomes the pivot row (monic over F_7, primitive over Q) and the long
    one is reduced by it.  Rows of equal length do not swap."""
    long, short = {0: 1, 1: 1, 2: 1, 3: 1}, {0: 3, 3: 2}
    expected = ({0: {0: 1, 3: 3}, 1: {1: 1, 2: 1, 3: 5}} if p
                else {0: {0: 3, 3: 2}, 1: {1: 3, 2: 3, 3: 1}})
    assert linalg._echelon([long, short], p) == expected
    dom = PrimeField(p) if p else Q
    assert linalg.rank_stream(iter([long, short]), dom) == 2 == _reference_rank(
        [long, short], 4, dom)
    first, second = {0: 1, 1: 1}, {0: 1, 2: 1}
    assert linalg._echelon([first, second], p)[0] == first


_RATIONAL = st.builds(Fraction, st.one_of(st.integers(-6, 6), st.integers(-10**15, 10**15)),
                      st.sampled_from([1, 1, 1, 2, 3, 4, 9, 10**9 + 7]))
# a Q row may hold ints, Fractions or both; combinations keep their entries' types
_Q_ENTRY = st.one_of(_RATIONAL, st.integers(-6, 6), st.integers(-10**15, 10**15))


@settings(max_examples=120, deadline=None)
@given(_sparse_rows(_Q_ENTRY, lambda x: x, collide=True))
def test_rank_stream_matches_dense_rank_over_q(matrix):
    ncols, rows = matrix
    assert linalg.rank_stream(iter(rows), Q) == _reference_rank(rows, ncols, Q)


@pytest.mark.parametrize("rows", [
    [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 6}],                          # ints only
    [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3), 1: Fraction(2)}],
    [{0: 1, 1: Fraction(2, 3)}, {0: Fraction(3, 2), 1: 1}, {2: 5}],  # mixed
    [{0: 0, 1: 3, 2: 0}, {0: Fraction(0), 1: -6}, {2: Fraction(0, 7), 3: 0}],
    [{0: 0}],
    [{}],
    [{}, {0: 0}, {1: Fraction(0)}, {1: 7}],
    [{0: 10**30, 1: 10**30 + 1}, {0: Fraction(1, 10**30), 1: 1 + Fraction(1, 10**30)}],
], ids=["ints", "fractions", "mixed", "explicit-zeros", "zero-entry", "empty",
        "empty-and-zero", "huge"])
def test_rank_stream_row_contract_over_q(rows):
    # an all-zero or empty row has gcd 0 and must add nothing to the rank
    ncols = 1 + max((j for row in rows for j in row), default=0)
    assert linalg.rank_stream(iter(rows), Q) == _reference_rank(rows, ncols, Q)


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, (1 << 61) - 1])
def test_rank_stream_matches_dense_rank_over_prime_fields(p):
    dom = PrimeField(p)

    @settings(max_examples=40, deadline=None)
    @given(_sparse_rows(st.integers(0, p - 1), lambda x: x % p, collide=True))
    def check(matrix):
        ncols, rows = matrix
        assert linalg.rank_stream(iter(rows), dom) == _reference_rank(rows, ncols, dom)

    check()


@pytest.mark.parametrize("dom", FIELDS + [PrimeField(2), PrimeField(7)], ids=str)
def test_dependent_columns_are_the_non_pivot_columns(dom):
    p = dom.characteristic
    entries = st.integers(0, p - 1) if p else _Q_ENTRY

    @settings(max_examples=60, deadline=None)
    @given(_sparse_rows(entries, (lambda x: x % p) if p else (lambda x: x)))
    def check(matrix):
        # the strategy's rows serve as the columns of the stream
        nkeys, columns = matrix
        dense = [[dom.coerce(col.get(r, 0)) for col in columns] for r in range(nkeys)]
        pivots = _reference_rref(dense, dom)[1]
        found = list(linalg.dependent_columns(iter(columns), p))
        assert [j for j, _ in found] == [j for j in range(len(columns))
                                         if j not in pivots]
        for j, lam in found:
            assert lam[j] == 1 and list(lam) == sorted(lam)
            assert set(lam) <= {i for i in pivots if i < j} | {j}
            for r in range(nkeys):
                combination = sum(dom.mul(c, dom.coerce(columns[i].get(r, 0)))
                                  for i, c in lam.items())
                assert dom.is_zero(dom.coerce(combination))

    check()
