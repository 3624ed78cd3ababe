import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsagg.auditor import rank_certificate_ok, submatrix_hhat
from dsagg.gf import PrimeField
from dsagg.linalg import (
    _CHUNK,
    _RECURSIVE_MIN,
    Matrix,
    _eliminate_leaf,
    _left_null,
    _mod_addmul,
    _row_reduce,
    _safe_dot,
    random_matrix,
)
from dsagg.scheme import SchemeParams, fixture_example2, random_precoder

F5 = PrimeField(5)
F2 = PrimeField(2)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    assert Matrix(F5, np.eye(4)).rank() == 4
    assert Matrix.zeros(F5, 3, 2).rank() == 0


def test_rank_of_surviving_key_stack_is_six():
    # Stack the signed blocks of users 3, 4, 5 over their three shared keys;
    # privacy of the bundled 5-user scheme hinges on this stack being
    # full-rank.
    pre = fixture_example2()
    survivors = [3, 4, 5]
    pairs = [(3, 4), (3, 5), (4, 5)]
    rows = [np.hstack([pre.block(u, g).data for g in pairs]) for u in survivors]
    stacked = Matrix(F5, np.vstack(rows))
    assert stacked.shape == (9, 6)
    assert stacked.rank() == 6


def test_rank_transpose_invariant():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        r, c = (int(v) for v in rng.integers(1, 8, size=2))
        m = random_matrix(r, c, F5, rng=rng)
        assert m.rank() == Matrix(F5, m.data.T).rank()


def test_rank_block_diagonal_adds():
    rng = np.random.Generator(np.random.PCG64(3))
    a = random_matrix(3, 4, F5, rng=rng)
    b = random_matrix(2, 2, F5, rng=rng)
    grid = Matrix(F5, np.block([[a.data, np.zeros((3, 2))], [np.zeros((2, 4)), b.data]]))
    assert grid.rank() == a.rank() + b.rank()


def test_rank_at_most_min_dimension():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(10):
        m = random_matrix(4, 6, F5, rng=rng)
        assert m.rank() <= 4


# Matrix.rank runs the delayed-reduction row loop below the cutoff and the
# recursive kernel, whose leaves are that loop, above it; both must agree
# with the reference row loop everywhere. 1073741789 and 2**31-1 reduce
# every 8 and every 2 updates. Each kind of matrix is drawn from a seed:
# "dense" is uniform, "product" has rank at most r, "copies" repeats or
# combines rows and columns, "zero" is all zero.
_SIDES = st.integers(0, _RECURSIVE_MIN - 1) | st.integers(_RECURSIVE_MIN, 2 * _RECURSIVE_MIN - 20)


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 13, 101, 1073741789, 2**31 - 1]), rows=_SIDES, cols=_SIDES,
       kind=st.sampled_from(["dense", "product", "copies", "zero"]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_equals_row_reduce(q, rows, cols, kind, seed):
    data = drawn_matrix(q, rows, cols, kind, seed)
    m = Matrix(PrimeField(q), data)
    assert m.rank() == _row_reduce(data.copy(), q)


def drawn_matrix(q, rows, cols, kind, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
    if kind == "product":
        r = int(rng.integers(0, min(rows, cols) + 1))
        data = _safe_dot(rng.integers(0, q, size=(rows, r), dtype=np.int64),
                         rng.integers(0, q, size=(r, cols), dtype=np.int64), q)
    elif kind == "copies" and rows and cols:
        for axis in (0, 1):
            view = data if axis == 0 else data.T
            n = view.shape[0]
            for i in rng.integers(0, n, size=n // 2):
                j, k = rng.integers(0, n, size=2)
                c = int(rng.integers(0, q))
                view[i] = (view[j] + c * view[k]) % q
    elif kind == "zero":
        data[:] = 0
    return data


# The left null basis is eliminated without transposing, so the shapes cover
# both orientations: no rows, no columns, wide, and tall past the leaf
# width and the recursion cutoff.
_NULL_SHAPES = (st.tuples(st.just(0), st.integers(0, 40))
                | st.tuples(st.integers(0, 40), st.just(0))
                | st.tuples(st.integers(1, 40), st.integers(41, 200))
                | st.tuples(st.integers(41, 2 * _RECURSIVE_MIN + 20), st.integers(1, 130)))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 101, 2**31 - 1]), shape=_NULL_SHAPES,
       kind=st.sampled_from(["dense", "product", "copies", "zero"]),
       seed=st.integers(0, 2**32 - 1))
def test_left_null_equals_row_reduce(q, shape, kind, seed):
    a = drawn_matrix(q, *shape, kind, seed)
    before = a.copy()
    pivots, rest, z = _left_null(a, q)
    assert np.array_equal(a, before)
    assert len(pivots) == _row_reduce(a.copy(), q)
    assert sorted([*pivots.tolist(), *rest.tolist()]) == list(range(shape[0]))
    assert z.shape == (rest.size, pivots.size)
    assert z.min(initial=0) >= 0 and z.max(initial=0) < q
    assert not np.any((a[rest] + _safe_dot(z, a[pivots], q)) % q)


def staircase(q, rows, cols):
    """Entry (i, j) is q-1-min(i, j), and the last row repeats the one above.
    Eliminating it, every multiplier and every entry of every pivot row
    (scaled to -1 at its pivot) is q-1, so each update adds (q-1)**2, the
    most it can: the sums reach the reduction interval's bound."""
    i, j = np.indices((rows, cols))
    a = (q - 1 - np.minimum(i, j)) % q
    a[-1] = a[-2]
    return a


_EDGE_QS = (2, 101, 1073741789, 2**31 - 1)
# Smaller side below the cutoff, and at or above it (the leaves cross the
# reduction interval too).
_EDGE_SHAPES = ((2, 2), (12, 12), (40, 57), (_RECURSIVE_MIN, _RECURSIVE_MIN + 7), (150, 200))


@pytest.mark.parametrize("q", _EDGE_QS)
@pytest.mark.parametrize("shape", _EDGE_SHAPES)
def test_rank_at_the_reduction_interval_equals_row_reduce(q, shape):
    rows, cols = shape
    field = PrimeField(q)
    a = staircase(q, rows, cols)
    assert Matrix(field, a).rank() == _row_reduce(a.copy(), q) == min(rows - 1, cols)
    assert Matrix(field, a.T).rank() == _row_reduce(a.T.copy(), q)
    full = np.full(shape, q - 1, dtype=np.int64)
    assert Matrix(field, full).rank() == _row_reduce(full.copy(), q) == 1
    # The top half again, negated, under it: the copies add no rank.
    stacked = np.vstack([a[: rows // 2], (q - 1) * a[: rows // 2] % q, full[:1]])
    assert Matrix(field, stacked).rank() == _row_reduce(stacked.copy(), q)


@pytest.mark.parametrize("q", _EDGE_QS)
@pytest.mark.parametrize("shape", ((1, 1), (5, 3), (30, 16), (16, 30), (120, 16)))
@pytest.mark.parametrize("kind", ("staircase", "product", "dense"))
def test_eliminate_leaf_contract(q, shape, kind):
    rng = np.random.Generator(np.random.PCG64(q + shape[0]))
    rows, cols = shape
    if kind == "staircase":
        a = staircase(q, rows + 1, cols)[1:] if rows == 1 else staircase(q, rows, cols)
    elif kind == "product":
        r = min(shape) // 2
        a = _safe_dot(rng.integers(0, q, size=(rows, r), dtype=np.int64),
                      rng.integers(0, q, size=(r, cols), dtype=np.int64), q)
    else:
        a = rng.integers(0, q, size=shape, dtype=np.int64)
    before = a.copy()
    piv, rest, z = _eliminate_leaf(a, q)
    assert np.array_equal(a, before)
    assert sorted(np.concatenate([piv, rest]).tolist()) == list(range(rows))
    assert z.shape == (rest.size, piv.size)
    assert z.min(initial=0) >= 0 and z.max(initial=0) < q
    assert not np.any((a[rest] + _safe_dot(z, a[piv], q)) % q)
    assert _row_reduce(a[piv].copy(), q) == piv.size == _row_reduce(a.copy(), q)


def test_rank_of_every_surviving_key_submatrix_equals_row_reduce():
    # The rank certificate of the (8,0,4) q=5 seed-0 draw: eight 245 x 210
    # submatrices, above the cutoff, some of them rank deficient.
    pre = random_precoder(SchemeParams(K=8, T=0, G=4, q=5), 0)
    hhats = [submatrix_hhat(pre, (k,)) for k in pre.params.users]
    assert all(min(h.shape) >= _RECURSIVE_MIN for h in hhats)
    ranks = [h.rank() for h in hhats]
    assert ranks == [_row_reduce(h.data.copy(), 5) for h in hhats]
    assert rank_certificate_ok(pre) == all(r >= 210 for r in ranks)


def test_rank_kernel_peak_memory_within_row_reduce():
    q = 2**31 - 1
    m = random_matrix(560, 490, PrimeField(q), rng=0)
    assert min(m.shape) >= _RECURSIVE_MIN

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(m.rank) <= peak(lambda: _row_reduce(m.data.copy(), q))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_matvec_identity_and_zero():
    v = np.array([[1], [2], [3]])
    assert _safe_dot(np.eye(3, dtype=np.int64), v, 5)[:, 0].tolist() == [1, 2, 3]
    assert _safe_dot(np.zeros((2, 3), dtype=np.int64), v, 5)[:, 0].tolist() == [0, 0]


def test_matvec_fixture_first_column():
    h12 = fixture_example2().block(1, (1, 2))
    assert _safe_dot(h12.data, np.array([[1], [0]]), 5)[:, 0].tolist() == [2, 4, 2]


def test_matmul_against_numpy():
    rng = np.random.Generator(np.random.PCG64(5))
    a = random_matrix(3, 4, F5, rng=rng)
    b = random_matrix(4, 2, F5, rng=rng)
    expected = (a.data @ b.data) % 5
    assert np.array_equal(_safe_dot(a.data, b.data, 5), expected)


def test_large_modulus_products_do_not_overflow():
    q = 2**31 - 1
    a = np.full((2, 400), q - 1, dtype=np.int64)
    got = _safe_dot(a, np.full((400, 1), q - 1, dtype=np.int64), q)
    expected = (400 * pow(q - 1, 2, q)) % q
    assert np.all(got == expected)


def test_rank_kernel_product_is_exact_at_the_overflow_edge():
    q = 2**31 - 1
    # All entries q-1, then all 0x7FFEFFFF (low limbs 0xFFFE and 0xFFFF):
    # a block of 2**21 limb products sums to just below 2**53, and the
    # 2**12 + 1 terms past it go to a second block. In one block they would
    # reach an odd sum above 2**53, which float64 rounds.
    inner = 2**21 + 2**12 + 1
    for v in (q - 1, 0x7FFEFFFF):
        c = np.full((1, 1), v, dtype=np.int64)
        _mod_addmul(c, np.full((1, inner), v, dtype=np.int64),
                    np.full((inner, 1), v, dtype=np.int64), q)
        assert int(c[0, 0]) == (v + inner * v**2) % q
    # More output rows than one chunk holds, against Python-int arithmetic.
    rng = np.random.Generator(np.random.PCG64(3))
    # Near 2**25 one product is exact up to 8 terms; limbs take over at 9.
    for p in (q, 101, 33554393):
        for inner in (1, 8, 9, 50):
            a = rng.integers(0, p, size=(_CHUNK // 40 + 3, inner), dtype=np.int64)
            b = rng.integers(0, p, size=(inner, 40), dtype=np.int64)
            a[:2], b[:, :2] = [[p - 1], [p - 2]], [p - 1, p - 2]
            c = rng.integers(0, p, size=(a.shape[0], 40), dtype=np.int64)
            expected = (c.astype(object) + a.astype(object) @ b.astype(object)) % p
            _mod_addmul(c, a, b, p)
            assert c.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def test_random_matrix_deterministic_in_seed():
    a = random_matrix(2, 2, F5, rng=42)
    b = random_matrix(2, 2, F5, rng=42)
    assert a == b
    assert a != random_matrix(2, 2, F5, rng=43)
    # A seed is the Generator(PCG64(seed)) stream; a Generator is drawn from.
    stream = np.random.Generator(np.random.PCG64(42))
    assert random_matrix(2, 2, F5, rng=stream) == a


def test_random_matrix_needs_a_seed_or_generator():
    # Without one it drew from OS entropy, so two calls differed.
    with pytest.raises(TypeError):
        random_matrix(3, 3, F5)


def test_empty_random_matrix():
    m = random_matrix(0, 3, F5, rng=1)
    assert m.shape == (0, 3)
    assert m.rank() == 0


def test_random_symbols_uniform_within_5_sigma():
    # 10^4 draws at q=5: each symbol count should sit within 5 sigma of the
    # binomial mean n*p.
    n = 10_000
    m = random_matrix(100, 100, F5, rng=2024)
    counts = np.bincount(m.data.ravel(), minlength=5)
    mean = n / 5
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert counts.sum() == n
    for c in counts:
        assert abs(c - mean) <= 5 * sigma


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

def test_matrix_data_is_read_only():
    m = Matrix(F5, np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 3
    with pytest.raises(AttributeError):
        m.field = F2
