import numpy as np
import pytest

from dsagg.gf import PrimeField
from dsagg.linalg import Matrix, _safe_dot, random_matrix
from dsagg.scheme import fixture_example2

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


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def test_random_matrix_deterministic_in_seed():
    a = random_matrix(2, 2, F5, seed=42)
    b = random_matrix(2, 2, F5, seed=42)
    assert a == b
    assert a != random_matrix(2, 2, F5, seed=43)


def test_empty_random_matrix():
    m = random_matrix(0, 3, F5, seed=1)
    assert m.shape == (0, 3)
    assert m.rank() == 0


def test_random_symbols_uniform_within_5_sigma():
    # 10^4 draws at q=5: each symbol count should sit within 5 sigma of the
    # binomial mean n*p.
    n = 10_000
    m = random_matrix(100, 100, F5, seed=2024)
    counts = np.bincount(m.data.ravel(), minlength=5)
    mean = n / 5
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert counts.sum() == n
    for c in counts:
        assert abs(c - mean) <= 5 * sigma


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    m = random_matrix(3, 2, F5, seed=8)
    header, *rows = m.to_text().splitlines()
    assert header == "3 2"
    assert np.array_equal(np.array([row.split() for row in rows], dtype=np.int64), m.data)


def test_text_format_canonical():
    m = Matrix(F5, [[1, 2], [3, 4]])
    assert m.to_text() == "2 2\n1 2\n3 4\n"


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

def test_matrix_data_is_read_only():
    m = Matrix(F5, np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 3
    with pytest.raises(AttributeError):
        m.field = F2
