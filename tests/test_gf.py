import numpy as np
import pytest

from dsagg.gf import FieldMismatchError, PrimeField, is_prime
from dsagg.linalg import Matrix

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_validation():
    PrimeField(2)
    PrimeField(2**31 - 1)  # largest supported prime
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    with pytest.raises(TypeError):
        PrimeField(5.0)


def test_is_prime_small():
    known = set(PRIMES_TO_97)
    for n in range(100):
        assert is_prime(n) == (n in known)


# ---------------------------------------------------------------------------
# arithmetic: the field reduces, matrices over it add, negate and multiply
# ---------------------------------------------------------------------------

def scalar(f, v):
    return Matrix(f, [[v]])


def value(m):
    return int(m.data[0, 0])


def product(f, a, b):
    return int(scalar(f, a).matvec([b])[0])


def test_add_examples():
    assert value(scalar(PrimeField(5), 3) + scalar(PrimeField(5), 4)) == 2
    assert value(scalar(PrimeField(2), 1) + scalar(PrimeField(2), 1)) == 0


def test_additive_identity_exhaustive_q7():
    f = PrimeField(7)
    for x in range(7):
        assert value(scalar(f, x) + Matrix.zeros(f, 1, 1)) == x


def test_mul_neg_inv_examples():
    assert product(PrimeField(5), 2, 3) == 1  # 3 is the inverse of 2
    assert value(-scalar(PrimeField(5), 1)) == 4
    assert product(PrimeField(3), 2, 2) == 1


@pytest.mark.parametrize("q", PRIMES_TO_97)
def test_inverse_exhaustive(q):
    # Elimination divides by every pivot it meets: [[a, 1], [1, b]] is
    # singular exactly when b is the inverse of a.
    f = PrimeField(q)
    for a in range(1, q):
        b = pow(a, -1, q)
        assert product(f, a, b) == 1
        assert Matrix(f, [[a, 1], [1, b]]).rank() == 1
        if q > 2:
            assert Matrix(f, [[a, 1], [1, b + 1]]).rank() == 2


def test_element_range_invariant():
    f = PrimeField(5)
    assert f.reduce([7, -1, 5]).tolist() == [2, 4, 0]
    assert value(-scalar(f, 1)) == 4


# ---------------------------------------------------------------------------
# field axioms on random triples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5, 101, 2**31 - 1])
def test_field_axioms_random(q):
    f = PrimeField(q)
    rng = np.random.default_rng(1234)

    def add(a, b):
        return value(scalar(f, a) + scalar(f, b))

    def mul(a, b):
        return product(f, a, b)

    for _ in range(100):
        a, b, c = (int(v) for v in rng.integers(0, q, size=3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, value(-scalar(f, a))) == 0


def test_mismatched_fields_rejected():
    a = scalar(PrimeField(5), 1)
    b = scalar(PrimeField(7), 1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a - b
