"""The prime field F_q for a runtime-chosen modulus.

The modulus is a constructor argument rather than a compile-time constant, so
one build serves q = 2, 3, 5, ... interchangeably. Extension fields are out of
scope; where a larger alphabet is needed, pick a larger prime directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Trial division stays fast up to here, and int64 products of two reduced
# values never overflow.
MAX_MODULUS = 2**31


class FieldMismatchError(ValueError):
    """Raised when an operation mixes elements of different fields."""


def is_prime(n: int) -> bool:
    """Primality check by trial division, adequate for n <= 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_q of integers modulo a prime q.

    Reduces ints and numpy int64 arrays into the canonical range [0, q); the
    array arithmetic itself lives in ``linalg``. Instances are immutable values, so they are
    safe to share across threads and to use as dict keys.
    """

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool):
            raise TypeError(f"modulus must be an int, got {type(self.q).__name__}")
        if self.q > MAX_MODULUS:
            raise ValueError(f"modulus {self.q} exceeds the supported bound 2**31")
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    def reduce(self, values) -> np.ndarray:
        """Return ``values`` as a new int64 array reduced exactly into [0, q).
        Non-integers, and floats of 2**53 or more, raise ValueError."""
        arr = np.asarray(values)
        if arr.dtype.kind == "u":
            arr = arr.astype(np.uint64, copy=False) % self.q
        elif arr.dtype.kind == "f":
            if not (np.abs(arr) < 2**53).all() or (arr != np.trunc(arr)).any():
                raise ValueError("field elements must be whole numbers below 2**53")
        elif arr.dtype.kind not in "bi":
            raise ValueError(f"{arr.dtype} values are not field elements")
        return arr.astype(np.int64, copy=False) % self.q

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

