"""Dense exact linear algebra over a prime field.

Matrices wrap read-only numpy int64 arrays with entries in [0, q). All
reductions use Gaussian elimination with first-nonzero pivot selection:
arithmetic is exact, so no pivoting heuristics are needed. Random matrices
are drawn from numpy's PCG64 generator seeded explicitly, which keeps every
construction reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .gf import PrimeField


class DimensionMismatchError(ValueError):
    """Raised when operand shapes are not conformal."""


def _safe_dot(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, accumulating in chunks so int64 never overflows."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, (2**62) // max(1, (q - 1) ** 2))
    if inner <= step:
        return (a @ b) % q
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(0, inner, step):
        out = (out + a[:, i : i + step] @ b[i : i + step, :]) % q
    return out


def _row_reduce(arr: np.ndarray, q: int) -> int:
    """Row-reduce ``arr`` in place (it must be a fresh writable copy) and
    return its rank. Only rows below each pivot are cleared, which is enough
    for rank.
    """
    rows, cols = arr.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            arr[[r, p]] = arr[[p, r]]
        inv = pow(int(arr[r, c]), -1, q)
        arr[r] = (arr[r] * inv) % q
        targets = r + 1 + np.nonzero(arr[r + 1 :, c])[0]
        if targets.size:
            arr[targets] = (arr[targets] - np.outer(arr[targets, c], arr[r])) % q
        r += 1
    return r


class Matrix:
    """An immutable rows x cols matrix over a prime field."""

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data) -> None:
        arr = field.reduce(data)
        if arr.ndim != 2:
            raise DimensionMismatchError(f"matrix data must be 2-D, got {arr.ndim}-D")
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Matrix is immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    # -- shape ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    # -- reductions --------------------------------------------------------

    def rank(self) -> int:
        return _row_reduce(self.data.copy(), self.field.q)

    # -- comparison / display ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.field, self.data.tobytes(), self.shape))

    def __repr__(self) -> str:
        return f"Matrix(F_{self.field.q}, {self.rows}x{self.cols})"

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as a 'rows cols' header plus row-major decimal entries."""
        lines = [f"{self.rows} {self.cols}"]
        lines += (" ".join(map(str, row)) for row in self.data.tolist())
        return "\n".join(lines) + "\n"


# -- randomness ---------------------------------------------------------------


def random_matrix(
    rows: int,
    cols: int,
    field: PrimeField,
    seed=None,
    rng: np.random.Generator | None = None,
) -> Matrix:
    """A matrix with i.i.d. uniform entries from a seeded PCG64 stream.

    The same seed always yields the same matrix. Pass ``rng`` instead of
    ``seed`` to draw several matrices from one stream.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.integers(0, field.q, size=(rows, cols), dtype=np.int64)
    return Matrix(field, data)
