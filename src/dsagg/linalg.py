"""Dense exact linear algebra over a prime field.

Matrices wrap read-only numpy int64 arrays with entries in [0, q). All
reductions use Gaussian elimination with first-nonzero pivot selection:
arithmetic is exact, so no pivoting heuristics are needed. Random matrices
are drawn from numpy's PCG64 generator seeded explicitly, which keeps every
construction reproducible across runs and platforms.

``Matrix.rank`` runs one row loop, ``_eliminate_leaf``, on every matrix
whose smaller side is below ``_RECURSIVE_MIN``, and hands larger ones to
``_left_null``, which the build's certificate also calls for a left null
basis. It is the recursive rank-profile elimination of Jeannerod, Pernet &
Storjohann (JSC 2013): eliminate the left half of the columns, update the
right half of the remaining rows with one matrix product, recurse on it,
down to blocks of ``_LEAF`` columns that the same row loop eliminates. The
products are float64 BLAS products of integers, arranged as in FFLAS-FFPACK
(Dumas, Giorgi & Pernet, ACM TOMS 2008) so that every sum stays below 2**53
and is exact; each is reduced mod q in int64, so the rank is exact too.

The row loop delays its reductions as FFLAS-FFPACK does. Each step reduces
only the pivot column and the pivot row, and updates the rows below on the
live columns alone. Entries start in [0, q) and each update adds a product
of two reduced entries, at most (q-1)**2, so floor((2**63-1-q) / (q-1)**2)
updates fit in int64 between reductions of the rows below: about 9*10**14
at q=101, 8 at q=1073741789 and 2 at q=2**31-1. ``_row_reduce``, which
reduces the whole trailing block on every pivot, stays as the reference
that tests check both kernels against.
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


# Matrix.rank hands a matrix to _left_null when its smaller side
# is at least this. Measured against the row loop on random matrices: from
# 96 up the recursive kernel is 1.3-2.3x faster, and 2.3x on the 245 x 210
# surviving-key matrices of (8,0,4) q=101; at 64 it ties, and below 64 it
# loses up to about 15%.
_RECURSIVE_MIN = 96
_LEAF = 16  # column blocks this narrow are eliminated by the row loop
_EXACT = 2**53  # float64 represents every integer below this
_LIMB_INNER = 2**21  # a 16-bit-limb product sums at most this many terms
_CHUNK = 2**14  # output cells per product chunk, which bounds temporaries


def _mod_addmul(c: np.ndarray, a: np.ndarray, b: np.ndarray, q: int) -> None:
    """c <- (c + a @ b) mod q in place, for int64 operands in [0, q).

    The products run in float64 BLAS. When inner * (q-1)**2 < 2**53 one
    product is exact. Otherwise both operands split into 16-bit limbs
    (high limbs are below 2**15 as q <= 2**31): four products, each exact
    for inner <= 2**21, with the inner dimension cut into such blocks.
    Output rows go in chunks of about ``_CHUNK`` cells.
    """
    m, k = a.shape
    n = b.shape[1]
    if not (m and n and k):
        return
    rows = max(1, _CHUNK // n)
    if k * (q - 1) ** 2 < _EXACT:
        bf = b.astype(np.float64)
        for i in range(0, m, rows):
            t = (a[i : i + rows].astype(np.float64) @ bf).astype(np.int64)
            t += c[i : i + rows]
            t %= q
            c[i : i + rows] = t
        return
    for k0 in range(0, k, _LIMB_INNER):
        bk = b[k0 : k0 + _LIMB_INNER]
        b_hi, b_lo = (bk >> 16).astype(np.float64), (bk & 0xFFFF).astype(np.float64)
        for i in range(0, m, rows):
            ak = a[i : i + rows, k0 : k0 + _LIMB_INNER]
            a_hi, a_lo = (ak >> 16).astype(np.float64), (ak & 0xFFFF).astype(np.float64)
            t = (a_hi @ b_hi).astype(np.int64)
            t %= q
            t <<= 16
            t += (a_hi @ b_lo + a_lo @ b_hi).astype(np.int64)
            t %= q
            t <<= 16
            t += (a_lo @ b_lo).astype(np.int64)
            t += c[i : i + rows]
            t %= q
            c[i : i + rows] = t


def _eliminate_leaf(a: np.ndarray, q: int):
    """The row loop with delayed reduction, also tracking how each row was
    combined. ``a`` must hold entries in [0, q); it is left unchanged.
    Returns (pivots, rest, z): row indices of ``a`` whose rows span its row
    space, the other row indices, and z in [0, q) with
    a[rest] + z @ a[pivots] == 0 (mod q).
    """
    m, n = a.shape
    # aug = [current rows | z]: a row not yet a pivot holds a[i] + z_i @
    # a[pivots]. A row made the t-th pivot moves its a[i] term into z (entry
    # t = 1), so row operations on aug keep every row's z up to date. Only
    # columns c .. n+r are live at step (c, r): those left of c are cleared
    # below the pivots, and the rows below have no z entry past n+r.
    aug = np.zeros((m, n + min(m, n)), dtype=np.int64)
    aug[:, :n] = a
    order = np.arange(m)
    # Updates that fit in int64 between reductions (module docstring).
    safe = (2**63 - 1 - q) // (q - 1) ** 2
    pending = 0
    r = c = 0
    while r < m and c < n:
        col = aug[r:, c]
        if pending:
            col %= q
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            # Skip to the next column with a nonzero below the pivots: wide
            # rank-deficient blocks would otherwise visit each column alone.
            block = aug[r:, c + 1 : n]
            live = np.flatnonzero((block % q if pending else block).any(axis=0))
            c += 1 + (int(live[0]) if live.size else n)
            continue
        p = r + int(nz[0])
        if p != r:
            aug[[r, p]] = aug[[p, r]]
            order[[r, p]] = order[[p, r]]
        aug[r, n + r] = 1
        # The pivot row is scaled to -1 at c, so adding multiples of it
        # keeps every entry non-negative.
        row = aug[r, c : n + r + 1]
        if pending:
            row %= q
        row *= q - pow(int(row[0]), -1, q)
        row %= q
        if nz.size > 1:
            below = aug[r + 1 :, c : n + r + 1]
            if pending >= safe:
                below %= q
                pending = 0
            below += np.multiply.outer(col[1:], row)
            pending += 1
        r += 1
        c += 1
    z = aug[r:, n : n + r]
    if pending:
        z %= q
    return order[:r], order[r:], z


def _left_null(a: np.ndarray, q: int):
    """A basis of the left null space of ``a``, whose entries must be in
    [0, q); ``a`` is left unchanged.

    Returns (pivots, rest, z): row indices of ``a`` whose rows are
    independent and span its row space, so len(pivots) is its rank; the
    other row indices, so the two partition range(rows); and z in [0, q),
    len(rest) x len(pivots), with a[rest] + z @ a[pivots] == 0 (mod q). Row
    i of the basis is 1 at rest[i] and z[i] at the pivots, so it applies to
    any b with as many rows as ``a`` as b[rest] + z @ b[pivots]. The rows
    are eliminated as given, never transposed, and recursively (module
    docstring), which beat the row loop on every tall matrix measured,
    120 x 80 to 2268 x 1134, by 1.4-20x.
    """
    n = a.shape[1]
    if n <= _LEAF:
        return _eliminate_leaf(a, q)
    half = n // 2
    piv, rest, z = _left_null(a[:, :half], q)
    if rest.size == 0:
        return piv, rest, z
    # The right half of the rows that are left: zero on the left half.
    b = a[rest, half:]
    _mod_addmul(b, z, a[piv, half:], q)
    piv_b, rest_b, z_b = _left_null(b, q)
    # Each row of b is a[rest[i]] + z[i] @ a[piv], so b[rest_b] + z_b @ b[piv_b]
    # == 0 gives a[rest[rest_b]] + (z[rest_b] + z_b @ z[piv_b]) @ a[piv]
    # + z_b @ a[rest[piv_b]] == 0.
    out = np.empty((rest_b.size, piv.size + piv_b.size), dtype=np.int64)
    out[:, : piv.size] = z[rest_b]
    _mod_addmul(out[:, : piv.size], z_b, z[piv_b], q)
    out[:, piv.size :] = z_b
    return np.concatenate([piv, rest[piv_b]]), rest[rest_b], out


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
        # Rows on the smaller side leave the row loop fewer to clear.
        data = self.data.T if self.rows > self.cols else self.data
        if data.shape[0] < _RECURSIVE_MIN:
            return _eliminate_leaf(data, self.field.q)[0].size
        return _left_null(data, self.field.q)[0].size

    # -- comparison / display ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.field, self.data.tobytes(), self.shape))

    def __repr__(self) -> str:
        return f"Matrix(F_{self.field.q}, {self.rows}x{self.cols})"


# -- randomness ---------------------------------------------------------------


def random_matrix(rows: int, cols: int, field: PrimeField,
                  rng: np.random.Generator | int) -> Matrix:
    """A matrix with i.i.d. uniform entries drawn from ``rng``: a Generator,
    to draw several matrices from one stream, or an int seed of a PCG64
    stream, so the same seed always yields the same matrix."""
    rng = np.random.default_rng(rng)
    data = rng.integers(0, field.q, size=(rows, cols), dtype=np.int64)
    return Matrix(field, data)
