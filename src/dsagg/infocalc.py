"""Exact entropy and mutual-information calculus for linear observables of a
uniform source over F_q.

Everything rests on one fact: a linear image A@u of a source u drawn
uniformly from F_q^N is uniform on the column space of A, and every fiber of
the map has the same cardinality q**(N - rank(A)); hence the entropy of A@u
is exactly rank(A) in q-ary units. Joint observables stack rows, so every
entropy, conditional entropy, and mutual information in this module reduces
to integer ranks. Floating point enters only inside ``Matrix.rank``, in
products of integers whose exact sums stay below 2**53, so every rank is
still exact.

Most rows of those stacks are coordinate projections: inputs, key bundles,
and messages once their keys are known. The rank path peels them with the
steps of structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990;
Pomerance & Smith, Experimental Math. 1992). A row with one nonzero is a
scaled unit vector e_j, so rank([P_S; A]) = |S| + rank(A[:, not S]) with S
the columns of such rows. A column with one nonzero makes its row
independent of the others, which go on without it. A column with two
nonzeros is merged: a multiple of one row clears it in the other, which
leaves it a column with one nonzero. The singleton steps work on each
observable's nonzeros, never on a dense stack, and repeat while either finds
anything; only the remainder, its live rows over its live nonzero columns,
is built as a matrix. Within one rank cache, each distinct remainder is
ranked once. Merges run on that matrix when both its sides reach the
kernel cutoff ``linalg._RECURSIVE_MIN``; the recovery stacks, whose messages
clear the total's rows, then end with nothing to eliminate. What is left
goes to ``Matrix.rank``; it runs the reference row loop
``linalg._row_reduce`` below that cutoff and the recursive kernel above it.

The enumeration oracle at the bottom re-derives the same quantities by
walking the whole source space and counting, sharing no code with the rank
path; agreement between the two is what justifies using ranks as the general
auditor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .gf import PrimeField
from .linalg import _RECURSIVE_MIN, Matrix, _safe_dot
from .scheme import Precoder, SchemeParams

DEFAULT_BUDGET = 2**24


class LayoutMismatchError(ValueError):
    """Raised when observables over different source layouts are combined."""


class BudgetExceededError(RuntimeError):
    """The source space is too large to enumerate."""


class NonPowerOfQSupportError(RuntimeError):
    """Enumeration found an atom count that is not a power of q.

    Cannot happen for linear observables of a uniform source; if this fires,
    either the observables are not linear images of the declared source or
    there is a bug upstream.
    """


# -- source layout ------------------------------------------------------------


@dataclass(frozen=True)
class SourceLayout:
    """Segmentation of the uniform source vector for one scheme shape.

    The source stacks, in order: one length-L segment per user input
    (users 1..K), then one length-L_S segment per group key in lexicographic
    group order. Segments are contiguous, non-overlapping, and cover [0, N).
    Users and groups come from ``params``; L and L_S may differ from its own.
    """

    params: SchemeParams
    L: int
    L_S: int

    @property
    def field(self) -> PrimeField:
        return self.params.field

    @property
    def N(self) -> int:
        return self.params.K * self.L + math.comb(self.params.K, self.params.G) * self.L_S

    def input_slice(self, k: int) -> slice:
        start = self.params.user_index(k) * self.L
        return slice(start, start + self.L)

    def key_columns(self, ids: Sequence[int]) -> np.ndarray:
        """Source coordinates of the keys of the groups ``ids`` (positions in
        ``params.groups``), in that order; KeyError for an id outside
        range(C(K, G))."""
        ids = self.params.group_ids(ids)
        return self.params.K * self.L + (ids[:, None] * self.L_S + np.arange(self.L_S)).ravel()


def layout_for(source: SchemeParams | Precoder) -> SourceLayout:
    """The source layout matching a parameter set or a concrete precoder."""
    params = source.params if isinstance(source, Precoder) else source
    return SourceLayout(params, source.L, source.L_S)


# -- observables ----------------------------------------------------------------


@dataclass(frozen=True)
class LinearObservable:
    """A named linear function of the source: rows of a (rows x N) matrix."""

    label: str
    matrix: Matrix
    layout: SourceLayout

    def __post_init__(self):
        if self.matrix.field != self.layout.field:
            raise LayoutMismatchError("observable field differs from layout field")
        if self.matrix.cols != self.layout.N:
            raise LayoutMismatchError(
                f"observable has {self.matrix.cols} columns, layout needs {self.layout.N}"
            )

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """The nonzeros of ``matrix`` as (row, column, value) arrays in
        row-major order, and whether every row holds exactly one of them.
        Derived once; ``matrix`` stays the source of truth."""
        rows, cols = np.nonzero(self.matrix.data)
        unit = np.array_equal(rows, np.arange(self.matrix.rows))
        return rows, cols, self.matrix.data[rows, cols], unit


def observe_input(layout: SourceLayout, k: int) -> LinearObservable:
    """The raw input of user k."""
    data = np.zeros((layout.L, layout.N), dtype=np.int64)
    data[:, layout.input_slice(k)] = np.eye(layout.L, dtype=np.int64)
    return LinearObservable(f"W{k}", Matrix(layout.field, data), layout)


def observe_total(layout: SourceLayout) -> LinearObservable:
    """The global input sum."""
    data = sum(observe_input(layout, k).matrix.data for k in layout.params.users)
    return LinearObservable("sum(W)", Matrix(layout.field, data), layout)


def observe_key_bundle(layout: SourceLayout, k: int) -> LinearObservable:
    """Everything user k stores: the keys of the groups holding k, in group
    order."""
    layout.params.user_index(k)  # KeyError for a user outside 1..K
    cols = layout.key_columns(np.flatnonzero((layout.params.members == k).any(axis=1)))
    data = np.zeros((cols.size, layout.N), dtype=np.int64)
    data[np.arange(cols.size), cols] = 1
    return LinearObservable(f"Z{k}", Matrix(layout.field, data), layout)


def observe_message(precoder: Precoder, k: int) -> LinearObservable:
    """User k's broadcast: its input plus its key mask."""
    layout = layout_for(precoder)
    p = precoder.params
    data = np.zeros((layout.L, layout.N), dtype=np.int64)
    data[:, layout.input_slice(k)] = np.eye(layout.L, dtype=np.int64)
    data[:, p.K * layout.L:] = precoder.key_map([k], range(len(p.groups)))  # the key segment
    return LinearObservable(f"X{k}", Matrix(layout.field, data), layout)


# -- rank calculus ---------------------------------------------------------------


def _common_layout(groups: Sequence[Sequence[LinearObservable]]) -> SourceLayout:
    layout = None
    for obs_list in groups:
        for obs in obs_list:
            if layout is None:
                layout = obs.layout
            elif obs.layout != layout:
                raise LayoutMismatchError(
                    f"observable {obs.label!r} uses a different source layout"
                )
    if layout is None:
        raise LayoutMismatchError("no observables given")
    return layout


def _check_stored(stored: Sequence[LinearObservable],
                  wanted: Sequence[LinearObservable]) -> None:
    for have, want in zip(stored, wanted):
        if have is not want and have != want:
            raise ValueError(f"cache holds a different observable labelled {want.label!r}")


def _peeled_rank(obs: Sequence[LinearObservable], layout: SourceLayout,
                 memo: dict | None) -> int:
    """Rank of the stacked observables, peeled on their supports.

    Two singleton steps of structured Gaussian elimination run on the
    nonzeros, never on a dense stack. A row with one nonzero is a scaled
    unit vector e_j, so with S the distinct columns of such rows,
    rank([P_S; A]) = |S| + rank(A[:, not S]); the columns of every unit
    observable (inputs, key bundles) go first, in one step. A column with
    one nonzero makes its row independent of all others, so with R the rows
    owning such columns, rank(A) = |R| + rank(A[not R]). Both steps run on
    each pass until neither finds anything (a message becomes a unit row
    once its sender's keys are gone, and owns its input column unless the
    total is stacked with it). The peeled rank is the number of peeled
    columns plus peeled rows.

    What is left, the live rows over the live columns, is fixed by the
    observables, their live rows and its columns, which key ``memo``: each
    distinct remainder is ranked once, and a hit must name the observables
    it was ranked from. A miss is built densely and ranked by
    ``_merged_rank``.
    """
    peeled = np.zeros(layout.N, dtype=bool)
    rest = []
    for o in obs:
        _, cols, _, unit = o._support
        if unit:
            peeled[cols] = True
        else:
            rest.append(o)
    if not rest:
        return int(np.count_nonzero(peeled))
    offsets = np.cumsum([0] + [o.matrix.rows for o in rest])
    r = np.concatenate([o._support[0] + off for o, off in zip(rest, offsets)])
    c = np.concatenate([o._support[1] for o in rest])
    v = np.concatenate([o._support[2] for o in rest])
    dead = np.zeros(offsets[-1], dtype=bool)  # peeled rows
    while True:
        live = ~(peeled[c] | dead[r])
        r, c, v = r[live], c[live], v[live]
        unit = np.bincount(r, minlength=offsets[-1])[r] == 1
        lone = np.bincount(c, minlength=layout.N)[c] == 1
        if not (unit.any() or lone.any()):
            break
        peeled[c[unit]] = True
        dead[r[lone & ~unit]] = True  # an isolated nonzero counts once, as a column
    rank = int(np.count_nonzero(peeled)) + int(np.count_nonzero(dead))
    if r.size == 0:
        return rank
    live_row = np.zeros(offsets[-1], dtype=bool)
    live_row[r] = True
    live_col = np.zeros(layout.N, dtype=bool)
    live_col[c] = True
    rows, cols = np.flatnonzero(live_row), np.flatnonzero(live_col)
    r, c = np.cumsum(live_row)[r] - 1, np.cumsum(live_col)[c] - 1  # positions in the remainder
    key = None
    if memo is not None:
        by_obs = np.split(rows, np.searchsorted(rows, offsets[1:-1]))
        parts = [(o, tuple((own - off).tolist()))
                 for o, off, own in zip(rest, offsets, by_obs) if own.size]
        # Its items are tuples, so no tuple of labels can equal this key.
        key = (tuple((o.label, lr) for o, lr in parts), tuple(cols.tolist()))
        contributors = tuple(o for o, _ in parts)
        if key in memo:
            remainder_rank, stored = memo[key]
            _check_stored(stored, contributors)
            return rank + remainder_rank
    data = np.zeros((rows.size, cols.size), dtype=np.int64)
    data[r, c] = v
    remainder_rank = _merged_rank(data, layout.field)
    if key is not None:
        memo[key] = (remainder_rank, contributors)
    return rank + remainder_rank


def _merged_rank(a: np.ndarray, field: PrimeField) -> int:
    """Rank of a peeled remainder ``a``, a fresh array it may overwrite.

    A remainder whose smaller side is below ``_RECURSIVE_MIN`` goes straight
    to ``Matrix.rank``: there its row loop costs less than merge rounds.
    Larger ones are first peeled as in ``_peeled_rank``, with merges between
    peels. A column with two nonzeros, in a pivot row p and a target row t,
    is cleared at t by t -= (a_tc / a_pc) * p; the row space is kept and the
    column is left to p alone, so the next peel takes p with rank + 1.
    Merges go in batched rounds: each pivot merges one column, several
    pivots may go into one target, and no target is a pivot, so every target
    is updated from unchanged pivot rows. The pivot is the row with more
    nonzeros, the earlier on a tie. A message is denser than the total's
    row it shares an input column with, so one round clears all of the
    total's input columns, and the masks' zero sum leaves its rows at zero.
    As every pivot comes before its target in that order, the candidate
    whose target comes last is never excluded, so each round merges. What
    no step peels goes to ``Matrix.rank``.
    """
    q = field.q
    rank = 0
    if min(a.shape) >= _RECURSIVE_MIN:
        merged = False
        while a.size:
            nz = a != 0
            row_w, col_w = nz.sum(axis=1), nz.sum(axis=0)
            unit_col = nz[row_w == 1].any(axis=0)
            lone_row = nz[:, col_w == 1].any(axis=1) & (row_w > 1)
            if unit_col.any() or lone_row.any():
                rank += int(np.count_nonzero(unit_col)) + int(np.count_nonzero(lone_row))
                a = a[(row_w > 1) & ~lone_row][:, (col_w > 0) & ~unit_col]
                merged = False
                continue
            pair = np.flatnonzero(col_w == 2)
            # A merge leaves its pivot a column of its own, so a peel follows
            # it; if none did, stop rather than merge again.
            if pair.size == 0 or merged:
                a = a[row_w > 0][:, col_w > 0]
                break
            first, last = np.nonzero(nz[:, pair].T)[1].reshape(-1, 2).T
            denser = row_w[first] >= row_w[last]
            piv = np.where(denser, first, last)
            tgt = np.where(denser, last, first)
            _, once = np.unique(piv, return_index=True)  # one column per pivot
            piv, tgt, col = piv[once], tgt[once], pair[once]
            free = ~np.isin(tgt, piv)
            piv, tgt, col = piv[free], tgt[free], col[free]
            inv = np.array([pow(int(x), -1, q) for x in a[piv, col]], dtype=np.int64)
            coef = a[tgt, col] * inv % q
            order = np.argsort(tgt, kind="stable")
            piv, tgt, coef = piv[order], tgt[order], coef[order]
            # Each product is below q**2 <= 2**62 and is reduced before it is
            # summed into its target.
            terms = coef[:, None] * a[piv] % q
            starts = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
            hit = tgt[starts]
            a[hit] = (a[hit] - np.add.reduceat(terms, starts)) % q
            merged = True
    if a.size == 0:
        return rank
    return rank + Matrix(field, a).rank()


def _stacked_rank(obs: Sequence[LinearObservable], layout: SourceLayout,
                  cache: dict | None) -> int:
    if not obs:
        return 0
    key = None
    if cache is not None:
        ordered = tuple(sorted(obs, key=lambda o: o.label))
        key = tuple(o.label for o in ordered)
        if len(set(key)) < len(key):
            for a, b in zip(ordered, ordered[1:]):
                if a.label == b.label and a is not b and a != b:
                    raise ValueError(f"two different observables are labelled {a.label!r}")
        if key in cache:
            rank, stored = cache[key]
            _check_stored(stored, ordered)
            return rank
    rank = _peeled_rank(obs, layout, cache)
    if cache is not None:
        cache[key] = (rank, ordered)
    return rank


def entropy(obs: Sequence[LinearObservable], cache: dict | None = None) -> int:
    """Joint entropy of the observables in q-ary units (an exact integer).

    Optional ``cache`` memoizes stacked ranks by sorted label tuple, and
    the ranks of peeled remainders by the labels and rows they came from,
    and keeps the observables with each rank; a query whose label names a
    different observable than the cache holds, or than another observable
    of the same query, raises ValueError instead of sharing the rank.
    """
    layout = _common_layout([obs])
    return _stacked_rank(list(obs), layout, cache)


def conditional_entropy(obs: Sequence[LinearObservable],
                        given: Sequence[LinearObservable] = (),
                        cache: dict | None = None) -> int:
    """H(obs | given) = H(obs, given) - H(given), exact in q-ary units."""
    layout = _common_layout([obs, given])
    joint = _stacked_rank(list(obs) + list(given), layout, cache)
    base = _stacked_rank(list(given), layout, cache)
    return joint - base


def mutual_information(a: Sequence[LinearObservable],
                       b: Sequence[LinearObservable],
                       given: Sequence[LinearObservable] = (),
                       cache: dict | None = None) -> int:
    """I(a; b | given), exact in q-ary units and always >= 0."""
    layout = _common_layout([a, b, given])
    a, b, c = list(a), list(b), list(given)
    r_ac = _stacked_rank(a + c, layout, cache)
    r_bc = _stacked_rank(b + c, layout, cache)
    r_abc = _stacked_rank(a + b + c, layout, cache)
    r_c = _stacked_rank(c, layout, cache)
    return r_ac + r_bc - r_abc - r_c


# -- enumeration oracle ----------------------------------------------------------

_CHUNK = 1 << 16


def _enumerate_atoms(layout: SourceLayout, stacked: np.ndarray,
                     budget: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk the whole source space and tally each observed tuple.

    Returns (atoms, counts, total): distinct observed value rows, how often
    each occurs, and the source-space size q**N.
    """
    q = layout.field.q
    total = q**layout.N
    if total > budget:
        raise BudgetExceededError(
            f"q**N = {q}**{layout.N} exceeds the enumeration budget {budget}"
        )
    atom_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    transposed = stacked.T.copy()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((idx.size, layout.N), dtype=np.int64)
        rem = idx
        for j in range(layout.N):
            digits[:, j] = rem % q
            rem = rem // q
        values = _safe_dot(digits, transposed, q)
        _, first, counts = np.unique(_row_codes(values, q), return_index=True,
                                     return_counts=True)
        atom_parts.append(values[first])
        count_parts.append(counts)
    all_atoms = np.vstack(atom_parts)
    all_counts = np.concatenate(count_parts)
    _, first, inverse = np.unique(_row_codes(all_atoms, q), return_index=True,
                                  return_inverse=True)
    counts = np.zeros(first.size, dtype=np.int64)
    np.add.at(counts, inverse, all_counts)
    return all_atoms[first], counts, total


def _row_codes(rows: np.ndarray, q: int) -> np.ndarray:
    """One int64 per row of values in [0, q): equal exactly for equal rows
    and ordered as the rows are, lexicographically. Each code is the row
    read as base-q digits, re-ranked densely before another digit could
    carry it past 2**62."""
    code = np.zeros(rows.shape[0], dtype=np.int64)
    bound = 1  # every code is below this
    for column in rows.T:
        if bound * q > 2**62:
            _, code = np.unique(code, return_inverse=True)
            bound = code.size  # dense ranks are below the row count
        code = code * q + column
        bound *= q
    return code


def _power_of_q_exponent(x: int, q: int) -> int:
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    if x != 1:
        raise NonPowerOfQSupportError(f"count component {x} is not a power of {q}")
    return e


def _marginal_ids(atoms: np.ndarray, cols: Sequence[int], counts: np.ndarray,
                  q: int) -> tuple[np.ndarray, np.ndarray]:
    """Group atoms by the projection onto ``cols``; returns (group id per
    atom, total count per group)."""
    _, inverse = np.unique(_row_codes(atoms[:, list(cols)], q), return_inverse=True)
    sums = np.zeros(int(inverse.max()) + 1 if inverse.size else 1, dtype=np.int64)
    np.add.at(sums, inverse, counts)
    return inverse, sums


def brute_force_entropy(obs: Sequence[LinearObservable],
                        budget: int = DEFAULT_BUDGET) -> Fraction:
    """Joint entropy by full enumeration, as an exact rational.

    Independent of the rank path: it only counts realizations. Each atom
    probability is a multiple of q**-N, and for linear observables every
    atom count is a power of q, so the entropy is exact.
    """
    layout = _common_layout([obs])
    rows = [o.matrix.data for o in obs]
    stacked = np.vstack(rows) if rows else np.zeros((0, layout.N), dtype=np.int64)
    _, counts, total = _enumerate_atoms(layout, stacked, budget)
    q = layout.field.q
    weighted = 0
    for n in counts:
        weighted += int(n) * _power_of_q_exponent(int(n), q)
    return Fraction(layout.N * total - weighted, total)


def brute_force_mi(a: Sequence[LinearObservable],
                   b: Sequence[LinearObservable],
                   given: Sequence[LinearObservable] = (),
                   budget: int = DEFAULT_BUDGET) -> Fraction:
    """I(a; b | given) by full enumeration, as an exact rational.

    Builds the exact joint distribution of (a, b, given) over all q**N source
    realizations and evaluates the Shannon sum directly; every per-atom
    likelihood ratio must be an integer power of q, which holds for all
    linear observables.
    """
    layout = _common_layout([a, b, given])
    a, b, c = list(a), list(b), list(given)
    ra = sum(o.matrix.rows for o in a)
    rb = sum(o.matrix.rows for o in b)
    rows = [o.matrix.data for o in a + b + c]
    stacked = np.vstack(rows) if rows else np.zeros((0, layout.N), dtype=np.int64)
    atoms, counts, total = _enumerate_atoms(layout, stacked, budget)
    q = layout.field.q

    n_cols = stacked.shape[0]
    ac_cols = list(range(ra)) + list(range(ra + rb, n_cols))
    bc_cols = list(range(ra, n_cols))
    c_cols = list(range(ra + rb, n_cols))
    ac_id, ac_sum = _marginal_ids(atoms, ac_cols, counts, q)
    bc_id, bc_sum = _marginal_ids(atoms, bc_cols, counts, q)
    c_id, c_sum = _marginal_ids(atoms, c_cols, counts, q)

    weighted = 0
    for i in range(atoms.shape[0]):
        n_abc = int(counts[i])
        num = n_abc * int(c_sum[c_id[i]])
        den = int(ac_sum[ac_id[i]]) * int(bc_sum[bc_id[i]])
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den == 1:
            exponent = _power_of_q_exponent(num, q)
        elif num == 1:
            exponent = -_power_of_q_exponent(den, q)
        else:
            raise NonPowerOfQSupportError(
                f"likelihood ratio {num}/{den} is not a power of {q}"
            )
        weighted += n_abc * exponent
    return Fraction(weighted, total)

