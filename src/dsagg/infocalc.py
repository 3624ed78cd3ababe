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

An observable is stored as its nonzeros alone; its dense ``matrix`` is
rebuilt on demand (this reverses the earlier rule that the dense matrix is
the source of truth). Most rows of the stacks are coordinate projections:
inputs, key bundles, and messages once their keys are known. The rank path
peels them with the steps of structured Gaussian elimination (LaMacchia &
Odlyzko, CRYPTO 1990; Pomerance & Smith, Experimental Math. 1992), all on
the nonzeros. A row with one nonzero is a scaled unit vector e_j, so
rank([P_S; A]) = |S| + rank(A[:, not S]) with S the columns of such rows. A
column with one nonzero makes its row independent of the others. A column
with two nonzeros is merged: a multiple of one row clears it in the other,
leaving it one nonzero. Within one rank cache each distinct remainder is
ranked once, with merges when both its sides reach ``_MERGE_MIN``. In the
recovery and security stacks, once the viewer's inputs and keys are
peeled, each other input column holds two nonzeros, in its user's message
and in the total, so the merges fold every message into the total. The
recovery stacks then end with nothing left, and the security stack
[X_S; sum W; W_D; Z_D] with the messages' key sums over the surviving
keys, which are zero for a zero-sum precoder. Only what is left is built as
a matrix, for ``Matrix.rank``.

The rank path holds about one copy of a stack's nonzeros at a time, which
matters at T=0, where each recovery and security stack holds the K-1 other
messages. A wide stack is built without the nonzeros on its unit columns. A
merge round rebuilds only the rows it changes, its targets', summing their
fill-in a piece at a time; as in structured elimination, the other rows are
left as they are. The nonzeros are dropped before the kernel gets the
remainder's matrix.

A rank cache is keyed by the ids of the observables it ranked and holds
them, so no other object can take those ids: labels are only names.

The enumeration oracle at the bottom re-derives the same quantities by
walking the whole source space once and counting the values of each marginal
it needs, sharing no code with the rank path; agreement between the two is
what justifies using ranks as the general auditor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gf import PrimeField
from .linalg import Matrix, _safe_dot
from .scheme import Precoder, SchemeParams

DEFAULT_BUDGET = 2**24
# Remainders whose smaller side reaches this go through the merge rounds
# before the kernel. Measured on the security phases of (8,2,3), (9,3,3) and
# (10,4,3) at q=101 (build seed 0): gates of 16, 32 and 48 make the same
# kernel calls and tie within noise; 64 makes 1.4-1.6x as many and 96, the
# kernel's recursion cutoff, 2x as many, and at 96 the phases take 1.6-2x
# as long.
_MERGE_MIN = 32
# The working set's unit, in nonzeros: a merge round sums its fill-in a
# piece of about this many at a time (``_merge``), and a stack of more is
# built without the nonzeros on its unit columns (``_peeled_rank``).
_PIECE = 2**14


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
        """Source coordinates of the keys of the groups ``ids`` (rows of
        ``params.members``), in that order; KeyError for an id outside
        range(C(K, G))."""
        ids = self.params.group_ids(ids)
        return self.params.K * self.L + (ids[:, None] * self.L_S + np.arange(self.L_S)).ravel()


def layout_for(source: SchemeParams | Precoder) -> SourceLayout:
    """The source layout matching a parameter set or a concrete precoder."""
    params = source.params if isinstance(source, Precoder) else source
    return SourceLayout(params, source.L, source.L_S)


# -- observables ----------------------------------------------------------------


class LinearObservable:
    """A named linear function of the source: rows of a (rows x N) matrix,
    stored as its nonzeros only, (row, column, value) arrays in row-major
    order, with whether every row holds exactly one of them. ``matrix``
    rebuilds the dense matrix on each call; equality compares label, layout
    and matrix."""

    __slots__ = ("label", "layout", "rows", "_r", "_c", "_v", "_unit")

    def __init__(self, label: str, matrix: Matrix, layout: SourceLayout) -> None:
        if matrix.field != layout.field:
            raise LayoutMismatchError("observable field differs from layout field")
        if matrix.cols != layout.N:
            raise LayoutMismatchError(
                f"observable has {matrix.cols} columns, layout needs {layout.N}"
            )
        r, c = np.nonzero(matrix.data)
        self._fill(label, layout, matrix.rows, r, c, matrix.data[r, c])

    def _fill(self, label, layout, rows, r, c, v) -> "LinearObservable":
        # Copies: np.nonzero returns r and c as strided views of one
        # (nnz, 2) buffer, which would hold every column index twice.
        r, c = np.array(r), np.array(c)
        for arr in (r, c, v):
            arr.setflags(write=False)
        unit = np.array_equal(r, np.arange(rows))
        for name, value in zip(self.__slots__, (label, layout, rows, r, c, v, unit)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LinearObservable is immutable")

    @property
    def matrix(self) -> Matrix:
        data = np.zeros((self.rows, self.layout.N), dtype=np.int64)
        data[self._r, self._c] = self._v
        return Matrix(self.layout.field, data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearObservable):
            return NotImplemented
        return ((self.label, self.layout, self.rows) == (other.label, other.layout, other.rows)
                and all(map(np.array_equal, (self._r, self._c, self._v),
                            (other._r, other._c, other._v))))

    def __hash__(self):
        return hash((self.label, self.layout, self.rows))


def _observable(label, layout, rows, r, c, v) -> LinearObservable:
    """The observable of ``rows`` rows with row-major nonzeros (r, c, v)."""
    return LinearObservable.__new__(LinearObservable)._fill(label, layout, rows, r, c, v)


def _unit_rows(label: str, layout: SourceLayout, cols: np.ndarray) -> LinearObservable:
    """The projection onto the ascending ``cols``: row i is e_cols[i]."""
    return _observable(label, layout, cols.size, np.arange(cols.size), cols, np.ones_like(cols))


def observe_input(layout: SourceLayout, k: int) -> LinearObservable:
    """The raw input of user k."""
    return _unit_rows(f"W{k}", layout, np.arange(layout.N)[layout.input_slice(k)])


def observe_total(layout: SourceLayout) -> LinearObservable:
    """The global input sum: row i is the sum of e_i over every input."""
    L, K = layout.L, layout.params.K
    cols = (np.arange(L)[:, None] + L * np.arange(K)).ravel()
    return _observable("sum(W)", layout, L, np.arange(L).repeat(K), cols, np.ones_like(cols))


def observe_key_bundle(layout: SourceLayout, k: int) -> LinearObservable:
    """Everything user k stores: the keys of the groups holding k, in group
    order."""
    layout.params.user_index(k)  # TypeError unless an integer, KeyError outside 1..K
    return _unit_rows(f"Z{k}", layout, layout.key_columns(
        np.flatnonzero((layout.params.members == k).any(axis=1))))


def observe_message(precoder: Precoder, k: int) -> LinearObservable:
    """User k's broadcast: its input plus its key mask, which reads only the
    keys of the groups holding k."""
    return _message(precoder, layout_for(precoder), k)


def _message(precoder: Precoder, layout: SourceLayout, k: int) -> LinearObservable:
    """``observe_message`` over ``layout``, which must be ``precoder``'s: the
    messages of one ``AuditContext`` share its layout object."""
    ids = np.flatnonzero((precoder.params.members == k).any(axis=1))
    block = np.hstack([np.eye(layout.L, dtype=np.int64), precoder.key_map([k], ids)])
    cols = np.concatenate([np.arange(layout.N)[layout.input_slice(k)], layout.key_columns(ids)])
    r, j = np.nonzero(block)
    return _observable(f"X{k}", layout, layout.L, r, cols[j], block[r, j])


# -- rank calculus ---------------------------------------------------------------


def _common_layout(groups: Sequence[Sequence[LinearObservable]]) -> SourceLayout:
    # One comparison per distinct layout object, not one per observable.
    distinct = {id(obs.layout): obs.layout for obs_list in groups for obs in obs_list}
    if not distinct:
        raise LayoutMismatchError("no observables given")
    layout, *others = distinct.values()
    if any(other != layout for other in others):
        bad = next(obs for obs_list in groups for obs in obs_list if obs.layout != layout)
        raise LayoutMismatchError(f"observable {bad.label!r} uses a different source layout")
    return layout


def _peel(r: np.ndarray, c: np.ndarray, v: np.ndarray, peeled: np.ndarray,
          dead: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both singleton steps on row-major nonzeros (row ``r``, column ``c``,
    value ``v``), none of them on a ``peeled`` column or a ``dead`` row,
    repeated until neither finds anything; returns the nonzeros left. A row
    with one nonzero peels its column into ``peeled``, a column with one
    nonzero its row into ``dead`` (module docstring), and each new mark is
    rank + 1."""
    while True:
        unit = (np.bincount(r, minlength=dead.size) == 1)[r]
        lone = (np.bincount(c, minlength=peeled.size) == 1)[c]
        if not (unit.any() or lone.any()):
            return r, c, v
        peeled[c[unit]] = True
        dead[r[lone & ~unit]] = True  # an isolated nonzero counts once, as a column
        live = ~(peeled[c] | dead[r])
        r, c, v = r[live], c[live], v[live]


def _fermat_inverses(x: np.ndarray, q: int) -> np.ndarray:
    """x**(q-2) mod q elementwise, by squaring: the inverse of each nonzero
    x in [0, q). Every product is below q**2 <= 2**62."""
    out, base, e = np.ones_like(x), x, q - 2
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


def _runs(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[i] .. start[i] + size[i] - 1, one run after
    another, for at least one run."""
    ends = np.cumsum(size)
    return np.repeat(start - ends + size, size) + np.arange(ends[-1])


def _starts(x: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``x`` starts."""
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return np.flatnonzero(new)


def _merge(r: np.ndarray, c: np.ndarray, v: np.ndarray, q: int,
           width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One round of weight-2 column merges on row-major nonzeros with
    columns below ``width``; None if no column has two nonzeros.

    Such a column, in a pivot row p and a target row t, is cleared at t by
    t -= (a_tc / a_pc) * p, which keeps the row space and leaves the column
    to p alone, so the next ``_peel`` takes p with rank + 1. The pivot is
    the denser row, the earlier on a tie; each pivot merges one column, and
    no target is a pivot, so targets update from unchanged rows. The
    candidate whose target comes last in that order is never excluded, so
    each round merges.

    Only the targets' rows are rebuilt, a piece of whole target rows at a
    time: each piece sums its rows' nonzeros and their pivots' scaled
    nonzeros, about ``_PIECE`` of them, so the round never holds the fill-in
    of the whole stack. Each target's new nonzeros are inserted where its
    old ones were, among the other rows as they are. When the targets' rows
    come out empty and sat at one end of the stack, as the total does in the
    recovery and security stacks of a zero-sum precoder, the rest is
    returned as views of the input, without a copy."""
    row_w = np.bincount(r)
    pair = np.flatnonzero((np.bincount(c) == 2)[c])
    if pair.size == 0:
        return None
    pair = pair[np.argsort(c[pair], kind="stable")]  # by column, each column's rows in order
    first, last = pair[0::2], pair[1::2]
    denser = row_w[r[first]] >= row_w[r[last]]
    piv, tgt = np.where(denser, first, last), np.where(denser, last, first)
    by_row = np.argsort(r[piv], kind="stable")
    once = by_row[_starts(r[piv[by_row]])]  # one column per pivot
    piv, tgt = piv[once], tgt[once]
    is_pivot = np.zeros(row_w.size, dtype=bool)
    is_pivot[r[piv]] = True
    free = ~is_pivot[r[tgt]]
    piv, tgt = piv[free], tgt[free]
    by_target = np.argsort(r[tgt], kind="stable")
    piv, tgt = piv[by_target], tgt[by_target]
    coef = v[tgt] * _fermat_inverses(v[piv], q) % q
    t_row, p_row = r[tgt], r[piv]
    at = _starts(t_row)  # each target's first merge
    targets = t_row[at]
    start = np.cumsum(row_w) - row_w  # each row's first nonzero
    # Pieces of whole target rows: a piece ends where the nonzeros summed
    # so far pass another multiple of _PIECE.
    load = np.cumsum(row_w[targets] + np.add.reduceat(row_w[p_row], at)) // _PIECE
    cut = _starts(load)[1:].tolist()
    bound = at.tolist() + [piv.size]
    keys, vals = [], []
    for a, b in zip([0] + cut, cut + [targets.size]):
        own = _runs(start[targets[a:b]], row_w[targets[a:b]])
        m = slice(bound[a], bound[b])
        size = row_w[p_row[m]]
        src = _runs(start[p_row[m]], size)  # the pivot rows' nonzeros
        # Each product is below q**2 <= 2**62 and is reduced before it is summed.
        key = np.concatenate([r[own] * width + c[own], np.repeat(t_row[m], size) * width + c[src]])
        val = np.concatenate([v[own], -(np.repeat(coef[m], size) * v[src] % q)])
        order = np.argsort(key)
        key, val = key[order], val[order]
        starts = _starts(key)
        key, val = key[starts], np.add.reduceat(val, starts) % q
        keys.append(key[val != 0])
        vals.append(val[val != 0])
    key, val = np.concatenate(keys), np.concatenate(vals)
    gone = int(row_w[targets].sum())  # the targets' old nonzeros
    if val.size == 0 and start[targets[0]] + gone == start[targets[-1]] + row_w[targets[-1]]:
        # The targets' rows are one run; with nothing left in them the
        # rest is at most two runs, and at the stack's ends only one.
        lo = start[targets[0]]
        if lo == 0:
            return r[gone:], c[gone:], v[gone:]
        if lo + gone == r.size:
            return r[:lo], c[:lo], v[:lo]
    tr = key // width
    is_target = np.zeros(row_w.size, dtype=bool)
    is_target[targets] = True
    kept = ~is_target[r]
    where = np.searchsorted(r[kept], tr)
    # One array at a time: each old[kept] is freed before the next is taken.
    return tuple(np.insert(old[kept], where, new)
                 for old, new in ((r, tr), (c, key % width), (v, val)))


def _peeled_rank(obs: Sequence[LinearObservable], layout: SourceLayout,
                 memo: dict) -> int:
    """Rank of the stacked observables, peeled on their nonzeros: the
    columns of every unit observable (inputs, key bundles) at once, then
    ``_peel`` on the rest. The remainder, live rows over live columns, is
    keyed in ``memo`` by the ids and live rows of the observables it came
    from, which the entry holds, and by its columns, so each is ranked once.
    On a miss, a remainder whose smaller side reaches ``_MERGE_MIN`` (below
    it the kernel's row loop is cheaper) alternates ``_merge`` rounds with
    ``_peel``; what is left then goes densely to ``Matrix.rank``, once the
    nonzeros are dropped (module docstring)."""
    peeled = np.zeros(layout.N, dtype=bool)
    units = [o._c for o in obs if o._unit]
    if units:
        peeled[np.concatenate(units)] = True
    rest = [o for o in obs if not o._unit]
    if not rest:
        return int(np.count_nonzero(peeled))
    sizes = [o.rows for o in rest]
    offsets = list(itertools.accumulate(sizes, initial=0))
    # The stack's nonzeros off the unit columns. A wide stack drops the
    # others observable by observable, so it is never held twice; a narrow
    # one is filtered once, which takes fewer calls.
    if sum([o._c.size for o in rest]) > _PIECE:
        off = [~peeled[o._c] for o in rest]
        r = np.concatenate([o._r[k] + at for o, k, at in zip(rest, off, offsets)])
        c = np.concatenate([o._c[k] for o, k in zip(rest, off)])
        v = np.concatenate([o._v[k] for o, k in zip(rest, off)])
        del off
    else:
        r = np.concatenate([o._r + at for o, at in zip(rest, offsets)])
        c = np.concatenate([o._c for o in rest])
        v = np.concatenate([o._v for o in rest])
        off = ~peeled[c]
        r, c, v = r[off], c[off], v[off]
    dead = np.zeros(offsets[-1], dtype=bool)  # peeled rows
    r, c, v = _peel(r, c, v, peeled, dead)
    rank = int(np.count_nonzero(peeled) + np.count_nonzero(dead))
    if r.size == 0:
        return rank
    live_r = np.bincount(r, minlength=dead.size) > 0
    live_c = np.bincount(c, minlength=peeled.size) > 0
    held = np.logical_or.reduceat(live_r, offsets[:-1])  # each observable in rest has rows
    # The observables with live rows, which of their rows those are, and the
    # live columns. Its first item is a tuple, so no full-stack key (a tuple
    # of ids) equals it.
    key = (tuple(id(o) for o, h in zip(rest, held.tolist()) if h),
           live_r[np.repeat(held, sizes)].tobytes(), live_c.tobytes())
    if key in memo:
        return rank + memo[key][0]
    marked = rank
    if min(np.count_nonzero(live_r), np.count_nonzero(live_c)) >= _MERGE_MIN:
        while r.size and (merged := _merge(r, c, v, layout.field.q, layout.N)) is not None:
            (r, c, v), merged = merged, None  # the stack before the round is dropped
            r, c, v = _peel(r, c, v, peeled, dead)
            # Each round leaves its pivots a column of their own, so the peel
            # must mark one; a round that marks nothing would repeat forever.
            before, marked = marked, int(np.count_nonzero(peeled) + np.count_nonzero(dead))
            if marked == before:
                raise RuntimeError("a merge round left nothing for the peel to mark")
        live_r, live_c = np.bincount(r) > 0, np.bincount(c) > 0
    remainder_rank = marked - rank
    if r.size:
        at_r, at_c = np.cumsum(live_r) - 1, np.cumsum(live_c) - 1  # position among the live
        shape = (at_r[-1] + 1, at_c[-1] + 1)
        # Each array is dropped once read, and the kernel gets the matrix
        # alone, without the unreduced copy.
        flat = at_r[r]
        del r
        flat *= shape[1]
        flat += at_c[c]
        del c
        data = np.zeros(shape, dtype=np.int64)
        data.ravel()[flat] = v
        del flat, v
        remainder = Matrix(layout.field, data)
        del data
        remainder_rank += remainder.rank()
    memo[key] = (remainder_rank, rest)
    return rank + remainder_rank


def _stacked_rank(obs: Sequence[LinearObservable], layout: SourceLayout,
                  cache: dict | None) -> int:
    """Rank of the stacked observables, through ``cache``; a None cache is a
    fresh one, so every rank takes the same path."""
    if not obs:
        return 0
    cache = {} if cache is None else cache
    key = tuple(sorted(map(id, obs)))
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = (_peeled_rank(obs, layout, cache), tuple(obs))
    return entry[0]


def entropy(obs: Sequence[LinearObservable], cache: dict | None = None) -> int:
    """Joint entropy of the observables in q-ary units (an exact integer).

    Optional ``cache`` memoizes stacked ranks, and the ranks of peeled
    remainders, by the observables they came from (module docstring).
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


def _enumeration_size(layout: SourceLayout) -> int:
    """q**N, the points the oracle walks; BudgetExceededError past
    DEFAULT_BUDGET. q >= 2, so q**N exceeds the budget once N reaches its
    bit length; testing that first keeps q**N from being computed for a
    huge N."""
    q, N = layout.field.q, layout.N
    if N >= DEFAULT_BUDGET.bit_length() or q**N > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"q**N = {q}**{N} exceeds the enumeration budget {DEFAULT_BUDGET}"
        )
    return q**N


def _tally(layout: SourceLayout, stacked: np.ndarray,
           selections: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Walk the whole source space once and, for each selection of rows of
    ``stacked``, count how often each value of those rows occurs.

    Returns those counts, one array per selection, and the source-space size
    q**N. The walk goes in chunks of q**low points that share their high
    digits: the low digits' share of the values is computed once, and each
    chunk adds its high digits' share. No observed tuple is stored: each
    chunk is tallied per selection at once, under codes that name the same
    value in every chunk, and the chunks' tallies are merged at the end.
    """
    q, N = layout.field.q, layout.N
    total = _enumeration_size(layout)
    # Chunks of about _CHUNK points; any low up to N gives the same counts.
    low = min(N, max(1, int(math.log(_CHUNK, q))))
    # Values are held one row per stacked row, one column per point.
    low_values = _safe_dot(stacked[:, :low], _digits(np.arange(q**low), low, q).T, q)
    high_rows = stacked[:, low:]
    parts: list[tuple[list, list]] = [([], []) for _ in selections]
    for high in range(q ** (N - low)):
        values = low_values + _safe_dot(high_rows, _digits(np.array([high]), N - low, q).T, q)
        values %= q
        for (codes, counts), rows in zip(parts, selections):
            code, count = _distinct(_codes(values[rows], q), return_counts=True)
            codes.append(code)
            counts.append(count)
    tallies = []
    for codes, counts in parts:
        inverse = _distinct(np.vstack(codes), return_inverse=True)[1].ravel()
        tallies.append(np.zeros(inverse.max() + 1, dtype=np.int64))
        np.add.at(tallies[-1], inverse, np.concatenate(counts))
    return tallies, total


def _digits(idx: np.ndarray, n: int, q: int) -> np.ndarray:
    """The n base-q digits of each index, least significant first."""
    return idx[:, None] // q ** np.arange(n, dtype=np.int64) % q


def _codes(values: np.ndarray, q: int) -> np.ndarray:
    """The columns of values in [0, q) as rows of int64 words, equal exactly
    for equal columns: each word reads base-q digits, and a new word starts
    before another digit could carry one past 2**62. No rows give one word
    of zeros."""
    words = [np.zeros(values.shape[1], dtype=np.int64)]
    bound = 1  # the last word is below this
    for row in values:
        if bound * q > 2**62:
            words.append(np.zeros_like(words[0]))
            bound = 1
        words[-1] = words[-1] * q + row
        bound *= q
    return np.stack(words, axis=1)


def _distinct(codes: np.ndarray, **kwargs):
    """``np.unique`` over the rows of ``codes``; one word is sorted as plain
    integers, which is much faster than sorting rows."""
    if codes.shape[1] > 1:
        return np.unique(codes, axis=0, **kwargs)
    distinct, *rest = np.unique(codes[:, 0], **kwargs)
    return (distinct[:, None], *rest)


def _n_log_n(counts: np.ndarray, q: int) -> int:
    """The sum of n * log_q(n) over one marginal's counts, each of which
    must be a power of q."""
    exponents = np.zeros_like(counts)
    rest = counts.copy()
    while (step := (rest % q == 0) & (rest > 1)).any():
        rest[step] //= q
        exponents[step] += 1
    if (rest != 1).any():
        raise NonPowerOfQSupportError(
            f"count {counts[rest != 1][0]} is not a power of {q}"
        )
    return int((counts * exponents).sum())


def brute_force_entropy(obs: Sequence[LinearObservable]) -> Fraction:
    """Joint entropy by full enumeration, as an exact rational.

    Independent of the rank path: it only counts realizations. Each value's
    probability is a multiple of q**-N, and for linear observables every
    count is a power of q, so the entropy is exact.
    """
    layout = _common_layout([obs])
    stacked = np.vstack([o.matrix.data for o in obs])
    (counts,), total = _tally(layout, stacked, [np.arange(stacked.shape[0])])
    return Fraction(layout.N * total - _n_log_n(counts, layout.field.q), total)


def brute_force_mi(a: Sequence[LinearObservable],
                   b: Sequence[LinearObservable],
                   given: Sequence[LinearObservable] = ()) -> Fraction:
    """I(a; b | given) by full enumeration, as an exact rational.

    Counts the values of (a, b, given), (a, given), (b, given) and given
    over all q**N source realizations. The Shannon sum over the joint
    values, sum n_abc * log_q(n_abc n_c / (n_ac n_bc)), regrouped by
    marginal, is S_abc + S_c - S_ac - S_bc with S = sum n * log_q(n) over
    that marginal's counts; every count must be an integer power of q, which
    holds for all linear observables.
    """
    layout = _common_layout([a, b, given])
    a, b, c = list(a), list(b), list(given)
    stacked = np.vstack([o.matrix.data for o in a + b + c])
    ra = sum(o.rows for o in a)
    rab = ra + sum(o.rows for o in b)
    n = stacked.shape[0]
    selections = [np.arange(n), np.arange(rab, n), np.r_[0:ra, rab:n], np.arange(ra, n)]
    counts, total = _tally(layout, stacked, selections)
    s_abc, s_c, s_ac, s_bc = (_n_log_n(x, layout.field.q) for x in counts)
    return Fraction(s_abc + s_c - s_ac - s_bc, total)
