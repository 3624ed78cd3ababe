import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsagg.infocalc
from dsagg.auditor import (
    AuditContext,
    audit,
    audit_recovery,
    audit_security,
    rank_certificate_ok,
)
from dsagg.gf import PrimeField
from dsagg.infocalc import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LayoutMismatchError,
    LinearObservable,
    NonPowerOfQSupportError,
    SourceLayout,
    _MERGE_MIN,
    _fermat_inverses,
    _merge,
    _peel,
    _peeled_rank,
    _stacked_rank,
    brute_force_entropy,
    brute_force_mi,
    conditional_entropy,
    entropy,
    layout_for,
    mutual_information,
    observe_input,
    observe_key_bundle,
    observe_message,
    observe_total,
)
from dsagg.linalg import Matrix, _safe_dot, random_matrix
from dsagg.scheme import (
    Precoder,
    SchemeParams,
    build_precoder,
    fixture_example1,
    fixture_example2,
    random_precoder,
    reference_precoder,
    sample_keys,
)
from dsagg.scheme import encode

from conftest import plain_rank, zero_precoder


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_layout_segments_cover_source():
    lay = layout_for(SchemeParams(K=5, T=1, G=2, q=5))
    ids = lay.params.group_index
    assert lay.N == 5 * 3 + 10 * 2
    assert lay.input_slice(1) == slice(0, 3)
    assert lay.key_columns([ids((1, 2))]).tolist() == [15, 16]
    assert lay.key_columns([ids((2, 3)), ids((1, 2))]).tolist() == [23, 24, 15, 16]
    keyless = SourceLayout(lay.params, 3, 0)
    assert keyless.key_columns([ids((4, 5))]).size == 0 and keyless.N == 15
    # Inputs, then keys in group order, cover [0, N) once each.
    for layout in (lay, keyless):
        covered = [i for k in layout.params.users
                   for i in range(layout.N)[layout.input_slice(k)]]
        covered += layout.key_columns(range(len(layout.params.members))).tolist()
        assert covered == list(range(layout.N))


def test_observable_validation():
    lay = layout_for(SchemeParams(K=3, T=0, G=2, q=5))
    with pytest.raises(LayoutMismatchError):
        LinearObservable("bad", Matrix.zeros(lay.field, 1, lay.N + 1), lay)


# ---------------------------------------------------------------------------
# entropy by rank
# ---------------------------------------------------------------------------

def test_entropy_of_one_input_is_its_length():
    lay = layout_for(fixture_example2())
    assert entropy([observe_input(lay, 1)]) == 3


def test_entropy_drops_dependent_rows():
    lay = layout_for(fixture_example1())  # L = 1
    w1 = observe_input(lay, 1)
    w2 = observe_input(lay, 2)
    w1_plus_w2 = LinearObservable("W1+W2", Matrix(lay.field, w1.matrix.data + w2.matrix.data),
                                  lay)
    assert entropy([w1_plus_w2, w1, w2]) == 2


def test_entropy_of_surviving_key_mixes_is_six():
    # Users 3..5's key masks restricted to the keys colluders {1, 2} never
    # see: three vectors, jointly as random as the three keys themselves.
    pre = fixture_example2()
    lay = layout_for(pre)
    surviving = [(3, 4), (3, 5), (4, 5)]
    mixes = []
    for u in (3, 4, 5):
        data = np.zeros((3, lay.N), dtype=np.int64)
        for g in surviving:
            if u in g:
                data[:, lay.key_columns([pre.params.group_index(g)])] = pre.block(u, g).data
        mixes.append(LinearObservable(f"mix{u}", Matrix(lay.field, data), lay))
    assert entropy(mixes) == 6


def test_conditional_entropy_examples():
    pre = fixture_example2()
    lay = layout_for(pre)
    x1 = observe_message(pre, 1)
    w1 = observe_input(lay, 1)
    z1 = observe_key_bundle(lay, 1)
    # a message is a deterministic function of its sender's input and keys
    assert conditional_entropy([x1], [w1, z1]) == 0
    assert conditional_entropy([w1], [w1]) == 0

    received = [observe_message(pre, k) for k in (2, 3, 4, 5)]
    cond = [observe_total(lay), w1, z1,
            observe_input(lay, 2), observe_key_bundle(lay, 2)]
    assert conditional_entropy(received, cond) == 6


def test_mutual_information_examples():
    pre1 = fixture_example1()
    lay = layout_for(pre1)
    msgs = {k: observe_message(pre1, k) for k in (1, 2, 3)}
    ins = {k: observe_input(lay, k) for k in (1, 2, 3)}
    view = [observe_total(lay), ins[1], observe_key_bundle(lay, 1)]
    assert mutual_information([msgs[2], msgs[3]], [ins[2], ins[3]], view) == 0
    assert mutual_information([ins[1]], [ins[2]]) == 0

    pre2 = fixture_example2()
    lay2 = layout_for(pre2)
    msgs2 = [observe_message(pre2, k) for k in (2, 3, 4, 5)]
    ins2 = [observe_input(lay2, k) for k in (2, 3, 4, 5)]
    view2 = [observe_total(lay2), observe_input(lay2, 1), observe_key_bundle(lay2, 1),
             observe_input(lay2, 2), observe_key_bundle(lay2, 2)]
    assert mutual_information(msgs2, ins2, view2) == 0


def test_group_key_observable():
    lay = layout_for(fixture_example2())
    data = np.zeros((2, lay.N), dtype=np.int64)
    data[:, lay.key_columns([lay.params.group_index((1, 2))])] = np.eye(2, dtype=np.int64)
    assert entropy([LinearObservable("S{1,2}", Matrix(lay.field, data), lay)]) == 2
    assert entropy([observe_key_bundle(lay, 1)]) == 4 * 2


def test_layout_mismatch_rejected():
    lay1 = layout_for(fixture_example1())
    lay2 = layout_for(fixture_example2())
    with pytest.raises(LayoutMismatchError):
        entropy([observe_input(lay1, 1), observe_input(lay2, 1)])
    with pytest.raises(LayoutMismatchError):
        entropy([])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def random_observables(lay, rng, count):
    out = []
    for i in range(count):
        rows = int(rng.integers(1, 4))
        mat = random_matrix(rows, lay.N, lay.field, rng=rng)
        out.append(LinearObservable(f"r{i}-{rng.integers(1 << 30)}", mat, lay))
    return out


def test_entropy_monotone_and_subadditive():
    lay = layout_for(SchemeParams(K=3, T=0, G=2, q=3))
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(30):
        a = random_observables(lay, rng, 2)
        b = random_observables(lay, rng, 2)
        h_a, h_b = entropy(a), entropy(b)
        h_ab = entropy(a + b)
        assert h_a <= h_ab <= h_a + h_b


def test_mi_nonnegative_and_rank_identity():
    lay = layout_for(SchemeParams(K=3, T=0, G=2, q=5))
    rng = np.random.Generator(np.random.PCG64(22))
    for _ in range(30):
        a = random_observables(lay, rng, 1)
        b = random_observables(lay, rng, 1)
        c = random_observables(lay, rng, 1)
        mi = mutual_information(a, b, c)
        assert mi >= 0
        lhs = entropy(a + c) + entropy(b + c)
        rhs = entropy(a + b + c) + entropy(c)
        assert (mi == 0) == (lhs == rhs)


# ---------------------------------------------------------------------------
# peeling coordinate projections
# ---------------------------------------------------------------------------

def single_segment_layout(field, n):
    """A layout whose source is one n-symbol segment (one group of all
    three users, no inputs), so observables can have any width."""
    return SourceLayout(SchemeParams(K=3, T=0, G=3, q=field.q), 0, n)


@st.composite
def peel_stacks(draw):
    """(q, row blocks) mixing dense, unit, scaled-copy, zero and two-entry
    rows; a two-entry row turns into a unit row once one of its columns is
    peeled. Blocks may have zero rows and the width may be zero."""
    q = draw(st.sampled_from((2, 101, 2**31 - 1)))
    n = draw(st.integers(0, 8))
    scale = st.integers(1, q - 1)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("dense", "unit", "copy", "zero", "pair")))
        row = np.zeros(n, dtype=np.int64)
        if kind == "copy" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))] * draw(scale) % q
        elif kind == "dense":
            row[:] = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        elif kind == "pair" and n >= 2:
            cols = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            row[cols] = [draw(scale), draw(scale)]
        elif kind != "zero" and n >= 1:
            row[draw(st.integers(0, n - 1))] = draw(scale)
        rows.append(row)
    stack = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return q, np.split(stack, cuts)


@settings(max_examples=50, deadline=None)
@given(peel_stacks())
def test_peeled_rank_equals_plain_elimination(case):
    q, blocks = case
    field = PrimeField(q)
    lay = single_segment_layout(field, blocks[0].shape[1])
    obs = [LinearObservable(f"b{i}", Matrix(field, b), lay) for i, b in enumerate(blocks)]
    plain = plain_rank(field, np.vstack(blocks))
    assert _stacked_rank(obs, lay, None) == plain
    assert _stacked_rank(obs, lay, {}) == plain


def count_remainders(monkeypatch):
    """Record the shape of every matrix ``Matrix.rank`` is asked to rank."""
    shapes = []
    kernel_rank = Matrix.rank

    def counted(self):
        shapes.append(self.shape)
        return kernel_rank(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    return shapes


def count_stacks(monkeypatch):
    """Record the size of every stack ``_peeled_rank`` is asked to rank:
    one per full-stack cache miss."""
    sizes = []
    plain_peeled_rank = dsagg.infocalc._peeled_rank

    def counted(obs, layout, memo):
        sizes.append(len(obs))
        return plain_peeled_rank(obs, layout, memo)

    monkeypatch.setattr(dsagg.infocalc, "_peeled_rank", counted)
    return sizes


def test_peel_follows_rows_that_become_unit(monkeypatch):
    shapes = count_remainders(monkeypatch)
    # e0, then e0+e1 once column 0 is gone, then e1+e2, then e2+e3.
    field = PrimeField(5)
    data = np.array([[0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]])
    lay = single_segment_layout(field, 4)
    assert _stacked_rank([LinearObservable("D", Matrix(field, data), lay)], lay, None) == 4
    assert shapes == []  # nothing is left to eliminate

    # A message is a unit row on its input once its sender's keys are peeled.
    pre = fixture_example2()
    lay = layout_for(pre)
    stack = [observe_key_bundle(lay, 1), observe_message(pre, 1)]
    plain = plain_rank(lay.field, np.vstack([o.matrix.data for o in stack]))
    shapes.clear()
    assert _stacked_rank(stack, lay, None) == plain == 8 + 3
    assert shapes == []


@st.composite
def support_stacks(draw):
    """(q, width, observables) mixing unit observables that share columns,
    scaled unit rows, chains whose rows turn unit one peel after another,
    dense rows, zero rows, observables with no support or no rows, and the
    same observable twice."""
    q = draw(st.sampled_from((2, 101, 2**31 - 1)))
    n = draw(st.integers(1, 8))
    scale = st.integers(1, q - 1)
    column = st.integers(0, n - 1)
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("unit", "chain", "mixed", "zero", "empty", "again")))
        if kind == "again" and blocks:
            blocks.append(blocks[draw(st.integers(0, len(blocks) - 1))])
            continue
        rows = draw(st.integers(1, 4))
        data = np.zeros((0 if kind == "empty" else rows, n), dtype=np.int64)
        for row in data if kind in ("unit", "chain", "mixed") else ():
            if kind == "unit" or (kind == "mixed" and draw(st.booleans())):
                row[draw(column)] = draw(scale)
            elif kind == "chain":
                j = draw(column)  # e_j + e_(j+1): unit once e_j is peeled
                row[[j, (j + 1) % n]] = [draw(scale), draw(scale)]
            elif draw(st.booleans()):
                row[:] = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        blocks.append(data)
    return q, n, blocks


@settings(max_examples=100, deadline=None)
@given(support_stacks())
def test_support_peel_matches_dense_rank(case):
    q, n, blocks = case
    field = PrimeField(q)
    lay = single_segment_layout(field, n)
    made = {}
    obs = [made.setdefault(id(b), LinearObservable(f"o{len(made)}", Matrix(field, b), lay))
           for b in blocks]
    cache = {}  # shared by every sub-stack, so remainders recur in new stacks
    for size in range(1, len(obs) + 1):
        for stack in itertools.combinations(obs, size):
            plain = plain_rank(field, np.vstack([o.matrix.data for o in stack]))
            assert _stacked_rank(stack, lay, None) == plain
            assert _stacked_rank(stack, lay, cache) == plain
            assert _stacked_rank(stack[::-1], lay, cache) == plain


def test_remainder_memo_ranks_a_shared_remainder_once(monkeypatch):
    # Both stacks peel column 3 (e3 and 5*e3 under different labels) and
    # leave the same three rows of M over columns 0..2, whose columns all
    # have three nonzeros, so no singleton or merge step applies.
    field = PrimeField(101)
    lay = single_segment_layout(field, 4)
    m = LinearObservable("M", Matrix(field, [[1, 2, 3, 4], [1, 1, 1, 1], [2, 3, 5, 7]]), lay)
    e3 = LinearObservable("e3", Matrix(field, [[0, 0, 0, 1]]), lay)
    five_e3 = LinearObservable("5e3", Matrix(field, [[0, 0, 0, 5]]), lay)
    shapes = count_remainders(monkeypatch)
    cache = {}
    assert entropy([m, e3], cache=cache) == 4
    assert entropy([five_e3, m], cache=cache) == 4
    assert shapes == [(3, 3)]
    assert entropy([m, five_e3]) == 4  # no cache, no memo
    assert shapes == [(3, 3)] * 2
    # The same rows over other columns are another remainder: without
    # column 0, F's rows are proportional.
    e0 = LinearObservable("e0", Matrix(field, [[1, 0, 0, 0]]), lay)
    flat = LinearObservable("F", Matrix(field, [[1, 1, 1, 1], [1, 2, 2, 2], [1, 3, 3, 3]]), lay)
    assert entropy([flat, e3], cache=cache) == 1 + 2
    assert entropy([flat, e0], cache=cache) == 1 + 1
    assert shapes == [(3, 3)] * 4


def test_remainder_memo_ranks_a_different_observable_under_a_known_label(monkeypatch):
    # Dense rows: the remainder survives the peel and is memoized. Over
    # columns 0..2, M1's rows are independent and M2's third row is the
    # sum of the other two.
    field = PrimeField(101)
    lay = single_segment_layout(field, 4)
    m1 = LinearObservable("M", Matrix(field, [[1, 2, 3, 4], [1, 1, 1, 1], [2, 3, 5, 7]]), lay)
    m2 = LinearObservable("M", Matrix(field, [[1, 2, 3, 4], [1, 1, 1, 1], [2, 3, 4, 9]]), lay)
    e3 = LinearObservable("e3", Matrix(field, [[0, 0, 0, 1]]), lay)
    five_e3 = LinearObservable("5e3", Matrix(field, [[0, 0, 0, 5]]), lay)
    shapes = count_remainders(monkeypatch)
    cache = {}
    assert entropy([m1, e3], cache=cache) == 1 + 3
    # The remainders have the same label, rows and columns, but M2 is
    # another observable: it gets an entry and a rank call of its own.
    assert entropy([m2, five_e3], cache=cache) == 1 + 2
    assert shapes == [(3, 3)] * 2
    assert entropy([m1, five_e3], cache=cache) == 1 + 3  # M1's entry
    assert shapes == [(3, 3)] * 2


# Remainders below the merge gate skip the merges, so these cases are
# tiled until what the singleton peel leaves reaches _MERGE_MIN on each
# side: copies of a small pattern with every row and column scaled, which
# keeps each cancellation in it. The comments describe q > 2; at q = 2 some
# entries vanish and the steps differ.

MERGE_PATTERNS = {
    # A ring of two-entry rows: a chain of weight-2 columns. The rounds
    # shrink it from both ends, a target that is also a pivot waits a round,
    # and at q > 2 the last merge leaves a unit row.
    "ring": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
             [1, 0, 0, 0, 1]],
    # Three denser pivots merge into one target in one round.
    "star": [[1, 1, 1, 0, 0, 0, 0, 0], [1, 0, 0, 1, 1, 1, 1, 0], [0, 1, 0, 0, 1, 2, 3, 1],
             [0, 0, 1, 1, 0, 4, 5, 1]],
    # The target is the pivots' sum, as the total is the messages' sum in
    # the recovery stacks (their key parts sum to zero): one round zeroes it.
    "zero-sum": [[1, 1, 1, 0, 0, 0, 0], [1, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 2, 3, 4],
                 [0, 0, 1, -2, -3, -4, -5]],
    # Two rows share two weight-2 columns, which another pivot rule would
    # merge both ways (p -> t, t -> p). The columns are proportional, so
    # one merge clears both and leaves a second weight-1 column.
    "shared": [[1, 2, 1, 1, 0, 0], [3, 6, 1, 0, 1, 0], [0, 0, 1, 1, 1, 1],
               [0, 0, 0, 1, 1, 2]],
    # The same, not proportional: the merge leaves the second column to both.
    "crossed": [[1, 2, 1, 1, 0, 0], [3, 5, 1, 0, 1, 0], [0, 0, 1, 1, 1, 1],
                [0, 0, 0, 1, 1, 2]],
    # Both merges leave their target a unit row on column 2.
    "unit": [[1, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]],
}


def peeled_shape(a):
    """The shape of what the singleton peel leaves of ``a``."""
    r, c = np.nonzero(a)
    r, c, _ = _peel(r, c, a[r, c], np.zeros(a.shape[1], dtype=bool),
                    np.zeros(a.shape[0], dtype=bool))
    return np.unique(r).size, np.unique(c).size


def tiled(pattern, q, seed):
    """Block-diagonal copies of ``pattern`` until the peeled remainder
    reaches _MERGE_MIN on both sides, each row and column of each copy
    scaled by a nonzero, and rows and columns shuffled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    block = np.array(pattern, dtype=np.int64) % q
    # At q = 2 the peel clears some patterns whole; those tile as if unpeeled.
    copies = -(-_MERGE_MIN // (min(peeled_shape(block)) or min(block.shape)))
    m, n = block.shape
    a = np.zeros((copies * m, copies * n), dtype=np.int64)
    for i in range(copies):
        rows = rng.integers(1, q, size=(m, 1), dtype=np.int64)
        cols = rng.integers(1, q, size=(1, n), dtype=np.int64)
        a[i * m:(i + 1) * m, i * n:(i + 1) * n] = block * rows % q * cols % q
    return a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


def one_observable_rank(a, field):
    """``_stacked_rank`` of ``a`` as one observable."""
    lay = single_segment_layout(field, a.shape[1])
    return _stacked_rank([LinearObservable("A", Matrix(field, a), lay)], lay, None)


@pytest.mark.parametrize("q", (2, 101, 2**31 - 1))
@pytest.mark.parametrize("name", sorted(MERGE_PATTERNS))
def test_merges_match_dense_rank(monkeypatch, name, q):
    field = PrimeField(q)
    a = tiled(MERGE_PATTERNS[name], q, seed=q)
    assert peeled_shape(a) == (0, 0) or min(peeled_shape(a)) >= _MERGE_MIN
    plain = plain_rank(field, a)
    shapes = count_remainders(monkeypatch)
    assert one_observable_rank(a, field) == plain
    assert shapes == []  # peeled whole: nothing reaches the kernel


def test_a_merge_round_that_leaves_nothing_to_peel_raises(monkeypatch):
    # A merge round that changes nothing would be repeated forever: the
    # loop must stop after the first one instead of calling _merge again.
    calls = []

    def stalled(r, c, v, q, width):
        if calls:
            raise AssertionError("_merge called again after a round that marked nothing")
        calls.append(q)
        return r, c, v

    monkeypatch.setattr(dsagg.infocalc, "_merge", stalled)
    a = tiled(MERGE_PATTERNS["ring"], 101, seed=101)
    assert min(peeled_shape(a)) >= _MERGE_MIN
    with pytest.raises(RuntimeError, match="nothing for the peel to mark"):
        one_observable_rank(a, PrimeField(101))
    assert calls == [101]


def scaled_ring(n, q, seed):
    """n rows of two scaled nonzeros on columns i and i + 1 mod n: every row
    and column holds two, so the singleton peel leaves the whole n x n."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    a[i, i] = rng.integers(1, q, size=n)
    a[i, (i + 1) % n] = rng.integers(1, q, size=n)
    return a


def test_merges_start_at_the_gate(monkeypatch):
    # One row under the gate the ring reaches the kernel unmerged; at the
    # gate the merge rounds shrink it from its ends and peel it whole.
    field = PrimeField(101)
    shapes = count_remainders(monkeypatch)
    below = scaled_ring(_MERGE_MIN - 1, 101, seed=1)
    assert peeled_shape(below) == below.shape
    assert one_observable_rank(below, field) == plain_rank(field, below)
    assert shapes == [below.shape]
    shapes.clear()
    at = scaled_ring(_MERGE_MIN, 101, seed=1)
    assert peeled_shape(at) == at.shape
    assert one_observable_rank(at, field) == plain_rank(field, at)
    assert shapes == []


@st.composite
def merge_matrices(draw):
    """(q, matrix): rows of two or three scaled nonzeros, so weight-2 columns
    form chains, stars and cycles; scaled copies and sums of earlier rows;
    and up to two dense rows. A row of one nonzero could start a peel that
    unravels the rest; without them, what the peel leaves mostly reaches
    _MERGE_MIN on each side, as it must for the merges to run, and is
    mostly below the kernel's recursion cutoff."""
    q = draw(st.sampled_from((2, 101, 2**31 - 1)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    n = 4 * _MERGE_MIN // 3 + draw(st.integers(0, 24))
    m = n + _MERGE_MIN // 2 + draw(st.integers(0, 24))
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        kind = rng.choice(["sparse"] * 8 + ["sum", "copy"]) if i else "sparse"
        if kind == "sparse":
            cols = rng.choice(n, size=rng.choice([2, 2, 3]), replace=False)
            a[i, cols] = rng.integers(1, q, size=cols.size)
        else:
            picked = rng.choice(i, size=1 if kind == "copy" else 2)
            a[i] = a[picked].sum(axis=0) * rng.integers(1, q) % q
    a[rng.choice(m, size=draw(st.integers(0, 2)), replace=False)] = rng.integers(0, q, size=n)
    return q, a


@settings(max_examples=60, deadline=None)
@given(merge_matrices())
def test_merged_rank_matches_dense_rank(case):
    q, a = case
    assume(min(peeled_shape(a)) >= _MERGE_MIN)
    field = PrimeField(q)
    assert one_observable_rank(a, field) == plain_rank(field, a)


@pytest.fixture(scope="module")
def wide_precoder():
    return build_precoder(SchemeParams(K=8, T=0, G=4, q=101), seed=0)


def test_every_recovery_stack_matches_plain_elimination(monkeypatch, wide_precoder):
    # (8,0,4) recovery remainders are above the merge gate: this runs the merges.
    verdicts = []

    def checked(obs, layout, cache):
        rank = _stacked_rank(obs, layout, cache)
        plain = plain_rank(layout.field, np.vstack([o.matrix.data for o in obs]))
        verdicts.append(rank == plain)
        return rank

    monkeypatch.setattr(dsagg.infocalc, "_stacked_rank", checked)
    assert all(c.ok for c in audit_recovery(wide_precoder))
    assert len(verdicts) == 16 and all(verdicts)


@pytest.mark.parametrize("zero_sum", [True, False])
def test_merged_security_stacks_match_plain_elimination(monkeypatch, zero_sum):
    # (8,2,3) q=3 seed 0 fails its certificate. Its [X_S; sum W; W_D; Z_D]
    # stacks leave remainders of 60 to 80 rows over 90 to 210 columns,
    # between the merge gate and the kernel's recursion cutoff. Once W_D and
    # Z_D are peeled, each surviving message's input column holds its row
    # and the total's, so the merges run and peel the stack whole, unless
    # the perturbed group's key survives: its sum over the messages is not
    # zero, and is left to the kernel. Checking every stack takes seconds
    # per draw, so three coalitions of each size are sampled.
    params = SchemeParams(K=8, T=2, G=3, q=3)
    pre = random_precoder(params, seed=0)
    assert not rank_certificate_ok(pre)
    if not zero_sum:
        blocks = pre.blocks.copy()
        blocks[params.group_index((2, 5, 7)), 0] += 1  # user 2's block only
        pre = Precoder(params, blocks)
    assert pre.zero_sum_ok() == zero_sum
    rounds = []
    plain_merge = dsagg.infocalc._merge

    def counted(*args):
        merged = plain_merge(*args)
        rounds.append(merged is not None)
        return merged

    monkeypatch.setattr(dsagg.infocalc, "_merge", counted)
    shapes = count_remainders(monkeypatch)
    ctx = AuditContext(pre)
    rng = np.random.Generator(np.random.PCG64(0))
    left = []  # per coalition: whether the perturbed key survives, and a + view's kernel calls
    for size in range(1, params.T + 2):
        coalitions = list(itertools.combinations(params.users, size))
        for i in rng.choice(len(coalitions), size=3, replace=False):
            a, b, view = ctx.security_terms(coalitions[i])
            for stack in (a + view, b + view, a + b + view, view):
                plain = plain_rank(params.field, np.vstack([o.matrix.data for o in stack]))
                assert _stacked_rank(stack, ctx.layout, ctx.cache) == plain
            shapes.clear()
            _stacked_rank(a + view, ctx.layout, None)
            left.append((not zero_sum and not {2, 5, 7} & set(coalitions[i]), len(shapes)))
    assert any(rounds)
    assert left == [(survives, int(survives)) for survives, _ in left]
    assert any(survives for survives, _ in left) == (not zero_sum)


def test_recovery_makes_no_rank_call(monkeypatch, wide_precoder):
    # Each message owns its input column, and merged into the total's rows
    # it clears them: the recovery phase is peeled whole.
    shapes = count_remainders(monkeypatch)
    audit_recovery(wide_precoder)
    assert shapes == []
    assert audit(wide_precoder).all_ok
    assert len(shapes) <= 64


def reference_merge(r, c, v, q, width):
    """``_merge`` as first written, kept as the reference: each round sorts
    every nonzero of the stack together with all the fill-in, and inverts
    each pivot with ``pow``."""
    row_w = np.bincount(r)
    pair = np.flatnonzero(np.bincount(c)[c] == 2)
    if pair.size == 0:
        return None
    pair = pair[np.argsort(c[pair], kind="stable")]
    first, last = pair[0::2], pair[1::2]
    denser = row_w[r[first]] >= row_w[r[last]]
    piv, tgt = np.where(denser, first, last), np.where(denser, last, first)
    _, once = np.unique(r[piv], return_index=True)
    piv, tgt = piv[once], tgt[once]
    free = ~np.isin(r[tgt], r[piv])
    piv, tgt = piv[free], tgt[free]
    coef = v[tgt] * np.array([pow(int(x), -1, q) for x in v[piv]], dtype=np.int64) % q
    size = row_w[r[piv]]
    src = np.repeat((np.cumsum(row_w) - row_w)[r[piv]] - (np.cumsum(size) - size), size)
    src += np.arange(src.size)
    key = np.concatenate([r * width + c, np.repeat(r[tgt], size) * width + c[src]])
    val = np.concatenate([v, -(np.repeat(coef, size) * v[src] % q)])
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    key, val = key[starts], np.add.reduceat(val, starts) % q
    key, val = key[val != 0], val[val != 0]
    return key // width, key % width, val


def same_merge(got, expected):
    """Whether two merge rounds returned the same int64 (r, c, v)."""
    if got is None or expected is None:
        return got is expected
    return all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(got, expected))


def check_merges(monkeypatch):
    """Run every merge round against ``reference_merge`` as well; returns
    one verdict per round."""
    verdicts = []
    merge = dsagg.infocalc._merge

    def checked(r, c, v, q, width):
        got = merge(r, c, v, q, width)
        verdicts.append(same_merge(got, reference_merge(r, c, v, q, width)))
        return got

    monkeypatch.setattr(dsagg.infocalc, "_merge", checked)
    return verdicts


@settings(max_examples=60, deadline=None)
@given(merge_matrices(), st.sampled_from((1, 7, 2**16)))
def test_merge_rounds_equal_the_full_sort_reference(case, piece):
    # Every round of a drawn remainder, in pieces of one target row, of a
    # few, and of all of them.
    q, a = case
    r, c = np.nonzero(a)
    peeled, dead = np.zeros(a.shape[1], dtype=bool), np.zeros(a.shape[0], dtype=bool)
    r, c, v = _peel(r, c, a[r, c], peeled, dead)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsagg.infocalc, "_PIECE", piece)
        while r.size:
            expected = reference_merge(r, c, v, q, a.shape[1])
            assert same_merge(_merge(r, c, v, q, a.shape[1]), expected)
            if expected is None:
                break
            r, c, v = _peel(*expected, peeled, dead)


@pytest.fixture(scope="module")
def k10_precoder():
    return random_precoder(SchemeParams(K=10, T=0, G=4, q=101), 0)


def test_recovery_merges_equal_the_full_sort_reference(monkeypatch, k10_precoder):
    # Each (10,0,4) recovery stack folds 1,134 message rows into the total's
    # 126 in one round of several pieces, which leaves the total's rows
    # empty at the front of the stack.
    verdicts = check_merges(monkeypatch)
    assert all(c.ok for c in audit_recovery(k10_precoder))
    assert len(verdicts) == 10 and all(verdicts)


def test_security_merges_equal_the_full_sort_reference(monkeypatch):
    # At (8,2,3) the total's rows come after the messages, and every stack
    # merges in one piece.
    verdicts = check_merges(monkeypatch)
    assert all(c.ok for c in audit_security(build_precoder(SchemeParams(8, 2, 3, q=101), seed=0)))
    assert len(verdicts) == 184 and all(verdicts)


def test_wide_recovery_holds_a_bounded_working_set(k10_precoder):
    # After the peel a (10,0,4) recovery stack holds about 12 MB of
    # nonzeros. Stacking them before the peel and sorting a round's fill-in
    # with the whole stack took the phase 61 MB above its context; it takes
    # about 17 MB now.
    ctx = AuditContext(k10_precoder)
    tracemalloc.start()
    try:
        assert all(c.ok for c in audit_recovery(ctx))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 10**6


def bumped(pre):
    """``pre`` with one coefficient of user 1's block for its first group
    raised by one, so it is no longer zero-sum."""
    group = tuple(range(1, pre.params.G + 1))
    block = pre.block(1, group).data.copy()
    block[0, 0] = (block[0, 0] + 1) % pre.params.q
    return pre.replace_block(1, group, Matrix(pre.params.field, block))


def test_damaged_security_rebuilds_rows_as_the_reference(monkeypatch):
    # A zero-sum precoder's merges empty the total's rows, so every round
    # returns views. With one coefficient bumped, 25 of the 184 rounds of
    # the (8,2,3) security phase leave nonzeros in their targets' rows and
    # rebuild the stack: new arrays, sharing no memory with their input.
    pre = bumped(random_precoder(SchemeParams(8, 2, 3, q=101), 0))
    merge = dsagg.infocalc._merge
    rounds = []

    def checked(r, c, v, q, width):
        got = merge(r, c, v, q, width)
        rebuilt = got is not None and not any(
            np.may_share_memory(a, b) for a in got for b in (r, c, v))
        rounds.append((same_merge(got, reference_merge(r, c, v, q, width)), rebuilt))
        return got

    monkeypatch.setattr(dsagg.infocalc, "_merge", checked)
    assert not all(c.ok for c in audit_security(pre))
    assert len(rounds) == 184 and all(same for same, _ in rounds)
    assert sum(rebuilt for _, rebuilt in rounds) == 25


def test_damaged_wide_recovery_holds_a_bounded_working_set(k10_precoder):
    # Six of the ten (10,0,4) recovery rounds of a damaged precoder rebuild
    # their rows. Inserting the new nonzeros one array at a time peaks near
    # 29 MB; the slot fill it replaced, 30 MB.
    ctx = AuditContext(bumped(k10_precoder))
    tracemalloc.start()
    try:
        assert not all(c.ok for c in audit_recovery(ctx))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 10**6


def test_stacks_in_small_pieces_match_plain_elimination(monkeypatch, wide_precoder):
    # With pieces of 256 nonzeros every (8,0,4) stack is wide: it is built
    # without the nonzeros on its unit columns, and each merge round sums
    # its fill-in in many pieces.
    monkeypatch.setattr(dsagg.infocalc, "_PIECE", 2**8)
    verdicts = check_merges(monkeypatch)
    ctx = AuditContext(wide_precoder)
    a, b, view = ctx.security_terms((3,))
    for stack in ([ctx.total] + ctx.recovery_view(1), [ctx.total] + ctx.recovery_view(8),
                  a + view, b + view, a + b + view):
        plain = plain_rank(ctx.layout.field, np.vstack([o.matrix.data for o in stack]))
        assert _stacked_rank(stack, ctx.layout, ctx.cache) == plain
    assert len(verdicts) == 4 and all(verdicts)


@pytest.mark.parametrize("q", (2, 3, 13, 101))
def test_pivot_inverses_match_pow_for_every_unit(q):
    x = np.arange(1, q, dtype=np.int64)
    expected = [pow(int(a), -1, q) for a in x]
    assert _fermat_inverses(x, q).tolist() == expected


def test_pivot_inverses_match_pow_at_a_word_size_prime():
    q = 2**31 - 1
    x = np.random.Generator(np.random.PCG64(0)).integers(1, q, size=1000, dtype=np.int64)
    assert _fermat_inverses(np.r_[1, q - 1, x], q).tolist() == [pow(int(a), -1, q) for a in np.r_[1, q - 1, x]]


def test_whole_audit_work_is_pinned(monkeypatch):
    # Rank calls and full-stack cache misses of one whole audit, build seed
    # 0: a cache or memo hit lost shows here as more of either.
    expected = {(7, 3, 3): (193, 722), (8, 2, 3): (148, 849), (8, 0, 4): (64, 257)}
    precoders = {t: build_precoder(SchemeParams(*t, q=101), seed=0) for t in expected}
    shapes, sizes = count_remainders(monkeypatch), count_stacks(monkeypatch)
    for triple, pre in precoders.items():
        shapes.clear()
        sizes.clear()
        assert audit(pre).all_ok
        assert (len(shapes), len(sizes)) == expected[triple], triple


def test_a_whole_audit_compares_no_layouts(monkeypatch):
    # The context's messages share its layout object with its other
    # observables, so _common_layout compares no two layouts by value. When
    # each message had a layout of its own, a (7,3,3) and an (8,2,3) audit
    # made 4,523 such comparisons.
    precoders = [build_precoder(SchemeParams(*t, q=101), seed=0) for t in ((7, 3, 3), (8, 2, 3))]
    calls = []
    equal = SourceLayout.__eq__

    def counted(self, other):
        calls.append(other)
        return equal(self, other)

    monkeypatch.setattr(SourceLayout, "__eq__", counted)
    for pre in precoders:
        assert audit(pre).all_ok
    assert calls == []
    ctx = AuditContext(precoders[0])
    assert all(ctx.messages[k].layout is ctx.layout for k in ctx.messages)
    assert ctx.messages[3] == observe_message(precoders[0], 3)


def test_every_audit_stack_matches_plain_elimination(monkeypatch):
    pre = build_precoder(SchemeParams(K=6, T=1, G=2, q=101), seed=0)
    verdicts = []

    def checked(obs, layout, cache):
        rank = _stacked_rank(obs, layout, cache)
        if obs:
            plain = plain_rank(layout.field, np.vstack([o.matrix.data for o in obs]))
            verdicts.append(rank == plain)
        return rank

    monkeypatch.setattr(dsagg.infocalc, "_stacked_rank", checked)
    assert audit(pre).all_ok
    assert verdicts and all(verdicts)


def test_cache_ranks_a_different_observable_under_a_known_label(monkeypatch):
    lay = layout_for(fixture_example1())
    a1 = LinearObservable("A", observe_input(lay, 1).matrix, lay)
    a2 = LinearObservable("A", Matrix.zeros(lay.field, 1, lay.N), lay)
    stacks = count_stacks(monkeypatch)
    cache = {}
    assert entropy([a1], cache=cache) == 1
    assert entropy([a2], cache=cache) == 0
    assert entropy([a1], cache=cache) == 1  # a hit on A1's entry
    assert stacks == [1, 1]
    # An equal observable built afresh is another object, ranked afresh.
    assert entropy([LinearObservable("A", observe_input(lay, 1).matrix, lay)],
                   cache=cache) == 1
    assert stacks == [1, 1, 1]


def test_cache_ranks_two_different_observables_under_one_label(monkeypatch):
    lay = layout_for(fixture_example1())
    a1 = LinearObservable("A", observe_input(lay, 1).matrix, lay)
    a2 = LinearObservable("A", observe_input(lay, 2).matrix, lay)
    stacks = count_stacks(monkeypatch)
    cache = {}
    assert entropy([a1, a2], cache=cache) == 2
    assert entropy([a2, a1], cache=cache) == 2  # the same stack: a hit
    assert entropy([a1], cache=cache) == entropy([a2], cache=cache) == 1
    assert entropy([a1, a1], cache=cache) == 1
    assert stacks == [2, 1, 1, 2]


def test_cache_entries_hold_their_observables():
    # Entries are keyed by ids. Each round builds a fresh "A", ranks it
    # through one shared store and drops it; CPython soon hands a dropped
    # object's address, so its id, to a new one. Only because each entry
    # holds the observables its key names can no later "A" inherit an
    # earlier one's rank. The full-stack cache and the remainder memo are
    # checked apart, so that neither keeps the other's observables alive.
    field = PrimeField(3)
    lay = single_segment_layout(field, 4)
    e3 = LinearObservable("e3", Matrix(field, [[0, 0, 0, 1]]), lay)
    two_e3 = LinearObservable("2e3", Matrix(field, [[0, 0, 0, 2]]), lay)
    rng = np.random.default_rng(0)
    cache, memo = {}, {}
    memo_hits = 0
    for _ in range(200):
        data = rng.integers(1, 3, size=(int(rng.integers(1, 4)), 4))
        a = LinearObservable("A", Matrix(field, data), lay)
        alone = plain_rank(field, data)
        assert _stacked_rank([a], lay, cache) == alone
        assert _stacked_rank([a], lay, cache) == alone  # a full-stack hit
        del a
    for _ in range(200):
        # Column 3 peels, leaving A over columns 0..2: memoized from two
        # rows on, then hit by the stack whose unit row is 2*e3.
        data = rng.integers(1, 3, size=(int(rng.integers(1, 4)), 4))
        a = LinearObservable("A", Matrix(field, data), lay)
        with_e3 = plain_rank(field, np.vstack([data, e3.matrix.data]))
        before = len(memo)
        assert _peeled_rank([a, e3], lay, memo) == with_e3
        entries = len(memo)
        assert _peeled_rank([a, two_e3], lay, memo) == with_e3
        assert len(memo) == entries  # so a hit, if the first call added one
        memo_hits += entries > before
        del a
    assert memo_hits > 100


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def three_user_instance(q):
    params = SchemeParams(K=3, T=0, G=2, q=q)
    pre = fixture_example1() if q == 2 else reference_precoder(params)
    lay = layout_for(pre)
    return params, pre, lay


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_agrees_on_security_and_recovery_queries(q):
    params, pre, lay = three_user_instance(q)
    msgs = {k: observe_message(pre, k) for k in params.users}
    ins = {k: observe_input(lay, k) for k in params.users}
    total = observe_total(lay)
    for k in params.users:
        others = [u for u in params.users if u != k]
        view = [total, ins[k], observe_key_bundle(lay, k)]
        a = [msgs[u] for u in others]
        b = [ins[u] for u in others]
        ranked = mutual_information(a, b, view)
        assert brute_force_mi(a, b, view) == Fraction(ranked)

        cond = a + [ins[k], observe_key_bundle(lay, k)]
        residual = conditional_entropy([total], cond)
        brute = brute_force_entropy([total] + cond) - brute_force_entropy(cond)
        assert brute == Fraction(residual)


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_agrees_on_random_queries(q):
    _, pre, lay = three_user_instance(q)
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(5):
        a = random_observables(lay, rng, 1)
        b = random_observables(lay, rng, 1)
        c = random_observables(lay, rng, 1)
        assert brute_force_mi(a, b, c) == Fraction(mutual_information(a, b, c))
        assert brute_force_entropy(a) == Fraction(entropy(a))


@pytest.mark.parametrize("q, rows", [(2, 70), (3, 45)])
def test_oracle_agrees_on_stacks_whose_rows_pass_2_62(q, rows):
    # q**rows > 2**64, so the oracle's codes must start a new word part way
    # through. W1 comes first and no other row reads it: at q=2 a code that
    # wrapped would lose W1's digit and merge values that differ in it.
    _, pre, lay = three_user_instance(q)
    rng = np.random.Generator(np.random.PCG64(rows))
    rest = random_matrix(rows, lay.N, lay.field, rng=rng).data.copy()
    rest[:, lay.input_slice(1)] = 0
    a = [observe_input(lay, 1)]
    b = [LinearObservable("b", Matrix(lay.field, rest[: rows // 2]), lay)]
    c = [LinearObservable("c", Matrix(lay.field, rest[rows // 2 :]), lay)]
    assert brute_force_entropy(a + b + c) == Fraction(entropy(a + b + c))
    assert brute_force_mi(a, b, c) == Fraction(mutual_information(a, b, c))


def test_oracle_on_unmasked_scheme_sees_full_leak():
    # With all-zero coefficient blocks messages go out unmasked, so a
    # received message reveals its input completely.
    params = SchemeParams(K=3, T=0, G=2, q=2)
    pre = zero_precoder(params)
    lay = layout_for(pre)
    x2 = [observe_message(pre, 2)]
    w2 = [observe_input(lay, 2)]
    assert mutual_information(x2, w2) == 1
    assert brute_force_mi(x2, w2) == 1


def test_oracle_entropy_of_message():
    _, pre, _ = three_user_instance(2)
    x1 = [observe_message(pre, 1)]
    assert entropy(x1) == 1
    assert brute_force_entropy(x1) == 1


def test_budget_enforced():
    pre = fixture_example2()  # q**N = 5**35, far over any budget
    lay = layout_for(pre)
    with pytest.raises(BudgetExceededError):
        brute_force_entropy([observe_input(lay, 1)])


def test_count_that_is_not_a_power_of_q_raises(monkeypatch):
    # No linear observable of a uniform source is seen 3 times at q=2; both
    # oracles must refuse such a tally rather than read a fraction from it.
    _, pre, lay = three_user_instance(2)
    monkeypatch.setattr(dsagg.infocalc, "_tally", lambda layout, stacked, selections:
                        ([[np.array([1]), np.array([3])]] * len(selections), 4))
    with pytest.raises(NonPowerOfQSupportError):
        brute_force_entropy([observe_message(pre, 1)])
    with pytest.raises(NonPowerOfQSupportError):
        brute_force_mi([observe_message(pre, 1)], [observe_input(lay, 1)])


def test_oracle_tallies_marginals_without_storing_atoms():
    # 2**18 points: a row per distinct observed tuple takes about 178 MB, the
    # marginals' tallies far less.
    ctx = AuditContext(reference_precoder(SchemeParams(K=3, T=0, G=2, q=2, m=3)))
    terms = ctx.security_terms((1,))
    tracemalloc.start()
    try:
        mi = brute_force_mi(*terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mi == 0
    assert peak < 100 * 2**20


def test_oracle_tally_holds_distinct_values_not_a_tally_per_chunk():
    # 2**20 points, on which the joint marginal is one-to-one and the ac, bc
    # and c marginals take 2**18, 2**18 and 2**16 values. Every chunk of
    # 2**16 points sees 2**16 values of each, so keeping each chunk's
    # tallies until the walk ends peaked at 145 MB; merging them as they
    # fill holds the distinct values alone, and peaks near 67 MB, most of
    # it the walk's own chunk of values.
    lay = SourceLayout(SchemeParams(K=4, T=0, G=2, q=2), 2, 2)
    data = np.random.Generator(np.random.PCG64(5)).integers(0, 2, size=(lay.N, lay.N))
    a, b, c = ([LinearObservable(tag, Matrix(lay.field, data[rows]), lay)]
               for tag, rows in (("a", slice(0, 2)), ("b", slice(2, 4)), ("c", slice(4, None))))
    assert 2**lay.N == 2**20 and entropy(a + b + c) == lay.N
    tracemalloc.start()
    try:
        mi = brute_force_mi(a, b, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mi == mutual_information(a, b, c) == 0
    assert peak < 100 * 2**20


# (q, K, G, L, L_S), every one with q**N within DEFAULT_BUDGET
ORACLE_SHAPES = ((2, 3, 2, 2, 2), (3, 3, 2, 1, 1), (5, 3, 2, 1, 1), (2, 4, 2, 1, 1))


@st.composite
def oracle_queries(draw):
    """(a, b, c) drawn from one layout's inputs, key bundles, total and
    random dense or sparse observables; a and b are never empty."""
    q, K, G, L, L_S = draw(st.sampled_from(ORACLE_SHAPES))
    lay = SourceLayout(SchemeParams(K=K, T=0, G=G, q=q), L, L_S)
    pool = [observe_total(lay)]
    pool += [observe_input(lay, k) for k in range(1, K + 1)]
    pool += [observe_key_bundle(lay, k) for k in range(1, K + 1)]
    for i in range(draw(st.integers(0, 3))):
        rows = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                rows.append(draw(st.lists(st.integers(0, q - 1),
                                          min_size=lay.N, max_size=lay.N)))
            else:
                row = [0] * lay.N
                for j in draw(st.lists(st.integers(0, lay.N - 1), min_size=1, max_size=2)):
                    row[j] = draw(st.integers(1, q - 1))
                rows.append(row)
        pool.append(LinearObservable(f"R{i}", Matrix(lay.field, rows), lay))
    pick = st.sampled_from(pool)
    return (lay, draw(st.lists(pick, min_size=1, max_size=3)),
            draw(st.lists(pick, min_size=1, max_size=3)),
            draw(st.lists(pick, max_size=3)))


@settings(max_examples=50, deadline=None)
@given(oracle_queries())
def test_rank_calculus_matches_oracle_nonnegative_and_chains(query):
    lay, a, b, c = query
    assert lay.field.q ** lay.N <= DEFAULT_BUDGET
    cache = {}
    mi = mutual_information(a, b, c, cache=cache)
    assert mi >= 0
    assert Fraction(mi) == brute_force_mi(a, b, c)
    assert (mutual_information(a, b + c, cache=cache)
            == mutual_information(a, c, cache=cache) + mi)


# ---------------------------------------------------------------------------
# observables of one realization
# ---------------------------------------------------------------------------

def test_observables_match_encode_on_a_realization():
    pre = fixture_example2()
    params = pre.params
    lay = layout_for(pre)
    keys = sample_keys(pre, 4)
    rng = np.random.default_rng(8)
    w = rng.integers(0, 5, size=(5, 3))
    u = np.concatenate([w.ravel(), keys.vector])[:, None]  # inputs, then keys

    sent = encode(pre, pre.masks(keys), w)
    for k in params.users:
        assert np.array_equal(_safe_dot(observe_message(pre, k).matrix.data, u, 5)[:, 0],
                              sent[k - 1])
    assert np.array_equal(_safe_dot(observe_total(lay).matrix.data, u, 5)[:, 0],
                          w.sum(axis=0) % 5)


# ---------------------------------------------------------------------------
# stored form
# ---------------------------------------------------------------------------

def dense_observables(pre):
    """Every observe_* of ``pre`` as a dense (rows x N) array, built over the
    whole source: unit rows from np.eye, a message's key part from
    ``key_map`` over every group."""
    lay = layout_for(pre)
    p = pre.params

    def inp(k):
        data = np.zeros((lay.L, lay.N), dtype=np.int64)
        data[:, lay.input_slice(k)] = np.eye(lay.L, dtype=np.int64)
        return data

    out = {"sum(W)": sum(inp(k) for k in p.users)}
    for k in p.users:
        out[f"W{k}"] = inp(k)
        cols = lay.key_columns(np.flatnonzero((p.members == k).any(axis=1)))
        out[f"Z{k}"] = np.zeros((cols.size, lay.N), dtype=np.int64)
        out[f"Z{k}"][np.arange(cols.size), cols] = 1
        out[f"X{k}"] = inp(k)
        out[f"X{k}"][:, p.K * lay.L:] = pre.key_map([k], range(len(p.members)))
    return out


@pytest.mark.parametrize("pre", [
    fixture_example1(), fixture_example2(),
    zero_precoder(SchemeParams(K=5, T=1, G=2, q=5)),
    random_precoder(SchemeParams(K=6, T=1, G=3, q=101), 0),
    random_precoder(SchemeParams(K=5, T=1, G=2, q=7), 0, L=2, L_S=0),
    random_precoder(SchemeParams(K=5, T=1, G=2, q=2**31 - 1), 0, L=4, L_S=1),
], ids=["ex1", "ex2", "zero", "(6,1,3)", "keyless", "undersized"])
def test_observables_store_their_dense_matrices(pre):
    lay = layout_for(pre)
    made = [observe_total(lay)]
    for k in pre.params.users:
        made += [observe_input(lay, k), observe_key_bundle(lay, k), observe_message(pre, k)]
    dense = dense_observables(pre)
    assert sorted(o.label for o in made) == sorted(dense)
    for o in made:
        assert np.array_equal(o.matrix.data, dense[o.label]), o.label
        # Built from the dense matrix, it is the same observable.
        assert o == LinearObservable(o.label, Matrix(lay.field, dense[o.label]), lay)


def test_audit_context_holds_nonzeros_only():
    # Dense (10,0,4) observables took 210 MB; their nonzeros take about 26.
    tracemalloc.start()
    try:
        ctx = AuditContext(random_precoder(SchemeParams(K=10, T=0, G=4, q=101), 0))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.messages[1].rows == 126
    assert held < 48 * 2**20


def test_observables_hold_contiguous_rows_and_columns(wide_precoder):
    # np.nonzero returns its row and column arrays as strided views of one
    # (nnz, 2) buffer, so an observable keeping them held every column
    # index twice: the (8,0,4) context took 1.98 MB, and takes 1.51 MB.
    tracemalloc.start()
    try:
        ctx = AuditContext(wide_precoder)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    observables = [ctx.total, *ctx.messages.values(), *ctx.inputs.values(),
                   *ctx.bundles.values()]
    for o in observables:
        for arr in (o._r, o._c):
            assert arr.flags.c_contiguous and (arr.base is None or arr.base.ndim == 1), o.label
    assert held < 1.75 * 10**6
