from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsagg.infocalc
from dsagg.auditor import audit
from dsagg.gf import PrimeField
from dsagg.infocalc import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LayoutMismatchError,
    LinearObservable,
    SourceLayout,
    _peel_unit_rows,
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
    source_vector,
)
from dsagg.linalg import Matrix, random_matrix
from dsagg.scheme import (
    Precoder,
    SchemeParams,
    build_precoder,
    fixture_example1,
    fixture_example2,
    sample_keys,
)


def zero_precoder(params):
    shape = (len(params.groups), params.G, params.L, params.L_S)
    return Precoder(params, np.zeros(shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_layout_segments_cover_source():
    lay = layout_for(SchemeParams(K=5, T=1, G=2, q=5))
    assert lay.N == 5 * 3 + 10 * 2
    assert len(lay.segments) == 15
    assert sum(length for _, length in lay.segments) == lay.N
    assert lay.input_slice(1) == slice(0, 3)
    assert lay.key_slice((1, 2)) == slice(15, 17)
    assert lay.segments[0] == ("W1", 3)
    assert lay.segments[5] == ("S{1,2}", 2)
    keyless = SourceLayout(lay.params, 3, 0)
    assert keyless.key_slice((4, 5)) == slice(15, 15) and keyless.N == 15


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
                data[:, lay.key_slice(g)] = pre.block(u, g).data
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
    data[:, lay.key_slice((1, 2))] = np.eye(2, dtype=np.int64)
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
    plain = Matrix(field, np.vstack(blocks)).rank()
    assert _stacked_rank(obs, lay, None) == plain
    assert _stacked_rank(obs, lay, {}) == plain


def test_peel_follows_rows_that_become_unit():
    # e0, then e0+e1 once column 0 is gone, then e1+e2, then e2+e3.
    data = np.array([[0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]])
    peeled, rest = _peel_unit_rows(data)
    assert (peeled, rest.shape) == (4, (0, 0))

    # A message is a unit row on its input once its sender's keys are peeled.
    pre = fixture_example2()
    lay = layout_for(pre)
    stack = np.vstack([observe_key_bundle(lay, 1).matrix.data,
                       observe_message(pre, 1).matrix.data])
    peeled, rest = _peel_unit_rows(stack)
    assert peeled == Matrix(lay.field, stack).rank() == 8 + 3
    assert rest.shape[0] == 0


def test_every_audit_stack_matches_plain_elimination(monkeypatch):
    pre = build_precoder(SchemeParams(K=6, T=1, G=2, q=101), seed=0)
    verdicts = []

    def checked(obs, layout, cache):
        rank = _stacked_rank(obs, layout, cache)
        if obs:
            plain = Matrix(layout.field, np.vstack([o.matrix.data for o in obs])).rank()
            verdicts.append(rank == plain)
        return rank

    monkeypatch.setattr(dsagg.infocalc, "_stacked_rank", checked)
    assert audit(pre).all_ok
    assert verdicts and all(verdicts)


def test_cache_refuses_a_different_observable_under_a_known_label():
    lay = layout_for(fixture_example1())
    a1 = LinearObservable("A", observe_input(lay, 1).matrix, lay)
    a2 = LinearObservable("A", Matrix.zeros(lay.field, 1, lay.N), lay)
    cache = {}
    assert entropy([a1], cache=cache) == 1
    with pytest.raises(ValueError, match="'A'"):
        entropy([a2], cache=cache)
    assert entropy([a2]) == 0
    # An equal observable built afresh still reuses the cached rank.
    assert entropy([LinearObservable("A", observe_input(lay, 1).matrix, lay)],
                   cache=cache) == 1


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def three_user_instance(q):
    params = SchemeParams(K=3, T=0, G=2, q=q)
    if q == 2:
        pre = fixture_example1()
    else:
        from dsagg.scheme import reference_precoder

        pre = reference_precoder(params)
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
        brute_force_entropy([observe_input(lay, 1)], budget=2**20)


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
# realization packing
# ---------------------------------------------------------------------------

def test_source_vector_evaluates_observables():
    pre = fixture_example2()
    params = pre.params
    lay = layout_for(pre)
    keys = sample_keys(pre, 4)
    rng = np.random.default_rng(8)
    w = rng.integers(0, 5, size=(5, 3))
    u = source_vector(lay, w, keys)

    from dsagg.scheme import encode

    for k in params.users:
        obs = observe_message(pre, k)
        assert np.array_equal(obs.evaluate(u), encode(pre, keys, w[k - 1], k).payload)
    assert np.array_equal(observe_total(lay).evaluate(u), w.sum(axis=0) % 5)
