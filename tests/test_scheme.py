import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsagg.scheme
from dsagg.auditor import (audit, collusion_sets, expected_check_count, rank_certificate_ok,
                           rank_condition, submatrix_hhat)
from dsagg.infocalc import layout_for, observe_input, observe_key_bundle, observe_message
from dsagg.linalg import DimensionMismatchError, Matrix, _safe_dot
from dsagg.scheme import (
    ConstructionFailedError,
    GroupKeySet,
    InfeasibilityReason,
    InfeasibleSchemeError,
    ParamsOutOfModelError,
    Precoder,
    SchemeFormatError,
    SchemeParams,
    build_precoder,
    capacity,
    encode,
    fixture_example1,
    fixture_example2,
    load_scheme,
    optimal_group_size_report,
    random_precoder,
    recover,
    reference_precoder,
    sample_keys,
    save_scheme,
    scheme_from_text,
    scheme_to_text,
)


def feasible_triples(k_max):
    for K in range(3, k_max + 1):
        for T in range(0, K - 2):
            for G in range(2, K - T):
                yield K, T, G


# ---------------------------------------------------------------------------
# capacity region
# ---------------------------------------------------------------------------

def test_capacity_worked_examples():
    r = capacity(3, 0, 2)
    assert r.feasible and r.r_x_star == 1 and r.r_s_star == 1

    r = capacity(5, 1, 2)
    assert r.feasible
    assert r.r_s_star == Fraction(2, 3)
    assert r.r_z_star == Fraction(8, 3)
    assert r.r_z_sigma_star == Fraction(20, 3)

    r = capacity(4, 0, 1)
    assert not r.feasible
    assert r.infeasibility_reason is InfeasibilityReason.GROUP_SIZE_ONE

    r = capacity(5, 2, 3)  # G == K - T boundary
    assert not r.feasible
    assert r.infeasibility_reason is InfeasibilityReason.GROUP_TOO_LARGE


def test_capacity_out_of_model():
    for K, T, G in [(2, 0, 2), (3, 1, 2), (5, 3, 2), (4, -1, 2), (4, 0, 0), (4, 0, 5)]:
        with pytest.raises(ParamsOutOfModelError):
            capacity(K, T, G)


def test_capacity_formula_and_key_rate_relations():
    for K, T, G in feasible_triples(8):
        r = capacity(K, T, G)
        assert r.r_s_star == Fraction(K - T - 2, math.comb(K - T - 1, G))
        assert r.r_z_star == math.comb(K - 1, G - 1) * r.r_s_star
        assert r.r_z_sigma_star == math.comb(K, G) * r.r_s_star


def test_key_rate_monotone_in_collusion_bound():
    for K, T, G in feasible_triples(8):
        if capacity(K, min(T + 1, K - 3), G).feasible and T + 1 <= K - 3:
            assert capacity(K, T + 1, G).r_s_star >= capacity(K, T, G).r_s_star


def test_optimal_group_size():
    rep = optimal_group_size_report(20, 0)
    assert rep.best == 9
    assert rep.formula == 9
    assert rep.minimizers == (9, 10)  # binomial symmetry tie

    # formula hits the infeasible value 1; the feasible argmin is reported
    rep = optimal_group_size_report(5, 1)
    assert rep.formula == 1
    assert rep.best == 2
    assert rep.minimizers == (2,)
    assert capacity(5, 1, 2).r_s_star < capacity(5, 1, 3).r_s_star

    assert optimal_group_size_report(7, 0).best == 3
    assert optimal_group_size_report(4, 1).best == 2  # single feasible size

    with pytest.raises(ParamsOutOfModelError):
        optimal_group_size_report(4, 2)  # no feasible group size at all


# ---------------------------------------------------------------------------
# parameters and lengths
# ---------------------------------------------------------------------------

def test_derived_lengths_realize_the_optimal_rate():
    for K, T, G in feasible_triples(8):
        for m in (1, 3):
            p = SchemeParams(K=K, T=T, G=G, q=11, m=m)
            assert p.L == m * math.comb(K - T - 1, G)
            assert p.L_S == m * (K - T - 2)
            assert Fraction(p.L_S, p.L) == capacity(K, T, G).r_s_star


def test_lengths_undefined_when_infeasible():
    p = SchemeParams(K=4, T=0, G=1, q=5)
    assert not p.feasible
    with pytest.raises(InfeasibleSchemeError):
        p.L


def test_params_validation():
    with pytest.raises(ParamsOutOfModelError):
        SchemeParams(K=2, T=0, G=2, q=5)
    with pytest.raises(ValueError):
        SchemeParams(K=3, T=0, G=2, q=4)  # non-prime modulus
    with pytest.raises(ValueError):
        SchemeParams(K=3, T=0, G=2, q=5, m=0)


def test_groups_enumeration():
    assert SchemeParams(K=3, T=0, G=2, q=2).members.tolist() == [[1, 2], [1, 3], [2, 3]]
    assert len(SchemeParams(K=5, T=0, G=2, q=2).members) == 10


def test_library_refuses_an_oversized_precoder_before_enumerating_groups():
    # C(60, 30) is about 1.2e17 groups: drawing them used to run for
    # seconds before a MemoryError, or without end with no memory limit.
    # The 5.85 million groups of C(30, 8) pass a cap on the group count
    # alone, and building them as tuples used to take seconds and about 1 GB.
    params = SchemeParams(K=60, T=0, G=30, q=101)
    small = SchemeParams(K=6, T=1, G=2, q=101)
    wide = SchemeParams(K=30, T=0, G=8, q=101)
    for draw in (lambda: random_precoder(params, 0), lambda: params.members,
                 lambda: random_precoder(small, 0, L_S=10**6),  # the L_S it draws
                 lambda: wide.members, lambda: layout_for(wide).key_columns([0])):
        start = time.perf_counter()
        with pytest.raises(ParamsOutOfModelError) as info:
            draw()
        assert time.perf_counter() - start < 1.0
        assert "limit of" in str(info.value) and len(str(info.value)) < 200


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------

def test_fixture_example2_block_values():
    pre = fixture_example2()
    assert pre.block(1, (1, 2)).data[0].tolist() == [2, 3]
    assert pre.block(4, (4, 5)).data[2].tolist() == [2, 0]
    # higher-index member carries the negated block
    h = pre.block(1, (1, 2))
    assert pre.block(2, (1, 2)) == Matrix(pre.params.field, -h.data)
    # zero-sum per group
    assert pre.zero_sum_ok()
    total = pre.block(1, (1, 2)).data + pre.block(2, (1, 2)).data
    assert not (total % pre.params.q).any()
    # users outside a group carry the zero block
    assert not pre.block(3, (1, 2)).data.any()


def test_fixture_example1_signs():
    pre = fixture_example1()
    assert pre.params.q == 2
    assert pre.zero_sum_ok()
    for g in pre.params.members.tolist():
        assert pre.block(g[0], g).data.tolist() == [[1]]
        assert pre.block(g[1], g).data.tolist() == [[1]]  # -1 == 1 mod 2


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_sample_keys_counts_and_determinism():
    p3 = SchemeParams(K=3, T=0, G=2, q=5)
    assert sample_keys(reference_precoder(p3), 0).table.shape == (3, 1)

    pre = fixture_example2()
    keys = sample_keys(pre, 0)
    assert keys.table.shape == (10, 2)
    assert keys.vector.tolist() == keys.table.ravel().tolist()
    assert not keys.table.flags.writeable and not keys.vector.flags.writeable

    assert np.array_equal(keys.table, sample_keys(pre, 0).table)
    assert not np.array_equal(keys.table, sample_keys(pre, 1).table)


# ---------------------------------------------------------------------------
# encode / recover
# ---------------------------------------------------------------------------

def test_encode_three_user_example():
    # q=2, W_1=1, first key 1, second key 0: the mask flips the input bit.
    pre = fixture_example1()
    ks = GroupKeySet(pre.params, [[1], [0], [0]])  # keys of (1,2), (1,3), (2,3)
    assert encode(pre, pre.masks(ks), [[1], [0], [0]])[0].tolist() == [0]


def test_encode_with_zero_keys_is_identity():
    pre = fixture_example2()
    ks = GroupKeySet(pre.params, np.zeros((10, 2), dtype=np.int64))
    w = np.arange(15).reshape(5, 3) % 5
    assert encode(pre, pre.masks(ks), w).tolist() == w.tolist()


def test_encode_fixture_single_key_column():
    pre = fixture_example2()
    table = np.zeros((10, 2), dtype=np.int64)
    table[pre.params.group_index((1, 2))] = [1, 0]
    msgs = encode(pre, pre.masks(GroupKeySet(pre.params, table)),
                  np.zeros((5, 3), dtype=np.int64))
    assert msgs.tolist() == [[2, 4, 2], [3, 1, 3], [0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_encode_length_check():
    pre = fixture_example2()
    masks = pre.masks(sample_keys(pre, 0))
    fits = np.zeros((5, 3), dtype=np.int64)
    for bad in (np.zeros((5, 2)), np.zeros(3), np.zeros((4, 3)), np.zeros((6, 3))):
        for step in (encode, recover):
            with pytest.raises(DimensionMismatchError):
                step(pre, masks, bad)
            with pytest.raises(DimensionMismatchError):
                step(pre, bad, fits)


@pytest.mark.parametrize("k", [0, -1, 6, 99])
def test_user_outside_one_to_K_raises_key_error(k):
    # Indexing k - 1 used to wrap: user 0 was encoded with user 5's mask.
    pre = fixture_example2()
    with pytest.raises(KeyError, match=f"user {k} outside"):
        observe_key_bundle(layout_for(pre), k)
    with pytest.raises(KeyError, match=f"user {k} outside"):
        pre.block(k, (1, 2))
    with pytest.raises(KeyError, match=f"user {k} outside"):
        pre.key_map([k], [0])  # used to return zeros


@pytest.mark.parametrize("i", [-1, 10])
def test_group_id_outside_the_scheme_raises_key_error(i):
    # Ids used to wrap or run past the source: key_columns([-1]) gave user
    # 5's input columns [13, 14], key_columns([10]) gave [35, 36] with N=35,
    # and key_map([5], [-1]) the block of group (4, 5).
    pre = fixture_example2()
    for lookup in (layout_for(pre).key_columns, lambda ids: pre.key_map([5], ids)):
        with pytest.raises(KeyError, match=rf"group id {i} outside \[0\.\.9\]"):
            lookup([i])


def test_float_and_bool_group_ids_and_users_are_refused():
    # A cast to integers used to round them: key_columns([1.7]) and
    # key_columns([True]) gave group 1's columns [17, 18], and
    # key_map([5.9], [9]) equalled key_map([5], [9]). NumPy makes [True, 5]
    # an integer array, so key_map([True, 5], [9]) equalled key_map([1, 5], [9]).
    pre = fixture_example2()
    key_columns = layout_for(pre).key_columns
    # Nested ids were flattened: key_map([[1, 5]], [9]) equalled
    # key_map([1, 5], [9]) and key_columns([[1, 2]]) key_columns([1, 2]);
    # ragged ones raised a bare ValueError.
    for ids in ([1.7], [True], np.array([1.0]), [True, 2], (2, np.True_),
                [[1, 2]], [[0, 9]], np.array([[0], [9]]), [1, [2, 3]]):
        with pytest.raises(TypeError, match="group ids must be integers"):
            key_columns(ids)
        with pytest.raises(TypeError, match="group ids must be integers"):
            pre.key_map([5], ids)
    for users in ([5.9], [True], np.array([5.0]), [True, 5], [[5], [True]],
                  [[1, 5]], [1, [2, 3]], [[1], [2, 3]], np.array([[1, 5]])):
        with pytest.raises(TypeError, match="users must be integers"):
            pre.key_map(users, [9])
    # The single-user entry points used to skip that check: user_index(2.5)
    # gave 1.5, observe_key_bundle(layout, 2.5) had 0 rows, observe_input(
    # layout, True) was user 1's input, and replace_block took 2.0 and True.
    lay, block = layout_for(pre), pre.block(1, (1, 2))
    for k in (2.5, True, 2.0, np.float64(2)):
        for entry in (pre.params.user_index, lambda k: observe_input(lay, k),
                      lambda k: observe_key_bundle(lay, k), lambda k: observe_message(pre, k),
                      lambda k: pre.replace_block(k, (1, 2), block)):
            with pytest.raises(TypeError, match="users must be integers"):
                entry(k)
    # Group lookups cast their users the same way: group_index((True, 2)),
    # group_index((1.0, 2.0)) and group_index([np.float64(1), 2]) gave group
    # (1, 2), block(1, (True, 2)) was user 1's block for it, and
    # replace_block(1, (True, 2.0), block) swapped it.
    for group in ((True, 2), (1.0, 2.0), [np.float64(1), 2], (True, 2.0)):
        for entry in (pre.params.group_index, lambda g: pre.block(1, g),
                      lambda g: pre.replace_block(1, g, block)):
            with pytest.raises(TypeError, match="users must be integers"):
                entry(group)
    # Integer lists, ranges and integer arrays still pass, empty ones too.
    assert key_columns([1]).tolist() == key_columns(range(1, 2)).tolist() == [17, 18]
    assert np.array_equal(key_columns(np.array([1], dtype=np.uint8)), key_columns([1]))
    assert np.array_equal(pre.key_map(np.array([5]), [9]), pre.key_map([5], range(9, 10)))
    assert key_columns([]).size == 0 and pre.key_map([], []).shape == (0, 0)
    assert np.array_equal(pre.key_map(5, 9), pre.key_map([5], [9]))
    assert pre.params.user_index(np.int64(2)) == 1
    assert observe_input(lay, np.int64(2)) == observe_input(lay, 2)
    assert pre.replace_block(np.int64(1), (1, 2), block) == pre
    assert pre.params.group_index((np.int64(1), 2)) == 0
    assert pre.replace_block(1, (np.int64(1), 2), block) == pre


def test_group_outside_the_scheme_raises_key_error_naming_it():
    pre = fixture_example2()
    block = pre.block(1, (1, 2))
    for lookup in (pre.params.group_index, lambda g: pre.block(1, g),
                   lambda g: pre.replace_block(1, g, block)):
        for group in ((1, 6), (2, 1)):
            with pytest.raises(KeyError, match=re.escape(f"{group} is not a size-2 group")):
                lookup(group)


def test_key_sets_of_the_wrong_shape_are_refused():
    pre = reference_precoder(SchemeParams(K=3, T=0, G=2, q=5))  # L = L_S = 1
    p = pre.params
    for wrong in ([1, 2, 3], [[1], [2]], [[[1]], [[2]], [[3]]]):
        with pytest.raises(DimensionMismatchError):
            GroupKeySet(p, wrong)
    with pytest.raises(ValueError):
        GroupKeySet(p, [[1, 2], [], [4]])  # ragged

    # Both would multiply without an error: the fit is checked first.
    long_keys = GroupKeySet(p, [[1, 2]] * 3)
    other_field = GroupKeySet(SchemeParams(K=3, T=0, G=2, q=7), [[1]] * 3)
    for keys in (long_keys, other_field):
        with pytest.raises(DimensionMismatchError):
            pre.masks(keys)


def test_recover_three_user_exhaustive():
    # every user recovers the others' sum for all 2^6 realizations
    pre = fixture_example1()
    for bits in itertools.product(range(2), repeat=6):
        w = np.array(bits[:3]).reshape(3, 1)
        masks = pre.masks(GroupKeySet(pre.params, np.array(bits[3:]).reshape(3, 1)))
        got = recover(pre, masks, encode(pre, masks, w))
        assert np.array_equal(got, (w.sum(axis=0) - w) % 2)


def test_recover_all_zero():
    pre = fixture_example2()
    masks = pre.masks(GroupKeySet(pre.params, np.zeros((10, 2), dtype=np.int64)))
    zero = np.zeros((5, 3), dtype=np.int64)
    assert recover(pre, masks, encode(pre, masks, zero)).tolist() == zero.tolist()


def test_recover_fixture_matches_direct_sum():
    # independent oracle: sum the sampled inputs directly with numpy
    pre = fixture_example2()
    rng = np.random.default_rng(99)
    for trial in range(5):
        masks = pre.masks(sample_keys(pre, trial))
        w = rng.integers(0, 5, size=(5, 3))
        got = recover(pre, masks, encode(pre, masks, w))
        assert np.array_equal(got, (w.sum(axis=0) - w) % 5)


def test_recovery_identity_for_unchecked_random_precoders():
    # Correctness needs only the zero-sum constraint, so it must hold on
    # every feasible triple for every random draw, rank-valid or not, and
    # for adversarial (non-uniform) inputs.
    rng = np.random.default_rng(5)
    for K, T, G in feasible_triples(8):
        p = SchemeParams(K=K, T=T, G=G, q=7)
        pre = random_precoder(p, seed=int(rng.integers(0, 100)))
        masks = pre.masks(sample_keys(pre, 17))
        structured = [
            np.ones((K, p.L), dtype=np.int64),                       # all-equal
            np.eye(K, p.L, dtype=np.int64),                          # one-hot
            rng.integers(0, 7, size=(K, p.L)),                       # random
        ]
        for w in structured:
            w = w % 7
            got = recover(pre, masks, encode(pre, masks, w))
            assert np.array_equal(got, (w.sum(axis=0) - w) % 7)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_precoder_deterministic():
    p = SchemeParams(K=4, T=0, G=2, q=101)
    assert build_precoder(p, seed=3) == build_precoder(p, seed=3)


def test_build_precoder_zero_sum_and_certificate():
    p = SchemeParams(K=5, T=1, G=2, q=101)
    pre = build_precoder(p, seed=0)
    assert pre.zero_sum_ok()
    assert rank_certificate_ok(pre)


def test_build_precoder_small_field_succeeds_within_sixteen_retries():
    # On F_5 a single draw passes the certificate only occasionally; the
    # retry loop from this frozen start covers a verified good seed.
    p = SchemeParams(K=5, T=1, G=2, q=5)
    pre = build_precoder(p, seed=16, max_retries=16)
    assert rank_certificate_ok(pre)


def test_build_precoder_reports_seed_range_on_failure():
    p = SchemeParams(K=5, T=1, G=2, q=5)
    # seeds 0..15 all fail the certificate (verified once, then frozen)
    with pytest.raises(ConstructionFailedError) as info:
        build_precoder(p, seed=0, max_retries=16)
    assert info.value.seed_range == (0, 15)


def test_build_failure_names_each_seeds_first_failing_coalition():
    p = SchemeParams(K=5, T=1, G=2, q=5)
    with pytest.raises(ConstructionFailedError) as info:
        build_precoder(p, seed=0, max_retries=16)
    assert str(info.value) == ("no rank-valid precoder found for seeds 0..15; "
                               "try a larger field or block scale")
    failures = info.value.failures
    assert len(failures) == 16
    for seed, check in enumerate(failures):
        assert check.achieved < check.required and not check.ok
        # Zero-sum draws are ranked on the coalitions of size T+1 only.
        assert len(check.coalition) == p.T + 1
        assert check == rank_condition(random_precoder(p, seed), check.coalition)


def test_build_failures_at_q13_are_coalitions_of_size_t_plus_one():
    # (7,3,3) at q=13 needs 22 seeds, so the first 16 all fail.
    p = SchemeParams(K=7, T=3, G=3, q=13)
    with pytest.raises(ConstructionFailedError) as info:
        build_precoder(p, seed=0, max_retries=16)
    for seed, check in enumerate(info.value.failures):
        assert not check.ok and len(check.coalition) == p.T + 1
        assert check == rank_condition(random_precoder(p, seed), check.coalition)


@pytest.mark.parametrize("K,T,G,calls", [(7, 3, 3, 35), (8, 2, 3, 99)])
def test_build_ranks_only_the_largest_coalitions(monkeypatch, K, T, G, calls):
    # (7,3,3) passes its first draw: C(7,4) = 35 ranks. The first (8,2,3)
    # draw fails at its 43rd coalition of size 3; the second passes all
    # C(8,3) = 56.
    ranked = []
    plain_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: ranked.append(m.shape) or plain_rank(m))
    build_precoder(SchemeParams(K=K, T=T, G=G, q=101), seed=0)
    assert len(ranked) == calls


def test_build_precoder_rejects_infeasible():
    with pytest.raises(InfeasibleSchemeError):
        build_precoder(SchemeParams(K=4, T=0, G=1, q=5))


@pytest.mark.parametrize("triple", [(3, 0, 2), (4, 0, 2), (4, 0, 3), (4, 1, 2)])
@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_reference_precoder_is_rank_valid(triple, q, m):
    K, T, G = triple
    pre = reference_precoder(SchemeParams(K=K, T=T, G=G, q=q, m=m))
    assert pre.zero_sum_ok()
    assert rank_certificate_ok(pre)


def test_reference_precoder_domain_is_explicit():
    with pytest.raises(ValueError):
        reference_precoder(SchemeParams(K=5, T=0, G=2, q=5))


# ---------------------------------------------------------------------------
# precoder contracts
# ---------------------------------------------------------------------------

def test_precoder_rejects_wrong_shapes():
    # The array is (C(3,2), 2, L, L_S) = (3, 2, L, L_S); a missing block is a
    # wrong shape.
    p = SchemeParams(K=3, T=0, G=2, q=5)
    for shape in ((2, 2, 1, 1), (3, 1, 1, 1), (4, 2, 1, 1), (3, 2, 1), (3, 2, 1, 1, 1)):
        with pytest.raises(DimensionMismatchError):
            Precoder(p, np.zeros(shape, dtype=np.int64))


def test_precoder_refuses_empty_input_blocks():
    # An L = 0 scheme carries nothing, and its rates divide by L. Keyless
    # blocks (L_S = 0) stay legal: such a scheme audits with FAIL lines.
    params = SchemeParams(K=5, T=1, G=2, q=7)
    with pytest.raises(DimensionMismatchError):
        random_precoder(params, 0, L=0)
    with pytest.raises(DimensionMismatchError):
        random_precoder(params, 0, L=0, L_S=0)
    assert not audit(random_precoder(params, 0, L_S=0)).all_ok


@pytest.mark.parametrize("L,L_S", [(3, -1), (-3, -1), (-1, None), (None, -2), (0, 5)])
def test_block_lengths_out_of_range_are_refused_before_allocation(monkeypatch, L, L_S):
    # A negative product passed the size check as under the limit; the draw
    # then died in np.empty with a bare ValueError, or two negative lengths
    # read as over the limit.
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the lengths were checked")

    params = SchemeParams(K=8, T=2, G=3, q=3)
    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(DimensionMismatchError, match="L >= 1 and L_S >= 0"):
        random_precoder(params, 0, L=L, L_S=L_S)


@pytest.mark.parametrize("length", [dict(L=2.5), dict(L_S=1.5), dict(L=True)])
def test_block_lengths_that_are_not_integers_are_refused_by_name(length):
    # Each raised numpy's bare TypeError from np.empty ("'float' object
    # cannot be interpreted as an integer", "an integer is required").
    (name, _), = length.items()
    with pytest.raises(TypeError, match=f"^{name} values must be integers"):
        random_precoder(SchemeParams(5, 1, 2, q=7), 0, **length)


def test_replace_block_refuses_blocks_that_do_not_fit():
    # A 1x2 block must not be broadcast into a 3x2 slot. Blocks from another
    # field are refused too (test_gf.test_mismatched_fields_rejected).
    pre = fixture_example2()
    for rows, cols in ((1, 2), (3, 1), (3, 3)):
        with pytest.raises(DimensionMismatchError):
            pre.replace_block(1, (1, 2), Matrix.zeros(pre.params.field, rows, cols))
    with pytest.raises(KeyError):
        pre.replace_block(3, (1, 2), Matrix.zeros(pre.params.field, 3, 2))


def test_precoder_block_lookup():
    pre = fixture_example1()
    with pytest.raises(KeyError):
        pre.block(1, (1, 2, 3))


# ---------------------------------------------------------------------------
# scheme file format
# ---------------------------------------------------------------------------

def test_scheme_text_round_trip_bit_exact():
    for pre in (fixture_example1(), fixture_example2(),
                build_precoder(SchemeParams(K=4, T=1, G=2, q=101), seed=1)):
        text = scheme_to_text(pre)
        again = scheme_from_text(text)
        assert again == pre
        assert scheme_to_text(again) == text


def test_text_round_trip():
    # Each block is an 'L L_S' line, then its L rows of decimals.
    pre = random_precoder(SchemeParams(K=5, T=1, G=2, q=101), seed=8)
    _, *lines = scheme_to_text(pre).splitlines()
    blocks = pre.blocks.reshape(-1, pre.L, pre.L_S)
    assert len(lines) == len(blocks) * (pre.L + 1)
    for i, block in enumerate(blocks):
        header, *rows = lines[i * (pre.L + 1):(i + 1) * (pre.L + 1)]
        assert header == "3 2"
        assert np.array_equal(np.array([row.split() for row in rows], dtype=np.int64), block)


def test_text_format_canonical():
    # (3,0,2) at m=2 holds six 2 x 2 blocks.
    pre = Precoder(SchemeParams(K=3, T=0, G=2, q=5, m=2), np.tile([[1, 2], [3, 4]], (3, 2, 1, 1)))
    assert scheme_to_text(pre) == "DSA1 3 0 2 5 2\n" + "2 2\n1 2\n3 4\n" * 6


def test_scheme_params_refuse_non_integer_sizes():
    # SchemeParams(K=5, T=True, G=2, q=101, m=True) used to build and write
    # the header "DSA1 5 True 2 101 True", which the loader refuses on line
    # 1; m=1.0 failed only later, inside random_precoder.
    for name, value in (("T", True), ("m", True), ("m", 1.0), ("K", 5.0),
                        ("G", "2"), ("K", np.True_)):
        sizes = dict(K=5, T=1, G=2, m=1)
        sizes[name] = value
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SchemeParams(q=101, **sizes)
    # NumPy integers pass, stored as ints, so the header is the same. q=int64
    # raised "modulus must be an int, got int64".
    params = SchemeParams(K=np.int64(5), T=np.int32(1), G=np.uint8(2), q=np.int64(101),
                          m=np.int64(1))
    assert params == SchemeParams(K=5, T=1, G=2, q=101)
    assert all(type(v) is int for v in (params.K, params.T, params.G, params.q, params.m))
    assert scheme_to_text(random_precoder(params, 0)).startswith("DSA1 5 1 2 101 1\n")
    with pytest.raises(TypeError, match="q must be an integer"):
        SchemeParams(K=5, T=1, G=2, q=101.0)


@pytest.mark.parametrize("call, name", [
    # Each used to return: a region with T=True, an infeasible one with
    # K=5.0, a check count for T=1 and a group size report.
    (lambda: capacity(5, True, 2), "T"),
    (lambda: capacity(5.0, 1, 1), "K"),
    (lambda: expected_check_count(5, True), "T"),
    (lambda: optimal_group_size_report(5, True), "T"),
    # Each raised a bare TypeError from math.comb or range.
    (lambda: capacity(5.0, 1, 2), "K"),
    (lambda: capacity(5, 1, 2.0), "G"),
    (lambda: list(collusion_sets(5, 1, 1.0)), "T"),
])
def test_size_arguments_refuse_non_integers_by_name(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call()


def test_size_arguments_take_numpy_integers_as_ints():
    region = capacity(np.int64(5), np.int32(1), np.uint8(2))
    assert region == capacity(5, 1, 2)
    assert all(type(v) is int for v in (region.K, region.T, region.G))
    assert expected_check_count(np.int64(5), np.int64(1)) == expected_check_count(5, 1)
    assert optimal_group_size_report(np.int64(5), np.int64(1)) == optimal_group_size_report(5, 1)


def test_scheme_text_header():
    text = scheme_to_text(fixture_example2())
    assert text.splitlines()[0] == "DSA1 5 1 2 5 1"


def test_scheme_format_errors_carry_line_numbers():
    good = scheme_to_text(fixture_example2()).splitlines()

    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("NOPE 1 2 3 4 5\n")
    assert info.value.line == 1

    bad = list(good)
    bad[2] = "1 2 9"  # wrong arity inside first block
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("\n".join(bad) + "\n")
    assert info.value.line == 3

    bad = list(good)
    bad[2] = "1 9"  # entry outside the field
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("\n".join(bad) + "\n")
    assert info.value.line == 3

    with pytest.raises(SchemeFormatError):
        scheme_from_text("\n".join(good[:10]) + "\n")  # truncated

    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("\n".join(good) + "\nextra\n")
    assert info.value.line == len(good) + 1


@pytest.mark.parametrize("row,field,token", [
    (2, 0, "+0_1"), (2, 0, "01"), (2, 0, "+1"), (2, 0, "1_0"),
    (0, 1, "+3"), (0, 3, "02"), (2, 0, "1" * 19), (4, 0, "9" * 20), (0, 4, "1" + "0" * 19),
])
def test_scheme_numbers_must_be_plain_decimals(row, field, token):
    # Each token is a number int() accepts, in range for F_11, that the
    # writer never emits; one scheme must have exactly one file. Past 18
    # digits a number may not fit int64: unbounded, a 20-digit entry raised
    # OverflowError instead of a format error.
    lines = scheme_to_text(reference_precoder(SchemeParams(K=3, T=0, G=2, q=11))).splitlines()
    fields = lines[row].split()
    fields[field] = token
    lines[row] = " ".join(fields)
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("\n".join(lines) + "\n")
    assert info.value.line == row + 1


def perturbed(text, line, edit):
    lines = text.split("\n")
    lines[line - 1] = edit(lines[line - 1])
    return "\n".join(lines)


_EDITS = {
    "doubled space": lambda s: s.replace(" ", "  ", 1),
    "CR line end": lambda s: s + "\r",
    "leading space": lambda s: " " + s,
    "trailing space": lambda s: s + " ",
    "trailing tab": lambda s: s + "\t",
}
_WHOLE_FILE = {  # fixture_example2's text has 81 lines
    "CRLF line ends": (lambda t: t.replace("\n", "\r\n"), 1),
    "blank line after the last block": (lambda t: t + "\n", 82),
    "blank lines after the last block": (lambda t: t + "\n\n\n", 82),
    "spaces after the last block": (lambda t: t + "  ", 82),
    "no final newline": (lambda t: t[:-1], 81),
}


@pytest.mark.parametrize("case", [(edit, line) for edit in _EDITS for line in (1, 2, 3, 5, 81)]
                         + list(_WHOLE_FILE), ids=lambda c: c if isinstance(c, str) else
                         f"{c[0]} on line {c[1]}")
def test_scheme_text_has_one_form(case):
    # Each of these used to load to the same precoder as the canonical text;
    # one scheme must have exactly one file, refused at the line that differs.
    text = scheme_to_text(fixture_example2())
    if case in _WHOLE_FILE:
        perturb, line = _WHOLE_FILE[case]
        bad = perturb(text)
    else:
        edit, line = case
        bad = perturbed(text, line, _EDITS[edit])
    assert bad != text
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text(bad)
    assert info.value.line == line


def test_block_header_must_be_l_and_l_s():
    text = scheme_to_text(fixture_example2())  # blocks of 3 x 2, headers on lines 2, 6, ...
    for line, head in ((2, "3 3"), (2, "2 3"), (6, "3 1"), (78, "03 2")):
        with pytest.raises(SchemeFormatError, match="expected block header '3 2'") as info:
            scheme_from_text(perturbed(text, line, lambda s: head))
        assert info.value.line == line


@pytest.mark.parametrize("header", [
    "DSA1 2 0 2 5 1",  # K < 3
    "DSA1 5 3 2 5 1",  # T > K - 3
    "DSA1 5 1 6 5 1",  # G > K
    "DSA1 5 1 2 5 0",  # m < 1
    "DSA1 5 1 2 4 1",  # q not prime
    "DSA1 5 1 1 5 1",  # infeasible: G = 1
    "DSA1 5 1 4 5 1",  # infeasible: G >= K - T
])
def test_header_out_of_model_or_infeasible_names_line_1(header):
    rest = scheme_to_text(fixture_example2()).split("\n", 1)[1]
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text(header + "\n" + rest)
    assert info.value.line == 1


@pytest.mark.parametrize("text", ["", "\n"])
def test_empty_scheme_file_names_line_1(text):
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text(text)
    assert info.value.line == 1


def test_entry_outside_the_field_is_named_before_a_later_bad_row():
    text = perturbed(scheme_to_text(fixture_example2()), 4, lambda s: "1 5")
    for bad in (perturbed(text, 5, lambda s: s + " "), perturbed(text, 9, lambda s: "x")):
        with pytest.raises(SchemeFormatError, match="entry 5 outside") as info:
            scheme_from_text(bad)
        assert info.value.line == 4


@pytest.mark.parametrize("K, T, G, q", [
    (7, 3, 3, 101), (7, 3, 3, 13), (8, 2, 3, 101), (8, 0, 4, 101), (8, 0, 4, 5),
    (9, 0, 4, 2**31 - 1),
])
def test_benchmark_scheme_files_round_trip_byte_identically(K, T, G, q):
    # Each benchmark setting, built as the benchmark builds it; the fixtures
    # are test_scheme_text_round_trip_bit_exact's.
    pre = build_precoder(SchemeParams(K=K, T=T, G=G, q=q), seed=0, max_retries=64)
    text = scheme_to_text(pre)
    again = scheme_from_text(text)
    assert again == pre
    assert scheme_to_text(again) == text


def test_loader_checks_length_before_enumerating_groups(monkeypatch):
    # A one-line file claiming C(20, 10) groups of 10 blocks of C(19, 10)
    # rows each must be refused before any group is enumerated.
    def refuse(params):
        raise AssertionError("groups enumerated before the length check")

    monkeypatch.setattr(dsagg.scheme.SchemeParams, "members", property(refuse))
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("DSA1 20 0 10 101 1\n")
    assert info.value.line == 1


def test_loader_bounds_the_block_array_by_the_file_size(tmp_path):
    # 720,013 one-digit lines pass the line count, but the header claims
    # 720,000 rows of L_S = 40,000 entries: a 215 GiB block array.
    path = tmp_path / "wide.dsa"
    path.write_text("DSA1 4 0 2 101 20000\n" + "0\n" * 720_013)
    with pytest.raises(SchemeFormatError) as info:
        load_scheme(path)
    assert info.value.line == 1


def test_save_refuses_blocks_the_format_cannot_carry(tmp_path):
    pre = random_precoder(SchemeParams(K=5, T=1, G=2, q=101), seed=0, L=3, L_S=1)
    with pytest.raises(ValueError):
        scheme_to_text(pre)
    path = tmp_path / "small.dsa"
    with pytest.raises(ValueError):
        save_scheme(pre, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# stored form: one block array, every view indexes it
# ---------------------------------------------------------------------------

@st.composite
def small_precoders(draw):
    K = draw(st.integers(3, 6))
    T = draw(st.integers(0, K - 3))
    G = draw(st.integers(2, K - T - 1))
    params = SchemeParams(K=K, T=T, G=G, q=draw(st.sampled_from([2, 5, 2**31 - 1])))
    seed = draw(st.integers(0, 2**32 - 1))
    L, L_S = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return random_precoder(params, seed, L=L, L_S=L_S), seed


def per_group_masks(pre, keys):
    """Every user's key mask summed group by group, each product by _safe_dot."""
    p = pre.params
    out = np.zeros((p.K, pre.L), dtype=np.int64)
    for i, g in enumerate(p.members.tolist()):
        for seat, k in enumerate(g):
            term = _safe_dot(pre.blocks[i, seat], keys.table[i, :, None], p.q)[:, 0]
            out[k - 1] = (out[k - 1] + term) % p.q
    return out


@settings(max_examples=50, deadline=None)
@given(small_precoders())
def test_stored_form_agrees_with_its_blocks(drawn):
    pre, seed = drawn
    p = pre.params
    blocks = pre.blocks
    assert not blocks.flags.writeable
    assert Precoder(p, blocks) == pre

    def stored(u, g):  # user u's block for group g, read from the array
        if u not in g:
            return np.zeros((pre.L, pre.L_S), dtype=np.int64)
        return blocks[p.group_index(g), g.index(u)]

    groups = [tuple(g) for g in p.members.tolist()]
    for g in groups:
        for k in p.users:
            assert np.array_equal(stored(k, g), pre.block(k, g).data)

    rng = np.random.Generator(np.random.PCG64(seed))
    keys = GroupKeySet(p, rng.integers(0, p.q, size=(len(groups), pre.L_S)))
    inputs = rng.integers(0, p.q, size=(p.K, pre.L))
    source = np.concatenate([inputs.ravel(), keys.vector])[:, None]  # inputs, then keys
    masks = pre.masks(keys)
    assert np.array_equal(masks, per_group_masks(pre, keys))
    sent = encode(pre, masks, inputs)
    for k in p.users:
        assert np.array_equal(_safe_dot(observe_message(pre, k).matrix.data, source, p.q)[:, 0],
                              sent[k - 1])

    # key_map places blocks for users and groups in any order given,
    # repeats included.
    order = np.random.Generator(np.random.PCG64(seed))
    users = order.integers(1, p.K + 1, size=3).tolist()
    ids = order.integers(0, len(groups), size=3).tolist()
    expected = np.vstack([np.hstack([stored(u, groups[i]) for i in ids]) for u in users])
    assert np.array_equal(pre.key_map(users, ids), expected)

    for k in p.users:
        for cset in collusion_sets(p.K, k, p.T):
            survivors = [u for u in p.users if u != k and u not in cset]
            surviving = [g for g in groups if set(g) <= set(survivors)]
            expected = np.vstack([
                np.hstack([stored(u, g) for g in surviving]
                          or [np.zeros((pre.L, 0), dtype=np.int64)])
                for u in survivors])
            assert np.array_equal(submatrix_hhat(pre, (k, *cset)).data, expected)


# The largest prime below 2**28: one product is exact while n*L_S <= 128.
_Q28 = 268435399


@pytest.mark.parametrize("q, L_S", [
    (_Q28, 64),               # n*L_S = 128: one product
    (_Q28, 65),               # 130: 16-bit key limbs
    (2**31 - 1, 2**15 - 1),   # 65,534: limbs, each user's sum exact
    (2**31 - 1, 2**15 + 3),   # 65,542: one chunk, each seat reduced first
    (2**31 - 1, 2**16 + 2),   # 131,076: two chunks of at most 65,537 symbols
])
def test_masks_are_exact_on_both_sides_of_each_bound(q, L_S):
    # At (3,0,2) each user holds n = 2 seats. Blocks and keys of q-1 make
    # every product, and every sum of them, the largest the field allows.
    p = SchemeParams(K=3, T=0, G=2, q=q)
    pre = Precoder(p, np.full((3, 2, 1, L_S), q - 1))
    keys = GroupKeySet(p, np.full((3, L_S), q - 1))
    assert np.array_equal(pre.masks(keys), per_group_masks(pre, keys))
