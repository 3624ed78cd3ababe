import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsagg.scheme
from dsagg.auditor import collusion_sets, rank_certificate_ok, submatrix_hhat
from dsagg.infocalc import layout_for, observe_key_bundle, observe_message, source_vector
from dsagg.linalg import DimensionMismatchError, Matrix
from dsagg.scheme import (
    ConstructionFailedError,
    GroupKeySet,
    InfeasibilityReason,
    InfeasibleSchemeError,
    MissingMessageError,
    ParamsOutOfModelError,
    Precoder,
    SchemeFormatError,
    SchemeParams,
    build_precoder,
    capacity,
    encode,
    fixture_example1,
    fixture_example2,
    groups_of,
    optimal_group_size,
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
    assert optimal_group_size(20, 0) == 9
    assert rep.formula == 9
    assert rep.minimizers == (9, 10)  # binomial symmetry tie

    # formula hits the infeasible value 1; the feasible argmin is reported
    rep = optimal_group_size_report(5, 1)
    assert rep.formula == 1
    assert rep.best == 2
    assert rep.minimizers == (2,)
    assert capacity(5, 1, 2).r_s_star < capacity(5, 1, 3).r_s_star

    assert optimal_group_size(7, 0) == 3
    assert optimal_group_size(4, 1) == 2  # single feasible size

    with pytest.raises(ParamsOutOfModelError):
        optimal_group_size(4, 2)  # no feasible group size at all


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
    assert groups_of(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert len(groups_of(5, 2)) == 10


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
    for g in pre.groups:
        assert pre.block(g[0], g).data.tolist() == [[1]]
        assert pre.block(g[1], g).data.tolist() == [[1]]  # -1 == 1 mod 2


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_sample_keys_counts_and_determinism():
    p3 = SchemeParams(K=3, T=0, G=2, q=5)
    assert len(sample_keys(reference_precoder(p3), 0)) == 3

    pre = fixture_example2()
    p5 = pre.params
    keys = sample_keys(pre, 0)
    assert len(keys) == 10
    for g, v in keys.items():
        assert v.shape == (2,)

    again = sample_keys(pre, 0)
    assert all(np.array_equal(keys.key(g), again.key(g)) for g in p5.groups)
    other = sample_keys(pre, 1)
    assert any(not np.array_equal(keys.key(g), other.key(g)) for g in p5.groups)


# ---------------------------------------------------------------------------
# encode / recover
# ---------------------------------------------------------------------------

def test_encode_three_user_example():
    # q=2, W_1=1, first key 1, second key 0: the mask flips the input bit.
    pre = fixture_example1()
    p = pre.params
    keys = {(1, 2): [1], (1, 3): [0], (2, 3): [0]}
    ks = GroupKeySet(p, {g: np.array(v) for g, v in keys.items()})
    msg = encode(pre, ks, np.array([1]), 1)
    assert msg.payload.tolist() == [0]


def test_encode_with_zero_keys_is_identity():
    pre = fixture_example2()
    p = pre.params
    ks = GroupKeySet(p, {g: np.zeros(2, dtype=np.int64) for g in p.groups})
    w = np.array([1, 2, 3])
    assert encode(pre, ks, w, 2).payload.tolist() == [1, 2, 3]


def test_encode_fixture_single_key_column():
    pre = fixture_example2()
    p = pre.params
    keys = {g: np.zeros(2, dtype=np.int64) for g in p.groups}
    keys[(1, 2)] = np.array([1, 0])
    ks = GroupKeySet(p, keys)
    msg = encode(pre, ks, np.zeros(3, dtype=np.int64), 1)
    assert msg.payload.tolist() == [2, 4, 2]


def test_encode_length_check():
    pre = fixture_example2()
    with pytest.raises(DimensionMismatchError):
        encode(pre, sample_keys(pre, 0), np.zeros(2), 1)


@pytest.mark.parametrize("k", [0, -1, 6, 99])
def test_user_outside_one_to_K_raises_key_error(k):
    # Indexing k - 1 used to wrap: user 0 was encoded with user 5's mask.
    pre = fixture_example2()
    keys = sample_keys(pre, 0)
    with pytest.raises(KeyError, match=f"user {k} outside"):
        encode(pre, keys, np.zeros(3, dtype=np.int64), k)
    with pytest.raises(KeyError, match=f"user {k} outside"):
        recover(pre, keys, k, [])
    with pytest.raises(KeyError, match=f"user {k} outside"):
        observe_key_bundle(layout_for(pre), k)
    with pytest.raises(KeyError, match=f"user {k} outside"):
        pre.block(k, (1, 2))


def test_group_outside_the_scheme_raises_key_error_naming_it():
    pre = fixture_example2()
    for lookup in (layout_for(pre).key_slice, sample_keys(pre, 0).key,
                   lambda g: pre.block(1, g)):
        with pytest.raises(KeyError, match=r"\(1, 6\) is not a size-2 group"):
            lookup((1, 6))


def test_key_sets_of_the_wrong_shape_are_refused(monkeypatch):
    pre = reference_precoder(SchemeParams(K=3, T=0, G=2, q=5))  # L = L_S = 1
    p = pre.params
    for ragged in ({(1, 2): [1, 2], (1, 3): [], (2, 3): [4]},
                   {g: [[1]] for g in p.groups}):
        with pytest.raises(DimensionMismatchError):
            GroupKeySet(p, ragged)

    def no_product(*args):
        raise AssertionError("mask computed a product with a mismatched key set")

    monkeypatch.setattr(Matrix, "matvec", no_product)
    long_keys = GroupKeySet(p, {g: [1, 2] for g in p.groups})
    other_field = GroupKeySet(SchemeParams(K=3, T=0, G=2, q=7), {g: [1] for g in p.groups})
    for keys in (long_keys, other_field):
        with pytest.raises(DimensionMismatchError):
            encode(pre, keys, np.zeros(1, dtype=np.int64), 1)


def test_recover_three_user_exhaustive():
    # every user recovers the others' sum for all 2^6 realizations
    pre = fixture_example1()
    p = pre.params
    for bits in itertools.product(range(2), repeat=6):
        w = np.array(bits[:3]).reshape(3, 1)
        ks = GroupKeySet(p, {
            (1, 2): np.array([bits[3]]),
            (1, 3): np.array([bits[4]]),
            (2, 3): np.array([bits[5]]),
        })
        msgs = {k: encode(pre, ks, w[k - 1], k) for k in p.users}
        for k in p.users:
            got = recover(pre, ks, k, [msgs[u] for u in p.users if u != k])
            expected = (w.sum(axis=0) - w[k - 1]) % 2
            assert np.array_equal(got, expected)


def test_recover_all_zero():
    pre = fixture_example2()
    p = pre.params
    ks = GroupKeySet(p, {g: np.zeros(2, dtype=np.int64) for g in p.groups})
    msgs = {k: encode(pre, ks, np.zeros(3, dtype=np.int64), k) for k in p.users}
    got = recover(pre, ks, 1, [msgs[u] for u in (2, 3, 4, 5)])
    assert got.tolist() == [0, 0, 0]


def test_recover_fixture_matches_direct_sum():
    # independent oracle: sum the sampled inputs directly with numpy
    pre = fixture_example2()
    p = pre.params
    rng = np.random.default_rng(99)
    for trial in range(5):
        keys = sample_keys(pre, trial)
        w = rng.integers(0, 5, size=(5, 3))
        msgs = {k: encode(pre, keys, w[k - 1], k) for k in p.users}
        for k in p.users:
            got = recover(pre, keys, k, [msgs[u] for u in p.users if u != k])
            assert np.array_equal(got, (w.sum(axis=0) - w[k - 1]) % 5)


def test_recover_message_set_validation():
    pre = fixture_example2()
    p = pre.params
    keys = sample_keys(pre, 0)
    msgs = {k: encode(pre, keys, np.zeros(3, dtype=np.int64), k) for k in p.users}
    with pytest.raises(MissingMessageError):
        recover(pre, keys, 1, [msgs[2], msgs[3], msgs[4]])  # one missing
    with pytest.raises(MissingMessageError):
        recover(pre, keys, 1, [msgs[1], msgs[2], msgs[3], msgs[4]])  # own message


def test_recovery_identity_for_unchecked_random_precoders():
    # Correctness needs only the zero-sum constraint, so it must hold on
    # every feasible triple for every random draw, rank-valid or not, and
    # for adversarial (non-uniform) inputs.
    rng = np.random.default_rng(5)
    for K, T, G in feasible_triples(8):
        p = SchemeParams(K=K, T=T, G=G, q=7)
        pre = random_precoder(p, seed=int(rng.integers(0, 100)))
        keys = sample_keys(pre, 17)
        structured = [
            np.ones((K, p.L), dtype=np.int64),                       # all-equal
            np.eye(K, p.L, dtype=np.int64),                          # one-hot
            rng.integers(0, 7, size=(K, p.L)),                       # random
        ]
        for w in structured:
            w = w % 7
            msgs = {k: encode(pre, keys, w[k - 1], k) for k in p.users}
            for k in p.users:
                got = recover(pre, keys, k, [msgs[u] for u in p.users if u != k])
                assert np.array_equal(got, (w.sum(axis=0) - w[k - 1]) % 7)


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


def test_loader_checks_length_before_enumerating_groups(monkeypatch):
    # A one-line file claiming C(20, 10) groups of 10 blocks of C(19, 10)
    # rows each must be refused before any group is enumerated.
    def refuse(K, G):
        raise AssertionError("groups enumerated before the length check")

    monkeypatch.setattr(dsagg.scheme, "groups_of", refuse)
    with pytest.raises(SchemeFormatError) as info:
        scheme_from_text("DSA1 20 0 10 101 1\n")
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
# stored form: one matrix per user, every view slices it
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


@settings(max_examples=50, deadline=None)
@given(small_precoders())
def test_stored_form_agrees_with_its_blocks(drawn):
    pre, seed = drawn
    p = pre.params
    blocks = pre.blocks()
    assert Precoder(p, blocks) == pre
    for i, g in enumerate(p.groups):
        for j, k in enumerate(g):
            assert np.array_equal(blocks[i, j], pre.block(k, g).data)

    rng = np.random.Generator(np.random.PCG64(seed))
    keys = GroupKeySet(p, {g: rng.integers(0, p.q, size=pre.L_S) for g in p.groups})
    inputs = rng.integers(0, p.q, size=(p.K, pre.L))
    lay = layout_for(pre)
    source = source_vector(lay, inputs, keys)
    for k in p.users:
        sent = encode(pre, keys, inputs[k - 1], k)
        assert np.array_equal(observe_message(pre, k).evaluate(source), sent.payload)

    for k in p.users:
        for cset in collusion_sets(p.K, k, p.T):
            survivors = [u for u in p.users if u != k and u not in cset]
            surviving = [g for g in p.groups if set(g) <= set(survivors)]
            expected = np.vstack([
                np.hstack([pre.block(u, g).data for g in surviving]
                          or [np.zeros((pre.L, 0), dtype=np.int64)])
                for u in survivors])
            assert np.array_equal(submatrix_hhat(pre, k, cset).data, expected)
