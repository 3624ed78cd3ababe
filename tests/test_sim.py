from fractions import Fraction

import numpy as np
import pytest

import dsagg.scheme
from dsagg import infocalc
from dsagg.auditor import audit, audit_rates, audit_security
from dsagg.scheme import (ConstructionFailedError, SchemeParams, build_precoder, capacity,
                          fixture_example1, fixture_example2, random_precoder,
                          reference_precoder)
from dsagg.sim import make_inputs, run_round


# ---------------------------------------------------------------------------
# single round
# ---------------------------------------------------------------------------

def test_round_all_zero_inputs():
    pre = fixture_example1()
    tr = run_round(pre, "zero", seed=0)
    assert tr.verdict
    assert not tr.recovered.any()


def test_round_fixture_matches_direct_sum():
    pre = fixture_example2()
    tr = run_round(pre, "random", seed=11)
    truth = tr.inputs.sum(axis=0) % 5
    assert tr.verdict
    for row in tr.recovered:
        assert np.array_equal(row, truth)


def test_round_structured_inputs():
    params = SchemeParams(K=3, T=0, G=2, q=7)
    pre = build_precoder(params, seed=0)
    w = np.array([[1], [2], [3]])
    tr = run_round(pre, w, seed=0)
    assert tr.verdict
    assert tr.recovered.ravel().tolist() == [6, 6, 6]


def test_round_computes_the_masks_once(monkeypatch):
    calls = []
    masks = dsagg.scheme.Precoder.masks
    monkeypatch.setattr(dsagg.scheme.Precoder, "masks",
                        lambda pre, keys: calls.append(1) or masks(pre, keys))
    assert run_round(fixture_example2(), "random", seed=3).verdict
    assert len(calls) == 1


def test_make_inputs_sources():
    pre = reference_precoder(SchemeParams(K=3, T=0, G=2, q=5))
    assert not make_inputs(pre, "zero", 0).any()
    a = make_inputs(pre, "random", 3)
    assert np.array_equal(a, make_inputs(pre, "random", 3))
    with pytest.raises(ValueError):
        make_inputs(pre, "bogus", 0)
    with pytest.raises(ValueError):
        make_inputs(pre, np.zeros((2, 1)), 0)


def test_round_sizes_inputs_and_keys_from_the_precoder():
    # The parameters derive L = 6 and L_S = 3; the precoder's blocks are 3 x 1.
    pre = random_precoder(SchemeParams(K=6, T=1, G=2, q=101), 0, L=3, L_S=1)
    tr = run_round(pre, "random", seed=2)
    assert tr.inputs.shape == tr.messages.shape == (6, 3)
    assert tr.verdict


# ---------------------------------------------------------------------------
# transcript
# ---------------------------------------------------------------------------

def test_transcript_deterministic_and_versioned():
    pre = fixture_example2()
    a = run_round(pre, "random", seed=5).to_text()
    b = run_round(pre, "random", seed=5).to_text()
    assert a == b
    assert a.splitlines()[0] == "DSAT1 5 1 2 5 1 5"
    assert a != run_round(pre, "random", seed=6).to_text()


def test_transcript_layout():
    pre = fixture_example1()
    lines = run_round(pre, "zero", seed=0).to_text().splitlines()
    tags = [line.split()[0] for line in lines]
    assert tags == ["DSAT1"] + ["W"] * 3 + ["X"] * 3 + ["R"] * 3 + ["VERDICT"]
    assert lines[-1] == "VERDICT pass"


def test_simulator_and_auditor_views_agree():
    # The transcript's message observables feed the same MI query the
    # security audit runs; simulator and auditor must never disagree.
    for pre, expect_secure in ((fixture_example2(), True),):
        params = pre.params
        lay = infocalc.layout_for(pre)
        msgs = {k: infocalc.observe_message(pre, k) for k in params.users}
        ins = {k: infocalc.observe_input(lay, k) for k in params.users}
        audit_checks = {(c.k, c.colluders): c.ok for c in audit_security(pre)
                        if c.kind == "security"}
        for k in params.users:
            others = [u for u in params.users if u != k]
            view = [infocalc.observe_total(lay), ins[k],
                    infocalc.observe_key_bundle(lay, k)]
            mi = infocalc.mutual_information(
                [msgs[u] for u in others], [ins[u] for u in others], view)
            assert (mi == 0) == audit_checks[(k, ())] == expect_secure


# ---------------------------------------------------------------------------
# the small grid at q = 11: capacity, build, audit and one round per cell
# ---------------------------------------------------------------------------

def test_grid_matches_capacity_boundary():
    # K in 3..6, every T in 0..K-3 and every G in 1..K.
    for K in range(3, 7):
        for T in range(0, K - 2):
            for G in range(1, K + 1):
                region = capacity(K, T, G)
                should_be_infeasible = G == 1 or G >= K - T
                assert region.feasible == (not should_be_infeasible)
                if not region.feasible:
                    assert region.infeasibility_reason.value in ("group_size_one",
                                                                 "group_too_large")
                    continue
                pre = build_precoder(SchemeParams(K=K, T=T, G=G, q=11), seed=0)
                assert audit(pre, seed=0).all_ok, (K, T, G)
                assert run_round(pre, "random", 0).verdict, (K, T, G)


def test_three_user_scheme_achieves_optimal_rates():
    rate_x, rate_s = audit_rates(build_precoder(SchemeParams(K=3, T=0, G=2, q=11), seed=0))
    assert rate_s.value == rate_s.bound == Fraction(1)
    assert rate_x.value == rate_x.bound  # the corner itself


def test_small_field_build_failure_reports_seed_range():
    # On F_2 the (5,1,2) certificate virtually never holds in a short retry
    # window.
    with pytest.raises(ConstructionFailedError) as info:
        build_precoder(SchemeParams(K=5, T=1, G=2, q=2), seed=0, max_retries=2)
    assert info.value.seed_range == (0, 1)


@pytest.mark.parametrize("retries", [0, -1])
def test_build_refuses_max_retries_below_one_before_drawing(retries, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a precoder was drawn")

    monkeypatch.setattr(dsagg.scheme, "random_precoder", no_draw)
    with pytest.raises(ValueError, match=f"max_retries must be at least 1, got {retries}"):
        build_precoder(SchemeParams(K=5, T=1, G=2, q=101), seed=0, max_retries=retries)


def test_failed_verdict_is_recorded_not_raised():
    from dsagg.linalg import Matrix
    from dsagg.scheme import fixture_example2

    pre = fixture_example2()
    broken = pre.replace_block(1, (1, 2), Matrix.zeros(pre.params.field, 3, 2))
    tr = run_round(broken, "random", seed=1)
    assert not tr.verdict
    assert tr.to_text().strip().endswith("VERDICT fail")
