from fractions import Fraction

import numpy as np
import pytest

from dsagg import infocalc
from dsagg.auditor import audit_security
from dsagg.scheme import (SchemeParams, build_precoder, fixture_example1, fixture_example2,
                          random_precoder, reference_precoder)
from dsagg.sim import make_inputs, run_grid, run_round


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
        audit_checks = {(c.k, c.colluders): c.ok for c in audit_security(pre)}
        for k in params.users:
            others = [u for u in params.users if u != k]
            view = [infocalc.observe_total(lay), ins[k],
                    infocalc.observe_key_bundle(lay, k)]
            mi = infocalc.mutual_information(
                [msgs[u] for u in others], [ins[u] for u in others], view)
            assert (mi == 0) == audit_checks[(k, ())] == expect_secure


# ---------------------------------------------------------------------------
# grid harness
# ---------------------------------------------------------------------------

def test_grid_matches_capacity_boundary():
    cells = run_grid(range(3, 7), range(0, 4), range(1, 7), q=11, seed=0)
    for cell in cells:
        should_be_infeasible = cell.G == 1 or cell.G >= cell.K - cell.T
        assert cell.feasible == (not should_be_infeasible)
        if cell.feasible:
            assert cell.built and cell.audit_ok and cell.verdict, cell
            assert cell.error is None
        else:
            assert cell.reason in ("group_size_one", "group_too_large")


def test_grid_reports_achieved_rates():
    cells = run_grid([3], [0], [2], q=11, seed=0)
    (cell,) = cells
    assert cell.r_s_achieved == cell.r_s_star == Fraction(1)


def test_grid_records_construction_failure_without_aborting():
    # On F_2 the (5,1,2) certificate virtually never holds in a short retry
    # window; the cell must report the failure and the sweep must continue.
    cells = run_grid([5], [1], [2, 3], q=2, seed=0, max_retries=2)
    by_g = {c.G: c for c in cells}
    assert not by_g[2].built and by_g[2].error is not None
    assert by_g[3].feasible  # later cells still evaluated


def test_failed_verdict_is_recorded_not_raised():
    from dsagg.linalg import Matrix
    from dsagg.scheme import fixture_example2

    pre = fixture_example2()
    broken = pre.replace_block(1, (1, 2), Matrix.zeros(pre.params.field, 3, 2))
    tr = run_round(broken, "random", seed=1)
    assert not tr.verdict
    assert tr.to_text().strip().endswith("VERDICT fail")
