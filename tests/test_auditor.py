import itertools
import re

import numpy as np
import pytest

from dsagg.auditor import (
    InvalidCollusionSetError,
    NotInfeasibleRegimeError,
    audit,
    audit_converse,
    audit_infeasibility,
    audit_rates,
    audit_recovery,
    audit_security,
    collusion_sets,
    expected_check_count,
    rank_condition,
    submatrix_hhat,
)
from dsagg.linalg import Matrix
from dsagg.scheme import (
    InfeasibilityReason,
    Precoder,
    SchemeParams,
    build_precoder,
    fixture_example1,
    fixture_example2,
    random_precoder,
)


def zero_precoder(params, L=None, L_S=None):
    L = params.L if L is None else L
    L_S = params.L_S if L_S is None else L_S
    return Precoder(params, np.zeros((len(params.groups), params.G, L, L_S), dtype=np.int64))


# ---------------------------------------------------------------------------
# collusion set enumeration
# ---------------------------------------------------------------------------

def test_collusion_sets_order_and_count():
    sets = list(collusion_sets(5, 1, 1))
    assert sets == [(), (2,), (3,), (4,), (5,)]
    assert len(list(collusion_sets(7, 3, 2))) == 1 + 6 + 15
    assert expected_check_count(5, 1) == 25


# ---------------------------------------------------------------------------
# surviving-key submatrix
# ---------------------------------------------------------------------------

def test_hhat_shape_and_rank_on_fixture():
    pre = fixture_example2()
    hh = submatrix_hhat(pre, 1, (2,))
    assert hh.shape == (9, 6)
    assert hh.rank() == 6


def test_hhat_three_user_single_survivor_pair():
    pre = fixture_example1()
    hh = submatrix_hhat(pre, 1, ())
    assert hh.shape == (2, 1)
    assert hh.data.ravel().tolist() == [1, 1]  # +1 and -1 over F_2


def test_hhat_empty_when_no_group_survives():
    # An oversized group (G >= K - T) leaves no key outside the colluders'
    # reach; the submatrix has zero columns and the condition cannot hold.
    params = SchemeParams(K=5, T=2, G=3, q=5)
    assert not params.feasible
    pre = zero_precoder(params, L=1, L_S=1)
    hh = submatrix_hhat(pre, 1, (2, 3))
    assert hh.shape == (2, 0)
    check = rank_condition(pre, 1, (2, 3))
    assert check.achieved == 0 and check.required == 1 and not check.ok


def test_hhat_rejects_bad_collusion_sets():
    pre = fixture_example2()
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, 1, (1,))
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, 1, (2, 3))  # exceeds T = 1
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, 9, ())


# ---------------------------------------------------------------------------
# rank condition
# ---------------------------------------------------------------------------

def test_rank_condition_on_fixture_all_pairs():
    pre = fixture_example2()
    for k in pre.params.users:
        for cset in collusion_sets(5, k, 1):
            check = rank_condition(pre, k, cset)
            assert check.required == (5 - len(cset) - 2) * 3
            assert check.ok


def test_rank_condition_detects_zeroed_block():
    pre = fixture_example2()
    zero = Matrix.zeros(pre.params.field, 3, 2)
    broken = pre.replace_block(3, (3, 4), zero).replace_block(4, (3, 4), zero)
    check = rank_condition(broken, 1, (2,))
    assert check.achieved < 6 and not check.ok


def test_rank_condition_undersized_keys_always_fail():
    # With one key symbol per pair instead of two, the surviving stack has
    # only 3 columns against a floor of 6.
    params = SchemeParams(K=5, T=1, G=2, q=101)
    for seed in range(10):
        pre = random_precoder(params, seed=seed, L=3, L_S=1)
        for k in params.users:
            for cset in collusion_sets(5, k, 1):
                if len(cset) != 1:
                    continue
                check = rank_condition(pre, k, cset)
                assert check.achieved <= 3 < 6 == check.required
                assert not check.ok


# ---------------------------------------------------------------------------
# security audit
# ---------------------------------------------------------------------------

def test_audit_security_fixture_all_zero_mi():
    checks = audit_security(fixture_example2())
    assert len(checks) == expected_check_count(5, 1)
    assert all(c.mi == 0 and c.ok and c.consistent for c in checks)


def test_audit_security_three_user():
    checks = audit_security(fixture_example1())
    assert len(checks) == 3
    assert all(c.colluders == () and c.mi == 0 for c in checks)


def test_audit_security_unmasked_scheme_leaks_everywhere():
    params = SchemeParams(K=3, T=0, G=2, q=2)
    checks = audit_security(zero_precoder(params))
    assert all(c.mi > 0 and not c.ok and c.consistent for c in checks)


def test_security_mi_equals_rank_deficit():
    # For zero-sum schemes the MI equals required minus achieved rank; the
    # audit records both sides so the equivalence is observable.
    params = SchemeParams(K=5, T=1, G=2, q=101)
    for pre in (build_precoder(params, seed=0),
                random_precoder(params, seed=3, L=3, L_S=1)):
        for c in audit_security(pre):
            assert c.mi == c.rank.required - min(c.rank.achieved, c.rank.required)
            assert c.consistent


def test_security_equivalence_on_small_field_failures():
    # On F_2 random draws regularly miss the rank floor; MI must flag
    # exactly the same (user, set) pairs.
    params = SchemeParams(K=4, T=0, G=2, q=2)
    found_failure = False
    for seed in range(6):
        for c in audit_security(random_precoder(params, seed=seed)):
            assert c.consistent
            found_failure = found_failure or not c.ok
    assert found_failure


# ---------------------------------------------------------------------------
# recovery audit
# ---------------------------------------------------------------------------

def test_audit_recovery_fixtures_clean():
    for pre in (fixture_example1(), fixture_example2()):
        checks = audit_recovery(pre)
        assert all(c.residual_entropy == 0 and c.spot_check_ok for c in checks)


def test_audit_recovery_detects_zero_sum_violation():
    pre = fixture_example2()
    bumped = pre.block(1, (1, 2)).data.copy()
    bumped[0, 0] = (bumped[0, 0] + 1) % 5
    broken = pre.replace_block(1, (1, 2), Matrix(pre.params.field, bumped))
    checks = audit_recovery(broken)
    assert any(c.residual_entropy > 0 for c in checks)
    assert any(not c.spot_check_ok for c in checks)
    # users holding the damaged pair's key can still cancel it themselves
    by_user = {c.k: c for c in checks}
    assert by_user[1].residual_entropy == 0
    assert by_user[3].residual_entropy > 0


# ---------------------------------------------------------------------------
# converse audit
# ---------------------------------------------------------------------------

def test_audit_converse_fixture_values_are_tight():
    pre = fixture_example2()
    checks = audit_converse(pre)
    by_id = {}
    for c in checks:
        by_id.setdefault(c.check_id, []).append(c)

    assert all(c.value == 3 and c.bound == 3 and c.ok
               for c in by_id["message_entropy_floor"])
    assert len(by_id["message_entropy_floor"]) == 5

    assert all(c.value == 0 and c.ok for c in by_id["pairwise_input_leak"])
    assert len(by_id["pairwise_input_leak"]) == 20

    assert all(c.value == 9 and c.bound == 9 and c.ok
               for c in by_id["joint_message_floor"])
    assert all(c.value == 3 and c.bound == 3 and c.ok
               for c in by_id["residual_sum_leak"])
    assert all(c.value == 6 and c.bound == 6 and c.ok
               for c in by_id["key_entropy_floor"])
    assert len(by_id["joint_message_floor"]) == 5 * 4

    (budget,) = by_id["key_budget"]
    assert budget.value == budget.bound == 6 and budget.ok


def test_audit_converse_three_user():
    checks = audit_converse(fixture_example1())
    by_id = {}
    for c in checks:
        by_id.setdefault(c.check_id, []).append(c)
    assert all(c.value == 1 and c.bound == 1 for c in by_id["message_entropy_floor"])
    assert all(c.value == 0 for c in by_id["pairwise_input_leak"])
    (budget,) = by_id["key_budget"]
    assert budget.value == budget.bound == 1


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------

def test_full_audit_fixture():
    report = audit(fixture_example2())
    assert report.all_ok
    assert report.security_consistent
    assert len(report.security) == expected_check_count(5, 1)
    assert report.rates.tight


def test_rank_cache_never_outlives_its_precoder():
    # Rank caches are keyed by observable labels, which name different
    # matrices for different precoders. An audit of one scheme must not
    # answer from the ranks of another audited earlier in the process.
    audit(fixture_example2())
    report = audit(zero_precoder(SchemeParams(K=5, T=1, G=2, q=5)))
    assert sum(c.mi for c in report.security) == 165
    with pytest.raises(TypeError):
        audit_security(fixture_example2(), cache={})


def test_audit_of_an_undersized_precoder_reports_every_failure():
    # Keys are drawn at the precoder's L_S = 1, not the parameters' 2, so the
    # recovery spot check runs and the report carries the failures.
    report = audit(random_precoder(SchemeParams(K=5, T=1, G=2, q=101), 0, L_S=1))
    assert not report.all_ok
    assert all(c.ok for c in report.recovery)
    assert len(report.security) == 25
    assert not any(c.rank.ok for c in report.security)
    assert all(c.mi > 0 for c in report.security)
    assert report.security_consistent
    assert not report.rates.ok


def test_audit_rates_undersized_scheme_outside_region():
    params = SchemeParams(K=5, T=1, G=2, q=101)
    rates = audit_rates(random_precoder(params, seed=0, L=3, L_S=1))
    assert not rates.ok and not rates.tight


def test_report_line_grammar_and_determinism():
    report = audit(fixture_example2())
    lines = report.to_lines()
    pattern = re.compile(
        r"^CHECK [a-z_]+ k=(\d+|-) T=\{(\d+(,\d+)*)?\} value=-?\d+(/\d+)? "
        r"bound=-?\d+(/\d+)? (PASS|FAIL)$"
    )
    for line in lines:
        assert pattern.match(line), line
    assert all(line.endswith("PASS") for line in lines)
    assert lines == audit(fixture_example2()).to_lines()


def test_monotone_damage_no_silent_degradation():
    # Zeroing any single nonzero block must move at least one recorded
    # value; nothing may degrade silently.
    pre = fixture_example2()
    base_recovery = [c.residual_entropy for c in audit_recovery(pre, samples=1)]
    base_security = [(c.mi, c.rank.achieved) for c in audit_security(pre)]
    for g in pre.groups:
        for k in g:
            if not pre.block(k, g).data.any():
                continue
            mutated = pre.replace_block(k, g, Matrix.zeros(pre.params.field, 3, 2))
            rec = [c.residual_entropy for c in audit_recovery(mutated, samples=1)]
            sec = [(c.mi, c.rank.achieved) for c in audit_security(mutated)]
            assert rec != base_recovery or sec != base_security, (k, g)


# ---------------------------------------------------------------------------
# infeasible regimes
# ---------------------------------------------------------------------------

def test_infeasibility_group_size_one():
    exp = audit_infeasibility(4, 0, 1, q=2)
    assert exp.reason is InfeasibilityReason.GROUP_SIZE_ONE
    assert len(exp.leak_by_user) == 4
    assert all(mi >= 1 for _, mi in exp.leak_by_user)


def test_infeasibility_group_size_one_exhaustive_candidates():
    # All 16 single-symbol candidates at q=2: a nonzero block breaks the
    # zero-sum cancellation outright, and the only zero-sum candidate leaks.
    params = SchemeParams(K=4, T=0, G=1, q=2)
    for pattern in itertools.product((0, 1), repeat=4):
        candidate = Precoder(params, np.reshape(pattern, (4, 1, 1, 1)))
        exp = audit_infeasibility(4, 0, 1, q=2, candidate=candidate)
        if any(pattern):
            assert "zero-sum fails" in exp.detail
        else:
            assert all(mi >= 1 for _, mi in exp.leak_by_user)


def test_infeasibility_group_too_large():
    exp = audit_infeasibility(5, 2, 3)
    assert exp.reason is InfeasibilityReason.GROUP_TOO_LARGE
    assert "coalition" in exp.detail

    exp = audit_infeasibility(3, 0, 3)  # single key shared by everyone
    assert exp.reason is InfeasibilityReason.GROUP_TOO_LARGE


def test_infeasibility_requires_infeasible_triple():
    with pytest.raises(NotInfeasibleRegimeError):
        audit_infeasibility(5, 1, 2)
