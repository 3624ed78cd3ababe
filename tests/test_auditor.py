import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dsagg import auditor, infocalc
from dsagg.auditor import (
    AuditContext,
    AuditReport,
    InvalidCollusionSetError,
    _first_failure,
    _top_checks,
    audit,
    audit_converse,
    audit_rates,
    audit_recovery,
    audit_security,
    collusion_sets,
    expected_check_count,
    rank_certificate_ok,
    rank_condition,
    submatrix_hhat,
)
from dsagg.linalg import Matrix, _left_null
from dsagg.scheme import (
    ParamsOutOfModelError,
    Precoder,
    SchemeParams,
    build_precoder,
    fixture_example1,
    fixture_example2,
    random_precoder,
    reference_precoder,
)

from conftest import by_kind, zero_precoder


def pairs_of(checks):
    """The security and rank lines of each (user, collusion set) pair, in
    report order; fails unless they alternate pair by pair."""
    security, rank = checks[::2], checks[1::2]
    assert {c.kind for c in security} == {"security"} and {c.kind for c in rank} == {"rank"}
    assert [(c.k, c.colluders) for c in security] == [(c.k, c.colluders) for c in rank]
    return list(zip(security, rank))


def bumped_example2():
    """fixture_example2 with one entry of user 1's (1,2) block bumped: not
    zero-sum."""
    pre = fixture_example2()
    bumped = pre.block(1, (1, 2)).data.copy()
    bumped[0, 0] = (bumped[0, 0] + 1) % 5
    return pre.replace_block(1, (1, 2), Matrix(pre.params.field, bumped))


# ---------------------------------------------------------------------------
# collusion set enumeration
# ---------------------------------------------------------------------------

def test_collusion_sets_order_and_count():
    sets = list(collusion_sets(5, 1, 1))
    assert sets == [(), (2,), (3,), (4,), (5,)]
    assert len(list(collusion_sets(7, 3, 2))) == 1 + 6 + 15
    assert expected_check_count(5, 1) == 25


@pytest.mark.parametrize("K,T", [(5, -1), (5, 3), (5, 9), (2, 0), (0, 0)])
def test_collusion_sets_refuse_a_bound_outside_the_model(K, T):
    # T = -1 used to give no sets and a count of 0, and T = 9 stopped
    # silently at the 4 other users.
    with pytest.raises(ParamsOutOfModelError):
        collusion_sets(K, 1, T)
    with pytest.raises(ParamsOutOfModelError):
        expected_check_count(K, T)


# ---------------------------------------------------------------------------
# surviving-key submatrix
# ---------------------------------------------------------------------------

def test_hhat_shape_and_rank_on_fixture():
    pre = fixture_example2()
    hh = submatrix_hhat(pre, (1, 2))
    assert hh.shape == (9, 6)
    assert hh.rank() == 6


def test_hhat_three_user_single_survivor_pair():
    pre = fixture_example1()
    hh = submatrix_hhat(pre, (1,))
    assert hh.shape == (2, 1)
    assert hh.data.ravel().tolist() == [1, 1]  # +1 and -1 over F_2


def test_hhat_empty_when_no_group_survives():
    # An oversized group (G >= K - T) leaves no key outside the colluders'
    # reach; the submatrix has zero columns and the condition cannot hold.
    params = SchemeParams(K=5, T=2, G=3, q=5)
    assert not params.feasible
    pre = zero_precoder(params, L=1, L_S=1)
    hh = submatrix_hhat(pre, (1, 2, 3))
    assert hh.shape == (2, 0)
    check = rank_condition(pre, (1, 2, 3))
    assert check.achieved == 0 and check.required == 1 and not check.ok


def test_hhat_rejects_bad_collusion_sets():
    pre = fixture_example2()
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, (1, 1))
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, (1, 2, 3))  # exceeds T + 1 = 2
    with pytest.raises(InvalidCollusionSetError):
        submatrix_hhat(pre, (9,))
    # Non-integer users used to pass: a colluder 2.5 removed no user and
    # held the 12 x 12 H-hat's rank 9 against the 6 of one colluder, a user
    # 1.5 alone passed with 12 >= 9, and collusion_sets(5, 2.5, 1) ranged
    # over all five users.
    for coalition in ((1, 2.5), (1.5,), (True, 2), (1, True), (1, np.float64(2))):
        with pytest.raises(InvalidCollusionSetError, match="users must be integers"):
            rank_condition(pre, coalition)
    # A nested user was flattened: collusion_sets(5, (1,), 1) took user 1.
    for k in (2.5, True, (1,), [2], [[3]]):
        with pytest.raises(InvalidCollusionSetError, match="users must be integers"):
            list(collusion_sets(5, k, 1))
    # Integer arrays' scalars still pass.
    assert rank_condition(pre, (np.int64(1), np.int64(2))) == rank_condition(pre, (1, 2))
    assert list(collusion_sets(5, np.int64(2), 1)) == list(collusion_sets(5, 2, 1))


@pytest.mark.parametrize("coalition", [(), (1, 1), (2, 1, 2), (1, 2, 3), (0,), (1, 6),
                                       (True,), (1, 2.5), (1, None), ("x",), "x",
                                       None, 3, 2.0, (1, (2, 3)), [[1, 2]], [(1,), 2]])
def test_both_certificate_entries_refuse_a_bad_coalition(coalition):
    # fixture_example2 is (5,1,2): a coalition holds one or two of users 1..5.
    # None, 3 and 2.0 raised a bare TypeError, (1, (2, 3)) and [[1, 2]] a
    # bare ValueError, and [(1,), 2] passed as (1, 2).
    pre = fixture_example2()
    for entry in (rank_condition, submatrix_hhat):
        with pytest.raises(InvalidCollusionSetError):
            entry(pre, coalition)


def test_every_order_of_a_coalition_gives_one_rank_check_of_ints():
    pre = random_precoder(SchemeParams(K=6, T=2, G=2, q=101), seed=0)
    for d in [(1, 2, 3), (2, 4, 6), (1, 5), (6,)]:
        checks = [rank_condition(pre, order) for order in itertools.permutations(d)]
        checks.append(rank_condition(pre, np.array(d[::-1])))
        assert all(c == checks[0] for c in checks)
        assert checks[0].coalition == d
        assert all(type(u) is int for c in checks for u in c.coalition)
        assert submatrix_hhat(pre, d[::-1]) == submatrix_hhat(pre, d)


# ---------------------------------------------------------------------------
# rank condition
# ---------------------------------------------------------------------------

def test_rank_condition_on_fixture_all_pairs():
    pre = fixture_example2()
    for k in pre.params.users:
        for cset in collusion_sets(5, k, 1):
            check = rank_condition(pre, (k, *cset))
            assert check.required == (5 - len(cset) - 2) * 3
            assert check.ok


def test_rank_condition_detects_zeroed_block():
    pre = fixture_example2()
    zero = Matrix.zeros(pre.params.field, 3, 2)
    broken = pre.replace_block(3, (3, 4), zero).replace_block(4, (3, 4), zero)
    check = rank_condition(broken, (1, 2))
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
                check = rank_condition(pre, (k, *cset))
                assert check.achieved <= 3 < 6 == check.required
                assert not check.ok


# ---------------------------------------------------------------------------
# security audit
# ---------------------------------------------------------------------------

def test_audit_security_fixture_all_zero_mi():
    pairs = pairs_of(audit_security(fixture_example2()))
    assert len(pairs) == expected_check_count(5, 1)
    assert all(s.value == 0 and s.ok and r.ok for s, r in pairs)


def test_audit_security_three_user():
    pairs = pairs_of(audit_security(fixture_example1()))
    assert len(pairs) == 3
    assert all(s.colluders == () and s.value == 0 for s, _ in pairs)


def test_audit_security_unmasked_scheme_leaks_everywhere():
    params = SchemeParams(K=3, T=0, G=2, q=2)
    pairs = pairs_of(audit_security(zero_precoder(params)))
    assert all(s.value > 0 and not s.ok and not r.ok and r.agrees for s, r in pairs)


def test_security_mi_equals_rank_deficit():
    # For zero-sum schemes the MI equals required minus achieved rank; the
    # audit records both sides so the equivalence is observable.
    params = SchemeParams(K=5, T=1, G=2, q=101)
    for pre in (build_precoder(params, seed=0),
                random_precoder(params, seed=3, L=3, L_S=1)):
        for s, r in pairs_of(audit_security(pre)):
            assert s.value == r.bound - min(r.value, r.bound)
            assert r.agrees


def test_security_equivalence_on_small_field_failures():
    # On F_2 random draws regularly miss the rank floor; MI must flag
    # exactly the same (user, set) pairs.
    params = SchemeParams(K=4, T=0, G=2, q=2)
    found_failure = False
    for seed in range(6):
        for s, r in pairs_of(audit_security(random_precoder(params, seed=seed))):
            assert r.agrees and s.ok == r.ok
            found_failure = found_failure or not s.ok
    assert found_failure


# ---------------------------------------------------------------------------
# per-coalition values against the per-pair reference
# ---------------------------------------------------------------------------

def pair_security_terms(precoder, k, cset):
    """The security MI's terms in pair form: every other user's message and
    input, given the global sum and the material of k and its colluders."""
    layout = infocalc.layout_for(precoder)
    others = [u for u in precoder.params.users if u != k]
    view = [infocalc.observe_total(layout)]
    for u in (k, *cset):
        view += [infocalc.observe_input(layout, u), infocalc.observe_key_bundle(layout, u)]
    return ([infocalc.observe_message(precoder, u) for u in others],
            [infocalc.observe_input(layout, u) for u in others], view)


@pytest.fixture(scope="module")
def coalition_precoders():
    p612 = SchemeParams(K=6, T=1, G=2, q=101)
    built = build_precoder(p612, seed=0)
    zero = Matrix.zeros(p612.field, p612.L, p612.L_S)
    return {
        "(6,1,2)": built,
        "(7,3,3)": build_precoder(SchemeParams(K=7, T=3, G=3, q=101), seed=0),
        "zeroed block": built.replace_block(1, (1, 2), zero),
        "undersized": random_precoder(p612, seed=0, L_S=p612.L_S - 1),
    }


@pytest.mark.parametrize("name", ["(6,1,2)", "(7,3,3)", "zeroed block", "undersized"])
def test_coalition_values_equal_every_pair(coalition_precoders, name):
    pre = coalition_precoders[name]
    p = pre.params
    checks = audit_security(pre)
    pairs = pairs_of(checks)
    assert [(s.k, s.colluders) for s, _ in pairs] == [
        (k, cset) for k in p.users for cset in collusion_sets(p.K, k, p.T)]
    for s, r in pairs:
        reference = rank_condition(pre, (s.k, *s.colluders))
        assert (r.value, r.bound) == (reference.achieved, reference.required)
        assert s.value == infocalc.mutual_information(*pair_security_terms(pre, s.k, s.colluders))
    if name in ("zeroed block", "undersized"):
        assert any(not c.ok for c in checks)
    else:
        assert all(c.ok for c in checks)


def test_security_audit_ranks_only_its_mi_stacks(monkeypatch):
    # The rank certificate is H(X_S | W, Z_D), read from the MI's own
    # cached stacks: the audit makes no rank call beyond the MI's. The
    # merges peel [X_S; sum W; W_D; Z_D] whole, so that is one remainder per
    # coalition (8 + 28 + 56 of sizes 1 to T + 1): the keys that survive D
    # under X_S, where no column has two nonzeros.
    pre = build_precoder(SchemeParams(K=8, T=2, G=3, q=101), seed=0)
    calls = []
    plain_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: calls.append(m.shape) or plain_rank(m))

    audit_security(AuditContext(pre))
    audited = len(calls)
    calls.clear()
    ctx = AuditContext(pre)
    for size in range(1, pre.params.T + 2):
        for coalition in itertools.combinations(pre.params.users, size):
            infocalc.mutual_information(*ctx.security_terms(coalition), cache=ctx.cache)
    assert audited == len(calls) == 92


# q=3 runs on the damaged precoder only: each enumeration there takes about
# a second, and the damaged one is where pairs leak.
@pytest.mark.parametrize("q,damaged", [(2, False), (2, True), (3, True)])
def test_coalition_mi_matches_pair_enumeration(q, damaged):
    # The enumeration oracle shares no code with the rank path: it checks
    # the coalition identity itself, on the pair form's own observables.
    params = SchemeParams(K=4, T=1, G=2, q=q)
    pre = reference_precoder(params)
    if damaged:
        pre = pre.replace_block(1, (1, 2), Matrix.zeros(params.field, pre.L, pre.L_S))
    security = by_kind(audit_security(pre))["security"]
    assert len(security) == 16
    for c in security:
        assert c.value == infocalc.brute_force_mi(*pair_security_terms(pre, c.k, c.colluders))
    assert any(c.value > 0 for c in security) == damaged


def every_pair_ok(pre):
    p = pre.params
    return all(rank_condition(pre, (k, *cset)).ok
               for k in p.users for cset in collusion_sets(p.K, k, p.T))


def largest_coalitions_ok(pre):
    p = pre.params
    return all(rank_condition(pre, d).ok
               for d in itertools.combinations(p.users, p.T + 1))


def test_rank_certificate_agrees_with_every_pair(coalition_precoders):
    # Over F_2 every one of these (5,1,2) draws fails: most at both
    # coalition sizes, seeds 16 and 19 only at the largest. The built
    # precoders pass.
    params = SchemeParams(K=5, T=1, G=2, q=2)
    precoders = [random_precoder(params, seed=s) for s in range(20)]
    precoders += coalition_precoders.values()
    verdicts = [rank_certificate_ok(pre) for pre in precoders]
    assert verdicts == [every_pair_ok(pre) for pre in precoders]
    assert True in verdicts and False in verdicts


def test_zero_sum_certificate_matches_every_pair_on_small_fields():
    # rank_certificate_ok ranks only the coalitions of size T+1 of a
    # zero-sum precoder; the lemma in its docstring covers the rest. Over
    # these fields some draws pass that check and some fail it, and every
    # verdict must equal the exhaustive one.
    verdicts = []
    for K, T, G, m in [(5, 1, 2, 1), (6, 1, 2, 2), (6, 2, 2, 1), (6, 1, 3, 1),
                       (7, 2, 3, 1), (7, 3, 3, 1)]:
        for q in (5, 7, 11, 13):
            for seed in range(12):
                pre = random_precoder(SchemeParams(K=K, T=T, G=G, q=q, m=m), seed=seed)
                verdicts.append(rank_certificate_ok(pre))
                assert verdicts[-1] == every_pair_ok(pre) == largest_coalitions_ok(pre)
    assert True in verdicts and False in verdicts


# Zero-sum draws, passing and failing: at (4,1,2) and (5,2,2) the E = D ∪ {u}
# of every coalition leaves one survivor, so X = Ĥ(E) has no columns; the
# last precoder carries no key symbols at all (L_S = 0).
_TOP_DRAWS = ([((5, 1, 2), q, s) for q in (2, 3, 5, 13) for s in range(6)]
              + [((6, 0, 3), 3, s) for s in range(6)]
              + [((7, 3, 3), 13, s) for s in range(22)]
              + [((8, 0, 4), 5, s) for s in range(7)]
              + [((4, 1, 2), 2, s) for s in range(4)] + [((5, 2, 2), 3, s) for s in range(4)])


def test_certificate_ranks_equal_the_dense_reference():
    precoders = [random_precoder(SchemeParams(*triple, q=q), s) for triple, q, s in _TOP_DRAWS]
    precoders.append(random_precoder(SchemeParams(5, 1, 2, q=7), 0, L_S=0))
    verdicts = []
    for pre in precoders:
        assert pre.zero_sum_ok()
        p = pre.params
        checks = list(_top_checks(pre))
        assert [c.coalition for c in checks] == list(itertools.combinations(p.users, p.T + 1))
        for c in checks:
            assert c == rank_condition(pre, c.coalition)
        verdicts += [c.ok for c in checks]
        assert _first_failure(pre) == next((c for c in checks if not c.ok), None)
    assert True in verdicts and False in verdicts
    assert not any(c.ok for c in _top_checks(precoders[-1]))


@pytest.mark.parametrize("triple,eliminations", [((8, 0, 4), 4), ((7, 3, 3), 14), ((6, 1, 2), 8)])
def test_certificate_shares_each_elimination(monkeypatch, triple, eliminations):
    # At T=0 the coalitions pair up as {1},{2} / {3},{4} / ...: one X for
    # each pair. At T>0 a coalition reuses the X of the one before it when
    # that one's D ∪ {u} holds it.
    eliminated = []
    monkeypatch.setattr(auditor, "_left_null",
                        lambda a, q: eliminated.append(a.shape) or _left_null(a, q))
    pre = random_precoder(SchemeParams(*triple, q=101), 0)
    assert len(list(_top_checks(pre))) == math.comb(triple[0], triple[1] + 1)
    assert len(eliminated) == eliminations


@pytest.mark.parametrize("damage", ["zeroed block", "perturbed group"])
def test_certificate_of_a_precoder_that_is_not_zero_sum_ranks_every_coalition(
        monkeypatch, coalition_precoders, damage):
    built = coalition_precoders["(6,1,2)"]
    p = built.params
    if damage == "zeroed block":
        pre = coalition_precoders["zeroed block"]
    else:
        blocks = built.blocks.copy()
        blocks[p.group_index((3, 5))] += 1
        pre = Precoder(p, blocks)
    assert not pre.zero_sum_ok()
    calls = []
    plain_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: calls.append(m.shape) or plain_rank(m))
    # Both still reach every required rank, so no coalition stops the loop.
    assert rank_certificate_ok(pre)
    assert len(calls) == 6 + 15  # every coalition of size 1 and 2
    calls.clear()
    assert rank_certificate_ok(built)
    assert len(calls) == 15  # zero-sum: the size-2 coalitions only


# Each enumeration at m=2 covers 2**20 realizations and takes seconds, so
# the draws there are few; the reference precoder passes at every m.
@pytest.mark.parametrize("q,m,seeds", [(2, 1, 16), (3, 1, 16), (2, 2, 4)])
def test_oracle_confirms_smaller_coalitions_of_draws_passing_the_largest(q, m, seeds):
    params = SchemeParams(K=4, T=1, G=2, q=q, m=m)
    precoders = [reference_precoder(params)]
    precoders += [random_precoder(params, seed=s) for s in range(seeds)]
    passing = [pre for pre in precoders if largest_coalitions_ok(pre)]
    assert all(pre.zero_sum_ok() for pre in precoders) and passing
    if m == 1:  # some random draws pass too, and some fail
        assert 1 < len(passing) < len(precoders)
    for pre in passing:
        for k in params.users:
            assert infocalc.brute_force_mi(*pair_security_terms(pre, k, ())) == 0


# ---------------------------------------------------------------------------
# recovery audit
# ---------------------------------------------------------------------------

def test_audit_recovery_fixtures_clean():
    for pre in (fixture_example1(), fixture_example2()):
        checks = audit_recovery(pre)
        assert [c.k for c in checks] == list(pre.params.users)
        assert all(c.kind == "recovery" and c.value == 0 and c.agrees and c.ok
                   for c in checks)


def test_each_spot_check_draw_computes_the_masks_once(monkeypatch):
    calls = []
    masks = Precoder.masks
    monkeypatch.setattr(Precoder, "masks", lambda pre, keys: calls.append(1) or masks(pre, keys))
    audit_recovery(fixture_example2())
    assert len(calls) == 2  # two seeded draws


def test_audit_recovery_detects_zero_sum_violation():
    checks = audit_recovery(bumped_example2())
    assert any(c.value > 0 for c in checks)
    assert not any(c.agrees or c.ok for c in checks)  # the spot check fails
    # users holding the damaged pair's key can still cancel it themselves
    by_user = {c.k: c for c in checks}
    assert by_user[1].value == 0
    assert by_user[3].value > 0


# ---------------------------------------------------------------------------
# converse audit
# ---------------------------------------------------------------------------

def test_audit_converse_fixture_values_are_tight():
    pre = fixture_example2()
    by_id = by_kind(audit_converse(pre))

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
    by_id = by_kind(audit_converse(fixture_example1()))
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
    assert all(c.agrees for c in report.checks)
    kinds = by_kind(report.checks)
    assert len(kinds["security"]) == len(kinds["rank"]) == expected_check_count(5, 1)
    assert all(c.value == c.bound for c in kinds["rate_x"] + kinds["rate_s"])


def test_rank_cache_never_outlives_its_precoder():
    # Every precoder names its observables alike ("X1", "W1", ...). An audit
    # of one scheme must not answer from the ranks of another audited
    # earlier in the process.
    audit(fixture_example2())
    report = audit(zero_precoder(SchemeParams(K=5, T=1, G=2, q=5)))
    assert sum(c.value for c in by_kind(report.checks)["security"]) == 165
    with pytest.raises(TypeError):
        audit_security(fixture_example2(), cache={})


def test_audit_of_an_undersized_precoder_reports_every_failure():
    # Keys are drawn at the precoder's L_S = 1, not the parameters' 2, so the
    # recovery spot check runs and the report carries the failures.
    report = audit(random_precoder(SchemeParams(K=5, T=1, G=2, q=101), 0, L_S=1))
    assert not report.all_ok
    kinds = by_kind(report.checks)
    assert all(c.ok for c in kinds["recovery"])
    assert len(kinds["security"]) == len(kinds["rank"]) == 25
    assert not any(c.ok for c in kinds["rank"])
    assert all(c.value > 0 for c in kinds["security"])
    assert all(c.agrees for c in report.checks)
    assert kinds["rate_x"][0].ok and not kinds["rate_s"][0].ok


def test_audit_rates_undersized_scheme_outside_region():
    params = SchemeParams(K=5, T=1, G=2, q=101)
    rate_x, rate_s = audit_rates(random_precoder(params, seed=0, L=3, L_S=1))
    assert (rate_x.kind, rate_s.kind) == ("rate_x", "rate_s")
    assert rate_x.ok and rate_s.value == Fraction(1, 3) < rate_s.bound and not rate_s.ok


_VERDICT_PRECODERS = {
    "passing_example2": fixture_example2,
    "passing_6_1_2": lambda: build_precoder(SchemeParams(6, 1, 2, q=101), seed=0),
    "zeroed_block_not_zero_sum": lambda: fixture_example2().replace_block(
        1, (1, 2), Matrix.zeros(fixture_example2().params.field, 3, 2)),
    "undersized_6_1_2": lambda: random_precoder(SchemeParams(6, 1, 2, q=101), 0, L=3, L_S=1),
    "failing_5_2_2_over_F2": lambda: random_precoder(SchemeParams(5, 2, 2, q=2), 0),
    "bumped_entry_not_zero_sum": bumped_example2,
}


@pytest.mark.parametrize("name", sorted(_VERDICT_PRECODERS))
def test_all_ok_reads_the_printed_verdicts(name):
    pre = _VERDICT_PRECODERS[name]()
    report = audit(pre)
    assert pre.zero_sum_ok() == ("not_zero_sum" not in name)
    lines = report.to_lines()
    assert lines == [c.line() for c in report.checks]
    assert all(line.endswith((" PASS", " FAIL")) for line in lines)
    assert report.all_ok == all(line.endswith(" PASS") for line in lines)
    assert report.all_ok == name.startswith("passing")


def test_a_disagreeing_rank_fails_its_line_and_the_report(monkeypatch):
    # A rank one short of what the MI implies: the scheme is secure, so
    # every security line still passes, but each rank line disagrees with
    # its MI and fails as a fault of the auditor.
    pre = build_precoder(SchemeParams(5, 1, 2, q=101), seed=0)
    entropy = infocalc.conditional_entropy
    monkeypatch.setattr(infocalc, "conditional_entropy", lambda *a, **kw: entropy(*a, **kw) - 1)
    checks = audit_security(pre)
    kinds = by_kind(checks)
    assert len(kinds["rank"]) == 25
    assert all(not c.agrees and not c.ok and c.line().endswith(" FAIL") for c in kinds["rank"])
    assert all(c.ok and c.line().endswith(" PASS") for c in kinds["security"])
    assert not AuditReport(pre.params, checks).all_ok
    assert not AuditReport(pre.params, []).all_ok


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
    base_recovery = [c.value for c in audit_recovery(pre)]
    base_security = [c.value for c in audit_security(pre)]
    for g in pre.params.members.tolist():
        for k in g:
            if not pre.block(k, g).data.any():
                continue
            mutated = pre.replace_block(k, g, Matrix.zeros(pre.params.field, 3, 2))
            rec = [c.value for c in audit_recovery(mutated)]
            sec = [c.value for c in audit_security(mutated)]
            assert rec != base_recovery or sec != base_security, (k, g)


# ---------------------------------------------------------------------------
# infeasible regimes
# ---------------------------------------------------------------------------

def test_infeasibility_group_size_one():
    # With singleton groups the only zero-sum (4,0,1) scheme is all zero, so
    # every user's input reaches the server unmasked.
    params = SchemeParams(K=4, T=0, G=1, q=2)
    pairs = pairs_of(audit_security(zero_precoder(params, L=1, L_S=1)))
    assert [s.k for s, _ in pairs] == [1, 2, 3, 4]
    for s, r in pairs:
        assert s.value >= 1 and r.agrees
        assert (r.value, r.bound) == (0, 2)


def test_infeasibility_group_size_one_exhaustive_candidates():
    # All 16 single-symbol (4,0,1) candidates at q=2: a nonzero block breaks
    # the zero-sum cancellation outright, and the only zero-sum candidate leaks.
    params = SchemeParams(K=4, T=0, G=1, q=2)
    for pattern in itertools.product((0, 1), repeat=4):
        candidate = Precoder(params, np.reshape(pattern, (4, 1, 1, 1)))
        if any(pattern):
            assert not candidate.zero_sum_ok(), pattern
        else:
            assert all(c.value >= 1 for c in by_kind(audit_security(candidate))["security"])
