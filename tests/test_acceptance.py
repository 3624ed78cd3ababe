"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and holding to its stated runtime budget. Run with `pytest -s` to see the
lines as they complete."""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import dsagg
from dsagg import infocalc
from dsagg.auditor import audit, audit_converse, collusion_sets, rank_condition
from dsagg.scheme import (
    GroupKeySet,
    SchemeParams,
    build_precoder,
    capacity,
    encode,
    fixture_example1,
    fixture_example2,
    random_precoder,
    recover,
)

from conftest import by_kind, feasible_triples


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s / budget {budget_seconds}s)")
    assert elapsed < budget_seconds


# ---------------------------------------------------------------------------
# shared: every feasible triple up to K = 7, built at q = 101 and audited
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_schemes():
    start = time.perf_counter()
    built = {}
    for K, T, G in feasible_triples(7):
        params = SchemeParams(K=K, T=T, G=G, q=101, m=1)
        precoder = build_precoder(params, seed=0, max_retries=16)
        built[(K, T, G)] = (precoder, audit(precoder, seed=0))
    return built, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_capacity_region_exhaustive():
    with criterion(1, "capacity region on the full small grid", 1.0):
        for K in range(3, 9):
            for T in range(0, K - 2):
                for G in range(1, K + 1):
                    region = capacity(K, T, G)
                    expect_infeasible = G == 1 or G >= K - T
                    assert region.feasible == (not expect_infeasible), (K, T, G)
                    if region.feasible:
                        assert region.r_s_star == Fraction(
                            K - T - 2, math.comb(K - T - 1, G)), (K, T, G)
                        assert region.r_x_star == 1


def test_criterion_2_three_user_scheme_reproduction():
    with criterion(2, "3-user worked example, exhaustive", 1.0):
        pre = fixture_example1()
        p = pre.params

        # all 2^6 (input, key) realizations decode exactly
        for bits in itertools.product(range(2), repeat=6):
            w = np.array(bits[:3]).reshape(3, 1)
            keys = GroupKeySet(p, np.array(bits[3:]).reshape(3, 1))  # (1,2), (1,3), (2,3)
            masks = pre.masks(keys)
            got = recover(pre, masks, encode(pre, masks, w))
            assert np.array_equal(got, (w.sum(axis=0) - w) % 2)

        # exact security for all three users
        checks = dsagg.audit_security(pre)
        assert [c.value for c in by_kind(checks)["security"]] == [0, 0, 0]
        assert all(c.ok for c in checks)


def test_criterion_3_five_user_fixture_reproduction():
    with criterion(3, "5-user fixture: ranks, recovery, security", 5.0):
        pre = fixture_example2()
        p = pre.params
        assert pre.zero_sum_ok()

        # rank exactly 6 for every (user, singleton colluder) pair
        for k in p.users:
            for t in p.users:
                if t == k:
                    continue
                check = rank_condition(pre, (k, t))
                assert check.required == 6
                assert check.achieved == 6

        # seeded recovery identity
        rng = np.random.default_rng(0)
        for trial in range(3):
            masks = pre.masks(dsagg.sample_keys(pre, trial))
            w = rng.integers(0, 5, size=(5, 3))
            got = recover(pre, masks, encode(pre, masks, w))
            assert np.array_equal(got, (w.sum(axis=0) - w) % 5)

        # exact MI zero on all 25 (user, collusion set) pairs
        checks = dsagg.audit_security(pre)
        security = by_kind(checks)["security"]
        assert len(security) == 25
        assert all(c.value == 0 for c in security)
        assert all(c.ok for c in checks)  # the rank lines agree


def test_criterion_4_randomized_construction_all_triples(grid_schemes):
    built, elapsed = grid_schemes
    with criterion(4, f"randomized construction + full audit, K <= 7 "
                      f"(build+audit took {elapsed:.2f}s)", 60.0):
        assert set(built) == set(feasible_triples(7))
        for triple, (precoder, report) in built.items():
            assert report.all_ok, triple
            assert all(c.agrees for c in report.checks), triple
            assert len(by_kind(report.checks)["security"]) == dsagg.expected_check_count(
                triple[0], triple[1]), triple
        assert elapsed < 60.0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "enumeration oracle equals rank calculus", 30.0):
        for q in (2, 3, 5):
            params = SchemeParams(K=3, T=0, G=2, q=q)
            pre = fixture_example1() if q == 2 else dsagg.reference_precoder(params)
            lay = infocalc.layout_for(pre)
            assert q ** lay.N <= 2**20

            msgs = {k: infocalc.observe_message(pre, k) for k in params.users}
            ins = {k: infocalc.observe_input(lay, k) for k in params.users}
            total = infocalc.observe_total(lay)

            for k in params.users:
                others = [u for u in params.users if u != k]
                a = [msgs[u] for u in others]
                b = [ins[u] for u in others]
                view = [total, ins[k], infocalc.observe_key_bundle(lay, k)]

                # privacy query
                ranked = infocalc.mutual_information(a, b, view)
                assert infocalc.brute_force_mi(a, b, view) == Fraction(ranked)

                # recovery query
                cond = a + [ins[k], infocalc.observe_key_bundle(lay, k)]
                residual = infocalc.conditional_entropy([total], cond)
                brute = (infocalc.brute_force_entropy([total] + cond)
                         - infocalc.brute_force_entropy(cond))
                assert brute == Fraction(residual)

            # five random observable queries per instance
            rng = np.random.Generator(np.random.PCG64(1000 + q))
            for i in range(5):
                obs = []
                for tag in "abc":
                    rows = int(rng.integers(1, 4))
                    mat = dsagg.random_matrix(rows, lay.N, params.field, rng=rng)
                    obs.append([infocalc.LinearObservable(f"{tag}{i}", mat, lay)])
                ranked = infocalc.mutual_information(*obs)
                assert infocalc.brute_force_mi(*obs) == Fraction(ranked)


def test_criterion_6_converse_floors_tight(grid_schemes):
    built, _ = grid_schemes
    with criterion(6, "converse floors hold (tight) on every built scheme", 30.0):
        for (K, T, G), (precoder, _) in built.items():
            L, L_S = precoder.L, precoder.L_S
            by_id = by_kind(audit_converse(precoder))

            assert all(c.value >= L and c.ok for c in by_id["message_entropy_floor"])
            assert all(c.value == 0 for c in by_id["pairwise_input_leak"])
            for c in by_id["joint_message_floor"]:
                assert c.value >= (K - len(c.colluders) - 1) * L and c.ok
            assert all(c.value <= L and c.ok for c in by_id["residual_sum_leak"])
            # surviving keys are exactly the C(K-T-1, G) held outside the
            # coalition, so the floor is met through an exact equality chain
            assert all(c.value == math.comb(K - T - 1, G) * L_S
                       and c.value >= (K - T - 2) * L and c.ok
                       for c in by_id["key_entropy_floor"])

            # key budget met with equality: the construction is tight
            (budget,) = by_id["key_budget"]
            assert budget.value == math.comb(K - T - 1, G) * L_S
            assert budget.bound == (K - T - 2) * L
            assert budget.value == budget.bound


def test_criterion_7_undersized_keys_always_fail():
    with criterion(7, "undersized keys fail the rank floor everywhere", 5.0):
        params = SchemeParams(K=5, T=1, G=2, q=101)
        for seed in range(100):
            pre = random_precoder(params, seed=seed, L=3, L_S=1)
            for k in params.users:
                for t in params.users:
                    if t == k:
                        continue
                    check = rank_condition(pre, (k, t))
                    assert check.achieved <= 3 < 6 == check.required
                    assert not check.ok


def test_criterion_8_rate_sweep_reference_data(capsys):
    with criterion(8, "rate sweep at K=20: exact rationals, minimum at G=9", 1.0):
        from dsagg.cli import main

        assert main(["rates-sweep", "-K", "20", "-T", "0"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 20
        feasible = {int(r[0]): r for r in rows if r[1] == "yes"}
        assert set(feasible) == set(range(2, 20))

        r_s = {g: Fraction(feasible[g][2]) for g in feasible}
        r_z = {g: Fraction(feasible[g][3]) for g in feasible}
        r_zs = {g: Fraction(feasible[g][4]) for g in feasible}
        for g in feasible:
            assert r_s[g] == Fraction(18, math.comb(19, g))
            assert r_z[g] == math.comb(19, g - 1) * r_s[g]
            assert r_zs[g] == math.comb(20, g) * r_s[g]

        gs = sorted(feasible)
        assert all(r_z[a] < r_z[b] for a, b in zip(gs, gs[1:]))
        assert all(r_zs[a] < r_zs[b] for a, b in zip(gs, gs[1:]))
        assert min(r_s.values()) == r_s[9]
        assert min(g for g in feasible if r_s[g] == r_s[9]) == 9


def test_criterion_9_structured_inputs_keep_working():
    with criterion(9, "recovery and masking independent of input shape", 1.0):
        pre = fixture_example2()
        p = pre.params
        masks = pre.masks(dsagg.sample_keys(pre, 12))

        structured = {
            "all-equal": np.full((5, 3), 4, dtype=np.int64),
            "one-hot": np.eye(5, 3, dtype=np.int64),
            "constant": np.tile(np.array([1, 2, 3]), (5, 1)),
        }
        for name, w in structured.items():
            got = recover(pre, masks, encode(pre, masks, w))
            assert np.array_equal(got, (w.sum(axis=0) - w) % 5), name

        # the mask a user applies never depends on its input: encoding is an
        # affine shift, so the privacy certificate is input-independent
        mask_only = encode(pre, masks, np.zeros((5, 3), dtype=np.int64))
        for name, w in structured.items():
            with_input = encode(pre, masks, w)
            assert np.array_equal((with_input - mask_only) % 5, w % 5), name

        # and that certificate holds for every (user, collusion set)
        for k in p.users:
            for cset in collusion_sets(5, k, 1):
                assert rank_condition(pre, (k, *cset)).ok
