import csv
import io
import time
from fractions import Fraction

import pytest

import dsagg.cli
import dsagg.infocalc
import dsagg.scheme
from dsagg.cli import main
from dsagg.scheme import (
    SchemeParams,
    fixture_example2,
    load_scheme,
    random_precoder,
    reference_precoder,
    save_scheme,
    scheme_to_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# feasible
# ---------------------------------------------------------------------------

def test_feasible_output_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "feasible", "-K", "5", "-T", "1", "-G", "2")
    assert code == 0
    assert out.startswith("FEASIBLE R_X*=1 R_S*=2/3")

    code, out, _ = run_cli(capsys, "feasible", "-K", "4", "-T", "0", "-G", "1")
    assert code == 2
    assert out.strip() == "INFEASIBLE: G=1"

    code, out, _ = run_cli(capsys, "feasible", "-K", "5", "-T", "2", "-G", "3")
    assert code == 2
    assert out.strip() == "INFEASIBLE: G>=K-T"

    code, _, err = run_cli(capsys, "feasible", "-K", "2", "-T", "0", "-G", "2")
    assert code == 1
    assert "3 users" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "feasible", "-K", "5", "-T", "1", "-G", "2", "--nope")
    assert code == 1


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    scheme = tmp_path / "s.dsa"
    code, _, _ = run_cli(capsys, "build", "-K", "5", "-T", "1", "-G", "2",
                         "--q", "5", "--fixture", "example2", "--out", str(scheme))
    assert code == 0
    for argv in (("audit", str(scheme), "--q", "7"),
                 ("simulate", str(scheme), "--format", "csv"),
                 ("feasible", "-K", "5", "-T", "1", "-G", "2", "--seed", "1"),
                 ("feasible", "-K", "5", "-T", "1", "-G", "2", "--format", "csv"),
                 ("rates-sweep", "-K", "5", "-T", "1", "--m", "2"),
                 # --q is no abbreviation of oracle's --queries
                 ("oracle", str(scheme), "--q", "7"),
                 ("oracle", str(scheme), "-K", "5", "--m", "1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# rates sweep
# ---------------------------------------------------------------------------

def test_rates_sweep_csv(capsys):
    code, out, err = run_cli(capsys, "rates-sweep", "-K", "20", "-T", "0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 20
    feasible = {int(r["G"]): r for r in rows if r["feasible"] == "yes"}
    assert set(feasible) == set(range(2, 20))
    assert rows[0]["feasible"] == "no" and rows[19]["feasible"] == "no"

    # rationals round-trip losslessly
    r_s = {g: Fraction(feasible[g]["R_S"]) for g in feasible}
    assert r_s[2] == Fraction(18, 171)
    assert min(r_s.values()) == r_s[9] == r_s[10]
    assert err.startswith("min R_S* at G=9")

    # correlated-key baseline reference lines
    assert all(r["R_Z_baseline"] == "1" and r["R_ZSigma_baseline"] == "19"
               for r in rows)

    # individual and total key rates strictly increase with G
    r_z = [Fraction(feasible[g]["R_Z"]) for g in sorted(feasible)]
    r_zs = [Fraction(feasible[g]["R_ZSigma"]) for g in sorted(feasible)]
    assert all(a < b for a, b in zip(r_z, r_z[1:]))
    assert all(a < b for a, b in zip(r_zs, r_zs[1:]))


def test_rates_sweep_small_setting_marks_infeasible_rows(capsys):
    code, out, _ = run_cli(capsys, "rates-sweep", "-K", "5", "-T", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    flags = {int(r["G"]): r["feasible"] for r in rows}
    assert flags == {1: "no", 2: "yes", 3: "yes", 4: "no", 5: "no"}


def test_rates_sweep_requires_three_survivors(capsys):
    code, out, err = run_cli(capsys, "rates-sweep", "-K", "4", "-T", "2")
    assert code == 1 and out == ""
    assert err == "error: collusion bound T=2 outside [0, 1]\n"


# ---------------------------------------------------------------------------
# build / audit / simulate
# ---------------------------------------------------------------------------

def test_build_fixture_audit_roundtrip(tmp_path, capsys):
    scheme = tmp_path / "s.dsa"
    code, _, _ = run_cli(capsys, "build", "-K", "5", "-T", "1", "-G", "2",
                         "--q", "5", "--fixture", "example2", "--out", str(scheme))
    assert code == 0
    assert scheme.read_text().startswith("DSA1 5 1 2 5 1\n")

    code, out, _ = run_cli(capsys, "audit", str(scheme))
    assert code == 0
    assert "CHECKS PASS" in out
    assert "FAIL" not in out


def test_audit_flags_damage(tmp_path, capsys):
    pre = load_scheme_text_mutated()
    scheme = tmp_path / "bad.dsa"
    scheme.write_text(pre)
    code, out, _ = run_cli(capsys, "audit", str(scheme))
    assert code == 4
    assert "FAIL" in out


def load_scheme_text_mutated() -> str:
    text = scheme_to_text(fixture_example2())
    lines = text.splitlines()
    # zero out the first data row of the first block (line 3)
    lines[2] = "0 0"
    return "\n".join(lines) + "\n"


def test_audit_format_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.dsa"
    bad.write_text("DSA1 5 1 2 5 1\n3 2\n1 1\n")
    code, _, err = run_cli(capsys, "audit", str(bad))
    assert code == 3
    assert "line" in err


def test_audit_signed_entry_exit_3(tmp_path, capsys):
    # A 20-digit entry does not fit int64: it raised OverflowError, which
    # main does not catch.
    for line, edit in ((3, lambda s: "+" + s), (4, lambda s: "1" * 20 + " 0")):
        lines = scheme_to_text(fixture_example2()).splitlines()
        lines[line - 1] = edit(lines[line - 1])
        bad = tmp_path / "bad.dsa"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "audit", str(bad))
        assert code == 3
        assert f"line {line}: matrix entries must be plain decimal integers" in err


def test_non_ascii_scheme_file_exit_3_naming_its_line(tmp_path, capsys):
    # Lines are counted at "\n" alone, as the reader counts them; splitting
    # at the form feed as well reported line 4 for the second file.
    for data in (b"DSA1 3 0 2 101 1\n1 1\n5\xe9\n", b"DSA1 3 0 2 101 1\n1 1\n\x0c5\xe9\n"):
        bad = tmp_path / "bad.dsa"
        bad.write_bytes(data)
        code, _, err = run_cli(capsys, "audit", str(bad))
        assert code == 3
        assert "line 3: non-ASCII byte 0xe9" in err


def test_short_scheme_file_exit_3_before_enumerating_groups(tmp_path, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError("groups enumerated before the length check")

    monkeypatch.setattr(dsagg.scheme.SchemeParams, "members", property(refuse))
    short = tmp_path / "short.dsa"
    short.write_text("DSA1 20 0 10 101 1\n")
    code, _, err = run_cli(capsys, "audit", str(short))
    assert code == 3
    assert "line 1" in err


@pytest.mark.parametrize("K", [1_000_000, 10_000, 3_000])
def test_huge_header_exit_3_at_once(tmp_path, capsys, K):
    # Each one-line file claims C(K, K/2) groups. The loader derived L
    # first: at K = 10**6 the audit ran past a minute, at 10**4 it exited 1
    # converting a binomial of over 4,300 digits to text, and at 3,000 it
    # exited 3 with a 3,711-character message.
    path = tmp_path / "huge.dsa"
    path.write_text(f"DSA1 {K} 0 {K // 2} 101 1\n")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "audit", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and "line 1" in err and len(err) < 200


def test_build_random_then_simulate(tmp_path, capsys):
    scheme = tmp_path / "r.dsa"
    code, _, _ = run_cli(capsys, "build", "-K", "4", "-T", "1", "-G", "2",
                         "--q", "101", "--seed", "3", "--out", str(scheme))
    assert code == 0
    pre = load_scheme(str(scheme))
    assert pre.params.q == 101

    code, out1, _ = run_cli(capsys, "simulate", str(scheme), "--seed", "9")
    assert code == 0
    assert out1.splitlines()[0].startswith("DSAT1 4 1 2 101 1 9")
    assert out1.strip().endswith("VERDICT pass")

    # determinism: run twice and diff
    code, out2, _ = run_cli(capsys, "simulate", str(scheme), "--seed", "9")
    assert out1 == out2


def test_simulate_with_input_file(tmp_path, capsys):
    scheme = tmp_path / "s.dsa"
    run_cli(capsys, "build", "-K", "3", "-T", "0", "-G", "2",
            "--q", "7", "--seed", "0", "--out", str(scheme))
    inputs = tmp_path / "w.txt"
    # Entries past int64 reduce mod q exactly, as negative ones do.
    big = 99999999999999999999999
    for text, total in (("1\n2\n3\n", 6), (f"1 2 {big}", (3 + big) % 7), ("-1 2 -3", 5)):
        inputs.write_text(text)
        code, out, _ = run_cli(capsys, "simulate", str(scheme),
                               "--inputs", str(inputs))
        assert code == 0
        assert all(line.split()[2] == str(total) for line in out.splitlines()
                   if line.startswith("R "))


def test_build_fixture_params_must_match(capsys):
    code, _, err = run_cli(capsys, "build", "-K", "4", "-T", "0", "-G", "2",
                           "--fixture", "example2")
    assert code == 1 and "fixture" in err


def test_build_max_retries_below_one_exit_1(capsys):
    for retries in ("0", "-3"):
        code, out, err = run_cli(capsys, "build", "-K", "5", "-T", "1", "-G", "2",
                                 "--max-retries", retries)
        assert code == 1 and out == ""
        assert f"max_retries must be at least 1, got {retries}" in err


def test_build_infeasible_exit_2(capsys):
    code, _, _ = run_cli(capsys, "build", "-K", "4", "-T", "0", "-G", "1", "--q", "5")
    assert code == 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def saved(tmp_path, precoder) -> str:
    path = tmp_path / "s.dsa"
    save_scheme(precoder, path)
    return str(path)


def three_users(tmp_path, q=2) -> str:
    return saved(tmp_path, reference_precoder(SchemeParams(3, 0, 2, q=q)))


def test_oracle_matches_on_three_users(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oracle", three_users(tmp_path))
    assert code == 0
    assert out.strip().endswith("ALL MATCH")
    assert "MISMATCH" not in out.replace("MISMATCH FOUND", "")
    assert any(line.startswith("ORACLE security_mi k=1 rank=0 brute=0")
               for line in out.splitlines())


def test_oracle_enumerates_a_draw_that_fails_its_audit(tmp_path, capsys):
    # Seed 0 of (5,2,2) at q=2 leaks a nonzero MI to user 1; the oracle
    # enumerates the same leak, so it agrees with the audit it checks.
    scheme = saved(tmp_path, random_precoder(SchemeParams(5, 2, 2, q=2), 0))
    code, _, _ = run_cli(capsys, "audit", scheme)
    assert code == 4
    code, out, _ = run_cli(capsys, "oracle", scheme)
    assert code == 0 and out.endswith("ALL MATCH\n")
    assert "ORACLE security_mi k=1 rank=2 brute=2 MATCH" in out.splitlines()


def test_oracle_malformed_scheme_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.dsa"
    bad.write_text("DSA1 5 1 2 5 1\n3 2\n1 1\n")
    code, out, err = run_cli(capsys, "oracle", str(bad))
    assert code == 3 and out == "" and "line" in err


def test_oracle_checks_the_audits_cached_ranks(tmp_path, capsys, monkeypatch):
    # A fault only the cached path takes: +1 on every full-stack cache hit.
    # The oracle enumerates against the audit's own entries, so it sees it.
    # Each recovery residual reads the stack its user's security MI ranked.
    stacked_rank = dsagg.infocalc._stacked_rank

    def faulty(obs, layout, cache):
        hit = cache is not None and tuple(sorted(map(id, obs))) in cache
        return stacked_rank(obs, layout, cache) + hit

    scheme = three_users(tmp_path)
    monkeypatch.setattr(dsagg.infocalc, "_stacked_rank", faulty)
    code, out, _ = run_cli(capsys, "oracle", scheme)
    lines = out.splitlines()
    assert code == 4 and lines[-1] == "MISMATCH FOUND"
    for k in (1, 2, 3):
        assert f"ORACLE security_mi k={k} rank=0 brute=0 MATCH" in lines
        assert f"ORACLE recovery_residual k={k} rank=1 brute=0 MISMATCH" in lines


def test_oracle_negative_query_count_exit_1(tmp_path, capsys, monkeypatch):
    args = ("oracle", three_users(tmp_path), "--queries")
    code, out, _ = run_cli(capsys, *args, "0")
    assert code == 0 and "random_query" not in out and out.endswith("ALL MATCH\n")
    refuse_to_enumerate(monkeypatch)
    code, out, err = run_cli(capsys, *args, "-1")
    assert code == 1 and out == ""
    assert "--queries must be at least 0, got -1" in err


def refuse(*args, **kwargs):
    raise AssertionError("work started before the size check")


def refuse_to_enumerate(monkeypatch):
    monkeypatch.setattr(dsagg.scheme.SchemeParams, "members", property(refuse))


def test_oversized_precoder_exit_1_before_enumerating_groups(capsys, monkeypatch):
    refuse_to_enumerate(monkeypatch)
    code, _, err = run_cli(capsys, "build", "-K", "40", "-T", "0", "-G", "20")
    assert code == 1
    assert "precoder would hold" in err


@pytest.mark.parametrize("K, G", [(20000, 10000), (3000, 1500)])
@pytest.mark.parametrize("command", ["build"])
def test_huge_precoder_refused_quickly_with_a_short_message(capsys, monkeypatch, command, K, G):
    # The full entry count has thousands of digits; the guard neither
    # computes nor prints it.
    refuse_to_enumerate(monkeypatch)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, command, "-K", str(K), "-T", "0", "-G", str(G))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "precoder would hold" in err and len(err) < 200


def test_oracle_budget_guard(tmp_path, capsys, monkeypatch):
    # q**N = 101**120 points: refused before the audit's views are built.
    scheme = saved(tmp_path, random_precoder(SchemeParams(6, 0, 2, q=101), 0))
    monkeypatch.setattr(dsagg.cli, "AuditContext", refuse)
    code, out, err = run_cli(capsys, "oracle", scheme)
    assert code == 1 and out == ""
    assert err == "error: q**N = 101**120 exceeds the enumeration budget 16777216\n"


def test_oracle_deterministic(tmp_path, capsys):
    args = ("oracle", three_users(tmp_path, q=3), "--seed", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
