import csv
import io
from fractions import Fraction

import dsagg.cli
import dsagg.infocalc
import dsagg.scheme
from dsagg.cli import main
from dsagg.scheme import load_scheme, scheme_to_text


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
                 ("rates-sweep", "-K", "5", "-T", "1", "--m", "2")):
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
    code, _, err = run_cli(capsys, "rates-sweep", "-K", "4", "-T", "2")
    assert code == 1 and "K - T" in err


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
    from dsagg.scheme import fixture_example2

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


def test_non_ascii_scheme_file_exit_3_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.dsa"
    bad.write_bytes(b"DSA1 3 0 2 101 1\n1 1\n5\xe9\n")
    code, _, err = run_cli(capsys, "audit", str(bad))
    assert code == 3
    assert "line 3: non-ASCII byte 0xe9" in err


def test_short_scheme_file_exit_3_before_enumerating_groups(tmp_path, capsys, monkeypatch):
    def refuse(K, G):
        raise AssertionError("groups enumerated before the length check")

    monkeypatch.setattr(dsagg.scheme, "groups_of", refuse)
    short = tmp_path / "short.dsa"
    short.write_text("DSA1 20 0 10 101 1\n")
    code, _, err = run_cli(capsys, "audit", str(short))
    assert code == 3
    assert "line 1" in err


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


def test_build_infeasible_exit_2(capsys):
    code, _, _ = run_cli(capsys, "build", "-K", "4", "-T", "0", "-G", "1", "--q", "5")
    assert code == 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_on_three_users(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-K", "3", "-T", "0", "-G", "2", "--q", "2")
    assert code == 0
    assert out.strip().endswith("ALL MATCH")
    assert "MISMATCH" not in out.replace("MISMATCH FOUND", "")
    assert any(line.startswith("ORACLE security_mi k=1 rank=0 brute=0")
               for line in out.splitlines())


def refuse_to_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("groups enumerated or scheme built before the size check")

    for mod, name in ((dsagg.scheme, "groups_of"), (dsagg.cli, "build_precoder"),
                      (dsagg.cli, "reference_precoder")):
        monkeypatch.setattr(mod, name, refuse)


def test_oversized_precoder_exit_1_before_enumerating_groups(capsys, monkeypatch):
    refuse_to_enumerate(monkeypatch)
    for command in ("build", "oracle"):
        code, _, err = run_cli(capsys, command, "-K", "40", "-T", "0", "-G", "20")
        assert code == 1
        assert "precoder would hold" in err


def test_oracle_budget_guard(capsys, monkeypatch):
    refuse_to_enumerate(monkeypatch)
    code, _, err = run_cli(capsys, "oracle", "-K", "6", "-T", "0", "-G", "2", "--q", "101")
    assert code == 1
    assert "budget" in err
    assert "101**120" in err


def test_oracle_deterministic(capsys):
    args = ("oracle", "-K", "3", "-T", "0", "-G", "2", "--q", "3", "--seed", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
