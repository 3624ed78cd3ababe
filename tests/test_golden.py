"""Golden outputs: sha256 digests of reports, transcripts and CLI/demo stdout.

These outputs must stay byte-identical across refactors. The digests cover
cases the benchmark's own digests do not: a failing audit (recovery
spot-check FAIL lines), an undersized precoder, zero inputs, the oracle at
small q, with and without colluders, and the stdout of the demos that print
blocks, H-hat, a damaged audit and the audit's views against enumeration. A
digest that changes means an output changed; compare the old and new text
before recording a new digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsagg.auditor import audit
from dsagg.cli import main
from dsagg.linalg import Matrix
from dsagg.scheme import (
    SchemeParams,
    fixture_example1,
    fixture_example2,
    random_precoder,
    reference_precoder,
    save_scheme,
)
from dsagg.sim import run_round

ROOT = Path(__file__).resolve().parents[1]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def damaged_example2():
    pre = fixture_example2()
    return pre.replace_block(1, (1, 2), Matrix(pre.params.field, np.zeros((3, 2), dtype=np.int64)))


def undersized_6_1_2():
    return random_precoder(SchemeParams(6, 1, 2, q=101), 0, L=3, L_S=1)


AUDITS = {
    "example2_zeroed_block": (damaged_example2,
                              "12604458057aa5b669e848ef2e1ebb3c4ea108edf7688ce17133d5f098b76512"),
    "random_6_1_2_undersized": (undersized_6_1_2,
                                "eb730fa06986d4541912707774983545c4c986b42752bb9f27f48134e05a5c8a"),
}

ROUNDS = {
    ("example1", "random"): "e03947921cb6a6affdaeec1c38bafc44892d6814ee0ff1d66c20dbf8b41767e7",
    ("example1", "zero"): "75910cad0a646f68c125aa25a982eea6e30189def70d13f0d51711cf0a4aa9b1",
    ("example2", "random"): "4df1347111a3d1371ac7c80e4857c31ab70b441295b47ac7fc036a20465182e9",
    ("example2", "zero"): "e7bcf68c7614f65ecafbec551b8a4c2f481595f0b9dcdffa00387be6f5d31527",
}

ORACLE = {
    "2": "cdd39f5ecc570b5c4c3da61a4b68fae90ae367be3d9702e391ee8b249e47eb60",
    "3": "686b633f2b59628be0130ae94d78345f882176c18dbf0e8bd42aa50394122626",
}

# (4,1,2) at q=2: 1,024 points; its audit's pairs with colluders are skipped.
ORACLE_COLLUSION = "835f9749164c41dc3225a16c1474e7c5263174e4e42644bd373701874ba2f3dc"

DEMO_02 = "0d23a9e6a5b8a70dbc20dfcead2b3f63ac74fc96d2e9b4c6fed7ba45d3a32256"

DEMOS = {
    "03_fixture_walkthrough": "455ac20f1601b181641f70596d14e1a3be8e3be7a3446a8076579e3efd4aa82e",
    "04_random_scheme_end_to_end":
        "f40f363d70c822f39e7cffffc46bb68c74ce1a8c5ad74f58b2035620bfd8fc81",
    "06_rank_vs_enumeration": "b85d0df7c82e763ecc1e48d51662d35a9800ed759e4fe30103fc44b48983525a",
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_report_digest(name):
    make, digest = AUDITS[name]
    assert sha("\n".join(audit(make()).to_lines()) + "\n") == digest


@pytest.mark.parametrize("fixture, source", sorted(ROUNDS))
def test_round_transcript_digest(fixture, source):
    pre = {"example1": fixture_example1, "example2": fixture_example2}[fixture]()
    assert sha(run_round(pre, source, seed=3).to_text()) == ROUNDS[fixture, source]


def oracle_stdout(params, path, capsys) -> str:
    """The oracle's stdout on the closed-form scheme for ``params``."""
    save_scheme(reference_precoder(params), path)
    assert main(["oracle", str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("q", sorted(ORACLE))
def test_oracle_stdout_digest(q, tmp_path, capsys):
    out = oracle_stdout(SchemeParams(3, 0, 2, q=int(q)), tmp_path / "s.dsa", capsys)
    assert sha(out) == ORACLE[q]


def test_oracle_with_collusion_stdout_digest(tmp_path, capsys):
    out = oracle_stdout(SchemeParams(4, 1, 2, q=2), tmp_path / "s.dsa", capsys)
    assert sha(out) == ORACLE_COLLUSION


def demo_stdout(name: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_02_stdout_digest(tmp_path):
    assert sha(demo_stdout("02_three_user_round", tmp_path)) == DEMO_02


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_digest(name, tmp_path):
    assert sha(demo_stdout(name, tmp_path)) == DEMOS[name]
