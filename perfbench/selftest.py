#!/usr/bin/env python3
"""Self-test of the benchmark: smoke, determinism and a bare checkout.

Run from the repository root:

    python3 perfbench/selftest.py          # (5,1,2) smoke settings, ~1 minute
    python3 perfbench/selftest.py --full   # the real settings, several minutes

For every workload it makes one untraced run and two traced runs at one
seed. Every run must report no failed operation, and the two traced runs
must agree exactly on the deterministic counters. Last, the benchmark must
refuse to run, with a non-zero exit and no result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS = ("linalg.rank.calls", "linalg.rank.cells", "linalg.rank.elim_ops",
            "infocalc.rank_lookups", "scheme.seeds_tried", "auditor.checks")


def run(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="use the real settings")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke = [] if args.full else ["--smoke"]
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "0", "--seconds", "1", *smoke]
        rc, out = run(ROOT, *base, "--trace", "0")
        runs = [result(out)] if rc == 0 else []
        counters = []
        for _ in range(2):
            rc, out = run(ROOT, *base, "--trace", "1")
            if rc == 0:
                runs.append(result(out))
                counters.append({c: runs[-1]["metrics"][c]["value"] for c in COUNTERS})
        if len(runs) != 3 or any(not r["correct"] or r["failed"] for r in runs):
            problems.append(f"{workload}: a run failed or reported failed operations")
        elif counters[0] != counters[1]:
            diff = {c: (counters[0][c], counters[1][c])
                    for c in COUNTERS if counters[0][c] != counters[1][c]}
            problems.append(f"{workload}: counters differ between runs: {diff}")
        else:
            print(f"ok {workload}: {counters[0]}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, out = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if rc == 0 or out.strip():
        problems.append("a checkout without src/ did not fail cleanly")
    else:
        print(f"ok bare checkout: exit code {rc}, no result printed")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
