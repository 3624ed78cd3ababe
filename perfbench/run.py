#!/usr/bin/env python3
"""dsagg benchmark: time to certificate, driven through the dsagg CLI.

Run from the repository root:

    python3 perfbench/run.py --workload audit-collusion --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; metric names and units come from
``BENCHMARK.json`` at the repository root. With ``--trace 0`` the run reports
every end-to-end metric, with ``--trace 1`` every per-layer metric from a
traced run (``spans.py``). Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The run measures whole passes (see ``workloads.py``) until ``--seconds`` is
used up, starting a pass only if the previous one says it will fit, and at
least one. Timings are medians over passes. ``--smoke`` swaps every setting
for (5,1,2), so each workload's code path runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every setting as (5,1,2)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import dsagg from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dsagg" / "__init__.py").is_file():
        raise ImportError(f"no dsagg package under {src}")
    sys.path.insert(0, str(src))
    import dsagg

    if Path(dsagg.__file__).resolve().parent != src / "dsagg":
        raise ImportError(f"dsagg imported from {dsagg.__file__}, not {src}")
    return dsagg


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def time_setup(argv) -> float:
    """Wall time from process start to the first command.

    The sample is a fresh interpreter running this script with
    ``--setup-only``: it imports dsagg, builds the workload's inputs and
    exits.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    start = perf_counter()
    # Captured, not discarded: waiting with a timeout on a child without
    # pipes polls in steps of up to 50 ms, which would quantize the time.
    subprocess.run(cmd, check=True, timeout=120, capture_output=True)
    return perf_counter() - start


def run_all(args) -> int:
    """Run every workload in its own process and print one summary."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + ["--smoke"] * args.smoke
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, *common],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"summary {name:<16} error_rate "
              f"{res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
        for metric, m in res["metrics"].items():
            print(f"summary {name:<16} {metric:<30} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def measure(runner, seconds: float, passes: list, between=None) -> None:
    """Append passes while the next one is expected to fit, at least one."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(runner.run_pass(between=between))
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            value = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {value:.6g}"
    return "no tail percentile (needs >= 10 samples beyond it)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = limit_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import dsagg: {exc}", file=sys.stderr)
        return 2
    from spans import LAYERS, Recorder, layer_metrics
    from workloads import WORKLOADS, Runner, smoke

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(DIGESTS.read_text())
    if args.setup_only:
        return 0

    recorder = Recorder() if args.trace else None
    setup: list[float] = []  # one sample in each gap of an untraced pass
    label = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    untraced: list = []
    traced: list = []
    try:
        runner = Runner(workload, args.seed, workdir, expected)
        if recorder:
            # Untraced builds are the base of the tracing overhead.
            untraced.append(runner.run_pass(builds_only=True))
            recorder.install()
            runner.recorder = recorder
            measure(runner, args.seconds, traced)
        else:
            runner.time_rounds()
            measure(runner, args.seconds, untraced,
                    between=lambda: setup.append(time_setup(argv)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {label} trace={args.trace} passes: "
          + (f"1 untraced builds-only + {len(traced)} traced" if recorder
             else f"{len(untraced)} untraced"))
    print("env " + json.dumps(environment(nproc)))

    if recorder:
        counts = sum((p.counts for p in traced), start=Counter())
        command_s = sum(p.command_s for p in traced)
        unchecked_s = sum(p.wall_s - p.check_s for p in traced)
        metrics = layer_metrics(recorder, len(traced), counts, unchecked_s)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.build_s for p in traced) / untraced[0].build_s)
        spans_file = OUT / f"spans-{label}.jsonl"
        recorder.dump(spans_file)
        print(f"spans {len(recorder.spans)} written to {spans_file.relative_to(ROOT)}")
        print(f"traced commands {command_s:.6g} s, pass wall less output checks "
              f"{unchecked_s:.6g} s, output checks {sum(p.check_s for p in traced):.6g} s")
        for layer in LAYERS:
            print(f"self_s {layer:<9} "
                  f"{recorder.layer_sum(recorder.self_ns, layer) * 1e-9 / len(traced):.6g}")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "certify_s": statistics.median(p.certify_s for p in passes),
            "build_s": statistics.median(p.build_s for p in passes),
            "audit_s": statistics.median(p.audit_s for p in passes),
            "rounds_per_s": statistics.median(p.rounds_per_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": setup, "simulate_s": [t for p in passes for t in p.simulate_s]}
        for p in passes:
            for kind, times in (("build_s", p.builds), ("audit_s", p.audits),
                                ("round_s", p.rounds)):
                for tag, values in times.items():
                    samples.setdefault(f"{kind} {tag}", []).extend(values)
        for name, values in samples.items():
            print(f"samples {name:<26} n={len(values)} median "
                  f"{statistics.median(values):.6g} max {max(values):.6g} {tail(values)}")
        wanted = spec["end_to_end"]

    error_rate = failed / attempted
    print(f"error_rate {error_rate:.6g} ({failed} failed of {attempted} operations)")
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name, unit in units.items():
        print(f"metric {name:<30} {metrics[name]:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
