"""Command-line front end.

Subcommands: feasible, rates-sweep, build, simulate, audit, oracle.

Exit codes: 0 success, 1 usage, out-of-model parameters or a scheme too
large to enumerate, 2 in-model but infeasible parameters, 3 malformed
scheme file (message carries the line number), 4 audit or oracle found
failing checks. Every subcommand is deterministic given its flags and
scheme file.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import infocalc
from .auditor import AuditContext, audit, audit_recovery, audit_security
from .linalg import random_matrix
from .scheme import (
    FIXTURES,
    ConstructionFailedError,
    InfeasibleSchemeError,
    ParamsOutOfModelError,
    SchemeFormatError,
    SchemeParams,
    build_precoder,
    capacity,
    load_scheme,
    optimal_group_size_report,
    save_scheme,
    scheme_to_text,
)
from .sim import run_round

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_FORMAT = 3
EXIT_CHECKS_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1 and reads no
    abbreviated flag, so ``oracle --q`` is not taken for ``--queries``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    triple = argparse.ArgumentParser(add_help=False)
    for flag in ("-K", "-T", "-G"):
        triple.add_argument(flag, type=int, required=True)

    parser = _Parser(prog="dsagg",
                     description="Construct, simulate, and audit decentralized "
                                 "secure aggregation schemes with groupwise keys.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("feasible", parents=[triple, out], help="rate region for a (K, T, G) triple")

    p = sub.add_parser("rates-sweep", parents=[out],
                       help="CSV of optimal rates for every group size")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-T", type=int, required=True)

    p = sub.add_parser("build", parents=[triple, seeded, out],
                       help="construct and save a scheme")
    p.add_argument("--q", type=int, default=101, help="prime field modulus (default 101)")
    p.add_argument("--m", type=int, default=1, help="block scale (default 1)")
    p.add_argument("--fixture", choices=sorted(FIXTURES),
                   help="write a bundled worked-example scheme instead of drawing "
                        "one (its own field size and block scale apply)")
    p.add_argument("--max-retries", type=int, default=16)

    p = sub.add_parser("simulate", parents=[seeded, out],
                       help="run one broadcast round from a scheme file")
    p.add_argument("scheme", help="scheme file path")
    p.add_argument("--inputs", default="random",
                   help="'random', 'zero', or a whitespace-separated K*L value file")

    p = sub.add_parser("audit", parents=[seeded, out],
                       help="verify a scheme file; exit 0 only if all checks pass")
    p.add_argument("scheme", help="scheme file path")

    p = sub.add_parser("oracle", parents=[seeded, out],
                       help="cross-check a scheme file's rank calculus against "
                            "full enumeration")
    p.add_argument("scheme", help="scheme file path")
    p.add_argument("--queries", type=int, default=5,
                   help="extra random observable queries (default 5)")
    return parser


# -- subcommands -------------------------------------------------------------


def _cmd_feasible(args) -> int:
    region = capacity(args.K, args.T, args.G)
    if not region.feasible:
        tag = "G=1" if region.infeasibility_reason.value == "group_size_one" else "G>=K-T"
        _write(f"INFEASIBLE: {tag}\n", args.out)
        return EXIT_INFEASIBLE
    _write(f"FEASIBLE R_X*={region.r_x_star} R_S*={region.r_s_star} "
           f"R_Z*={region.r_z_star} R_ZSigma*={region.r_z_sigma_star}\n", args.out)
    return EXIT_OK


def _cmd_rates_sweep(args) -> int:
    lines = ["G,feasible,R_S,R_Z,R_ZSigma,R_Z_baseline,R_ZSigma_baseline"]
    baseline_z = Fraction(1)
    baseline_zsigma = Fraction(args.K - 1)
    for G in range(1, args.K + 1):
        region = capacity(args.K, args.T, G)
        if region.feasible:
            lines.append(f"{G},yes,{region.r_s_star},{region.r_z_star},"
                         f"{region.r_z_sigma_star},{baseline_z},{baseline_zsigma}")
        else:
            lines.append(f"{G},no,,,,{baseline_z},{baseline_zsigma}")
    report = optimal_group_size_report(args.K, args.T)
    sys.stderr.write(f"min R_S* at G={report.best} "
                     f"(formula {report.formula}, ties {list(report.minimizers)})\n")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    if args.fixture:
        precoder = FIXTURES[args.fixture]()
        p = precoder.params
        if (args.K, args.T, args.G) != (p.K, p.T, p.G):
            raise ParamsOutOfModelError(
                f"fixture {args.fixture} is a (K={p.K}, T={p.T}, G={p.G}) scheme"
            )
    else:
        params = SchemeParams(K=args.K, T=args.T, G=args.G, q=args.q, m=args.m)
        precoder = build_precoder(params, seed=args.seed, max_retries=args.max_retries)
    if args.out:
        save_scheme(precoder, args.out)
        sys.stdout.write(f"wrote scheme to {args.out}\n")
    else:
        sys.stdout.write(scheme_to_text(precoder))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    precoder = load_scheme(args.scheme)
    params = precoder.params
    if args.inputs in ("random", "zero"):
        source = args.inputs
    else:
        with open(args.inputs, "r", encoding="ascii") as fh:
            values = [int(t) % params.q for t in fh.read().split()]
        if len(values) != params.K * params.L:
            raise ParamsOutOfModelError(
                f"input file must hold {params.K * params.L} values, got {len(values)}"
            )
        source = np.array(values, dtype=np.int64).reshape(params.K, params.L)
    transcript = run_round(precoder, source, seed=args.seed)
    _write(transcript.to_text(), args.out)
    return EXIT_OK if transcript.verdict else EXIT_CHECKS_FAILED


def _cmd_audit(args) -> int:
    precoder = load_scheme(args.scheme)
    report = audit(precoder, seed=args.seed)
    lines = report.to_lines()
    summary = "ALL CHECKS PASS" if report.all_ok else "CHECKS FAILED"
    _write("\n".join(lines) + f"\n{summary}\n", args.out)
    return EXIT_OK if report.all_ok else EXIT_CHECKS_FAILED


def _cmd_oracle(args) -> int:
    if args.queries < 0:
        raise ValueError(f"--queries must be at least 0, got {args.queries}")
    precoder = load_scheme(args.scheme)
    infocalc._enumeration_size(infocalc.layout_for(precoder))
    ctx = AuditContext(precoder)
    layout = ctx.layout

    lines = []
    all_match = True

    def record(kind: str, k, ranked, brute) -> None:
        nonlocal all_match
        match = Fraction(ranked) == brute
        all_match = all_match and match
        lines.append(f"ORACLE {kind} k={k} rank={ranked} brute={brute} "
                     f"{'MATCH' if match else 'MISMATCH'}")

    # The audit's own entries against enumerations of the same views; pairs
    # with colluders are skipped. Security goes first, so each recovery
    # residual reads a stack its cache already holds.
    security = {c.k: c.mi for c in audit_security(ctx) if not c.colluders}
    for c in audit_recovery(ctx, seed=args.seed):
        k, cond = c.k, ctx.recovery_view(c.k)
        record("security_mi", k, security[k], infocalc.brute_force_mi(*ctx.security_terms((k,))))
        record("recovery_residual", k, c.residual_entropy,
               infocalc.brute_force_entropy([ctx.total] + cond)
               - infocalc.brute_force_entropy(cond))

    rng = np.random.Generator(np.random.PCG64(args.seed))
    for i in range(args.queries):
        obs = []
        for tag in ("A", "B", "C"):
            rows = int(rng.integers(1, 3))
            mat = random_matrix(rows, layout.N, layout.field, rng)
            obs.append([infocalc.LinearObservable(f"q{i}{tag}", mat, layout)])
        record(f"random_query_{i}", "-",
               infocalc.mutual_information(obs[0], obs[1], obs[2]),
               infocalc.brute_force_mi(obs[0], obs[1], obs[2]))

    lines.append("ALL MATCH" if all_match else "MISMATCH FOUND")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_match else EXIT_CHECKS_FAILED


_COMMANDS = {
    "feasible": _cmd_feasible,
    "rates-sweep": _cmd_rates_sweep,
    "build": _cmd_build,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SchemeFormatError as exc:
        sys.stderr.write(f"scheme format error: {exc}\n")
        return EXIT_FORMAT
    except InfeasibleSchemeError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (ParamsOutOfModelError, ConstructionFailedError, ValueError,
            infocalc.BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
