"""The benchmark workloads and one measured pass through the dsagg CLI.

A pass runs, for each setting of a workload, what a user runs: ``dsagg build``
(which saves the scheme), ``dsagg audit`` where the setting is audited, and a
fixed number of ``dsagg simulate`` rounds, each of which loads the scheme
again. Commands run in-process through ``dsagg.cli.main``. Each command is
timed on its own. Its output is checked after it, outside the timed region.
A command counts as failed when it exits non-zero, raises, or fails a check.
In untraced runs the ``run_round`` call inside each simulate command is also
timed on its own (:meth:`Runner.time_rounds`), so ``rounds_per_s`` leaves out
argument parsing, the scheme load and the transcript write.

Build seeds are fixed. The number of seeds ``build_precoder`` draws before
one passes depends on the start seed: 1 to 5 at q=101 for (8,2,3), 1 to 13
at q=5 for (8,0,4). A build seed taken from ``--seed`` would swing build time
by more than any bound the benchmark can hold. So ``--seed`` sets the audit's
spot-check seed and the seed of every simulated round. Each scheme file and
audit report is then the same on every run, and every run checks it against
its stored digest. Transcripts are checked against stored digests only at
the default seed. At every seed, each transcript's recovered sums are
checked against the sum of its inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import dsagg
import dsagg.cli
from dsagg.auditor import expected_check_count

DEFAULT_SEED = 0
BUILD_SEED = 0
MAX_RETRIES = 64  # (7,3,3) at q=13 draws 22 seeds from BUILD_SEED
WORD_PRIME = 2147483647


@dataclass(frozen=True)
class Setting:
    """One (K, T, G, q) scheme; ``audit`` says whether the pass audits it."""

    K: int
    T: int
    G: int
    q: int
    audit: bool = True

    @property
    def tag(self) -> str:
        return f"K{self.K}T{self.T}G{self.G}q{self.q}"

    @property
    def check_lines(self) -> int:
        """CHECK lines in a complete audit report for this setting."""
        K, T = self.K, self.T
        return (2 * K + 2 * expected_check_count(K, T) + K * (K - 1)
                + 3 * K * math.comb(K - 1, T) + 3)


@dataclass(frozen=True)
class Workload:
    """Settings plus how often a pass runs each command for each setting.

    Repeats give every end-to-end metric a few seconds of measurement in
    each pass, so one slow moment of the machine moves it less.
    """

    settings: tuple[Setting, ...]
    builds: int  # dsagg build commands per setting
    audits: int  # dsagg audit commands per audited setting
    rounds: int  # dsagg simulate commands per setting


WORKLOADS = {
    # Many collusion sets: ~1.3k small stacked ranks per audit, so per-call
    # overhead and the infocalc rank calculus dominate.
    "audit-collusion": Workload(
        (Setting(7, 3, 3, 101), Setting(8, 2, 3, 101)), builds=4, audits=1, rounds=120),
    # T=0, L=35: few ranks (~257) but ~440x700 each, so the dense kernel
    # dominates.
    "audit-wide": Workload((Setting(8, 0, 4, 101),), builds=6, audits=2, rounds=64),
    # Build, save, load and simulate. Only the smallest scheme is audited
    # (about 2.5 s), so that audit_s is measured here too; infocalc does no
    # other work. The word-size prime cannot take a float64 delayed-reduction
    # path, and q=13 / q=5 make build draw 22 / 7 seeds.
    "build-simulate": Workload(
        (Setting(9, 0, 4, WORD_PRIME, audit=False), Setting(7, 3, 3, 13),
         Setting(8, 0, 4, 5, audit=False)), builds=2, audits=3, rounds=15),
}


def smoke(workload: Workload) -> Workload:
    """The same code path on (5,1,2) settings, in seconds."""
    return replace(workload, settings=tuple(
        replace(s, K=5, T=1, G=2) for s in workload.settings))


@dataclass
class PassResult:
    builds: dict[str, list[float]] = field(default_factory=dict)  # per setting
    audits: dict[str, list[float]] = field(default_factory=dict)
    rounds: dict[str, list[float]] = field(default_factory=dict)  # run_round alone
    simulate_s: list[float] = field(default_factory=list)  # whole simulate commands
    command_s: float = 0.0  # the CLI commands alone
    check_s: float = 0.0  # the benchmark's output checks
    wall_s: float = 0.0  # the whole pass, output checks included
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)  # checks, file_bytes

    @property
    def build_s(self) -> float:
        """One build of every setting, each its median over repeats."""
        return sum(statistics.median(v) for v in self.builds.values())

    @property
    def audit_s(self) -> float:
        return sum(statistics.median(v) for v in self.audits.values())

    @property
    def certify_s(self) -> float:
        return self.build_s + self.audit_s

    @property
    def rounds_per_s(self) -> float:
        """One round of every setting per this many seconds, inverted."""
        return len(self.rounds) / sum(statistics.median(v) for v in self.rounds.values())


def _spread(count: int, blocks: int, centred: bool) -> set[int]:
    """``count`` block indices spread evenly over ``blocks``.

    Without ``centred`` the first index is 0; with it the indices sit in
    the middle of equal shares, so a single long audit falls mid-pass.
    """
    return {(2 * i + centred) * blocks // (2 * count) for i in range(count)}


class Runner:
    """Runs passes of one workload and checks every output.

    ``expected`` maps output names to stored sha256 digests.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 expected: dict[str, str], recorder=None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.recorder = recorder
        self.round_s: float | None = None  # the last run_round, when timed

    def time_rounds(self) -> None:
        """Time each ``run_round`` call that ``dsagg simulate`` makes.

        Wraps the binding in ``dsagg.cli`` with a bare timer. The span
        recorder wraps that same binding, so the two are not combined.
        """
        run_round = dsagg.cli.run_round

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return run_round(*args, **kwargs)
            finally:
                self.round_s = perf_counter() - start

        dsagg.cli.run_round = timed

    def run_pass(self, builds_only: bool = False, between=None) -> PassResult:
        """Run the pass's commands, each kind spread over the whole pass.

        The machine's speed drifts over seconds, so commands of one kind are
        not run back to back. Builds and audits go in blocks, and block 0
        builds every setting first. The rounds, taken from the settings in
        turn, are then shared out over the gaps after the remaining builds
        and audits, and ``between``, if given, runs once in each gap. With
        ``builds_only`` the pass runs its builds and nothing else.
        """
        result = PassResult()
        start = perf_counter()
        w = self.workload
        blocks = max(w.builds, w.audits)
        steps = []  # (kind, setting) of every build and audit, in order
        for j in range(blocks):
            for s in w.settings:
                if j in _spread(w.builds, blocks, centred=False):
                    steps.append(("build", s))
                if not builds_only and s.audit and j in _spread(w.audits, blocks, centred=True):
                    steps.append(("audit", s))
        rounds = [] if builds_only else [(s, i) for i in range(w.rounds) for s in w.settings]
        first = max(steps.index(("build", s)) for s in w.settings)  # block 0 built
        gaps = len(steps) - first
        for n, (kind, s) in enumerate(steps):
            (self._build if kind == "build" else self._audit)(result, s)
            if n < first:
                continue
            g = n - first
            for r, i in rounds[g * len(rounds) // gaps:(g + 1) * len(rounds) // gaps]:
                self._simulate(result, r, i)
            if between:
                between()
        result.wall_s = perf_counter() - start
        return result

    # -- commands -------------------------------------------------------------

    def _build(self, result: PassResult, s: Setting) -> None:
        scheme = self.workdir / f"{s.tag}.dsa"
        result.builds.setdefault(s.tag, []).append(self._op(
            result, f"build {s.tag}", self._check_scheme, s, scheme, [
                "build", "-K", str(s.K), "-T", str(s.T), "-G", str(s.G),
                "--q", str(s.q), "--seed", str(BUILD_SEED),
                "--max-retries", str(MAX_RETRIES), "--out", str(scheme)]))

    def _audit(self, result: PassResult, s: Setting) -> None:
        report = self.workdir / f"{s.tag}.audit"
        result.audits.setdefault(s.tag, []).append(self._op(
            result, f"audit {s.tag}", self._check_report, s, report,
            ["audit", str(self.workdir / f"{s.tag}.dsa"), "--seed", str(self.seed),
             "--out", str(report)]))

    def _simulate(self, result: PassResult, s: Setting, i: int) -> None:
        transcript = self.workdir / f"{s.tag}.dsat"
        self.round_s = None
        result.simulate_s.append(self._op(
            result, f"simulate {s.tag} round {i}", self._check_transcript, (s, i),
            transcript, ["simulate", str(self.workdir / f"{s.tag}.dsa"),
                         "--seed", str(self.seed * 10000 + i), "--out", str(transcript)]))
        if self.round_s is not None:
            result.rounds.setdefault(s.tag, []).append(self.round_s)

    # -- one operation ------------------------------------------------------

    def _op(self, result: PassResult, what: str, check, subject, path: Path,
            argv: list[str]) -> float:
        """Run one CLI command, then check its output; returns its wall time."""
        result.attempted += 1
        scope = self.recorder.command() if self.recorder else contextlib.nullcontext()
        faults = self.recorder.cache_faults if self.recorder else 0
        rc = None
        start = perf_counter()
        try:
            with scope, contextlib.redirect_stdout(io.StringIO()):
                rc = dsagg.cli.main(argv)
        except Exception:  # one failed command must not end the run
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        result.command_s += elapsed
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if self.recorder and self.recorder.cache_faults != faults:
            problems.append("infocalc cache shared with another scheme or not fresh")
        if rc == 0:
            checking = perf_counter()
            try:
                problems += check(subject, path.read_bytes(), result)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
            result.check_s += perf_counter() - checking
        if problems:
            result.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    # -- output checks --------------------------------------------------------

    def _match(self, key: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        want = self.expected.get(key)
        if want is None:
            return [f"no stored digest for {key}"]
        return [] if want == digest else [f"{key} sha256 {digest[:12]} != stored {want[:12]}"]

    def _check_scheme(self, s: Setting, data: bytes, result: PassResult) -> list[str]:
        result.counts["file_bytes"] += len(data)
        problems = self._match(f"scheme:{s.tag}", data)
        again = dsagg.scheme_to_text(dsagg.scheme_from_text(data.decode("ascii")))
        if again.encode("ascii") != data:
            problems.append("save -> load -> save is not byte-identical")
        return problems

    def _check_report(self, s: Setting, data: bytes, result: PassResult) -> list[str]:
        lines = data.decode("ascii").splitlines()
        checks = [ln for ln in lines if ln.startswith("CHECK ")]
        result.counts["checks"] += len(checks)
        problems = self._match(f"audit:{s.tag}", data)
        if not lines or lines[-1] != "ALL CHECKS PASS":
            problems.append("report does not end in ALL CHECKS PASS")
        if len(checks) != s.check_lines:
            problems.append(f"{len(checks)} CHECK lines, expected {s.check_lines}")
        if not all(ln.endswith(" PASS") for ln in checks):
            problems.append("a CHECK line does not PASS")
        return problems

    def _check_transcript(self, subject, data: bytes, result: PassResult) -> list[str]:
        s, i = subject
        problems = []
        if self.seed == DEFAULT_SEED:
            problems += self._match(f"transcript:{s.tag}:r{i}", data)
        lines = data.decode("ascii").splitlines()
        rows = {"W": [], "X": [], "R": []}
        for line in lines[1:-1]:
            tag, _, *values = line.split()
            if tag not in rows:
                return problems + [f"unexpected transcript line {line[:20]!r}"]
            rows[tag].append([int(v) for v in values])
        total = [sum(col) % s.q for col in zip(*rows["W"])]
        if not lines or lines[-1] != "VERDICT pass":
            problems.append("transcript does not end in VERDICT pass")
        if any(len(r) != s.K for r in rows.values()):
            problems.append("transcript does not hold K rows of each kind")
        if any(r != total for r in rows["R"]):
            problems.append("a recovered sum differs from the sum of the inputs")
        return problems
