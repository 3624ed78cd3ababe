"""In-memory span recorder for the traced benchmark run.

The recorder wraps functions of the dsagg package from outside: nothing in
``src/`` changes. Every public function defined in one of the layer modules
below is wrapped, plus ``Matrix.rank`` (the dense kernel) and
``infocalc._stacked_rank`` (the rank lookup behind every entropy). The
package imports with ``from .x import y``, so one function object is bound
under several modules; each binding is replaced by the same wrapper, or
calls made through the other modules would go unrecorded.

A span records its name, start, end, parent span and the id of the CLI
command it ran under. Spans are kept in memory and written out once, at the
end of the run. Only calls made inside :meth:`Recorder.command` are
recorded, so the benchmark's own output checks never show up as layer work.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

# Layer modules in dependency order. ``gf`` has no entry point that does
# work on its own; its cost lands inside the linalg and scheme spans.
LAYERS = ("linalg", "infocalc", "auditor", "scheme", "sim", "cli")
RANK = "linalg.Matrix.rank"
LOOKUP = "infocalc._stacked_rank"


class Recorder:
    """Spans plus per-name totals: calls, busy (inclusive) and self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, command]
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.cache_faults = 0  # infocalc caches reused across commands
        self._open: list[list[int]] = []  # [span index, child ns] per open span
        self._command: int | None = None
        self._commands = 0
        self._cache = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        modules = [importlib.import_module(f"dsagg.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or f"{layer}.{name}" == LOOKUP)):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in [importlib.import_module("dsagg")] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        matrix = importlib.import_module("dsagg.linalg").Matrix
        matrix.rank = self._wrap(matrix.rank, RANK)

    def _wrap(self, fn, name: str):
        before, after = {
            RANK: (None, self._count_rank),
            LOOKUP: (self._check_cache, self._count_hit),
        }.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._command is None:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            frame = [index, 0]
            self.spans.append([name, 0, 0, parent, self._command])
            self._open.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._open.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
                duration = end - start
                self.calls[name] += 1
                self.busy_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
            if after:
                after(args, result, token)
            return result

        return traced

    # -- per-name counters ---------------------------------------------------

    def _count_rank(self, args, result, token) -> None:
        rows, cols = args[0].shape
        self.counters["rank_cells"] += rows * cols
        self.counters["rank_elim_ops"] += rows * cols * result

    def _check_cache(self, args):
        # One audit owns one cache: it must arrive empty and stay the same
        # object for the whole command. The cache is keyed by label only, so
        # sharing it across schemes would return wrong ranks fast.
        cache = args[2] if len(args) > 2 else None
        if cache is not None:
            if self._cache is None:
                self._cache = cache
                if cache:
                    self.cache_faults += 1
            elif cache is not self._cache:
                self.cache_faults += 1
        return self.calls[RANK]

    def _count_hit(self, args, result, rank_calls_before) -> None:
        if args[0] and self.calls[RANK] == rank_calls_before:
            self.counters["cache_hits"] += 1

    # -- commands --------------------------------------------------------------

    @contextlib.contextmanager
    def command(self):
        """Record the spans of one CLI command under a fresh command id."""
        self._commands += 1
        self._command = self._commands
        self._cache = None
        try:
            yield
        finally:
            self._command = None
            self._cache = None

    # -- results -----------------------------------------------------------------

    def layer_sum(self, totals: Counter, layer: str, skip: str = "") -> int:
        return sum(v for n, v in totals.items() if n.startswith(layer + ".") and n != skip)

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, command."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(rec: Recorder, passes: int, pass_counts: Counter,
                  unchecked_s: float) -> dict[str, float]:
    """Per-pass layer metrics from the recorder's totals.

    ``pass_counts`` carries what the runner counts from outputs (audit CHECK
    lines, scheme file bytes). ``unchecked_s`` is the wall time of the traced
    passes less their output checks; the summed self times are compared with
    it, so time spent outside any traced function shows as a ratio below 1.
    """
    s = 1e-9 / passes
    lookups = rec.calls[LOOKUP]
    seeds = rec.calls["scheme.random_precoder"]
    return {
        "linalg.rank.calls": rec.calls[RANK] / passes,
        "linalg.rank.busy_s": rec.busy_ns[RANK] * s,
        "linalg.rank.cells": rec.counters["rank_cells"] / passes,
        "linalg.rank.elim_ops": rec.counters["rank_elim_ops"] / passes,
        "infocalc.calls": rec.layer_sum(rec.calls, "infocalc", skip=LOOKUP) / passes,
        "infocalc.self_s": rec.layer_sum(rec.self_ns, "infocalc") * s,
        "infocalc.rank_lookups": lookups / passes,
        "infocalc.cache_hit_ratio": rec.counters["cache_hits"] / lookups if lookups else 0.0,
        "auditor.recovery_s": rec.busy_ns["auditor.audit_recovery"] * s,
        "auditor.security_s": rec.busy_ns["auditor.audit_security"] * s,
        "auditor.converse_s": rec.busy_ns["auditor.audit_converse"] * s,
        "auditor.rank_condition.calls": rec.calls["auditor.rank_condition"] / passes,
        "auditor.rank_condition.busy_s": rec.busy_ns["auditor.rank_condition"] * s,
        "auditor.checks": pass_counts["checks"] / passes,
        "scheme.build_precoder.busy_s": rec.busy_ns["scheme.build_precoder"] * s,
        "scheme.seeds_tried": seeds / passes,
        "scheme.build_yield": rec.calls["scheme.build_precoder"] / seeds if seeds else 0.0,
        "scheme.save.busy_s": rec.busy_ns["scheme.save_scheme"] * s,
        "scheme.load.busy_s": rec.busy_ns["scheme.load_scheme"] * s,
        "scheme.file_bytes": pass_counts["file_bytes"] / passes,
        "scheme.encode.busy_s": rec.busy_ns["scheme.encode"] * s,
        "scheme.recover.busy_s": rec.busy_ns["scheme.recover"] * s,
        "sim.run_round.self_s": rec.self_ns["sim.run_round"] * s,
        "sim.rounds": rec.calls["sim.run_round"] / passes,
        "cli.self_s": rec.layer_sum(rec.self_ns, "cli") * s,
        "trace.accounted_ratio": sum(rec.self_ns.values()) * 1e-9 / unchecked_s,
    }
