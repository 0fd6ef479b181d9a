"""Outside-in tracing: wrappers installed on neckdown's module attributes.

Each span is installed where its caller looks the function up. evolve.run
calls ``step_nonlinear`` through ``neckdown.evolve``'s globals and
``step_linear`` through the name evolve imported, so the wrapper for
``linear.step_linear`` replaces ``neckdown.evolve.step_linear``, not
``neckdown.linear.step_linear``. Nothing inside the package changes.

Spans stay in memory while the benchmark runs. Each one records its name,
start, end, parent span and run id. A span's self time is its duration minus
the durations of its direct children; the wrapped calls of one thread never
overlap, so children tile part of their parent's interval.
"""

from __future__ import annotations

import importlib
import itertools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# span name -> modules whose attribute is replaced. The function keeps its
# home-module name in the span; the listed modules are where callers on the
# workload paths look it up (the benchmark itself included).
TARGETS = {
    "cli.main": ("cli",),
    "io.execute_run": ("io", "cli"),
    "io.build_report": ("io",),
    "io.write_ledger_csv": ("io",),
    "io.write_snapshots_jsonl": ("io",),
    "io.write_report_json": ("io",),
    "io.write_flux_csv": ("io",),
    "io.write_checkpoint": ("io",),
    "io.load_checkpoint": ("io",),
    "io.read_snapshots_jsonl": ("io",),
    "initial.build_initial_condition": ("io", "initial"),
    "evolve.run": ("io", "evolve"),
    "evolve.step_nonlinear": ("evolve",),
    "linear.step_linear": ("evolve",),
    "linear.assemble_operator": ("linear",),
    "linear.flux_energy_report": ("evolve",),
    "functionals.energy": ("evolve",),
    "functionals.dissipation": ("evolve",),
    "grid.h1_norm": ("evolve",),
}

ROOT = "bench.execution"


class Recorder:
    """Span store and wrapper installer for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, run, start_ns, end_ns)
        self._ids = itertools.count()
        self._stack = [-1]
        self._saved: list[tuple] = []
        self.run_id = -1
        self.missing: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, ids, stack = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((span, name, parent, self.run_id, t0, t1))

        return wrapper

    def _install(self) -> None:
        """Replace every target attribute; a target that no longer exists
        is recorded in ``missing``."""
        for name, sites in TARGETS.items():
            func = name.split(".", 1)[1]
            found = False
            for site in sites:
                module = importlib.import_module(f"neckdown.{site}")
                original = getattr(module, func, None)
                if original is None:
                    continue
                found = True
                self._saved.append((module, func, original))
                setattr(module, func, self._wrap(name, original))
            if not found:
                self.missing.add(name)

    def _uninstall(self) -> None:
        for module, func, original in reversed(self._saved):
            setattr(module, func, original)
        self._saved.clear()

    @contextmanager
    def execution(self, run_id: int):
        """Root span around one timed execution, with wrappers installed."""
        self.run_id = run_id
        self._install()
        try:
            with self._root():
                yield
        finally:
            self._uninstall()

    @contextmanager
    def _root(self):
        span = next(self._ids)
        self._stack.append(span)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span, ROOT, -1, self.run_id, t0, t1))

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span,parent,run,name,start_ns,end_ns\n")
            for span, name, parent, run, t0, t1 in sorted(self.spans):
                fh.write(f"{span},{parent},{run},{name},{t0},{t1}\n")

    def per_run(self) -> dict[int, dict[str, dict]]:
        """run id -> span name -> {"incl": [ns per call], "self": [ns per call]}."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        runs: dict[int, dict[str, dict]] = defaultdict(
            lambda: defaultdict(lambda: {"incl": [], "self": []})
        )
        for span, name, _, run, t0, t1 in self.spans:
            entry = runs[run][name]
            entry["incl"].append(t1 - t0)
            entry["self"].append(t1 - t0 - child_ns[span])
        return runs
