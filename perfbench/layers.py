"""Per-layer metrics, derived from the spans of the traced executions.

Layers are neckdown's modules. A span's ``share`` is its self time over the
traced wall time, and a layer's ``share`` sums its spans; self time goes to
the innermost wrapped span. Per-call times (``us_p50``, ``us_p99``) pool
every call in every traced execution; ``.s`` is the median over traced
executions of the summed time per execution. Counts are per execution.

Times are kept for the spans that lie on every workload's path. Work that
only some workloads do (artifact files, checkpoints, flux diagnostics, the
CLI) is reported as a share, a count, bytes or a rate, so that a workload
that skips it reads a true 0 rather than a time.

A metric whose span is expected on the workload but was never recorded, or
whose wrap target no longer exists, is left out and named as missing; it is
never reported as zero.
"""

from __future__ import annotations

from statistics import median

from spans import ROOT

WRITE_SPANS = (
    "io.write_ledger_csv", "io.write_snapshots_jsonl", "io.write_report_json",
    "io.write_flux_csv", "io.write_checkpoint",
)
LINEAR = ("linear.step_linear", "linear.assemble_operator", "linear.flux_energy_report")
FUNCTIONALS = ("functionals.energy", "functionals.dissipation")


class Traced:
    """Span statistics over the traced executions of one run."""

    def __init__(self, per_run: dict, run_ids: list[int]):
        self.runs = [per_run[r] for r in run_ids]
        self.total_ns = sum(sum(run[ROOT]["incl"]) for run in self.runs)
        self.flags: list[str] = []

    def _calls(self, run, name, kind="incl"):
        entry = run.get(name)
        return entry[kind] if entry else []

    def calls(self, name: str) -> int:
        """Calls per execution; flagged unless every traced execution agrees."""
        per_exec = [len(self._calls(run, name)) for run in self.runs]
        if len(set(per_exec)) > 1:
            self.flags.append(f"{name} calls differ across traced executions: {per_exec}")
        return per_exec[0]

    def us(self, name: str, q: float, kind: str = "incl") -> float:
        pooled = sorted(ns for run in self.runs for ns in self._calls(run, name, kind))
        if not pooled:
            return 0.0
        return pooled[min(len(pooled) - 1, int(q * len(pooled)))] / 1e3

    def share(self, *names: str) -> float:
        self_ns = sum(sum(self._calls(run, n, "self")) for run in self.runs for n in names)
        return self_ns / self.total_ns

    def per_exec_s(self, *names: str) -> list[float]:
        return [
            sum(sum(self._calls(run, n)) for n in names) / 1e9 for run in self.runs
        ]


def _mb_per_s(bytes_written: int, write_s: list[float]) -> float:
    rates = [bytes_written / s / 1e6 for s in write_s if s > 0]
    return median(rates) if rates else 0.0


def _us(t: Traced, name: str) -> dict:
    return {
        f"{name}.us_p50": (t.us(name, 0.50), (name,)),
        f"{name}.us_p99": (t.us(name, 0.99), (name,)),
    }


def layer_metrics(t: Traced, counts: dict, run_s: tuple[float, float]) -> dict:
    """name -> (value, spans the value rests on). run_s is (untraced, traced)."""
    io_leaves = (
        "io.write_snapshots_jsonl", "io.read_snapshots_jsonl", "io.write_ledger_csv",
        "io.write_flux_csv", "io.build_report", "io.write_checkpoint", "io.load_checkpoint",
    )
    io_all = ("io.execute_run", "io.write_report_json") + io_leaves
    return {
        "linear.step_linear.calls": (t.calls("linear.step_linear"), ("linear.step_linear",)),
        **_us(t, "linear.step_linear"),
        "linear.step_linear.self_us_p50": (
            t.us("linear.step_linear", 0.50, "self"),
            ("linear.step_linear", "linear.assemble_operator"),
        ),
        "linear.assemble_operator.us_p50": (
            t.us("linear.assemble_operator", 0.50), ("linear.assemble_operator",)
        ),
        "linear.share": (t.share(*LINEAR), LINEAR),
        "linear.flux_energy_report.share": (
            t.share("linear.flux_energy_report"), ("linear.flux_energy_report",)
        ),
        "evolve.steps": (t.calls("evolve.step_nonlinear"), ("evolve.step_nonlinear",)),
        "evolve.solves_per_step": (
            _ratio(t.calls("linear.step_linear"), t.calls("evolve.step_nonlinear")),
            ("linear.step_linear", "evolve.step_nonlinear"),
        ),
        "evolve.picard_iters_max": (
            max((int(k) for k in counts.get("picard_histogram", {})), default=0), ()
        ),
        **_us(t, "evolve.step_nonlinear"),
        "evolve.step_nonlinear.self_share": (
            t.share("evolve.step_nonlinear"),
            ("evolve.step_nonlinear", "linear.step_linear", "grid.h1_norm"),
        ),
        "evolve.run.self_share": (
            t.share("evolve.run"),
            ("evolve.run", "evolve.step_nonlinear") + FUNCTIONALS,
        ),
        "functionals.energy.calls": (t.calls("functionals.energy"), ("functionals.energy",)),
        "functionals.dissipation.calls": (
            t.calls("functionals.dissipation"), ("functionals.dissipation",)
        ),
        "functionals.energy.us_p50": (t.us("functionals.energy", 0.50), ("functionals.energy",)),
        "functionals.dissipation.us_p50": (
            t.us("functionals.dissipation", 0.50), ("functionals.dissipation",)
        ),
        "functionals.share": (t.share(*FUNCTIONALS), FUNCTIONALS),
        "grid.h1_norm.calls": (t.calls("grid.h1_norm"), ("grid.h1_norm",)),
        "grid.h1_norm.us_p50": (t.us("grid.h1_norm", 0.50), ("grid.h1_norm",)),
        "grid.h1_norm.share": (t.share("grid.h1_norm"), ("grid.h1_norm",)),
        "io.execute_run.self_share": (t.share("io.execute_run"), io_all),
        **{f"{name}.share": (t.share(name), (name,)) for name in io_leaves},
        "io.bytes_written": (counts.get("io.bytes_written", 0), ()),
        "io.write_mb_per_s": (
            _mb_per_s(counts.get("io.bytes_written", 0), t.per_exec_s(*WRITE_SPANS)),
            WRITE_SPANS,
        ),
        "io.share": (t.share(*io_all), io_all),
        "cli.share": (t.share("cli.main"), ("cli.main", "io.execute_run")),
        "initial.build_initial_condition.s": (
            median(t.per_exec_s("initial.build_initial_condition")),
            ("initial.build_initial_condition",),
        ),
        "trace.overhead_frac": (run_s[1] / run_s[0] - 1.0, ()),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
