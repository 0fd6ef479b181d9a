"""The benchmark's workloads: inputs made from the seed, one timed execution,
and the checks on its outputs.

Every call into neckdown goes through a module attribute looked up at call
time (``self.nd.io.execute_run``, never a name bound at import), so the
traced run sees these calls once its wrappers are installed.

A workload object offers:

- ``execute(out_dir)`` runs one execution and returns its outcome;
- ``warm(out_dir)`` runs a two-step version of the same execution, which
  fills the package's caches and lazy imports without the workload's cost;
- ``check(outcome, out_dir)`` returns ``(problems, counts, notes)``:
  problems are failed output checks, counts are the exact counts that must
  repeat across executions of the same code, notes are informational.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

RELAX_STEPS = 2000
ARTIFACT_STEPS = 1000  # unsplit run; the split run stops and resumes halfway

# tier-1's own slack for a monotone energy ledger (tests/test_evolve.py)
ENERGY_RISE_TOL = 1e-14


# BLAS and OpenMP pools are pinned to one thread so that a run is one
# closed loop on one core; set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SOLVER_SPANS = frozenset({
    "initial.build_initial_condition", "evolve.run", "evolve.step_nonlinear",
    "linear.step_linear", "linear.assemble_operator", "functionals.energy",
    "functionals.dissipation", "grid.h1_norm",
})
RUN_IO_SPANS = frozenset({
    "io.execute_run", "io.build_report", "io.write_ledger_csv",
    "io.write_snapshots_jsonl", "io.write_report_json",
})


def load_package(root: Path):
    """Import neckdown from ``root/src`` and nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = root / "src"
    sys.path.insert(0, str(src))
    import neckdown
    import neckdown.cli

    where = Path(neckdown.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"neckdown imported from {where}, not from {src}")
    return neckdown


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _histogram(iters) -> dict[str, int]:
    return {str(k): int(v) for k, v in sorted(Counter(int(i) for i in iters).items())}


def _step_counts(iters) -> dict:
    """Exact counts of one execution from its per-step Picard iterations."""
    return {
        "evolve.steps": len(iters),
        "linear.step_linear.calls": int(sum(iters)),
        "picard_histogram": _histogram(iters),
    }


class Relax:
    """P=1 relaxation toward the parabola, the acceptance fixture's regime."""

    name = "relax"
    spans = SOLVER_SPANS | RUN_IO_SPANS
    seeded = False

    def __init__(self, nd, seed: int, ref: dict):
        self.nd = nd
        self.ref = ref
        self.ic = "steady-perturbed-poly:0.05"

    def _manifest(self, out_dir: Path, steps: int):
        cfg = self.nd.evolve.SolverConfig(
            pressure=1.0, n=201, dt=1e-5, t_final=steps * 1e-5,
            epsilon=0.0, pinch_floor=1e-3,
        )
        return self.nd.io.RunManifest(
            config=cfg, initial_condition=self.ic, out_dir=out_dir
        )

    def warm(self, out_dir: Path) -> None:
        self.nd.io.execute_run(self._manifest(out_dir, 2))

    def execute(self, out_dir: Path):
        return self.nd.io.execute_run(self._manifest(out_dir, RELAX_STEPS))

    def check(self, outcome, out_dir: Path):
        traj, report = outcome
        problems, notes = [], []
        t_final = traj.config.t_final
        if traj.termination.value != "reached-t-final":
            problems.append(f"termination {traj.termination.value}")
        if report["steps"] != RELAX_STEPS or abs(report["t_end"] - t_final) > 1e-12:
            problems.append(
                f"stopped at step {report['steps']} t={report['t_end']!r}, "
                f"wanted step {RELAX_STEPS} t={t_final!r}"
            )
        energies = [row.energy for row in traj.ledger]
        rises = [b - a for a, b in zip(energies, energies[1:]) if b - a > ENERGY_RISE_TOL]
        if rises:
            problems.append(f"ledger energy rose {len(rises)} times, max {max(rises):.3e}")
        e_final = energies[-1]
        if not e_final >= 5.0 / 3.0:
            problems.append(f"final energy {e_final!r} below E(1) = 5/3")
        e_ref = self.ref["energy_final"]
        if abs(e_final - e_ref) > self.ref["energy_rtol"] * e_ref:
            problems.append(f"final energy {e_final!r} differs from reference {e_ref!r}")
        counts = _step_counts(traj.picard_iters[1:])
        counts["io.bytes_written"] = _bytes_under(out_dir)
        return problems, counts, notes


class Pinch:
    """P=4 run from a lifted waist until the minimum height meets the floor."""

    name = "pinch"
    spans = SOLVER_SPANS
    seeded = False

    def __init__(self, nd, seed: int, ref: dict):
        self.nd = nd
        self.ref = ref
        self.ic = "steady-perturbed-poly:1.2"
        self.cfg = nd.evolve.SolverConfig(
            pressure=4.0, n=201, dt=1e-5, t_final=1.0, epsilon=0.0, pinch_floor=1e-3
        )

    def _run(self, cfg):
        nd = self.nd
        grid = nd.grid.make_grid(cfg.n)
        values = nd.initial.build_initial_condition(self.ic, cfg.pressure, grid)
        h0 = nd.grid.Profile(grid=grid, values=values, pressure=cfg.pressure)
        return nd.evolve.run(cfg, h0)

    def warm(self, out_dir: Path) -> None:
        self._run(replace(self.cfg, t_final=2 * self.cfg.dt))

    def execute(self, out_dir: Path):
        return self._run(self.cfg)

    def check(self, traj, out_dir: Path):
        problems, notes = [], []
        if traj.termination.value != "pinch-detected":
            problems.append(f"termination {traj.termination.value}")
        t_pinch = self.nd.evolve.detect_pinch(traj).t_pinch
        t_ref = self.ref["t_pinch"]
        if t_pinch is None or abs(t_pinch - t_ref) > self.ref["t_pinch_rtol"] * t_ref:
            problems.append(f"t_pinch {t_pinch!r} differs from reference {t_ref!r}")
        h_min = traj.min_series[:, 2]
        tail = h_min[int(0.8 * len(h_min)):]
        if any(b > a for a, b in zip(tail, tail[1:])):
            problems.append("minimum height rose in the last fifth of the run")
        counts = _step_counts(traj.picard_iters[1:])
        return problems, counts, notes


def _ledger_rows(path: Path) -> list[str]:
    return path.read_text().splitlines()[1:]


def _last_line(path: Path) -> bytes:
    return path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[-1]


class Artifacts:
    """CLI run with every artifact on, split at a checkpoint and resumed."""

    name = "artifacts"
    spans = SOLVER_SPANS | RUN_IO_SPANS | {
        "cli.main", "io.write_flux_csv", "io.write_checkpoint",
        "io.load_checkpoint", "io.read_snapshots_jsonl", "linear.flux_energy_report",
    }
    seeded = True

    def __init__(self, nd, seed: int, ref: dict):
        self.nd = nd
        # amplitude 0.02 keeps every seed admissible: the five modes add at
        # most 0.1 to a parabola whose waist is 0.25 at P = 1.5
        self.base = [
            "run", "--pressure", "1.5", "--epsilon", "1e-2", "--n", "801",
            "--dt", "1e-4", "--output-every", "1", "--flux-diagnostics",
            "--ic", "steady-perturbed-random:0.02", "--seed", str(seed),
        ]

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.nd.cli.main(argv)
        return code, out.getvalue()

    def _execute(self, out_dir: Path, steps: int):
        t_all, t_half = f"{steps * 1e-4!r}", f"{steps // 2 * 1e-4!r}"
        mid = out_dir / "mid.json"
        runs = [
            self.base + ["--t-final", t_all, "--out-dir", str(out_dir / "whole")],
            self.base + ["--t-final", t_half, "--out-dir", str(out_dir / "first"),
                         "--checkpoint", str(mid)],
            self.base + ["--t-final", t_all, "--out-dir", str(out_dir / "second"),
                         "--restore", str(mid)],
        ]
        results = [self._main(argv) for argv in runs]
        rows = {
            part: self.nd.io.read_snapshots_jsonl(out_dir / part / "snapshots.jsonl")
            for part in ("whole", "first", "second")
            if (out_dir / part / "snapshots.jsonl").exists()
        }
        return results, rows

    def warm(self, out_dir: Path) -> None:
        self._execute(out_dir, 2)

    def execute(self, out_dir: Path):
        return self._execute(out_dir, ARTIFACT_STEPS)

    def check(self, outcome, out_dir: Path):
        results, rows = outcome
        problems, notes = [], []
        codes = [code for code, _ in results]
        if codes != [0, 0, 0]:
            text = next(text for code, text in results if code != 0).strip()
            problems.append(f"exit codes {codes}: {text.splitlines()[-1] if text else ''}")
            return problems, {}, notes
        for part in ("whole", "first", "second"):
            try:
                json.loads((out_dir / part / "report.json").read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"{part}/report.json does not parse: {exc}")
        half = ARTIFACT_STEPS // 2
        for part, steps in (("whole", ARTIFACT_STEPS), ("first", half), ("second", half)):
            if len(rows.get(part, ())) != steps + 1:
                problems.append(
                    f"{part}: {len(rows.get(part, ()))} snapshot rows, wanted {steps + 1}"
                )

        whole = _ledger_rows(out_dir / "whole" / "ledger.csv")
        first = _ledger_rows(out_dir / "first" / "ledger.csv")
        second = _ledger_rows(out_dir / "second" / "ledger.csv")
        if first != whole[: half + 1]:
            problems.append("first half of the split run differs from the unsplit ledger")
        # the resumed run's first row is the restored state, logged with 0
        # Picard iterations; its later rows must match the unsplit run
        resumed, reference = second[1:], whole[half + 1:]
        if len(resumed) != len(reference):
            problems.append(f"resumed ledger has {len(resumed)} rows, wanted {len(reference)}")
        time_rows = 0
        for a, b in zip(resumed, reference):
            ta, _, state_a = a.partition(",")
            tb, _, state_b = b.partition(",")
            if state_a != state_b:
                problems.append("resumed ledger state differs from the unsplit ledger")
                break
            if ta != tb:
                time_rows += 1
                if abs(float(ta) - float(tb)) > 2 * math.ulp(float(tb)):
                    problems.append(f"resumed ledger time {ta} vs unsplit {tb}")
                    break
        if time_rows:
            notes.append(
                f"{time_rows} resumed ledger times differ from the unsplit run in "
                "the last digit (t_checkpoint + k dt against k dt)"
            )
        snap_whole = _last_line(out_dir / "whole" / "snapshots.jsonl")
        snap_second = _last_line(out_dir / "second" / "snapshots.jsonl")
        if snap_whole != snap_second:
            problems.append("final snapshot of the split run differs from the unsplit run")

        iters = []
        for ledger in (whole, first, second):
            iters += [int(row.rsplit(",", 1)[1]) for row in ledger[1:]]
        counts = _step_counts(iters)
        counts["io.bytes_written"] = _bytes_under(out_dir)
        return problems, counts, notes


WORKLOADS = {cls.name: cls for cls in (Relax, Pinch, Artifacts)}
