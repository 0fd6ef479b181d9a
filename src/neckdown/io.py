"""Run manifests and file output: ledger CSV, snapshot JSON lines, report
JSON, checkpoints.

The CSV files and snapshot lines write every float with %.17g; report.json
and the checkpoint go through json.dumps, which writes the shortest repr
that reads back as the same double.  Both round-trip IEEE doubles exactly,
so identical manifests produce byte-identical files and a checkpoint
restores the solver state bit for bit.

What the solver writes it reads back through one number check,
`initial.check_json_numbers`: snapshot rows come back with their values as
float64 arrays, and checkpoint states as profiles.  Bools, numeric strings
and integers beyond the double range are rejected with a ValueError naming
the key or the file line, which the command line turns into exit 2.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .evolve import (
    RunStart,
    SolverConfig,
    Termination,
    Trajectory,
    decay_rate,
    detect_pinch,
    relaxation_check,
    run,
)
from .grid import Profile, make_grid
from .initial import (
    NUMBER,
    build_initial_condition,
    check_json_numbers,
    check_json_type,
    ic_family,
    read_json,
)

LEDGER_HEADER = "t,energy,dissipation,cum_dissipation,h_min,x_min,picard_iters"
FLUX_HEADER = "t,weighted_flux_norm,flux_curvature_norm,identity_residual"


def _g17(x: float) -> str:
    return "%.17g" % x


def _g17_row(values, sep: str = ",") -> str:
    """One row of numbers, each as _g17 text, joined by sep, in one format."""
    vals = values.tolist() if isinstance(values, np.ndarray) else values
    return sep.join(["%.17g"] * len(vals)) % tuple(vals)


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temp file beside path, then os.replace it over path,
    so path holds either its old bytes or the new ones, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run and locate its outputs."""

    config: SolverConfig
    initial_condition: str
    out_dir: Path
    seed: int = 0
    checkpoint: Path | None = None     # write final state here if set
    restore: Path | None = None        # resume from this checkpoint if set

    def __post_init__(self):
        ic_family(self.initial_condition)

    @property
    def ledger_path(self) -> Path:
        return self.out_dir / "ledger.csv"

    @property
    def snapshots_path(self) -> Path:
        return self.out_dir / "snapshots.jsonl"

    @property
    def report_path(self) -> Path:
        return self.out_dir / "report.json"

    @property
    def flux_path(self) -> Path:
        return self.out_dir / "flux_diagnostics.csv"


def write_ledger_csv(traj: Trajectory, path: Path) -> None:
    path.write_text("\n".join([LEDGER_HEADER, *map(_g17_row, traj.ledger.tolist())]) + "\n")


def write_flux_csv(traj: Trajectory, path: Path) -> None:
    path.write_text("\n".join([FLUX_HEADER, *map(_g17_row, traj.flux_reports.tolist())]) + "\n")


def write_snapshots_jsonl(traj: Trajectory, path: Path) -> None:
    with path.open("w") as fh:
        for t, step, snap in zip(traj.times, traj.snapshot_steps, traj.snapshots):
            fh.write(
                '{"t": %s, "step": %d, "values": [%s]}\n'
                % (_g17(t), int(step), _g17_row(snap, ", "))
            )


# %.17g writes -0.0 as "-0", which json reads as the int 0; the JSON number
# -0 is the double -0.0, and reading it so keeps the sign of a zero
_SNAPSHOT_DECODER = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else int(text))


def read_snapshots_jsonl(path: Path) -> list[dict]:
    """The rows of a snapshots file, each a dict whose 'values' is a float64
    array; 't' and 'step' are as parsed.  A row that is no JSON object, lacks
    'values' or holds anything but numbers there raises ValueError naming
    its line."""
    rows = []
    with Path(path).open() as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path} line {number}"
            try:
                row = _SNAPSHOT_DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where} is not JSON: {exc}") from None
            check_json_type(where, row, dict, "a JSON object")
            if "values" not in row:
                raise ValueError(f"{where} lacks the 'values' key")
            row["values"] = check_json_numbers(f"{where} 'values'", row["values"])
            rows.append(row)
    return rows


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def build_report(traj: Trajectory) -> dict:
    """Summary dict with pinch / decay / relaxation sub-reports."""
    cfg, ledger = traj.config, traj.ledger
    report = {
        "termination": traj.termination.value,
        "failure_message": traj.failure_message,
        "steps": int(traj.snapshot_steps[-1]),
        "t_end": ledger.time[-1],
        "energy_initial": ledger.energy[0],
        "energy_final": ledger.energy[-1],
        "cumulative_dissipation": ledger.cumulative_dissipation[-1],
        "max_solver_residual": traj.max_solver_residual,
        "max_predictor_gap": traj.max_predictor_gap,
        "pinch": asdict(detect_pinch(traj)),
        "decay": None,
        "relaxation": asdict(relaxation_check(traj)),
    }
    if cfg.pressure < 2.0 and traj.termination is Termination.REACHED_T_FINAL:
        try:
            report["decay"] = asdict(decay_rate(traj))
        except ValueError:
            pass
    return _jsonable(report)


def write_report_json(report: dict, path: Path) -> None:
    _write_atomic(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_checkpoint(traj: Trajectory, path: Path) -> None:
    """The state traj ended in, traj.end with the final values, and the
    config that wrote it: enough to continue the run bit for bit."""
    end = traj.end
    state = {
        "config": _jsonable(config_to_dict(traj.config)),
        "step": end.step,
        "cumulative_dissipation": end.cumulative_dissipation,
        "values": traj.snapshots[-1].tolist(),
        "history": [row.tolist() for row in end.history],
    }
    _write_atomic(path, json.dumps(state) + "\n")


# each checkpoint key: its JSON types, what it must be in words, and a bound
_CHECKPOINT_KEYS = {
    "config": (dict, "an object", None),
    "step": (int, "a nonnegative integer", lambda step: step >= 0),
    "cumulative_dissipation": (NUMBER, "a finite number", math.isfinite),
    "values": (list, "a list of numbers", None),
    "history": (list, "a list of at most 2 states", lambda rows: len(rows) <= 2),
}


def load_checkpoint(path: Path, cfg: SolverConfig) -> tuple[Profile, RunStart]:
    """The state and RunStart a checkpoint holds.  A missing or mistyped key
    raises ValueError naming it; history defaults to none, and other keys
    (older checkpoints hold a time) are ignored."""
    state = read_json(path, "checkpoint")
    check_json_type("checkpoint", state, dict, "a JSON object")
    state = {"history": [], **state}
    for key, (kind, wanted, bound) in _CHECKPOINT_KEYS.items():
        if key not in state:
            raise ValueError(f"checkpoint lacks the {key!r} key")
        check_json_type(f"checkpoint {key!r}", state[key], kind, wanted, bound)
    saved = state["config"]
    for key in ("n", "pressure", "dt"):
        if saved.get(key) != getattr(cfg, key):
            raise ValueError(
                f"checkpoint {key}={saved.get(key)} does not match config "
                f"{key}={getattr(cfg, key)}"
            )
    grid = make_grid(cfg.n)

    def profile(key: str, values) -> Profile:
        values = check_json_numbers(f"checkpoint {key!r}", values)
        try:
            return Profile(grid=grid, values=values, pressure=cfg.pressure)
        except ValueError as exc:
            raise ValueError(f"checkpoint {key}: {exc}") from None

    start = RunStart(
        step=state["step"],
        cumulative_dissipation=float(state["cumulative_dissipation"]),
        history=tuple(profile("history", row).values for row in state["history"]),
    )
    return profile("values", state["values"]), start


def config_to_dict(cfg: SolverConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(SolverConfig)}


# JSON types each SolverConfig annotation accepts from a config file
_FILE_TYPES = {"bool": bool, "int": int, "float": NUMBER}


def resolve_config(flags: dict, file_values: dict | None = None) -> SolverConfig:
    """Merge flag values over config-file values over dataclass defaults.

    flags maps field names to values or None (absent); file_values comes from
    a JSON config file and may be None.  Unknown keys in the file, and values
    whose type does not fit their field, are errors.
    """
    kinds = {f.name: f.type for f in fields(SolverConfig)}
    merged: dict = {}
    if file_values:
        unknown = set(file_values) - set(kinds)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        for key, value in file_values.items():
            kind = kinds[key]
            check_json_type(f"config file key {key!r}", value, _FILE_TYPES[kind], f"a {kind}")
        merged.update(file_values)
    for key, value in flags.items():
        if key in kinds and value is not None:
            merged[key] = value
    if "pressure" not in merged:
        raise ValueError("pressure is required (flag --pressure or config file)")
    return SolverConfig(**merged)


def default_out_dir() -> Path:
    return Path(os.environ.get("NECKDOWN_OUT_DIR", "runs"))


def execute_run(manifest: RunManifest) -> tuple[Trajectory, dict]:
    """Run a manifest and write its artifacts; returns trajectory + report."""
    cfg = manifest.config
    if manifest.restore is not None:
        h0, start = load_checkpoint(manifest.restore, cfg)
    else:
        grid = make_grid(cfg.n)
        values = build_initial_condition(
            manifest.initial_condition, cfg.pressure, grid, seed=manifest.seed
        )
        h0 = Profile(grid=grid, values=values, pressure=cfg.pressure)
        start = None

    traj = run(cfg, h0, start=start)

    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    write_ledger_csv(traj, manifest.ledger_path)
    write_snapshots_jsonl(traj, manifest.snapshots_path)
    report = build_report(traj)
    report["manifest"] = {
        "config": _jsonable(config_to_dict(cfg)),
        "initial_condition": manifest.initial_condition,
        "seed": manifest.seed,
    }
    write_report_json(report, manifest.report_path)
    if cfg.flux_diagnostics:
        write_flux_csv(traj, manifest.flux_path)
    if manifest.checkpoint is not None:
        write_checkpoint(traj, manifest.checkpoint)
    return traj, report
