"""Command-line front end: run, sweep, steady, continuation, verify.

Configuration precedence is flags over config-file values over defaults.
Pinch detection counts as a successful outcome (exit 0); solver failures
exit 3, bad arguments exit 2.  A sweep records a job that fails either way
as a row of its summary and exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .evolve import SolverConfig, Termination, epsilon_continuation
from .grid import Profile, make_grid
from .initial import build_initial_condition, read_json
from .io import (
    RunManifest,
    _g17,
    _g17_row,
    _jsonable,
    config_to_dict,
    default_out_dir,
    execute_run,
    resolve_config,
    write_report_json,
)
from .steady import contact_point, steady_energy, steady_profile
from .verify import format_table, run_checks

OK_TERMINATIONS = (Termination.REACHED_T_FINAL, Termination.PINCH_DETECTED)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pressure", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--t-final", type=float, default=None)
    parser.add_argument("--pinch-floor", type=float, default=None)
    parser.add_argument("--output-every", type=int, default=None)
    parser.add_argument(
        "--flux-diagnostics", action="store_true", default=None,
        help="emit per-step flux energy diagnostics CSV",
    )
    parser.add_argument(
        "--config", type=Path, default=None, metavar="FILE",
        help="JSON file with solver parameters; flags override it",
    )


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ic", default="steady",
        help="initial condition: steady | steady-perturbed-poly[:amp] | "
        "steady-perturbed-random[:amp] | file:PATH",
    )
    parser.add_argument("--out-dir", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    """The solver flags' dest names are the SolverConfig field names."""
    file_values = None
    if args.config is not None:
        file_values = read_json(args.config, "config file")
    return resolve_config(vars(args), file_values)


def _echo_config(cfg: SolverConfig) -> None:
    print("resolved config:", json.dumps(_jsonable(config_to_dict(cfg)), sort_keys=True))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    out_dir = args.out_dir if args.out_dir is not None else default_out_dir()
    manifest = RunManifest(
        config=cfg,
        initial_condition=args.ic,
        out_dir=out_dir,
        seed=args.seed,
        checkpoint=args.checkpoint,
        restore=args.restore,
    )
    _echo_config(cfg)
    traj, report = execute_run(manifest)
    print(
        f"termination: {traj.termination.value}  t_end {report['t_end']:g}  "
        f"steps {report['steps']}  energy {report['energy_final']:.6g}"
    )
    if traj.failure_message:
        print(f"failure: {traj.failure_message}", file=sys.stderr)
    print(f"outputs in {out_dir}")
    return 0 if traj.termination in OK_TERMINATIONS else 3


def _sweep_worker(payload: tuple[SolverConfig, str, str, int]) -> dict | str:
    """One sweep job: its report, or the message of an error that would make
    a single run exit 2, so that one bad job does not lose the batch."""
    cfg, ic, out_dir, seed = payload
    try:
        manifest = RunManifest(
            config=cfg, initial_condition=ic, out_dir=Path(out_dir), seed=seed
        )
        _, report = execute_run(manifest)
    except (ValueError, OSError) as exc:
        return str(exc)
    return report


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    pressures = [float(p) for p in args.pressures.split(",") if p.strip()]
    if not pressures:
        print("sweep needs at least one pressure", file=sys.stderr)
        return 2
    jobs: dict[str, list[float]] = {}
    for p in pressures:
        jobs.setdefault(f"P{p:g}", []).append(p)
    clashes = [
        f"{', '.join(map(repr, ps))} in {name}" for name, ps in jobs.items() if len(ps) > 1
    ]
    if clashes:
        raise ValueError(f"pressures would share a job directory: {'; '.join(clashes)}")
    out_root = args.out_dir if args.out_dir is not None else default_out_dir()
    # the shared flags are checked once, at a stand-in pressure; a pressure
    # that check_pressure rejects is its own job's error
    shared = _solver_config(argparse.Namespace(**{**vars(args), "pressure": 1.0}))
    reports: dict[str, dict | str] = {}
    payloads = {}
    for name, (p,) in jobs.items():
        try:
            payloads[name] = (replace(shared, pressure=p), args.ic, str(out_root / name), args.seed)
        except ValueError as exc:
            reports[name] = str(exc)

    # a fork-based pool starts all its workers at once: no more than the jobs
    workers = min(args.workers, len(payloads))
    if workers > 1:
        # imported here: multiprocessing would otherwise load on every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports.update(zip(payloads, pool.map(_sweep_worker, payloads.values())))
    else:
        reports.update((name, _sweep_worker(pl)) for name, pl in payloads.items())

    out_root.mkdir(parents=True, exist_ok=True)
    lines = ["pressure,termination,t_end,energy_final,pinched,t_pinch"]
    ok = True
    for name, (p,) in jobs.items():
        rep = reports[name]
        if isinstance(rep, str):
            print(f"error: pressure {p:g}: {rep}", file=sys.stderr)
            ok = False
            lines.append(f"{p:g},error,,,,")
            continue
        pinch = rep["pinch"]
        ok = ok and rep["termination"] in {t.value for t in OK_TERMINATIONS}
        numbers = _g17_row((rep["t_end"], rep["energy_final"]))
        pinched = str(bool(pinch["pinched"])).lower()
        t_pinch = "" if pinch["t_pinch"] is None else _g17(pinch["t_pinch"])
        lines.append(f"{p:g},{rep['termination']},{numbers},{pinched},{t_pinch}")
    summary = "\n".join(lines) + "\n"
    (out_root / "summary.csv").write_text(summary)
    print(summary, end="")
    return 0 if ok else 3


def _cmd_steady(args: argparse.Namespace) -> int:
    if args.pressure is None:
        print("steady needs --pressure", file=sys.stderr)
        return 2
    grid = make_grid(args.n if args.n is not None else 201)
    values = steady_profile(args.pressure, grid)
    payload = {
        "pressure": args.pressure,
        "contact_point": contact_point(args.pressure),
        "energy": steady_energy(args.pressure),
        "nodes": [float(x) for x in grid.nodes],
        "values": [float(v) for v in values],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_continuation(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    schedule = [float(e) for e in args.eps_schedule.split(",") if e.strip()]
    grid = make_grid(cfg.n)
    values = build_initial_condition(args.ic, cfg.pressure, grid, seed=args.seed)
    h0 = Profile(grid=grid, values=values, pressure=cfg.pressure)
    _echo_config(cfg)
    report = epsilon_continuation(cfg, h0, schedule)

    rows = []
    for pair in report.pairs:
        rows.append(
            {
                "eps_high": pair.eps_high,
                "eps_low": pair.eps_low,
                "max_sup_diff": pair.max_sup_diff,
            }
        )
        print(
            f"eps {pair.eps_high:g} -> {pair.eps_low:g}: "
            f"max sup diff {pair.max_sup_diff:.6e}"
        )
    print(f"cauchy: {report.cauchy}")
    out_dir = args.out_dir if args.out_dir is not None else default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(
        _jsonable(
            {
                "schedule": schedule,
                "pairs": rows,
                "cauchy": report.cauchy,
                "terminations": [
                    t.termination.value for t in report.trajectories
                ],
            }
        ),
        out_dir / "continuation.json",
    )
    bad = any(
        t.termination not in OK_TERMINATIONS for t in report.trajectories
    )
    return 3 if bad else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks()
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neckdown",
        description="Thin-neck lubrication model: implicit solver and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance one configuration and write outputs")
    _add_solver_flags(p_run)
    _add_io_flags(p_run)
    p_run.add_argument("--checkpoint", type=Path, default=None,
                       help="write the final state here for later restore")
    p_run.add_argument("--restore", type=Path, default=None,
                       help="resume from a checkpoint file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run several pressures in parallel")
    _add_solver_flags(p_sweep)
    _add_io_flags(p_sweep)
    p_sweep.add_argument("--pressures", required=True,
                         help="comma-separated pressure values")
    p_sweep.add_argument("--workers", type=int, default=4)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_steady = sub.add_parser("steady", help="dump the steady profile and its energy")
    p_steady.add_argument("--pressure", type=float, default=None)
    p_steady.add_argument("--n", type=int, default=None)
    p_steady.add_argument("--out", type=Path, default=None)
    p_steady.set_defaults(func=_cmd_steady)

    p_cont = sub.add_parser(
        "continuation", help="run a decreasing regularization schedule and compare"
    )
    _add_solver_flags(p_cont)
    _add_io_flags(p_cont)
    p_cont.add_argument("--eps-schedule", required=True,
                        help="comma-separated decreasing epsilon values")
    p_cont.set_defaults(func=_cmd_continuation)

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
