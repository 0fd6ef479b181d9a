"""neckdown benchmark: three workloads, end to end or traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``; without it the
benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
``setup_s`` (median over fresh set-up processes), ``run_s`` (median wall time
of one execution) and ``peak_rss_mb`` (this process's peak resident memory).
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics; the spans are written to ``.perfbench_out/`` when the
run ends. Both modes repeat executions for ``--seconds`` seconds, check the
outputs of every execution, and cross-check its exact counts against the
run's other executions and against earlier runs of the same code in this
checkout. A failed check counts its execution as failed.

Load is closed-loop: one execution at a time, in this process, with BLAS
and OpenMP pinned to one thread. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 7


@dataclass
class Execution:
    seconds: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("relax", "pinch", "artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(name: str, seed: int, index: int) -> float:
    """Wall time of one fresh process that imports, builds inputs and warms up."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed),
           str(WORK / "probe" / str(index))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def execute(workload, recorder, run_id: int) -> Execution:
    """One timed execution and its checks; odd runs are traced in trace mode."""
    out_dir = WORK / "exec"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    traced = recorder is not None and run_id % 2 == 1
    record = Execution(seconds=0.0, traced=traced)
    try:
        with recorder.execution(run_id) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outcome = workload.execute(out_dir)
            finally:
                record.seconds = time.perf_counter() - t0
        record.problems, record.counts, record.notes = workload.check(outcome, out_dir)
    except Exception as exc:  # a broken execution is counted as failed, not fatal
        record.problems.append(f"{type(exc).__name__}: {exc}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cross_check_counts(records: list[Execution], key: str) -> dict:
    """Exact counts must repeat across executions and across runs of the same
    code; a mismatch fails the executions that disagree."""
    clean = [r for r in records if r.counts]
    if not clean:
        return {}
    first = clean[0].counts
    for r in clean[1:]:
        if r.counts != first:
            r.problems.append(f"exact counts {r.counts} differ from this run's first {first}")
    path = WORK / "counts.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    earlier = stored.get(key)
    if earlier is None:
        stored[key] = first
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    elif earlier != first:
        for r in clean:
            r.problems.append(f"exact counts {first} differ from an earlier run's {earlier}")
    return first


def solution_times(records: list[Execution], traced: bool) -> list[float]:
    """Wall times to solution: an execution whose checks failed produced
    none, so it is left out unless every execution of its kind failed."""
    kind = [r for r in records if r.traced == traced]
    return [r.seconds for r in kind if not r.problems] or [r.seconds for r in kind]


def describe_times(label: str, values: list[float], unit: str) -> str:
    line = f"{label:<12} {median(values):.6g} {unit}  median of {len(values)}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        line += f", p{pct} {sorted(values)[int(pct / 100 * len(values))]:.6g}"
    return line + f", min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads

        nd = workloads.load_package(ROOT)
    except ImportError as exc:
        print(f"cannot import neckdown from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import spans
    from layers import Traced, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        nd, args.seed, reference["checks"].get(args.workload, {})
    )
    code = code_hash()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  code {code}")

    workload.warm(WORK / "warm")
    shutil.rmtree(WORK / "warm", ignore_errors=True)

    # Set-up probes run between executions, spread evenly over the measured
    # window, so that they sample the same stretch of machine time as the
    # executions do; the measuring clock stops while a probe runs.
    probes = 0 if args.trace else SETUP_PROBES
    setup: list[float] = []
    recorder = spans.Recorder() if args.trace else None
    records: list[Execution] = []
    measured = 0.0
    while measured < args.seconds or len(records) < (2 if args.trace else 1):
        t0 = time.perf_counter()
        records.append(execute(workload, recorder, len(records)))
        measured += time.perf_counter() - t0
        if len(setup) < probes and measured >= len(setup) * args.seconds / probes:
            setup.append(probe_setup(args.workload, args.seed, len(setup)))
    while len(setup) < probes:
        setup.append(probe_setup(args.workload, args.seed, len(setup)))
    shutil.rmtree(WORK / "probe", ignore_errors=True)

    key = args.workload + (f"/seed{args.seed}" if workload.seeded else "") + "/" + code
    counts = cross_check_counts(records, key)
    ref_counts = reference["counts"].get(args.workload)
    if counts and ref_counts and (not workload.seeded or args.seed == ref_counts["seed"]):
        differ = {k: (counts[k], v) for k, v in ref_counts["counts"].items() if counts.get(k) != v}
        if differ:
            print(f"note: counts differ from the seed-commit reference: {differ}")
    for note in sorted({n for r in records for n in r.notes}):
        print(f"note: {note}")
    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAILED execution ({r.seconds:.3f} s): {'; '.join(r.problems)}")
    print(f"counts per execution: {json.dumps(counts, sort_keys=True)}")
    print(f"fail_frac    {len(failed)}/{len(records)}")

    untraced = solution_times(records, traced=False)
    values = {}
    if args.trace:
        traced_ids = [i for i, r in enumerate(records) if r.traced]
        traced_s = solution_times(records, traced=True)
        print(describe_times("run_s", untraced, "s") + " (untraced)")
        print(describe_times("traced run_s", traced_s, "s"))
        per_run = recorder.per_run()
        traced = Traced(per_run, traced_ids)
        derived = layer_metrics(traced, counts, (median(untraced), median(traced_s)))
        for flag in traced.flags:
            print(f"FLAG {flag}")
        recorded = {n for i in traced_ids for n, e in per_run[i].items() if e["incl"]}
        absent = recorder.missing | {n for n in workload.spans if n not in recorded}
        for name in sorted(absent):
            print(f"MISSING SPAN {name}: expected on {args.workload}, never recorded")
        for name in wanted:
            value, needs = derived[name]
            if absent.intersection(needs):
                print(f"MISSING {name}: rests on {sorted(absent.intersection(needs))}")
                continue
            values[name] = value
        for name in ("evolve.steps", "linear.step_linear.calls"):
            traced_count = derived[name][0]
            if counts and counts.get(name) != traced_count:
                print(f"FLAG {name}: traced {traced_count}, outputs give {counts.get(name)}")
        trace_path = WORK / f"trace_{args.workload}.csv"
        recorder.write(trace_path)
        print(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        print(describe_times("setup_s", setup, "s"))
        print(describe_times("run_s", untraced, "s"))
        values = {
            "setup_s": median(setup),
            "run_s": median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for name, value in values.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
