"""The benchmark's entry points still work against the package.

perfbench/spans.py wraps neckdown's functions at the module attributes their
callers look up.  A refactor that removes or renames one would leave its
span unrecorded (MISSING under --trace 1), so this reads the benchmark's
TARGETS table, without changing it, and checks every attribute.  It also
runs each workload's two-step warm-up, what perfbench/probe.py runs, and
each workload's check on a two-step outcome, which reads the Trajectory
fields and detect_pinch, so a signature change cannot break the benchmark
silently.
"""

import importlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

import neckdown
import neckdown.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# report.json files each workload's warm-up writes under its out_dir
WARM_REPORTS = {
    "relax": ["report.json"],
    "pinch": [],
    "artifacts": ["whole/report.json", "first/report.json", "second/report.json"],
}


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_an_attribute_of_its_modules():
    targets = load_perfbench("spans").TARGETS
    assert targets
    missing = []
    for name, sites in targets.items():
        func = name.split(".", 1)[1]
        for site in sites:
            module = importlib.import_module(f"neckdown.{site}")
            if not callable(getattr(module, func, None)):
                missing.append(f"neckdown.{site}.{func} (span {name})")
    assert missing == []


@pytest.mark.parametrize("name", sorted(WARM_REPORTS))
def test_workload_warm_up_records_every_span_it_declares(name, tmp_path):
    """An attribute can outlive its caller: a refactor that calls a function
    past the module global the span wraps leaves the span unrecorded, not
    missing.  So each declared span must record a call on the warm-up."""
    spans = load_perfbench("spans")
    workload = load_perfbench("workloads").WORKLOADS[name](neckdown, 1, {})
    recorder = spans.Recorder()
    with recorder.execution(0):
        workload.warm(tmp_path)
    assert recorder.missing == set()
    assert sorted(set(workload.spans) - set(recorder.per_run()[0])) == []


def test_every_workload_is_covered_by_the_warm_up_test():
    workloads = sorted(load_perfbench("workloads").WORKLOADS)
    assert workloads == sorted(WARM_REPORTS) == sorted(TWO_STEP_OUTCOMES)


@pytest.mark.parametrize("name", sorted(WARM_REPORTS))
def test_workload_warm_up_runs_and_writes_its_reports(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name](neckdown, 1, {})
    workload.warm(tmp_path)
    for report in WARM_REPORTS[name]:
        assert (tmp_path / report).is_file(), report


# a two-step outcome of each workload, as its execute would return it, and
# the steps its check counts: artifacts counts its unsplit run's two steps
# and the one step of each leg of the split run
TWO_STEP_OUTCOMES = {
    "relax": (lambda w, tmp: w.nd.io.execute_run(w._manifest(tmp, 2)), 2),
    "pinch": (lambda w, tmp: w._run(replace(w.cfg, t_final=2 * w.cfg.dt)), 2),
    "artifacts": (lambda w, tmp: w._execute(tmp, 2), 4),
}


@pytest.mark.parametrize("name", sorted(TWO_STEP_OUTCOMES))
def test_workload_check_reads_a_two_step_outcome(name, tmp_path):
    """check returns on a short outcome; the problems it reports there are
    the short run's, not a fault, and are not asserted."""
    checks = json.loads((PERFBENCH / "reference.json").read_text())["checks"]
    workload = load_perfbench("workloads").WORKLOADS[name](neckdown, 1, checks.get(name, {}))
    outcome, steps = TWO_STEP_OUTCOMES[name]
    _, counts, _ = workload.check(outcome(workload, tmp_path), tmp_path)
    assert counts["evolve.steps"] == steps
