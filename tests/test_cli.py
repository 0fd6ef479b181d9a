"""Tests for config resolution, run artifacts, and the command line."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from neckdown import evolve
from neckdown.cli import _add_solver_flags, _solver_config, build_parser, main
from neckdown.evolve import RunStart, SolverConfig
from neckdown.grid import make_grid
from neckdown.initial import ic_steady
from neckdown.io import (
    FLUX_HEADER,
    LEDGER_HEADER,
    RunManifest,
    _g17_row,
    build_report,
    execute_run,
    load_checkpoint,
    read_snapshots_jsonl,
    resolve_config,
    write_checkpoint,
    write_report_json,
    write_snapshots_jsonl,
)
from neckdown.linear import LinearSolveError


def quick_config(**overrides):
    base = dict(
        pressure=1.5, dt=1e-4, t_final=0.01, epsilon=1e-2, output_every=25
    )
    base.update(overrides)
    return SolverConfig(**base)


def test_import_loads_no_integrate_optimize_special_or_multiprocessing():
    """Every command pays for what `import neckdown.cli` loads; the quadrature
    and the sweep's process pool must not pull these in.  Of scipy, only the
    two compiled modules the solver calls are loaded, from their files, and
    neither they nor any scipy package are left in sys.modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import json, sys, neckdown.cli; print(json.dumps(["
        "[m for m in ('scipy', 'scipy.linalg', 'scipy.sparse', 'scipy.integrate', "
        "'scipy.optimize', 'scipy.special', 'multiprocessing') if m in sys.modules], "
        "sorted(m for m in sys.modules if m.startswith('scipy.'))]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded, scipy_modules = json.loads(out.stdout)
    assert loaded == []
    assert scipy_modules == []


FORMATTED_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(FORMATTED_FLOATS, max_size=40),
    picard=st.integers(0, 12),
    sep=st.sampled_from([",", ", "]),
)
def test_g17_row_matches_per_value_formatting(values, picard, sep):
    """Generated domain: up to 40 finite doubles, with +-0, subnormals and
    +-1e308 drawn often; as a float array, and as a ledger-style tuple of
    numpy floats ending in an integer Picard count."""
    def per_value(row):
        return sep.join("%.17g" % x for x in row)

    array = np.array(values, dtype=float)
    assert _g17_row(array, sep) == per_value(array)
    row = (*array, np.int64(picard))
    assert _g17_row(row, sep) == per_value(row)


def _snapshot_trajectory(snapshots, times=None, steps=None):
    """The three fields of a Trajectory that write_snapshots_jsonl reads."""
    count = len(snapshots)
    return SimpleNamespace(
        times=np.arange(count) * 1e-4 if times is None else times,
        snapshot_steps=np.arange(count) if steps is None else steps,
        snapshots=np.array(snapshots),
    )


SNAPSHOT_FLOATS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300]),
)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.sampled_from([9, 201, 801]), count=st.integers(1, 3))
def test_snapshots_read_back_as_the_written_float64_arrays(tmp_path_factory, data, n, count):
    """Generated domain: 1-3 rows of n in {9, 201, 801} doubles up to 1e+-300
    in magnitude, with +-0 and subnormals drawn often, at any finite time and
    nonnegative step."""
    snapshots = [data.draw(arrays(np.float64, n, elements=SNAPSHOT_FLOATS)) for _ in range(count)]
    times = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=count, max_size=count))
    steps = data.draw(st.lists(st.integers(0, 10**9), min_size=count, max_size=count))
    path = tmp_path_factory.mktemp("snap") / "snapshots.jsonl"
    write_snapshots_jsonl(_snapshot_trajectory(snapshots, times, steps), path)
    rows = read_snapshots_jsonl(path)
    assert [(row["t"], row["step"]) for row in rows] == list(zip(times, steps))
    for row, values in zip(rows, snapshots):
        assert row["values"].dtype == np.float64
        assert row["values"].tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "bad_row",
    [
        '{"t": 0.1, "step": 1, "values": [1.0, true, 1.0]}',
        '{"t": 0.1, "step": 1, "values": [1.0, "0.5", 1.0]}',
        '{"t": 0.1, "step": 1}',
        '{"t": 0.1, "step": 1, "values": {"0": 1.0}}',
        '[0.1, 1, [1.0, 0.5, 1.0]]',
        '{"t": 0.1, "step": 1, "values": [1.0, 0.5',
    ],
    ids=["bool", "numeric-string", "no-values-key", "values-object", "row-list", "truncated"],
)
def test_malformed_snapshot_row_is_rejected_naming_its_line(tmp_path, bad_row):
    """np.asarray would read true as 1.0 and "0.5" as 0.5, and json's own
    error on a truncated row names no file; the reader names the line
    instead."""
    path = tmp_path / "snapshots.jsonl"
    path.write_text('{"t": 0, "step": 0, "values": [1.0, 0.5, 1.0]}\n' + bad_row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 2")):
        read_snapshots_jsonl(path)


def test_reading_snapshots_peaks_below_twice_the_arrays(tmp_path):
    """A 200 x 801 file read back holds float64 arrays, not lists of Python
    floats (about 32 bytes per value): the traced peak of the read stays
    below twice the arrays' own bytes."""
    rng = np.random.default_rng(0)
    path = tmp_path / "snapshots.jsonl"
    write_snapshots_jsonl(_snapshot_trajectory(rng.standard_normal((200, 801))), path)
    tracemalloc.start()
    try:
        rows = read_snapshots_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = sum(row["values"].nbytes for row in rows)
    assert array_bytes == 200 * 801 * 8
    assert peak < 2 * array_bytes


def test_resolve_config_precedence():
    cfg = resolve_config({"pressure": None, "dt": None}, {"pressure": 1.0})
    assert cfg.pressure == 1.0 and cfg.dt == 1e-5      # file + default
    cfg = resolve_config(
        {"pressure": 2.5, "dt": 5e-5}, {"pressure": 1.0, "dt": 1e-4}
    )
    assert cfg.pressure == 2.5 and cfg.dt == 5e-5      # flags win
    with pytest.raises(ValueError, match="unknown config file keys"):
        resolve_config({"pressure": 1.0}, {"presure": 1.0})
    with pytest.raises(ValueError, match="pressure is required"):
        resolve_config({"pressure": None}, {"dt": 1e-4})


@pytest.mark.parametrize(
    "file_values",
    [
        {"pressure": None},
        {"pressure": "1.5"},
        {"pressure": 1.5, "n": 201.0},
        {"pressure": True},
        {"pressure": 1.5, "dt": 10**400},
    ],
)
def test_cli_config_file_value_of_the_wrong_type_exits_two(tmp_path, capsys, file_values):
    """The last key holds the bad value; an integer beyond the double range
    is no float."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(file_values))
    rc = main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    bad_key = list(file_values)[-1]
    assert f"config file key {bad_key!r}" in err
    assert not (tmp_path / "out").exists()


def test_manifest_rejects_unknown_family(tmp_path):
    with pytest.raises(ValueError, match="unknown initial-condition family"):
        RunManifest(
            config=quick_config(),
            initial_condition="sine",
            out_dir=tmp_path,
        )


@pytest.mark.parametrize(
    "command", [["run", "--pressure", "1"], ["sweep", "--pressures", "1,1.5", "--workers", "1"]],
    ids=["run", "sweep"],
)
def test_cli_steady_with_an_argument_exits_two(tmp_path, capsys, command):
    """The steady family takes no argument: steady:0.3 is an error naming
    the spec, not the plain steady profile recorded under that name."""
    out = tmp_path / "out"
    assert main([*command, "--n", "51", "--dt", "1e-3", "--t-final", "0.005",
                 "--ic", "steady:0.3", "--out-dir", str(out)]) == 2
    assert "initial condition 'steady:0.3': steady takes no argument" in capsys.readouterr().err
    assert not out.exists()


def test_execute_run_writes_parseable_artifacts(tmp_path):
    manifest = RunManifest(
        config=quick_config(flux_diagnostics=True),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "out",
    )
    traj, report = execute_run(manifest)

    ledger_lines = manifest.ledger_path.read_text().splitlines()
    assert ledger_lines[0] == LEDGER_HEADER
    assert len(ledger_lines) == 1 + len(traj.ledger)
    first = ledger_lines[1].split(",")
    assert float(first[0]) == traj.ledger[0].time
    assert float(first[1]) == traj.ledger[0].energy     # %.17g round-trips
    assert float(first[4]) == traj.min_series[0, 2]
    assert int(first[6]) == 0
    # the record's columns are the CSV's, one to one and in order, and each
    # line is its record row as the writer formats rows
    renamed = {"t": "time", "cum_dissipation": "cumulative_dissipation"}
    assert traj.ledger.dtype.names == tuple(
        renamed.get(column, column) for column in LEDGER_HEADER.split(",")
    )
    assert ledger_lines[1:] == [_g17_row(row) for row in traj.ledger]
    # every field of every row parses back to the trajectory's double
    expected = np.column_stack([traj.ledger[name] for name in traj.ledger.dtype.names])
    parsed = np.array([[float(v) for v in line.split(",")] for line in ledger_lines[1:]])
    assert parsed.tobytes() == expected.tobytes()
    assert all(line.rpartition(",")[2].isdigit() for line in ledger_lines[1:])
    # the record is read-only, as Profile values are
    with pytest.raises(ValueError, match="read-only"):
        traj.ledger.energy[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        traj.ledger[-1].picard_iters = 0
    with pytest.raises(ValueError, match="read-only"):
        traj.snapshots[0, 0] = 0.0

    rows = read_snapshots_jsonl(manifest.snapshots_path)
    assert len(rows) == len(traj.snapshots)
    assert rows[-1]["step"] == int(traj.snapshot_steps[-1])
    np.testing.assert_array_equal(
        np.array(rows[-1]["values"]), traj.final.values
    )

    assert report["termination"] == "reached-t-final"
    assert report["manifest"]["initial_condition"] == "steady-perturbed-poly:0.05"
    assert "out_dir" not in report["manifest"]
    on_disk = json.loads(manifest.report_path.read_text())
    assert on_disk == report

    flux_lines = manifest.flux_path.read_text().splitlines()
    assert flux_lines[0].startswith("t,")
    assert len(flux_lines) == 1 + len(traj.flux_reports)
    assert flux_lines[0] == FLUX_HEADER
    parsed = np.array([[float(v) for v in line.split(",")] for line in flux_lines[1:]])
    assert traj.flux_reports.dtype == np.float64
    assert parsed.shape == traj.flux_reports.shape
    assert parsed.tobytes() == traj.flux_reports.tobytes()


def test_execute_run_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        manifest = RunManifest(
            config=quick_config(),
            initial_condition="steady-perturbed-random:0.05",
            out_dir=tmp_path / name,
            seed=7,
        )
        execute_run(manifest)
        outs.append(manifest)
    for attr in ("ledger_path", "snapshots_path", "report_path"):
        a = getattr(outs[0], attr).read_bytes()
        b = getattr(outs[1], attr).read_bytes()
        assert a == b, f"{attr} differs between identical runs"


def test_interrupted_writes_keep_previous_report_and_checkpoint(tmp_path, monkeypatch):
    first = RunManifest(
        config=quick_config(),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path,
        checkpoint=tmp_path / "state.json",
    )
    execute_run(first)
    later = RunManifest(
        config=quick_config(t_final=0.02),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "later",
    )
    traj, _ = execute_run(later)
    paths = (first.checkpoint, first.report_path)
    before = [path.read_bytes() for path in paths]
    listing = sorted(tmp_path.iterdir())

    def fail_between_write_and_rename(src, dst):
        assert os.path.dirname(src) == os.path.dirname(dst) and os.path.exists(src)
        raise OSError("injected failure before the rename")

    monkeypatch.setattr(os, "replace", fail_between_write_and_rename)
    with pytest.raises(OSError, match="injected"):
        write_checkpoint(traj, first.checkpoint)
    with pytest.raises(OSError, match="injected"):
        write_report_json(build_report(traj), first.report_path)
    monkeypatch.undo()

    assert [path.read_bytes() for path in paths] == before
    assert sorted(tmp_path.iterdir()) == listing


def test_checkpoint_roundtrip_and_mismatch(tmp_path):
    cfg = quick_config()
    manifest = RunManifest(
        config=cfg,
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "run",
        checkpoint=tmp_path / "state.json",
    )
    traj, _ = execute_run(manifest)
    assert traj.end.step == int(traj.snapshot_steps[-1])
    assert len(traj.end.history) == 2
    state = json.loads(manifest.checkpoint.read_text())
    assert "time" not in state
    gone = ("simpson", "crank_nicolson", "picard_tol", "picard_max")
    assert not set(gone) & set(state["config"])
    # one solve per step leaves no Picard count for report.json to summarise
    report = json.loads(manifest.report_path.read_text())
    assert not {"picard_iters_max", "picard_iters_mean"} & set(report)
    assert not set(gone) & set(report["manifest"]["config"])
    # an older checkpoint's time key is ignored, as the time is step * dt, and
    # so are its config's simpson, crank_nicolson, picard_tol and picard_max
    # keys, as the trapezoid is the one quadrature and one linearly implicit
    # backward-Euler solve the one time step
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**state, "time": 123.0, "config": {
        **state["config"], "simpson": False, "crank_nicolson": False,
        "picard_tol": 1e-8, "picard_max": 12}}))
    for path in (manifest.checkpoint, older):
        profile, start = load_checkpoint(path, cfg)
        assert profile.values.tobytes() == traj.final.values.tobytes()
        for f in fields(RunStart):
            restored, saved = getattr(start, f.name), getattr(traj.end, f.name)
            assert np.asarray(restored).tobytes() == np.asarray(saved).tobytes(), f.name
    with pytest.raises(ValueError, match="does not match config"):
        load_checkpoint(manifest.checkpoint, quick_config(dt=5e-5))


def test_cli_resumes_a_checkpoint_whose_config_holds_picard_keys(tmp_path):
    """A checkpoint written while the step iterated holds picard_tol and
    picard_max in its config; --restore resumes from it, and the resumed
    run ends on the bits of a run resumed from the same state without them."""
    common = ["run", "--pressure", "1.5", "--dt", "1e-4", "--epsilon", "1e-2",
              "--ic", "steady-perturbed-poly:0.05"]
    ck = tmp_path / "ck.json"
    assert main([*common, "--t-final", "0.005", "--out-dir", str(tmp_path / "a"),
                 "--checkpoint", str(ck)]) == 0
    state = json.loads(ck.read_text())
    older = tmp_path / "older.json"
    older.write_text(json.dumps(
        {**state, "config": {**state["config"], "picard_tol": 1e-8, "picard_max": 12}}))
    for path, out in ((ck, "b"), (older, "c")):
        assert main([*common, "--t-final", "0.01", "--out-dir", str(tmp_path / out),
                     "--restore", str(path)]) == 0
    resumed = [read_snapshots_jsonl(tmp_path / out / "snapshots.jsonl")[-1] for out in "bc"]
    assert resumed[1]["step"] == resumed[0]["step"] == 100
    assert resumed[1]["values"].tobytes() == resumed[0]["values"].tobytes()


def test_checkpoint_history_is_optional_and_checked(tmp_path, capsys):
    """A checkpoint without history restarts the predictor from the state
    alone; a history row of the wrong length, a non-finite or non-numeric
    one, a third row or a history that is no list makes --restore exit 2."""
    cfg = quick_config()
    path = tmp_path / "state.json"
    execute_run(
        RunManifest(
            config=cfg,
            initial_condition="steady-perturbed-poly:0.05",
            out_dir=tmp_path / "run",
            checkpoint=path,
        )
    )
    state = json.loads(path.read_text())
    bare = {k: v for k, v in state.items() if k != "history"}
    path.write_text(json.dumps(bare))
    assert load_checkpoint(path, cfg)[1].history == ()

    argv = ["run", "--pressure", "1.5", "--dt", "1e-4", "--epsilon", "1e-2",
            "--t-final", "0.02", "--out-dir", str(tmp_path / "resumed"),
            "--restore", str(path)]
    assert main(argv) == 0
    row = state["history"][0]
    for history, message in (
        ([row[:-1], row], "checkpoint history: profile has"),
        ([row, [float("nan")] + row[1:]], "checkpoint history: profile values must be finite"),
        ([row, {"values": row}], "checkpoint 'history' needs a list of numbers"),
        ([row, row, row], "a list of at most 2 states"),
        (row[0], "a list of at most 2 states"),
    ):
        path.write_text(json.dumps({**state, "history": history}))
        capsys.readouterr()
        assert main(argv) == 2
        assert message in capsys.readouterr().err


SHORT_RUN = ["run", "--pressure", "1.5", "--n", "51", "--dt", "1e-3", "--epsilon", "1e-2",
             "--ic", "steady-perturbed-poly:0.05"]


def test_cli_restore_past_t_final_exits_two(tmp_path, capsys):
    """A checkpoint at t = 0.05 restored under --t-final 0.03 lies past the
    final time: the run is refused, not reported as reached-t-final."""
    ck = tmp_path / "ck.json"
    assert main([*SHORT_RUN, "--t-final", "0.05", "--out-dir", str(tmp_path / "a"),
                 "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert main([*SHORT_RUN, "--t-final", "0.03", "--out-dir", str(tmp_path / "b"),
                 "--restore", str(ck)]) == 2
    assert "already past" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda s: {k: v for k, v in s.items() if k != "step"}, "'step'"),
        (lambda s: {**s, "step": -1}, "'step'"),
        (lambda s: {**s, "values": {"values": s["values"]}}, "'values'"),
        (lambda s: {**s, "cumulative_dissipation": "0.5"}, "'cumulative_dissipation'"),
        (lambda s: [s], "JSON object"),
        (lambda s: {**s, "values": [True] * len(s["values"])}, "'values'"),
        (lambda s: {**s, "history": [s["history"][0], ["%.17g" % v for v in s["history"][1]]]},
         "'history'"),
        (lambda s: {**s, "cumulative_dissipation": 10**400}, "'cumulative_dissipation'"),
        (lambda s: {**s, "history": [s["history"][0], [10**400, *s["history"][1][1:]]]},
         "'history'"),
        (lambda s: {**s, "cumulative_dissipation": float("nan")}, "'cumulative_dissipation'"),
        (lambda s: {**s, "cumulative_dissipation": float("inf")}, "'cumulative_dissipation'"),
    ],
    ids=["no-step", "negative-step", "values-object", "dissipation-string", "top-level-list",
         "bools", "numeric-strings", "huge-int-dissipation", "huge-int-history",
         "nan-dissipation", "inf-dissipation"],
)
def test_cli_restore_of_a_malformed_checkpoint_exits_two(tmp_path, capsys, edit, named):
    """A checkpoint with a key missing, mistyped or out of range, or one that
    is no JSON object, makes --restore exit 2 with a message naming it."""
    ck = tmp_path / "ck.json"
    assert main([*SHORT_RUN, "--t-final", "0.01", "--out-dir", str(tmp_path / "a"),
                 "--checkpoint", str(ck)]) == 0
    ck.write_text(json.dumps(edit(json.loads(ck.read_text()))))
    capsys.readouterr()
    assert main([*SHORT_RUN, "--t-final", "0.02", "--out-dir", str(tmp_path / "b"),
                 "--restore", str(ck)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_split_run_continues_bit_for_bit(tmp_path):
    whole = RunManifest(
        config=quick_config(t_final=0.02),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "whole",
    )
    _, report_whole = execute_run(whole)

    first = RunManifest(
        config=quick_config(t_final=0.01),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "first",
        checkpoint=tmp_path / "mid.json",
    )
    execute_run(first)
    second = RunManifest(
        config=quick_config(t_final=0.02),
        initial_condition="steady-perturbed-poly:0.05",
        out_dir=tmp_path / "second",
        restore=tmp_path / "mid.json",
    )
    traj2, report_second = execute_run(second)

    rows_whole = read_snapshots_jsonl(whole.snapshots_path)
    rows_second = read_snapshots_jsonl(second.snapshots_path)
    assert rows_whole[-1]["values"].tobytes() == rows_second[-1]["values"].tobytes()
    assert rows_whole[-1]["t"] == rows_second[-1]["t"]
    assert report_whole["energy_final"] == report_second["energy_final"]
    assert (
        report_whole["cumulative_dissipation"]
        == report_second["cumulative_dissipation"]
    )


def assert_ledger_balances(out_dir: Path, cum: float) -> None:
    """ledger.csv's cum_dissipation starts at cum and grows each row by dt
    times the trapezoid of its own dissipation column, dt read from
    report.json: the balance checked from the artifacts alone."""
    dt = json.loads((out_dir / "report.json").read_text())["manifest"]["config"]["dt"]
    header, *lines = (out_dir / "ledger.csv").read_text().splitlines()
    d, c = header.split(",").index("dissipation"), header.split(",").index("cum_dissipation")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    assert rows[0][c] == cum
    for prev, row in zip(rows, rows[1:]):
        cum += dt * (0.5 * (prev[d] + row[d]))
        assert row[c] == cum


def test_ledger_balances_from_its_own_artifacts(tmp_path):
    """A whole run of 150 steps (three blocks) and the same run split at
    step 70, mid-block: each ledger re-sums exactly, the resumed one from
    the value its checkpoint stores."""
    argv = ["run", "--pressure", "1.5", "--epsilon", "1e-2", "--n", "51", "--dt", "1e-4",
            "--ic", "steady-perturbed-poly:0.3"]
    mid = tmp_path / "mid.json"
    assert main([*argv, "--t-final", "0.015", "--out-dir", str(tmp_path / "whole")]) == 0
    assert main([*argv, "--t-final", "0.007", "--out-dir", str(tmp_path / "first"),
                 "--checkpoint", str(mid)]) == 0
    assert main([*argv, "--t-final", "0.015", "--out-dir", str(tmp_path / "second"),
                 "--restore", str(mid)]) == 0
    assert_ledger_balances(tmp_path / "whole", 0.0)
    assert_ledger_balances(tmp_path / "first", 0.0)
    resumed_from = json.loads(mid.read_text())["cumulative_dissipation"]
    assert_ledger_balances(tmp_path / "second", resumed_from)


def test_cli_run_writes_and_exits_zero(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--pressure", "1.5",
            "--dt", "1e-4",
            "--t-final", "0.005",
            "--epsilon", "1e-2",
            "--ic", "steady-perturbed-poly:0.05",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "termination: reached-t-final" in out
    assert (tmp_path / "out" / "ledger.csv").exists()
    assert (tmp_path / "out" / "snapshots.jsonl").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_run_reports_no_relaxation_where_its_region_is_empty(tmp_path, capsys):
    """At P = 100 on 9 nodes only the two boundary nodes of the steady
    profile exceed the default delta_loc: the run exits 0 and report.json
    holds "relaxation": null, not a distance of 0."""
    rc = main(
        [
            "run",
            "--pressure", "100",
            "--n", "9",
            "--dt", "1e-6",
            "--t-final", "2e-6",
            "--epsilon", "1e-2",
            "--ic", "steady-perturbed-poly:700",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["relaxation"] is None


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"pressure": 1.5, "dt": 1e-4, "t_final": 0.005, "epsilon": 1e-2})
    )
    rc = main(
        [
            "run",
            "--config", str(cfg_file),
            "--dt", "5e-5",
            "--ic", "steady",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    echoed = capsys.readouterr().out.splitlines()[0]
    assert echoed.startswith("resolved config:")
    resolved = json.loads(echoed.partition("resolved config:")[2])
    assert resolved["dt"] == 5e-5
    assert resolved["pressure"] == 1.5


def test_cli_pinch_run_counts_as_success(tmp_path):
    rc = main(
        [
            "run",
            "--pressure", "4",
            "--dt", "1e-4",
            "--t-final", "0.5",
            "--epsilon", "1e-4",
            "--pinch-floor", "1e-3",
            "--ic", "steady-perturbed-poly:1.2",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["termination"] == "pinch-detected"
    assert report["pinch"]["pinched"] is True


def test_cli_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    """A LinearSolveError in the first step ends the run as a solver
    failure: exit 3, with its message on stderr and in report.json."""

    def step_linear(*args, **kwargs):
        raise LinearSolveError("banded solve failed at step 1")

    monkeypatch.setattr(evolve, "step_linear", step_linear)
    rc = main(
        [
            "run",
            "--pressure", "1",
            "--dt", "10",
            "--t-final", "10",
            "--epsilon", "1e-2",
            "--ic", "steady-perturbed-poly:1.0",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    assert "failure: banded solve failed at step 1" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["termination"] == "solver-failure"
    assert report["failure_message"] == "banded solve failed at step 1"


def test_cli_bad_arguments_exit_two(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--pressure", "-1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "P>0" in capsys.readouterr().err
    rc = main(
        [
            "run",
            "--pressure", "1",
            "--ic", "sine",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "unknown initial-condition family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--t-final", "inf", "t_final"),
        ("--epsilon", "nan", "epsilon"),
        ("--pinch-floor", "inf", "pinch_floor"),
        ("--pressure", "nan", "pressure"),
        ("--dt", "-inf", "dt"),
    ],
)
def test_cli_non_finite_value_exits_two(tmp_path, capsys, flag, value, field):
    """A non-finite float in any solver field is a configuration error: exit
    2 naming the field, with no artifact written.  Unchecked, inf t_final
    crashed on the step count, and NaN epsilon or inf pinch_floor ran to exit
    0 with NaN or Infinity in report.json."""
    out = tmp_path / "out"
    argv = ["run", "--pressure", "1", "--n", "51", "--dt", "1e-3", "--t-final", "0.01"]
    rc = main(argv + [f"{flag}={value}", "--out-dir", str(out)])
    assert rc == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--pressure", "1"],
        ["sweep", "--pressures", "1", "--workers", "1"],
        ["sweep", "--pressures", "1", "--workers", "2"],
        ["continuation", "--pressure", "1", "--eps-schedule", "1e-2"],
    ],
    ids=["run", "sweep-1", "sweep-2", "continuation"],
)
@pytest.mark.parametrize(
    "dt, t_final", [("1e-300", "1e300"), ("5e-324", "1")], ids=["huge", "subnormal-dt"]
)
def test_cli_step_count_that_is_not_finite_exits_two(tmp_path, capsys, command, dt, t_final):
    """Finite dt and t_final whose ratio overflows leave no step count:
    exit 2 naming both values, with nothing written.  Unchecked, the run
    died with OverflowError on int(round(t_final / dt))."""
    out = tmp_path / "out"
    rc = main([*command, "--n", "51", "--dt", dt, "--t-final", t_final, "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "t_final / dt must be a finite step count" in err
    assert f"t_final {float(t_final)!r} and dt {float(dt)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, complaint",
    [
        ([1, 2], "initial-condition file needs a JSON object"),
        ({}, "initial-condition file lacks the 'values' key"),
        ({"values": {"a": 1}}, "'values' needs a list of numbers"),
        ({"values": [True] * 51}, "'values' needs a list of numbers"),
        ({"values": ["%.17g" % v for v in ic_steady(1.0, make_grid(51))]},
         "'values' needs a list of numbers"),
        ({"values": [10**400, *ic_steady(1.0, make_grid(51))[1:].tolist()]},
         "'values' needs a list of numbers"),
    ],
    ids=["list", "no-values-key", "values-object", "bools", "numeric-strings", "huge-int"],
)
def test_cli_malformed_ic_file_exits_two(tmp_path, capsys, payload, complaint):
    """A JSON file of the wrong shape is a configuration error like any
    other: exit 2 and a message naming it, not a traceback."""
    path = tmp_path / "ic.json"
    path.write_text(json.dumps(payload))
    rc = main(
        [
            "run",
            "--pressure", "1", "--n", "51", "--dt", "1e-3", "--t-final", "0.01",
            "--ic", f"file:{path}",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, complaint",
    [(b'{"config": {', "Expecting property name"), (b'{"n": "\xff"}', "can't decode byte 0xff")],
    ids=["truncated", "not-utf-8"],
)
@pytest.mark.parametrize(
    "flags, name",
    [
        (lambda path: ["--config", str(path)], "config file"),
        (lambda path: ["--restore", str(path)], "checkpoint"),
        (lambda path: ["--ic", f"file:{path}"], "initial-condition file"),
    ],
    ids=["config", "restore", "ic-file"],
)
def test_cli_file_that_is_not_json_exits_two_naming_it(
    tmp_path, capsys, flags, name, content, complaint
):
    """A file that does not parse, or does not decode, is reported with its
    role and path, not with the decoder's bare message."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc = main([*SHORT_RUN, "--t-final", "0.01", *flags(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{name} {path} is not JSON: " in err and complaint in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_cli_steady_dump(tmp_path, capsys):
    rc = main(["steady", "--pressure", "8", "--n", "101"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contact_point"] == pytest.approx(0.5)
    assert payload["energy"] == pytest.approx(16.0 / 3.0)
    assert len(payload["values"]) == 101

    out = tmp_path / "steady.json"
    rc = main(["steady", "--pressure", "1", "--n", "101", "--out", str(out)])
    assert rc == 0
    saved = json.loads(out.read_text())
    assert saved["values"][50] == pytest.approx(0.5)

    assert main(["steady"]) == 2
    capsys.readouterr()
    assert main(["steady", "--pressure", "-3"]) == 2


@pytest.mark.parametrize("pressure", ["nan", "inf", "0", "-1"])
def test_cli_steady_pressure_not_finite_and_positive_exits_two(tmp_path, capsys, pressure):
    """The steady dump takes only a finite P > 0; it writes no file, and no
    NaN or Infinity, which strict JSON lacks."""
    out = tmp_path / "steady.json"
    assert main(["steady", "--pressure", pressure, "--out", str(out)]) == 2
    assert "P>0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_writes_summary(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--pressures", "1.5,4",
            "--workers", "2",
            "--dt", "1e-4",
            "--t-final", "0.005",
            "--epsilon", "1e-2",
            "--ic", "steady-perturbed-poly",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert rc == 0
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert summary[0] == "pressure,termination,t_end,energy_final,pinched,t_pinch"
    assert len(summary) == 3
    assert summary[1].startswith("1.5,reached-t-final")
    assert summary[2].startswith("4,reached-t-final")
    assert (tmp_path / "sweep" / "P1.5" / "report.json").exists()
    assert (tmp_path / "sweep" / "P4" / "report.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_keeps_the_batch_when_a_job_fails(tmp_path, capsys, workers):
    rc = main(
        [
            "sweep",
            "--pressures", "1,6",
            "--workers", workers,
            "--dt", "1e-4",
            "--t-final", "1e-3",
            "--ic", "steady-perturbed-poly:0.05",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert rc == 3
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert summary[0] == "pressure,termination,t_end,energy_final,pinched,t_pinch"
    assert len(summary) == 3
    assert summary[1].startswith("1,reached-t-final,")
    assert summary[2] == "6,error,,,,"
    assert "pressure 6: perturbed-poly data with amplitude 0.05 is not positive" in (
        capsys.readouterr().err
    )
    assert (tmp_path / "sweep" / "P1" / "report.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_records_a_rejected_pressure_as_its_job_error(tmp_path, capsys, workers):
    """A pressure that is zero, negative, nan or inf fails its own job, as a
    row of the summary, while the other jobs run; the sweep exits 3.  An
    error in the shared flags still exits 2 before any job runs."""
    common = ["sweep", "--workers", workers, "--n", "51", "--dt", "1e-3", "--t-final", "0.005"]
    rc = main([*common, "--pressures", "1,0,-1,1.5,nan,inf", "--out-dir", str(tmp_path / "sweep")])
    assert rc == 3
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert [row.split(",", 2)[:2] for row in summary[1:]] == [
        ["1", "reached-t-final"], ["0", "error"], ["-1", "error"],
        ["1.5", "reached-t-final"], ["nan", "error"], ["inf", "error"],
    ]
    err = capsys.readouterr().err
    for p in ("0", "-1", "nan", "inf"):
        assert f"error: pressure {p}: pressure must be finite" in err
    assert sorted(d.name for d in (tmp_path / "sweep").iterdir()) == ["P1", "P1.5", "summary.csv"]
    assert (tmp_path / "sweep" / "P1.5" / "report.json").exists()

    rc = main([*common, "--pressures", "1,-1", "--epsilon", "-1",
               "--out-dir", str(tmp_path / "bad")])
    assert rc == 2
    assert "epsilon must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_with_an_unknown_family_exits_two(tmp_path, capsys, workers):
    """The --ic family is a shared flag: an unknown one exits 2 before any
    job runs, and nothing is written."""
    out = tmp_path / "sweep"
    rc = main(["sweep", "--pressures", "1,2", "--workers", workers, "--n", "51", "--dt", "1e-3",
               "--t-final", "0.005", "--ic", "bogus", "--out-dir", str(out)])
    assert rc == 2
    assert "unknown initial-condition family 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_pool_has_at_most_one_worker_per_job(tmp_path, capsys, monkeypatch):
    """The pool gets min(--workers, jobs) processes, and --workers below 1
    exits 2 naming the flag.  A fake pool records its size and maps the jobs
    in this process, so the test starts none."""
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    common = ["sweep", "--dt", "1e-4", "--t-final", "1e-3", "--epsilon", "1e-2"]
    assert main([*common, "--pressures", "1,1.5", "--workers", "4",
                 "--out-dir", str(tmp_path / "two")]) == 0
    assert sizes == [2]
    assert main([*common, "--pressures", "1", "--workers", "4",
                 "--out-dir", str(tmp_path / "one")]) == 0
    assert sizes == [2]
    capsys.readouterr()
    assert main([*common, "--pressures", "1,1.5", "--workers", "0",
                 "--out-dir", str(tmp_path / "none")]) == 2
    assert "--workers must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "pressures, named",
    [("1,1.0000001", "1.0, 1.0000001 in P1"), ("2,1.5,2", "2.0, 2.0 in P2")],
    ids=["same-to-6-digits", "repeated"],
)
def test_cli_sweep_rejects_pressures_that_share_a_job_directory(
    tmp_path, capsys, workers, pressures, named
):
    """Jobs whose P{p:g} directories coincide would write the same files, so
    the sweep exits 2 before any job runs, names them and writes nothing."""
    rc = main(
        [
            "sweep",
            "--pressures", pressures,
            "--workers", workers,
            "--n", "51",
            "--dt", "1e-3",
            "--t-final", "0.005",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


NON_DEFAULT_SOLVER_FLAGS = [
    ["--pressure", "2.5"], ["--epsilon", "0.03"], ["--n", "301"], ["--dt", "2e-4"],
    ["--t-final", "0.7"], ["--pinch-floor", "2e-3"], ["--output-every", "9"],
    ["--flux-diagnostics"],
]

# the fields each solver command sets itself, and has no flag for, with the
# values the flags above would give them
OWNED = {
    "run": {},
    "sweep": {"pressure": 2.5},
    "continuation": {"epsilon": 0.03, "flux_diagnostics": True},
}


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--pressures", "2.5"], ["continuation", "--eps-schedule", "1e-2"]],
)
def test_every_solver_field_is_set_by_its_flag(command):
    """Each solver flag a command has sets its field; the fields the command
    sets itself come into _solver_config as the command passes them."""
    owned = OWNED[command[0]]
    flags = [arg for flag in NON_DEFAULT_SOLVER_FLAGS
             if flag[0][2:].replace("-", "_") not in owned for arg in flag]
    cfg = _solver_config(build_parser().parse_args(command + flags), **owned)
    assert cfg == SolverConfig(
        pressure=2.5, epsilon=0.03, n=301, dt=2e-4, t_final=0.7, pinch_floor=2e-3,
        output_every=9, flux_diagnostics=True,
    )
    for field in fields(SolverConfig):
        assert getattr(cfg, field.name) != field.default, field.name


@pytest.mark.parametrize("command", list(OWNED))
def test_solver_flags_are_the_fields_a_command_does_not_set(command):
    """A solver command has one flag per SolverConfig field that it does not
    set itself: sweep sets each job's pressure, and continuation each level's
    epsilon, with flux diagnostics off."""
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    options = {option for action in sub._actions for option in action.option_strings}
    field_flags = {f.name: "--" + f.name.replace("_", "-") for f in fields(SolverConfig)}
    assert options & set(field_flags.values()) == {
        flag for name, flag in field_flags.items() if name not in OWNED[command]
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--pressures", "1", "--pressure", "3"],
        ["continuation", "--pressure", "1", "--eps-schedule", "1e-2", "--epsilon", "0.5"],
        ["continuation", "--pressure", "1", "--eps-schedule", "1e-2", "--flux-diagnostics"],
        ["run", "--press", "1"],
    ],
    ids=["sweep-pressure", "continuation-epsilon", "continuation-flux", "run-abbreviated"],
)
def test_cli_flag_the_command_would_ignore_exits_two(tmp_path, capsys, argv):
    """A command has no flag for a field it sets itself, and takes no prefix
    of a flag for the flag: sweep --pressure would otherwise read as
    --pressures.  Each exits 2 with nothing written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "51", "--dt", "1e-3", "--t-final", "0.005", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_cli_continuation_echoes_the_config_of_its_first_level(tmp_path, capsys):
    """The resolved config line shows the first level's epsilon and flux
    diagnostics off, whatever the config file says, and no level writes a
    flux CSV."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"pressure": 1.0, "epsilon": 0.5, "flux_diagnostics": True}))
    out = tmp_path / "cont"
    rc = main(["continuation", "--config", str(cfg_file), "--n", "51", "--dt", "1e-3",
               "--t-final", "0.005", "--eps-schedule", "1e-2,1e-3", "--out-dir", str(out)])
    assert rc == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("resolved config: "))
    resolved = json.loads(line.removeprefix("resolved config: "))
    assert resolved["epsilon"] == 1e-2 and resolved["flux_diagnostics"] is False
    assert sorted(p.name for p in out.iterdir()) == ["continuation.json"]


@pytest.mark.parametrize(
    "schedule, complaint",
    [(",", "epsilon schedule is empty"), ("1e-2,0", "epsilon schedule must be positive"),
     ("1e-3,1e-2", "epsilon schedule must be strictly decreasing")],
    ids=["empty", "zero", "increasing"],
)
def test_cli_continuation_bad_schedule_exits_two(tmp_path, capsys, schedule, complaint):
    out = tmp_path / "cont"
    rc = main(["continuation", "--pressure", "1", "--n", "51", "--dt", "1e-3",
               "--t-final", "0.005", "--eps-schedule", schedule, "--out-dir", str(out)])
    assert rc == 2
    assert f"error: {complaint}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_continuation_writes_pairs(tmp_path, capsys):
    rc = main(
        [
            "continuation",
            "--pressure", "1",
            "--dt", "1e-4",
            "--t-final", "0.005",
            "--ic", "steady-perturbed-poly:0.05",
            "--eps-schedule", "1e-2,1e-3",
            "--out-dir", str(tmp_path / "cont"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "max sup diff" in out and "cauchy:" in out
    saved = json.loads((tmp_path / "cont" / "continuation.json").read_text())
    assert saved["schedule"] == [1e-2, 1e-3]
    assert len(saved["pairs"]) == 1
    assert saved["pairs"][0]["max_sup_diff"] > 0.0


def test_cli_verify(capsys):
    rc = main(["verify"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 8
    assert all(row.split()[1] == "PASS" for row in rows)


def test_cli_default_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NECKDOWN_OUT_DIR", str(tmp_path / "envout"))
    rc = main(
        [
            "run",
            "--pressure", "1.5",
            "--dt", "1e-4",
            "--t-final", "0.002",
            "--epsilon", "1e-2",
            "--ic", "steady",
        ]
    )
    assert rc == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_cli_checkpoint_restore_roundtrip(tmp_path):
    common = [
        "--pressure", "1.5",
        "--dt", "1e-4",
        "--epsilon", "1e-2",
        "--ic", "steady-perturbed-poly:0.05",
    ]
    rc = main(
        ["run", *common, "--t-final", "0.005",
         "--out-dir", str(tmp_path / "a"),
         "--checkpoint", str(tmp_path / "ck.json")]
    )
    assert rc == 0
    rc = main(
        ["run", *common, "--t-final", "0.01",
         "--out-dir", str(tmp_path / "b"),
         "--restore", str(tmp_path / "ck.json")]
    )
    assert rc == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["t_end"] == pytest.approx(0.01)
    assert report["steps"] == 100


def test_cli_has_no_quadrature_or_time_scheme_option(tmp_path, capsys):
    """The trapezoid is the one quadrature and the linearly implicit backward
    Euler step, one solve, the one time scheme: --simpson, --cn,
    --picard-tol and --picard-max are no flags, and a config file that sets
    simpson, crank_nicolson, picard_tol or picard_max names it as an
    unknown key."""
    for flag, key, value in (
        (["--simpson"], "simpson", False),
        (["--cn"], "crank_nicolson", False),
        (["--picard-tol", "1e-8"], "picard_tol", 1e-8),
        (["--picard-max", "12"], "picard_max", 12),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pressure", "1", *flag, "--out-dir", str(tmp_path / "a")])
        assert exc.value.code == 2
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pressure": 1.0, key: value}))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path / "b")]) == 2
        assert f"unknown config file keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_readme_lists_exactly_the_solver_flags():
    """README's CLI section names the flags that _add_solver_flags makes, one
    per SolverConfig field and --config, so that adding or removing a field
    cannot leave it stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = cli_section.split("All solver flags are shared across subcommands:", 1)[1]
    sentence = sentence.split(".\n", 1)[0]
    listed = set(re.findall(r"`(--[a-z-]+)`", sentence))
    parser = argparse.ArgumentParser()
    _add_solver_flags(parser)
    flags = {option for action in parser._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert listed == flags


def test_cli_restores_a_checkpoint_whose_film_went_negative(tmp_path):
    """At P = 4 with eps = 1e-3 and no pinch floor, h_min first goes
    nonpositive at t = 0.0812 and the run goes on.  Its checkpoint at
    t = 0.085 restores, and the resumed run ends on the unsplit run's bits."""
    common = ["run", "--pressure", "4", "--epsilon", "1e-3", "--pinch-floor", "0",
              "--dt", "1e-4", "--ic", "steady-perturbed-poly:1.2"]
    ck = tmp_path / "ck.json"
    assert main([*common, "--t-final", "0.085", "--out-dir", str(tmp_path / "a"),
                 "--checkpoint", str(ck)]) == 0
    assert min(json.loads(ck.read_text())["values"]) < 0.0
    assert main([*common, "--t-final", "0.09", "--out-dir", str(tmp_path / "b"),
                 "--restore", str(ck)]) == 0
    assert main([*common, "--t-final", "0.09", "--out-dir", str(tmp_path / "whole")]) == 0
    resumed = read_snapshots_jsonl(tmp_path / "b" / "snapshots.jsonl")[-1]
    whole = read_snapshots_jsonl(tmp_path / "whole" / "snapshots.jsonl")[-1]
    assert (resumed["t"], resumed["step"]) == (whole["t"], whole["step"])
    assert resumed["values"].tobytes() == whole["values"].tobytes()
