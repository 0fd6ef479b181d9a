"""Tests for the nonlinear stepper, run loop, and trajectory diagnostics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neckdown.functionals import dissipation, energy
from neckdown.grid import Profile, derivative, h1_norm, make_grid, min_value
from neckdown.initial import ic_steady_perturbed_poly, project_boundary_rows
from neckdown.steady import contact_point, parabola, steady_profile
from neckdown import evolve
from neckdown.cli import main
from neckdown.io import build_report
from neckdown.linear import LinearSolveError, Workspace, flux_energy_report, step_linear
from neckdown.evolve import (
    BLOCK,
    RunStart,
    SolverConfig,
    Termination,
    Trajectory,
    decay_rate,
    detect_pinch,
    epsilon_continuation,
    relaxation_check,
    run,
    _mobility,
    step_nonlinear,
)
from neckdown.verify import (
    energy_increments,
    log_min_derivative_check,
    steady_drift,
    symmetry_defect,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(201)


@pytest.fixture(scope="module")
def steady_p1(grid):
    return Profile(grid=grid, values=steady_profile(1.0, grid), pressure=1.0)


@pytest.fixture(scope="module")
def short_traj(grid):
    """200 steps of subcritical relaxation with snapshots every 50 steps."""
    cfg = SolverConfig(
        pressure=1.5, dt=1e-4, t_final=0.02, epsilon=1e-2, output_every=50
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.5, grid, 0.05), pressure=1.5
    )
    return run(cfg, h0)


@pytest.fixture(scope="module")
def steady_traj(grid, steady_p1):
    cfg = SolverConfig(
        pressure=1.0, dt=1e-4, t_final=0.01, epsilon=1e-2, output_every=10
    )
    return run(cfg, steady_p1)


@pytest.fixture(scope="module")
def pinch_traj(grid):
    """Supercritical run that reaches the pinch floor near t = 0.077."""
    cfg = SolverConfig(
        pressure=4.0,
        dt=1e-4,
        t_final=0.5,
        epsilon=1e-4,
        pinch_floor=1e-3,
        output_every=20,
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(4.0, grid, 1.2), pressure=4.0
    )
    return run(cfg, h0)


@pytest.fixture(scope="module")
def decay_traj(grid):
    """Long subcritical run for the exponential-decay fit."""
    cfg = SolverConfig(
        pressure=1.0, dt=1e-4, t_final=1.0, epsilon=1e-2, output_every=100
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0
    )
    return run(cfg, h0)


def test_config_validation():
    with pytest.raises(ValueError, match="P>0"):
        SolverConfig(pressure=0.0)
    with pytest.raises(ValueError, match="odd"):
        SolverConfig(pressure=1.0, n=200)
    with pytest.raises(ValueError, match="odd"):
        SolverConfig(pressure=1.0, n=7)
    with pytest.raises(ValueError, match="dt must be positive"):
        SolverConfig(pressure=1.0, dt=0.0)
    with pytest.raises(ValueError, match="t_final"):
        SolverConfig(pressure=1.0, t_final=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(pressure=1.0, epsilon=-1e-3)
    with pytest.raises(TypeError, match="picard_tol"):
        SolverConfig(pressure=1.0, picard_tol=1e-8)
    with pytest.raises(TypeError, match="picard_max"):
        SolverConfig(pressure=1.0, picard_max=12)
    with pytest.raises(ValueError, match="pinch_floor"):
        SolverConfig(pressure=1.0, pinch_floor=-1.0)
    with pytest.raises(ValueError, match="positive pinch_floor"):
        SolverConfig(pressure=1.0, epsilon=0.0, pinch_floor=0.0)
    with pytest.raises(ValueError, match="output_every"):
        SolverConfig(pressure=1.0, output_every=0)


def test_steady_profile_is_fixed_point_of_nonlinear_step():
    drift = steady_drift(SolverConfig(pressure=1.0, dt=1e-4, epsilon=1e-2))
    assert drift < 1e-11


def test_perturbed_step_converges_fast_and_contracts(grid, steady_p1):
    cfg = SolverConfig(pressure=1.0, dt=1e-4, epsilon=1e-2)
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0
    )
    result, p = step_nonlinear(h0.values, grid, cfg)
    assert p.tobytes() == predictor(h0.values, ()).tobytes()
    d0 = h1_norm(h0.values - steady_p1.values, grid)
    d1 = h1_norm(result.values - steady_p1.values, grid)
    assert d1 < d0


def predictor(values: np.ndarray, history: tuple[np.ndarray, ...]) -> np.ndarray:
    """The extrapolation through history and values, as whole-array
    expressions: h^n, 2h^n - h^(n-1) or 3h^n - 3h^(n-1) + h^(n-2)."""
    if not history:
        return values
    if len(history) == 1:
        return 2.0 * values - history[0]
    return 3.0 * values - 3.0 * history[1] + history[0]


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([9, 51, 201]),
    rows=st.integers(0, 2),
    pressure=st.floats(0.5, 1.5),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-3, 1e-1)),
    log_dt=st.floats(-6.0, -2.0),
    amplitude=st.floats(0.0, 0.05),
    drift=st.floats(-1e-3, 1e-3),
)
def test_step_is_one_solve_at_the_predictor_mobility(
    n, rows, pressure, epsilon, log_dt, amplitude, drift
):
    """Generated domain: n in {9, 51, 201}, a history of 0, 1 or 2 rows, P in
    [0.5, 1.5], epsilon 0 or in [1e-3, 1e-1], dt = 10**U(-6, -2), and
    states that are the perturbed parabola (amplitude in [0, 0.05]) plus
    multiples of drift in [-1e-3, 1e-3] times a bump.  step_nonlinear is
    one step_linear call with the mobility of the predictor, bit for bit,
    and returns that predictor."""
    grid = make_grid(n)
    cfg = SolverConfig(pressure=pressure, n=n, dt=10.0**log_dt, epsilon=epsilon)
    base = ic_steady_perturbed_poly(pressure, grid, amplitude)
    bump = (1.0 - grid.nodes**2) ** 3
    states = [base + j * drift * bump for j in range(rows + 1)]
    values, history = states[-1], tuple(states[:-1])
    workspace = Workspace(grid, pressure)
    result, got = step_nonlinear(values, grid, cfg, history, workspace)
    p = predictor(values, history)
    want = step_linear(values, grid, _mobility(p, cfg), cfg.dt, pressure)
    assert result.values.tobytes() == want.values.tobytes()
    assert (result.solver_residual, result.backward_error) == (
        want.solver_residual, want.backward_error)
    assert got.tobytes() == p.tobytes()


def test_run_rejects_incompatible_initial_data(grid):
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.01, epsilon=1e-2)
    small = make_grid(101)
    with pytest.raises(ValueError, match="lives on"):
        run(cfg, Profile(grid=small, values=np.ones(101), pressure=1.0))
    base = parabola(1.0, grid)
    with pytest.raises(ValueError, match="boundary value rows"):
        run(cfg, Profile(grid=grid, values=base + 0.01, pressure=1.0))
    bump = base + 0.1 * (1.0 - grid.nodes**2) ** 2
    with pytest.raises(ValueError, match="curvature rows"):
        run(cfg, Profile(grid=grid, values=bump, pressure=1.0))
    deep = Profile(grid=grid, values=parabola(8.0, grid), pressure=8.0)
    with pytest.raises(ValueError, match="strictly positive"):
        run(SolverConfig(pressure=8.0, dt=1e-4, t_final=0.01, epsilon=1e-2), deep)


def test_run_rejects_bad_schedules(grid, steady_p1):
    with pytest.raises(ValueError, match="at least one step"):
        run(SolverConfig(pressure=1.0, dt=1e-4, t_final=1e-9), steady_p1)
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.02, epsilon=1e-2)
    with pytest.raises(ValueError, match="already past"):
        run(cfg, steady_p1, start=RunStart(step=300))

    # a growth that realloc refuses leaves the table as it was
    table = np.arange(BLOCK + 1.0)
    with pytest.raises(ValueError, match=f"record of {2**50} rows does not fit in memory"):
        evolve._room(table, 2**50)
    assert table.tolist() == list(range(BLOCK + 1))


def test_restart_at_t_final_takes_no_step(steady_p1):
    """A start at step t_final / dt is not past t_final: the run logs the
    start row, stamped step * dt, and ends at once."""
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.02, epsilon=1e-2)
    traj = run(cfg, steady_p1, start=RunStart(step=200, cumulative_dissipation=0.5))
    assert traj.termination is Termination.REACHED_T_FINAL
    assert [row.time for row in traj.ledger] == [200 * 1e-4]
    assert traj.end == RunStart(step=200, cumulative_dissipation=0.5)


def test_run_ledger_and_snapshot_alignment(short_traj):
    traj = short_traj
    assert traj.termination is Termination.REACHED_T_FINAL
    assert len(traj.ledger) == 201           # 200 steps plus the start row
    assert traj.min_series.shape == (201, 3)
    assert len(traj.picard_iters) == 201
    assert traj.picard_iters[0] == 0
    assert np.all(traj.picard_iters[1:] >= 1)
    assert traj.snapshot_steps.tolist() == [0, 50, 100, 150, 200]
    np.testing.assert_allclose(traj.times, traj.snapshot_steps * 1e-4, atol=1e-15)
    ledger_times = np.array([row.time for row in traj.ledger])
    np.testing.assert_allclose(ledger_times, np.arange(201) * 1e-4, atol=1e-15)


def test_run_energy_ledger_is_monotone_and_balanced(short_traj):
    increments, drop = energy_increments(short_traj)
    C = np.array([row.cumulative_dissipation for row in short_traj.ledger])
    assert np.all(increments <= 1e-14)
    assert np.all(np.diff(C) >= 0.0)
    assert drop > 0
    # trapezoid-in-time integral of the dissipation tracks the energy drop
    assert abs(drop - C[-1]) < 1e-2 * drop


def test_steady_run_stays_put(steady_traj, steady_p1):
    drift = max(
        float(np.max(np.abs(s - steady_p1.values)))
        for s in steady_traj.snapshots
    )
    assert drift < 1e-9
    E = np.array([row.energy for row in steady_traj.ledger])
    assert np.ptp(E) < 1e-9
    assert np.all(steady_traj.picard_iters[1:] == 1)


def test_run_stops_immediately_below_floor(grid):
    shallow = Profile(grid=grid, values=parabola(1.999, grid), pressure=1.999)
    cfg = SolverConfig(
        pressure=1.999, dt=1e-4, t_final=0.01, epsilon=1e-2, pinch_floor=1e-3
    )
    traj = run(cfg, shallow)
    assert traj.termination is Termination.PINCH_DETECTED
    assert len(traj.ledger) == 1
    assert len(traj.snapshots) == 1


def test_unregularized_mode_runs_and_guards(grid):
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0
    )
    cfg = SolverConfig(
        pressure=1.0, dt=1e-4, t_final=0.005, epsilon=0.0, pinch_floor=1e-3
    )
    traj = run(cfg, h0)
    assert traj.termination is Termination.REACHED_T_FINAL
    shallow = parabola(1.999, grid)
    with pytest.raises(ValueError, match="above the pinch floor"):
        step_nonlinear(
            shallow, grid, SolverConfig(pressure=1.999, epsilon=0.0, pinch_floor=1e-3)
        )


def test_restart_matches_unsplit_run_exactly(short_traj):
    """A first leg run to step 100 hands its last state and the RunStart it
    ended in (step, dissipation and predictor history) to the second leg (a
    mid-run snapshot carries no history, so it could not continue the
    unsplit run bit for bit)."""
    traj = short_traj
    cfg = traj.config
    h0 = Profile(grid=traj.grid, values=traj.snapshots[0], pressure=cfg.pressure)
    first = run(replace(cfg, t_final=100 * cfg.dt), h0)
    assert first.snapshot_steps[-1] == 100
    assert first.end.step == 100
    assert len(first.end.history) == 2
    second = run(cfg, first.final, start=first.end)
    assert np.array_equal(second.final.values, traj.final.values)
    assert (
        second.ledger[-1].cumulative_dissipation
        == traj.ledger[-1].cumulative_dissipation
    )
    assert second.times[-1] == traj.times[-1]
    assert second.snapshot_steps[-1] == traj.snapshot_steps[-1]


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([51, 201]),
    pressure=st.floats(0.5, 1.5),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-3, 1e-1)),
    log_dt=st.floats(-5.0, -2.0),
    amplitude=st.floats(0.0, 0.05),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_even_data_stays_even(n, pressure, epsilon, log_dt, amplitude, coeffs):
    """Generated domain: n in {51, 201}, P in [0.5, 1.5], epsilon 0 or in
    [1e-3, 1e-1], dt = 10**U(-5, -2), and the parabola plus amplitude *
    sum_j c_j cos((2j + 1) pi x / 2), j = 0..2, with amplitude in [0, 0.05]
    and each c_j in [-1, 1], projected onto the boundary rows; five steps,
    every one a snapshot, each within verify's symmetry bound."""
    grid = make_grid(n)
    x = grid.nodes
    raw = parabola(pressure, grid)
    for j, c in enumerate(coeffs):
        raw += amplitude * c * np.cos((2 * j + 1) * np.pi * x / 2.0)
    h0 = Profile(
        grid=grid, values=project_boundary_rows(raw, grid, pressure), pressure=pressure
    )
    dt = 10.0**log_dt
    cfg = SolverConfig(
        pressure=pressure, n=n, dt=dt, t_final=5 * dt, epsilon=epsilon, output_every=1
    )
    traj = run(cfg, h0)
    assert traj.termination is Termination.REACHED_T_FINAL
    assert len(traj.snapshots) == 6
    assert max(symmetry_defect(s) for s in traj.snapshots) <= 1e-9


def whole_and_resumed(split, pressure, epsilon, dt):
    """A 20-step run on 51 nodes from the perturbed parabola (amplitude
    0.05), and its second leg resumed at step split from the first leg's
    last state and the RunStart it ended in."""
    grid = make_grid(51)
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(pressure, grid, 0.05), pressure=pressure
    )
    cfg = SolverConfig(pressure=pressure, n=51, dt=dt, t_final=20 * dt, epsilon=epsilon)
    first = run(replace(cfg, t_final=split * dt), h0)
    return run(cfg, h0), run(cfg, first.final, start=first.end)


@settings(max_examples=15, deadline=None)
@given(
    split=st.integers(1, 19),
    pressure=st.floats(0.5, 1.9),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-3, 1e-1)),
    log_dt=st.floats(-5.0, -3.0),
)
def test_restart_at_a_generated_step_matches_unsplit_run(split, pressure, epsilon, log_dt):
    """Generated domain: split at step 1..19 of whole_and_resumed's run, P in
    [0.5, 1.9], epsilon 0 or in [1e-3, 1e-1] and dt = 10**U(-5, -3). The
    resumed leg repeats the unsplit run's last state, solve counts and
    ledger energies and dissipations bit for bit."""
    whole, second = whole_and_resumed(split, pressure, epsilon, 10.0**log_dt)
    assert second.termination is whole.termination is Termination.REACHED_T_FINAL
    assert second.final.values.tobytes() == whole.final.values.tobytes()
    assert np.array_equal(second.picard_iters[1:], whole.picard_iters[split + 1 :])
    for a, b in zip(second.ledger[1:], whole.ledger[split + 1 :], strict=True):
        assert (a.energy, a.dissipation, a.cumulative_dissipation) == (
            b.energy, b.dissipation, b.cumulative_dissipation
        )


def test_resumed_ledger_times_match_unsplit_run():
    """Step k is stamped k dt in both legs; t_split + (k - split) dt would
    stamp step 10 with 0.010000000000000002 against 0.01 here."""
    whole, second = whole_and_resumed(1, 1.0, 0.0, 1e-3)
    assert [r.time for r in second.ledger[1:]] == [r.time for r in whole.ledger[2:]]


def per_step_diagnostics(traj: Trajectory, cum: float = 0.0) -> list[np.ndarray]:
    """traj's ledger rows, minimum series and flux reports recomputed the way
    the step loop logged them before block evaluation: one state or one
    step per call, with the dissipation integral summed in order from cum
    by the trapezoid on the states' own dissipations.  traj must keep every
    state (output_every = 1)."""
    cfg, grid = traj.config, traj.grid
    steps = traj.snapshot_steps.tolist()
    assert steps == list(range(steps[0], steps[-1] + 1))
    ledger, mins, flux = [], [], [np.empty((0, 4))]
    prev = D_prev = None
    for k, h in zip(steps, traj.snapshots):
        t = k * cfg.dt
        D_h = dissipation(h, grid)
        if prev is not None:
            cum += cfg.dt * (0.5 * (D_prev + D_h))
            if cfg.flux_diagnostics:
                g = np.stack([_mobility(prev, cfg), _mobility(h, cfg)])
                flux.append(flux_energy_report(np.stack([prev, h]), g, grid, cfg.dt, [t]))
        ledger.append((t, energy(h, grid, cfg.pressure), D_h, cum))
        mins.append((t, *min_value(Profile(grid=grid, values=h, pressure=cfg.pressure))))
        prev, D_prev = h, D_h
    return [np.array(ledger), np.array(mins), np.concatenate(flux)]


def diagnostics(traj: Trajectory) -> list[np.ndarray]:
    """traj's ledger (the columns per_step_diagnostics recomputes), minimum
    series and flux reports as arrays of rows."""
    columns = ("time", "energy", "dissipation", "cumulative_dissipation")
    return [
        np.column_stack([traj.ledger[c] for c in columns]),
        traj.min_series,
        traj.flux_reports,
    ]


def assert_same_bits(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    for name, a, b in zip(("ledger", "min_series", "flux_reports"), got, want, strict=True):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def pinch_config(**config) -> SolverConfig:
    """The P = 4, n = 51, eps = 0 run of the block-ledger tests, every state
    kept and flux rows on; config overrides the fields."""
    return SolverConfig(**{
        "pressure": 4.0, "n": 51, "dt": 1e-4, "epsilon": 0.0, "output_every": 1,
        "flux_diagnostics": True, **config,
    })


def pinch_data() -> Profile:
    grid = make_grid(51)
    return Profile(grid=grid, values=ic_steady_perturbed_poly(4.0, grid, 1.2), pressure=4.0)


@pytest.mark.parametrize(
    "steps, termination, config",
    [
        (1, Termination.REACHED_T_FINAL, dict(t_final=1e-4)),
        (BLOCK, Termination.REACHED_T_FINAL, dict(t_final=BLOCK * 1e-4)),
        (2 * BLOCK + 1, Termination.REACHED_T_FINAL, dict(t_final=(2 * BLOCK + 1) * 1e-4)),
        (78, Termination.PINCH_DETECTED, dict(dt=1e-3, t_final=1.0)),
        (406, Termination.SOLVER_FAILURE, dict(
            dt=2e-4, t_final=0.3, epsilon=1e-5, pinch_floor=0.0)),
    ],
    ids=["one-step", "one-block", "two-blocks-and-one", "pinch", "solver-failure"],
)
def test_block_ledger_matches_per_step_evaluation(steps, termination, config, monkeypatch):
    """The ledger, minimum series and flux reports are evaluated once per
    block of BLOCK accepted states, and on every exit path; each must be
    the bytes the per-step calls give, for runs that end on a block
    boundary or mid-block, at t_final, at the pinch floor (step 78 of the
    P = 4 run at n = 51, dt = 1e-3) and on a solver failure (step 407,
    mid-block, raises LinearSolveError).  The record's tables start with
    BLOCK + 1 rows, so the runs past one block grow every table: ledger,
    snapshots, their steps and flux rows."""
    if termination is Termination.SOLVER_FAILURE:
        calls, real_step = [], evolve.step_linear

        def step_linear(*args, **kwargs):
            calls.append(None)
            if len(calls) == steps + 1:
                raise LinearSolveError(f"banded solve failed at step {steps + 1}")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(evolve, "step_linear", step_linear)
    traj = run(pinch_config(**config), pinch_data())
    assert traj.termination is termination
    assert len(traj.ledger) == steps + 1
    assert traj.flux_reports.shape == (steps, 4)
    assert_same_bits(diagnostics(traj), per_step_diagnostics(traj))


def test_run_to_a_far_t_final_stops_at_the_pinch():
    """A run may be given a t_final far past its pinch: with t_final = 1e6
    at dt = 1e-3 (1e9 steps) the record grows with the run, and the run
    pinches at step 78 with the bytes of the t_final = 1 run."""
    near = run(pinch_config(dt=1e-3, t_final=1.0), pinch_data())
    far = run(pinch_config(dt=1e-3, t_final=1e6), pinch_data())
    assert far.termination is Termination.PINCH_DETECTED
    assert far.snapshot_steps[-1] == 78
    assert far.ledger.tobytes() == near.ledger.tobytes()
    assert far.snapshots.tobytes() == near.snapshots.tobytes()
    assert far.snapshot_steps.tolist() == near.snapshot_steps.tolist()
    assert far.flux_reports.tobytes() == near.flux_reports.tobytes()


def test_run_turns_solver_failure_into_termination(tmp_path, monkeypatch):
    """A LinearSolveError mid-block, in the step after step 70, ends the run
    as a solver failure with its message, and the 71 ledger rows of the
    accepted states are the per-step bytes; the command line exits 3."""
    cfg = pinch_config(t_final=0.02)
    h0 = pinch_data()
    state_70 = run(replace(cfg, t_final=70e-4), h0).final.values
    real_step = evolve.step_linear

    def step_linear(values, *args, **kwargs):
        if np.array_equal(values, state_70):
            raise LinearSolveError("banded solve failed at step 71")
        return real_step(values, *args, **kwargs)

    monkeypatch.setattr(evolve, "step_linear", step_linear)
    traj = run(cfg, h0)
    assert traj.termination is Termination.SOLVER_FAILURE
    assert traj.failure_message == "banded solve failed at step 71"
    assert len(traj.ledger) == 71
    assert_same_bits(diagnostics(traj), per_step_diagnostics(traj))
    rc = main(["run", "--pressure", "4", "--n", "51", "--dt", "1e-4", "--t-final", "0.02",
               "--epsilon", "0", "--ic", "steady-perturbed-poly:1.2",
               "--out-dir", str(tmp_path)])
    assert rc == 3


def per_step_predictor_gap(traj: Trajectory, history: tuple[np.ndarray, ...] = ()) -> float:
    """The largest ||h^(k+1) - p^k||_H1 / ||h^(k+1)||_H1 over traj's steps,
    one 1-D h1_norm call per norm, p^k the predictor through the states
    before h^(k+1), history (the start's) included.  traj must keep every
    state."""
    steps = traj.snapshot_steps.tolist()
    assert steps == list(range(steps[0], steps[-1] + 1))
    states = [*history, *traj.snapshots]
    gaps = [
        h1_norm(states[k + 1] - predictor(states[k], tuple(states[max(k - 2, 0) : k])),
                traj.grid)
        / h1_norm(states[k + 1], traj.grid)
        for k in range(len(history), len(states) - 1)
    ]
    return max(gaps, default=0.0)


@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize("steps", [0, 1, 2, BLOCK - 1, BLOCK, 2 * BLOCK + 5])
def test_predictor_gap_matches_per_step_evaluation(steps, resumed):
    """Trajectory.max_predictor_gap, one h1_norm call per block of gaps and
    states, is the bits of the per-step 1-D evaluation, for runs that end
    on a block boundary or mid-block, fresh (where the first step, whose
    predictor is h^0, sets the largest gap) or resumed at step 600 from the
    first leg's end, history included (the gaps grow toward the pinch, so
    the last step's sets it); a run that takes no step has gap 0, and
    report.json carries the field."""
    h0, start = pinch_data(), None
    if resumed:
        first = run(pinch_config(t_final=600e-4), h0)
        h0, start = first.final, first.end
    elif steps == 0:
        start = RunStart(step=1)
    base = start.step if start else 0
    traj = run(pinch_config(t_final=max(base + steps, 1) * 1e-4), h0, start=start)
    assert traj.snapshot_steps[-1] - traj.snapshot_steps[0] == steps
    if steps == 0:
        assert traj.max_predictor_gap == 0.0
    else:
        want = per_step_predictor_gap(traj, start.history if resumed else ())
        assert 0.0 < want < 1e-2
        assert traj.max_predictor_gap == want
    assert build_report(traj)["max_predictor_gap"] == traj.max_predictor_gap


def test_split_block_ledger_matches_per_step_evaluation():
    """A run split mid-block at step 70 and resumed to step 150:
    each leg's ledger, minimum series and flux reports are the per-step
    bytes, the second leg summing the integral from the first leg's end,
    and together they repeat the unsplit run's."""
    grid = make_grid(51)
    cfg = SolverConfig(pressure=1.5, n=51, dt=1e-4, t_final=150e-4, epsilon=1e-2,
                       output_every=1, flux_diagnostics=True)
    h0 = Profile(grid=grid, values=ic_steady_perturbed_poly(1.5, grid, 0.3), pressure=1.5)
    whole = run(cfg, h0)
    first = run(replace(cfg, t_final=70e-4), h0)
    second = run(cfg, first.final, start=first.end)
    assert_same_bits(diagnostics(first), per_step_diagnostics(first))
    assert_same_bits(
        diagnostics(second), per_step_diagnostics(second, first.end.cumulative_dissipation)
    )
    ledger_1, mins_1, flux_1 = diagnostics(first)
    ledger_2, mins_2, flux_2 = diagnostics(second)
    assert_same_bits(
        [np.concatenate([ledger_1, ledger_2[1:]]), np.concatenate([mins_1, mins_2[1:]]),
         np.concatenate([flux_1, flux_2])],
        diagnostics(whole),
    )


def test_restored_state_need_not_be_positive(grid):
    """Strict positivity is asked of fresh initial data only: a restored
    state is whatever the run reached, and keeps the boundary-row checks."""
    dipped = Profile(grid=grid, values=parabola(8.0, grid), pressure=8.0)
    cfg = SolverConfig(pressure=8.0, dt=1e-4, t_final=0.002, epsilon=1e-2, pinch_floor=0.0)
    with pytest.raises(ValueError, match="strictly positive"):
        run(cfg, dipped)
    traj = run(cfg, dipped, start=RunStart(step=10))
    assert traj.termination is Termination.REACHED_T_FINAL
    assert traj.snapshot_steps[-1] == 20
    with pytest.raises(ValueError, match="boundary value rows"):
        run(cfg, Profile(grid=grid, values=dipped.values + 0.01, pressure=8.0),
            start=RunStart(step=10))


@pytest.mark.parametrize(
    "history, message",
    [
        (lambda row: (np.full_like(row, np.nan),), "profile values must be finite"),
        (lambda row: (row[:-1],), "profile has"),
        (lambda row: (row, row, row), "at most 2 history rows, got 3"),
    ],
    ids=["nan-row", "short-row", "three-rows"],
)
def test_run_checks_the_history_of_its_start(steady_p1, history, message):
    """Each history row is a Profile's values on h0's grid, and a start holds
    at most two; a bad one is refused where run enters."""
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.002, epsilon=1e-2)
    start = RunStart(step=10, history=history(steady_p1.values))
    with pytest.raises(ValueError, match=message):
        run(cfg, steady_p1, start=start)


@pytest.mark.parametrize(
    "start, message",
    [
        (RunStart(step=-2), "step must be nonnegative, got -2"),
        (RunStart(step=10, cumulative_dissipation=np.nan), "dissipation must be finite"),
        (RunStart(step=10, cumulative_dissipation=np.inf), "dissipation must be finite"),
    ],
    ids=["negative-step", "nan-dissipation", "inf-dissipation"],
)
def test_run_checks_the_step_and_dissipation_of_its_start(steady_p1, start, message):
    """A start's step is nonnegative and its cumulative dissipation finite;
    a bad one is refused where run enters."""
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.002, epsilon=1e-2)
    with pytest.raises(ValueError, match=message):
        run(cfg, steady_p1, start=start)


def test_run_checks_the_pressure_of_its_start(grid):
    """Initial data for another pressure is refused, fresh or restored."""
    h0 = Profile(grid=grid, values=steady_profile(4.0, grid), pressure=4.0)
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.002, epsilon=1e-2)
    for start in (None, RunStart(step=10)):
        with pytest.raises(ValueError, match="pressure 4.0, config wants 1.0"):
            run(cfg, h0, start=start)


def test_run_record_costs_under_100_bytes_per_step():
    """A run keeps its record as arrays: between runs of 1000 and 3000 steps
    (n = 9, P = 1, dt = 1e-4, snapshots every 100 steps), the bytes still
    traced once run returns, its trajectory held, grow by under 100 per
    step: seven 8-byte ledger columns take 56, where a Python object per
    row would cost several times that."""
    grid = make_grid(9)
    h0 = Profile(grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0)

    def retained(steps: int) -> int:
        cfg = SolverConfig(pressure=1.0, n=9, dt=1e-4, t_final=steps * 1e-4)
        tracemalloc.start()
        try:
            traj = run(cfg, h0)     # held while the traced bytes are read
            assert len(traj.ledger) == steps + 1
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    retained(10)                # fills the operator caches outside the count
    assert (retained(3000) - retained(1000)) / 2000 < 100


def test_relax_run_takes_one_solve_per_step(grid):
    """On the relax benchmark's run (P = 1, n = 201, eps = 0, dt = 1e-5,
    2000 steps) every step is one solve, and each accepted state lies within
    1e-4 of its predictor, relative in H^1: the first step, whose predictor
    is h^0 itself, moves 1.3e-5 and sets the largest gap."""
    cfg = SolverConfig(
        pressure=1.0, dt=1e-5, t_final=2000 * 1e-5, epsilon=0.0, pinch_floor=1e-3
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0
    )
    traj = run(cfg, h0)
    assert traj.termination is Termination.REACHED_T_FINAL
    assert len(traj.picard_iters) == 2001
    assert np.all(traj.picard_iters[1:] == 1)
    assert 0.0 < traj.max_predictor_gap < 1e-4


def test_pinch_run_stops_near_lower_contact_point(pinch_traj):
    """The data are even, so the two mirror minima reach the floor together
    and roundoff picks the side: the pinch lies near one of the contact
    points +-x_c, and h agrees at the mirror node of x_pinch."""
    traj = pinch_traj
    assert traj.termination is Termination.PINCH_DETECTED
    report = detect_pinch(traj)
    assert report.pinched
    assert 0.05 < report.t_pinch < 0.1
    x_c = contact_point(4.0)
    assert min(abs(report.x_pinch - x_c), abs(report.x_pinch + x_c)) < 0.15
    final = traj.final.values
    i = int(np.flatnonzero(traj.grid.nodes == report.x_pinch)[0])
    assert abs(final[i] - final[-1 - i]) <= 1e-8 * final[i]
    assert max(symmetry_defect(s) for s in traj.snapshots) <= 1e-9
    assert report.log_slope < 0.0
    tail = traj.min_series[-50:]
    assert report.log_slope == np.polyfit(tail[:, 0], np.log(tail[:, 2]), 1)[0]


def test_pinch_minimum_shrinks_monotonically_late(pinch_traj):
    h_m = pinch_traj.min_series[:, 2]
    tail = h_m[int(0.8 * len(h_m)) :]
    assert np.all(np.diff(tail) <= 1e-14)
    assert tail[-1] <= pinch_traj.config.pinch_floor


def test_detect_pinch_on_quiet_run(steady_traj):
    report = detect_pinch(steady_traj)
    assert not report.pinched
    assert report.t_pinch is None and report.x_pinch is None
    assert abs(report.log_slope) < 1e-6


def test_relaxation_outside_contact_region(pinch_traj, grid):
    """The outer region approaches the two-arc profile in sup norm while the
    H^3 distance stays order one at the pinch stop; it shrinks as the
    comparison region moves away from the contact points."""
    xp = contact_point(4.0)
    target = steady_profile(4.0, grid)
    outer = np.abs(grid.nodes) >= xp + 0.1
    c0 = float(np.max(np.abs(pinch_traj.final.values - target)[outer]))
    assert c0 < 0.1
    rel_default = relaxation_check(pinch_traj)
    rel_mid = relaxation_check(pinch_traj, delta_loc=0.32)
    rel_far = relaxation_check(pinch_traj, delta_loc=0.72)
    assert rel_default.delta_loc == pytest.approx(0.1)
    assert rel_default.h3_local_distance > rel_mid.h3_local_distance
    assert rel_mid.h3_local_distance > rel_far.h3_local_distance
    assert 0.1 < rel_far.h3_local_distance < rel_default.h3_local_distance < 5.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta_loc"):
            relaxation_check(pinch_traj, delta_loc=bad)


def test_relaxation_on_steady_run_is_tiny(steady_traj):
    rel = relaxation_check(steady_traj)
    assert rel.h1_distance < 1e-9
    assert rel.h3_local_distance < 1e-7
    assert rel.dissipation_end < 1e-15


def test_epsilon_continuation_contracts(grid):
    cfg = SolverConfig(
        pressure=1.0, dt=1e-4, t_final=0.01, epsilon=1.0, output_every=25
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(1.0, grid, 0.05), pressure=1.0
    )
    report = epsilon_continuation(cfg, h0, [1e-2, 1e-3, 1e-4])
    maxes = [p.max_sup_diff for p in report.pairs]
    assert len(maxes) == 2
    assert maxes[1] < maxes[0]
    assert report.cauchy
    # gap shrinks at least proportionally to the epsilon ratio
    assert maxes[1] <= 10.0 * maxes[0] * (1e-3 / 1e-2)
    assert report.pairs[0].eps_high == 1e-2
    assert report.pairs[0].eps_low == 1e-3


def test_epsilon_continuation_from_steady_is_flat(grid, steady_p1):
    cfg = SolverConfig(
        pressure=1.0, dt=1e-4, t_final=0.01, epsilon=1.0, output_every=25
    )
    report = epsilon_continuation(cfg, steady_p1, [1e-2, 1e-3])
    assert report.pairs[0].max_sup_diff < 1e-10


def test_epsilon_continuation_rejects_bad_schedules(grid, steady_p1):
    cfg = SolverConfig(pressure=1.0, dt=1e-4, t_final=0.01, epsilon=1.0)
    with pytest.raises(ValueError, match="empty"):
        epsilon_continuation(cfg, steady_p1, [])
    with pytest.raises(ValueError, match="positive"):
        epsilon_continuation(cfg, steady_p1, [1e-2, -1e-3])
    with pytest.raises(ValueError, match="strictly decreasing"):
        epsilon_continuation(cfg, steady_p1, [1e-3, 1e-2])


def test_log_min_identity_improves_with_snapshot_density(grid):
    cfg = SolverConfig(
        pressure=4.0,
        dt=1e-4,
        t_final=0.06,
        epsilon=1e-4,
        pinch_floor=1e-3,
        output_every=25,
    )
    h0 = Profile(
        grid=grid, values=ic_steady_perturbed_poly(4.0, grid, 1.2), pressure=4.0
    )
    traj = run(cfg, h0)
    means = []
    for stride in (4, 2, 1):
        sub = Trajectory(
            config=traj.config,
            grid=traj.grid,
            times=traj.times[::stride],
            snapshots=traj.snapshots[::stride],
            snapshot_steps=traj.snapshot_steps[::stride],
            ledger=traj.ledger,
            termination=traj.termination,
        )
        series = log_min_derivative_check(sub)
        half = len(series.times) // 2
        means.append(float(series.relative[half:].mean()))
    assert means[0] > means[1] > means[2]
    assert all(m < 0.05 for m in means)


def test_log_min_check_needs_two_snapshots(steady_traj):
    lone = Trajectory(
        config=steady_traj.config,
        grid=steady_traj.grid,
        times=steady_traj.times[:1],
        snapshots=steady_traj.snapshots[:1],
        snapshot_steps=steady_traj.snapshot_steps[:1],
        ledger=steady_traj.ledger,
        termination=steady_traj.termination,
    )
    with pytest.raises(ValueError, match="two snapshots"):
        log_min_derivative_check(lone)


def test_log_min_check_skips_pairs_it_cannot_difference(short_traj):
    """Pairs with a non-increasing time or a nonpositive minimum drop out
    of the series, and each kept pair gets the bits of a loop over the
    pairs, one 1-D derivative call each."""
    s, t, grid = short_traj.snapshots, short_traj.times, short_traj.grid
    dipped = s[2].copy()
    dipped[100] = -0.1
    snapshots = np.stack([s[0], s[1], s[1], s[2], dipped, s[3], s[4]])
    times = np.array([t[0], t[1], t[1], t[2], 0.5 * (t[2] + t[3]), t[3], t[4]])
    series = log_min_derivative_check(Trajectory(
        config=short_traj.config, grid=grid, times=times, snapshots=snapshots,
        snapshot_steps=np.arange(len(times)), ledger=short_traj.ledger,
        termination=short_traj.termination,
    ))
    want = []
    for j in (0, 2, 5):             # pairs 1, 3 and 4 are skipped
        (t0, t1), (v0, v1) = times[j : j + 2], snapshots[j : j + 2]
        avg = 0.5 * (v0 + v1)
        d4 = derivative(avg, grid.dx, 4)[int(np.argmin(avg))]
        rate = (np.log(float(v1.min())) - np.log(float(v0.min()))) / (t1 - t0)
        want.append((0.5 * (t0 + t1), abs(rate + d4), abs(d4)))
    got = np.column_stack([series.times, series.residuals, series.reference])
    assert got.tobytes() == np.array(want).tobytes()


def test_decay_fit_recovers_exponential_relaxation(decay_traj):
    fit = decay_rate(decay_traj)
    assert 4.2 < fit.rate < 4.9
    assert fit.r_squared > 0.999
    assert 0.8 < fit.prefactor < 1.1


def test_decay_fit_guards(grid, steady_traj, pinch_traj, steady_p1):
    with pytest.raises(ValueError, match="below 2"):
        decay_rate(pinch_traj)
    shallow = Profile(grid=grid, values=parabola(1.999, grid), pressure=1.999)
    stopped = run(
        SolverConfig(
            pressure=1.999, dt=1e-4, t_final=0.01, epsilon=1e-2, pinch_floor=1e-3
        ),
        shallow,
    )
    with pytest.raises(ValueError, match="completed run"):
        decay_rate(stopped)
    with pytest.raises(ValueError, match="insufficient snapshots"):
        decay_rate(steady_traj)
    frozen = Trajectory(
        config=steady_traj.config,
        grid=grid,
        times=np.linspace(0.0, 1.0, 40),
        snapshots=np.tile(steady_p1.values, (40, 1)),
        snapshot_steps=np.arange(40),
        ledger=steady_traj.ledger,
        termination=Termination.REACHED_T_FINAL,
    )
    with pytest.raises(ValueError, match="roundoff"):
        decay_rate(frozen)
