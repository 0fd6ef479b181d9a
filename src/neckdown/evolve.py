"""Nonlinear time stepping, trajectories, and theorem-level diagnostics.

Each step is the linearly implicit backward Euler of Akrivis, Crouzeix &
Makridakis (Numer. Math. 82, 1999): the mobility g = sqrt(h^2 + eps^2) (or a
floored copy of h when eps = 0) is taken at the predictor, the polynomial
through the last accepted states extrapolated one step, and one banded
solve of the implicit linear problem gives the new state.  No step carries
anything but that history to the next.  Runs log an energy ledger every
step, evaluated once per block of accepted states, with each state's
distance from its predictor, and snapshots on a stride, and stop on
reaching the final time, on the minimum height crossing the pinch floor,
or on solver failure.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .functionals import dissipation, energy
from .grid import Grid, Profile, check_nodes, derivative, h1_norm
from .initial import bc_residuals
from .linear import LinearSolveError, StepResult, Workspace, flux_energy_report, step_linear
from .steady import check_pressure, steady_profile

VALUE_ROW_TOL = 1e-9
CURVATURE_ROW_TOL = 1e-6

PINCH_TAIL_ROWS = 50         # trailing min-series rows of detect_pinch's ln h_min fit
DECAY_FIT_MIN_POINTS = 20    # snapshots decay_rate needs in the run's second half
BLOCK = 64                   # accepted states per evaluation of the per-step diagnostics

# a run's ledger row: the columns of io.LEDGER_HEADER, in its order;
# picard_iters counts a step's solves, 1, and is 0 on the start row
LEDGER_DTYPE = np.dtype([
    ("time", float), ("energy", float), ("dissipation", float),
    ("cumulative_dissipation", float), ("h_min", float), ("x_min", float),
    ("picard_iters", int),
])


class Termination(enum.Enum):
    REACHED_T_FINAL = "reached-t-final"
    PINCH_DETECTED = "pinch-detected"
    SOLVER_FAILURE = "solver-failure"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    epsilon = 0 selects the unregularized mobility with a positivity floor
    pinch_floor/10 inside the coefficient only; such runs must stop at the
    pinch floor, hence pinch_floor must be positive.
    """

    pressure: float
    n: int = 201
    dt: float = 1e-5
    t_final: float = 1.0
    epsilon: float = 0.0
    pinch_floor: float = 1e-3
    output_every: int = 100
    flux_diagnostics: bool = field(
        default=False, metadata={"help": "emit per-step flux energy diagnostics CSV"}
    )

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        check_pressure(self.pressure)
        check_nodes(self.n)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(
                f"t_final / dt must be a finite step count, got t_final "
                f"{self.t_final} and dt {self.dt}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.pinch_floor < 0:
            raise ValueError(f"pinch_floor must be nonnegative, got {self.pinch_floor}")
        if self.epsilon == 0.0 and self.pinch_floor <= 0.0:
            raise ValueError("epsilon = 0 runs need a positive pinch_floor")
        if self.output_every < 1:
            raise ValueError(f"output_every must be >= 1, got {self.output_every}")


@dataclass(frozen=True)
class RunStart:
    """What a run continues from besides its values: zeros for a fresh run,
    Trajectory.end after one, and what a checkpoint stores.

    history holds the values of up to two accepted states before the start
    state, oldest first: the predictor's input, so that a resumed run
    repeats the unsplit run bit for bit.
    """

    step: int = 0
    cumulative_dissipation: float = 0.0
    history: tuple[np.ndarray, ...] = ()


@dataclass
class Trajectory:
    """A completed (possibly truncated) run with its per-step diagnostics.
    The ledger, the (k, n) snapshot stack and the flux reports are
    read-only.  Under flux_diagnostics, flux_reports holds one row per step,
    its columns those of io.FLUX_HEADER; it is (0, 4) otherwise.
    max_predictor_gap is the largest ||h^(n+1) - p^n||_H1 / ||h^(n+1)||_H1
    over the run's steps, p^n the predictor of the step to h^(n+1)."""

    config: SolverConfig
    grid: Grid
    times: np.ndarray                 # snapshot times
    snapshots: np.ndarray             # (k, n), one state per snapshot time
    snapshot_steps: np.ndarray
    ledger: np.recarray               # LEDGER_DTYPE rows, one per state from the start's
    termination: Termination
    failure_message: str | None = None
    flux_reports: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    max_solver_residual: float = 0.0
    max_predictor_gap: float = 0.0
    end: RunStart = RunStart()        # continue with run(cfg, final, start=end)

    @property
    def min_series(self) -> np.ndarray:
        """Rows (t, x_m, h_m), aligned with the ledger."""
        return np.column_stack((self.ledger.time, self.ledger.x_min, self.ledger.h_min))

    @property
    def picard_iters(self) -> np.ndarray:
        return self.ledger.picard_iters

    @property
    def final(self) -> Profile:
        return Profile(grid=self.grid, values=self.snapshots[-1], pressure=self.config.pressure)


def _mobility(values: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """g of the values, in a new array."""
    if cfg.epsilon > 0.0:
        g = values * values
        g += cfg.epsilon**2
        return np.sqrt(g, out=g)
    return np.maximum(values, cfg.pinch_floor / 10.0)


def _predictor(values: np.ndarray, history: tuple[np.ndarray, ...]) -> np.ndarray:
    """The polynomial through the accepted states, oldest first in history
    and values last, extrapolated one step: 3h^n - 3h^(n-1) + h^(n-2),
    2h^n - h^(n-1), or values itself without history."""
    if not history:
        return values
    if len(history) == 1:
        return 2.0 * values - history[0]
    older, old = history
    p = 3.0 * values
    p -= 3.0 * old
    p += older
    return p


def step_nonlinear(
    values: np.ndarray,
    grid: Grid,
    cfg: SolverConfig,
    history: tuple[np.ndarray, ...] = (),
    workspace: Workspace | None = None,
) -> tuple[StepResult, np.ndarray]:
    """One linearly implicit backward-Euler step from the nodal values h_old:
    one banded solve of step_linear with the mobility of the predictor, the
    extrapolation of h_old through history, the values of up to two
    accepted states before h_old, oldest first.

    The step depends on values and history alone and solves in workspace,
    or in a fresh Workspace(grid, cfg.pressure).  Returns the step and its
    predictor, which is values itself without history; callers only read
    it.  Raises LinearSolveError on solver trouble.
    """
    if cfg.epsilon == 0.0 and values.min() <= cfg.pinch_floor:
        raise ValueError(
            "unregularized step requires min(h) above the pinch floor"
        )
    p = _predictor(values, history)
    g = _mobility(p, cfg)
    return step_linear(values, grid, g, cfg.dt, cfg.pressure, workspace=workspace), p


def _validate_start(h0: Profile, cfg: SolverConfig, start: RunStart | None) -> None:
    """h0 on the config's nodes and pressure, and on the boundary rows;
    strict positivity only for fresh initial data, since a restored state is
    whatever the run reached.  A start holds at most two history rows, each
    a Profile's values on h0's grid, and starts at a nonnegative integer
    step, not a bool, with a finite cumulative dissipation."""
    if h0.grid.n != cfg.n:
        raise ValueError(
            f"initial data lives on {h0.grid.n} nodes, config wants {cfg.n}"
        )
    if h0.pressure != cfg.pressure:
        raise ValueError(f"initial data is for pressure {h0.pressure}, config wants {cfg.pressure}")
    res = bc_residuals(h0.values, h0.grid, cfg.pressure)
    if abs(res[0]) > VALUE_ROW_TOL or abs(res[3]) > VALUE_ROW_TOL:
        raise ValueError(
            f"initial data violates the boundary value rows: h(-1)-1 = {res[0]:.3e}, "
            f"h(1)-1 = {res[3]:.3e}"
        )
    ctol = CURVATURE_ROW_TOL * max(1.0, cfg.pressure)
    if abs(res[1]) > ctol or abs(res[2]) > ctol:
        raise ValueError(
            f"initial data violates the curvature rows (defects {res[1]:.3e}, "
            f"{res[2]:.3e}); project it onto the boundary rows first"
        )
    if start is None and float(np.min(h0.values)) <= 0.0:
        raise ValueError("initial data must be strictly positive")
    start = start or RunStart()
    if isinstance(start.step, bool) or not isinstance(start.step, numbers.Integral):
        raise ValueError(f"a start's step must be an integer, got {start.step!r}")
    if start.step < 0:
        raise ValueError(f"a start's step must be nonnegative, got {start.step}")
    if not math.isfinite(start.cumulative_dissipation):
        raise ValueError(
            f"a start's dissipation must be finite, got {start.cumulative_dissipation}")
    if len(start.history) > 2:
        raise ValueError(f"a start holds at most 2 history rows, got {len(start.history)}")
    for row in start.history:
        Profile(grid=h0.grid, values=row, pressure=cfg.pressure)


def _room(table: np.ndarray, rows: int) -> None:
    """Grow table in place to twice its rows, or to rows if more, when it
    holds fewer than rows.  The realloc keeps every row's bits and skips
    numpy's reference check: no view of a table lives across a growth.  A
    growth that fails is a ValueError and leaves the table as it was."""
    if rows > len(table):
        try:
            table.resize((max(2 * len(table), rows), *table.shape[1:]), refcheck=False)
        except MemoryError:
            raise ValueError(f"a record of {rows} rows does not fit in memory; "
                             "lower t_final / dt") from None


class _StepDiagnostics:
    """A run's one record: each accepted state enters once, with its time,
    solver residual and predictor, and trajectory builds the Trajectory on
    every exit path.

    The record is four tables: the ledger, one row per accepted state, the
    snapshot stack (the start state, the states on the output stride and
    the last one) with its steps, and the flux table, one row per step under
    flux_diagnostics.  Each starts with room for one block and grows with
    the run through _room, so no step bound is needed before the first
    step.  The per-step diagnostics are evaluated once per block of
    accepted states: the ledger row (energy, dissipation D, and its integral
    by the trapezoid on the D column), the nodal minimum, each state's
    relative H^1 gap to its predictor and, under flux_diagnostics, the flux
    row.  The block buffer holds the state before the block in row 0, the
    block's accepted states in rows 1..BLOCK (states) and their gaps to
    their predictors in the BLOCK rows after them (gaps).  flush evaluates
    them with one call per functional on the stack, each row getting the
    bits of its own 1-D call, writes the block's ledger and flux rows,
    summing the integral step by step, in order, keeps the largest gap and
    copies its states on the stride to the snapshot stack.  The H^1 norms
    of the states and gaps are one h1_norm call on all 2 BLOCK rows after
    row 0; the rows past a partial block hold finite values of earlier
    blocks, or zeros, and are not read.  The start state is evaluated the
    same way, as a stack of one.  The block buffer is reused by every
    block.
    """

    def __init__(self, cfg: SolverConfig, h0: Profile, t: float, start: RunStart):
        self.cfg = cfg
        self.grid = grid = h0.grid
        self.step = start.step          # the step of the last state taken
        self.ledger = np.empty(BLOCK + 1, LEDGER_DTYPE)
        self.snapshots = np.empty((BLOCK + 1, grid.n))
        self.snap_steps = np.empty(BLOCK + 1, dtype=int)
        self.flux = np.empty((BLOCK + 1, 4))
        # ledger, snapshot, flux and block rows taken
        self.rows = self.snaps = self.fluxes = self.filled = 0
        self.buffer = np.zeros((2 * BLOCK + 1, grid.n))
        self.states, self.gaps = self.buffer[: BLOCK + 1], self.buffer[BLOCK + 1 :]
        self.states[0] = h0.values
        self.times: list[float] = []    # the block's times
        self.max_residual = self.max_gap = 0.0
        start_row = self._evaluate(self.states[:1], [t], 0)
        start_row["cumulative_dissipation"] = start.cumulative_dissipation
        self._keep(self.states[:1], [start.step])

    def push(self, values: np.ndarray, t: float, solver_residual: float,
             predictor: np.ndarray) -> None:
        """Take the next accepted state, stamped t, and the predictor of its
        step; a full block is evaluated at once."""
        self.step += 1
        self.max_residual = max(self.max_residual, solver_residual)
        np.subtract(values, predictor, out=self.gaps[self.filled])
        self.filled += 1
        self.states[self.filled] = values
        self.times.append(t)
        if self.filled == BLOCK:
            self.flush()

    def _evaluate(self, states: np.ndarray, times: list[float], solves: int) -> np.ndarray:
        """Fill the next ledger rows of a stack of states, each reached by
        solves solves, all columns but the dissipation integral, and return
        them."""
        cfg, grid = self.cfg, self.grid
        _room(self.ledger, self.rows + len(states))
        rows = self.ledger[self.rows : self.rows + len(states)]
        self.rows += len(states)
        where = np.argmin(states, axis=1)
        rows["time"] = times
        rows["energy"] = energy(states, grid, cfg.pressure)
        rows["dissipation"] = dissipation(states, grid)
        rows["h_min"] = states[np.arange(len(states)), where]
        rows["x_min"] = grid.nodes[where]
        rows["picard_iters"] = solves
        return rows

    def _keep(self, states: np.ndarray, steps) -> None:
        """Copy a stack of states, taken at steps, to the snapshot stack."""
        j, k = self.snaps, self.snaps + len(states)
        _room(self.snapshots, k)
        _room(self.snap_steps, k)
        self.snapshots[j:k], self.snap_steps[j:k] = states, steps
        self.snaps = k

    def flush(self) -> None:
        """Evaluate the states taken since the last flush."""
        m = self.filled
        if m == 0:
            return
        cfg, grid = self.cfg, self.grid
        block = self.states[: m + 1]
        self._evaluate(block[1:], self.times, 1)
        norms = h1_norm(self.buffer[1:], grid)     # the states', then the gaps'
        self.max_gap = max(self.max_gap, float((norms[BLOCK : BLOCK + m] / norms[:m]).max()))
        # the row before the block holds the D and the integral it continues
        rows = self.ledger[self.rows - m - 1 : self.rows]
        d, cum = rows["dissipation"], rows["cumulative_dissipation"]
        cum[1:] = cfg.dt * (0.5 * (d[:-1] + d[1:]))
        np.add.accumulate(cum, out=cum)
        if cfg.flux_diagnostics:
            _room(self.flux, self.fluxes + m)
            self.flux[self.fluxes : self.fluxes + m] = flux_energy_report(
                block, _mobility(block, cfg), grid, cfg.dt, self.times)
            self.fluxes += m
        first = self.step - m + 1       # the step of block row 1
        on = slice(-first % cfg.output_every, m, cfg.output_every)
        self._keep(block[1:][on], range(first + on.start, self.step + 1, cfg.output_every))
        self.states[0] = self.states[m]
        self.times = []
        self.filled = 0

    def trajectory(self, termination: Termination, failure_message: str | None,
                   history: tuple[np.ndarray, ...]) -> Trajectory:
        """The run so far, with the last state as its final snapshot."""
        self.flush()
        if self.snap_steps[self.snaps - 1] != self.step:
            self._keep(self.states[:1], [self.step])
        ledger = self.ledger[: self.rows].view(np.recarray)
        snapshots, steps = self.snapshots[: self.snaps], self.snap_steps[: self.snaps]
        flux = self.flux[: self.fluxes]
        ledger.flags.writeable = snapshots.flags.writeable = flux.flags.writeable = False
        return Trajectory(
            config=self.cfg,
            grid=self.grid,
            times=ledger.time[steps - steps[0]],
            snapshots=snapshots,
            snapshot_steps=steps,
            ledger=ledger,
            termination=termination,
            failure_message=failure_message,
            flux_reports=flux,
            max_solver_residual=self.max_residual,
            max_predictor_gap=self.max_gap,
            end=RunStart(step=self.step, history=history,
                         cumulative_dissipation=float(ledger.cumulative_dissipation[-1])),
        )


def run(cfg: SolverConfig, h0: Profile, start: RunStart | None = None) -> Trajectory:
    """Advance the model from h0 until t_final, the pinch floor, or failure.

    Without start, h0 is fresh initial data at step 0; with it, h0 is a
    restored state and start.history seeds the predictor.  Step k is
    stamped with time k * dt either way.  A start past t_final is an error;
    one at t_final takes no step.  The step loop holds the state as an
    array and keeps only what the next step reads; each accepted state goes
    to the run's record once, with its time.  The record grows with the
    run, so t_final may lie far past a pinch; a record that outgrows memory
    is a ValueError.
    """
    _validate_start(h0, cfg, start)
    grid = h0.grid
    start = start or RunStart()
    start = replace(start, step=int(start.step))   # checkpoint JSON takes no numpy int

    total_steps = int(round(cfg.t_final / cfg.dt))
    if total_steps < 1:
        raise ValueError("t_final must allow at least one step")
    if start.step > total_steps:
        raise ValueError("restart point is already past the configured t_final")

    record = _StepDiagnostics(cfg, h0, start.step * cfg.dt, start)
    workspace = Workspace(grid, cfg.pressure)
    h = h0.values
    history = start.history
    k = start.step
    failure_message = None
    while True:
        if cfg.pinch_floor > 0.0 and h.min() <= cfg.pinch_floor:
            termination = Termination.PINCH_DETECTED
            break
        if k >= total_steps:
            termination = Termination.REACHED_T_FINAL
            break
        try:
            result, predictor = step_nonlinear(h, grid, cfg, history, workspace)
        except LinearSolveError as exc:
            termination, failure_message = Termination.SOLVER_FAILURE, str(exc)
            break
        k += 1
        history = (*history[-1:], h)
        h = result.values
        record.push(h, k * cfg.dt, result.solver_residual, predictor)
    return record.trajectory(termination, failure_message, history)


@dataclass(frozen=True)
class EpsilonPair:
    """Sup-norm gap between two consecutive regularization levels."""

    eps_high: float
    eps_low: float
    times: np.ndarray
    sup_diffs: np.ndarray
    max_sup_diff: float


@dataclass(frozen=True)
class ContinuationReport:
    """Trajectories across an epsilon schedule and their Cauchy table."""

    trajectories: list[Trajectory]
    pairs: list[EpsilonPair]
    cauchy: bool


def check_epsilon_schedule(eps_schedule) -> list[float]:
    """The schedule's values as floats: nonempty, positive, strictly decreasing."""
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("epsilon schedule is empty")
    if any(e <= 0.0 for e in schedule):
        raise ValueError("epsilon schedule must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    return schedule


def epsilon_continuation(
    cfg: SolverConfig, h0: Profile, eps_schedule: list[float]
) -> ContinuationReport:
    """Run the same data across a decreasing epsilon schedule and compare.

    Consecutive trajectories are compared in sup norm at matched snapshot
    times; the report flags whether the maximal gaps decrease monotonically
    (discrete Cauchy behavior).  A failed run truncates its trajectory but
    does not abort the continuation.
    """
    schedule = check_epsilon_schedule(eps_schedule)
    trajectories = [run(replace(cfg, epsilon=e), h0) for e in schedule]

    pairs = []
    for hi, lo in zip(trajectories, trajectories[1:]):
        _, rows_hi, rows_lo = np.intersect1d(
            hi.snapshot_steps, lo.snapshot_steps, assume_unique=True, return_indices=True
        )
        times = hi.times[rows_hi]
        diffs = np.abs(hi.snapshots[rows_hi] - lo.snapshots[rows_lo]).max(axis=1)
        pairs.append(
            EpsilonPair(
                eps_high=hi.config.epsilon,
                eps_low=lo.config.epsilon,
                times=times,
                sup_diffs=diffs,
                max_sup_diff=float(diffs.max()) if len(diffs) else float("nan"),
            )
        )
    maxes = [p.max_sup_diff for p in pairs]
    cauchy = all(b < a for a, b in zip(maxes, maxes[1:])) if len(maxes) > 1 else True
    return ContinuationReport(trajectories=trajectories, pairs=pairs, cauchy=cauchy)


@dataclass(frozen=True)
class PinchReport:
    """Whether and where the minimum height crossed the pinch floor."""

    pinched: bool
    t_pinch: float | None
    x_pinch: float | None
    log_slope: float | None


def detect_pinch(traj: Trajectory) -> PinchReport:
    """Scan the min-height series for a pinch-floor crossing.

    Reports the first crossing time and node, and the least-squares slope of
    ln h_m over the last PINCH_TAIL_ROWS rows of the series (the empirical
    contact rate; no finite-vs-infinite-time claim is made).
    """
    floor = traj.config.pinch_floor
    t, x_m, h_m = traj.ledger.time, traj.ledger.x_min, traj.ledger.h_min
    crossed = np.nonzero(h_m <= floor)[0] if floor > 0 else np.array([], dtype=int)

    tail_t, tail_h = t[-PINCH_TAIL_ROWS:], h_m[-PINCH_TAIL_ROWS:]
    positive = tail_h > 0
    log_slope = None
    if positive.sum() >= 2 and np.ptp(tail_t[positive]) > 0:
        coeffs = np.polyfit(tail_t[positive], np.log(tail_h[positive]), 1)
        log_slope = float(coeffs[0])

    if len(crossed) == 0:
        return PinchReport(pinched=False, t_pinch=None, x_pinch=None, log_slope=log_slope)
    first = int(crossed[0])
    return PinchReport(
        pinched=True,
        t_pinch=float(t[first]),
        x_pinch=float(x_m[first]),
        log_slope=log_slope,
    )


@dataclass(frozen=True)
class DecayFit:
    """Exponential relaxation fit ln d(t) ~ ln(C d0) - c t."""

    rate: float
    prefactor: float
    r_squared: float


def decay_rate(traj: Trajectory) -> DecayFit:
    """Fit the H^1 distance to the steady profile over the last half-run.

    Only meaningful for subcritical pressure runs that reached their final
    time with a distance still above roundoff; raises otherwise.
    """
    cfg = traj.config
    if cfg.pressure >= 2.0:
        raise ValueError("decay fit applies to pressures below 2 only")
    if traj.termination is not Termination.REACHED_T_FINAL:
        raise ValueError(
            f"decay fit needs a completed run, got {traj.termination.value}"
        )
    grid = traj.grid
    target = steady_profile(cfg.pressure, grid)
    # at most BLOCK rows per call: temporaries the size of the record's block
    dist = np.concatenate([h1_norm(traj.snapshots[i : i + BLOCK] - target, grid)
                           for i in range(0, len(traj.snapshots), BLOCK)])
    scale = h1_norm(target, grid)
    if dist[-1] <= 1e-12 * scale:
        raise ValueError("distance at roundoff; fit meaningless")
    t = traj.times
    t_mid = t[0] + 0.5 * (t[-1] - t[0])
    window = t >= t_mid
    if window.sum() < DECAY_FIT_MIN_POINTS:
        raise ValueError(
            f"insufficient snapshots in the fit window: {int(window.sum())} "
            f"< {DECAY_FIT_MIN_POINTS}"
        )
    tw = t[window]
    dw = dist[window]
    logs = np.log(dw)
    slope, intercept = np.polyfit(tw, logs, 1)
    fitted = slope * tw + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        prefactor=float(np.exp(intercept) / dist[0]) if dist[0] > 0 else float("inf"),
        r_squared=float(r2),
    )


@dataclass(frozen=True)
class RelaxReport:
    """Distances of the final profile to the steady profile."""

    h1_distance: float
    h3_local_distance: float
    dissipation_end: float
    delta_loc: float


def relaxation_check(traj: Trajectory, delta_loc: float | None = None) -> RelaxReport:
    """Compare the final profile with the steady profile.

    The H^3 distance is measured on the region where the steady profile
    exceeds delta_loc (default a tenth of its maximum): convergence is only
    locally uniform away from the contact set when P >= 2, while for P < 2
    the region is the whole interval.  ValueError when that region holds
    no two adjacent nodes, where the distance would read a silent 0.
    """
    grid = traj.grid
    cfg = traj.config
    target = steady_profile(cfg.pressure, grid)
    if delta_loc is None:
        delta_loc = 0.1 * float(np.max(target))
    elif not (math.isfinite(delta_loc) and delta_loc > 0.0):
        raise ValueError(f"delta_loc must be finite and positive, got {delta_loc}")
    # the contiguous runs [i, j) of the region with two nodes or more, each
    # integrated on its own
    edges = np.flatnonzero(np.diff(target > delta_loc, prepend=False, append=False))
    runs = [(i, j) for i, j in zip(edges[::2], edges[1::2]) if j - i > 1]
    if not runs:
        raise ValueError(
            f"no two adjacent nodes of the steady profile exceed delta_loc = {delta_loc!r}")
    final = traj.snapshots[-1]
    diff_vals = final - target

    h1_distance = h1_norm(diff_vals, grid)

    integrand = np.zeros(grid.n)
    fields = [diff_vals] + [derivative(diff_vals, grid.dx, j) for j in range(1, 4)]
    for f in fields:
        integrand += f * f
    total = 0.0
    for i, j in runs:
        seg = integrand[i:j]
        total += grid.dx * (seg.sum() - 0.5 * (seg[0] + seg[-1]))
    return RelaxReport(
        h1_distance=float(h1_distance),
        h3_local_distance=float(np.sqrt(total)),
        dissipation_end=float(dissipation(final, grid)),
        delta_loc=float(delta_loc),
    )
