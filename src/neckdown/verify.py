"""The model's invariants, each implemented once, and the `verify` rows.

Each invariant function takes the inputs that its consumers vary (grid,
data, dt, mode, amplitude measure) and returns its defect or measured
value; none holds a bound.  The `verify` subcommand evaluates every
invariant on one fixed case against one fixed bound, a row each; the tests
evaluate the same functions on their own cases and on generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import SolverConfig, Termination, Trajectory, run, step_nonlinear
from .functionals import entropy, flux_identity_residual
from .grid import Grid, Profile, make_grid, trapezoid_weights
from .initial import ic_steady_perturbed_poly
from .linear import face_flux, step_linear
from .steady import steady_energy, steady_profile


def flux_identity_residuals(ns: tuple[int, ...]) -> list[float]:
    """flux_identity_residual of 1 + 0.2 sin(pi x) on an n-node grid, for
    each n in ns.  The residual shrinks like dx^2, so halving dx divides it
    by about 4."""
    residuals = []
    for n in ns:
        grid = make_grid(n)
        p = Profile(grid=grid, values=1.0 + 0.2 * np.sin(np.pi * grid.nodes), pressure=1.0)
        residuals.append(flux_identity_residual(p))
    return residuals


def energy_increments(traj: Trajectory) -> tuple[np.ndarray, float]:
    """Step-to-step changes of the ledger energy, and its total drop
    E(start) - E(end).  The energy dissipates, so no increment is positive
    beyond roundoff."""
    energies = np.array([row.energy for row in traj.ledger])
    return np.diff(energies), energies[0] - energies[-1]


def mode_shape(grid: Grid, k: int) -> np.ndarray:
    """Eigenmode k of the clamped biharmonic rows, sin(k pi (x + 1) / 2)."""
    return np.sin(k * np.pi * (grid.nodes + 1.0) / 2.0)


def eigenmode_amplitudes(
    grid: Grid, k: int, dt: float, steps: int, measure=None, crank_nicolson: bool = False
) -> tuple[float, float]:
    """Amplitude of mode k before and after `steps` linear steps with g = 1,
    from the P = 1 parabola plus 1e-3 times the mode; the mode decays at the
    rate (k pi / 2)^4.  measure(deviation, grid) maps the deviation from the
    parabola to an amplitude, by default the trapezoid projection on the mode."""
    base = steady_profile(1.0, grid).profile.values
    mode = mode_shape(grid, k)
    if measure is None:
        weights = trapezoid_weights(grid)

        def measure(deviation, grid):
            return float(np.sum(weights * deviation * mode))

    ones = np.ones(grid.n)
    h = Profile(grid=grid, values=base + 1e-3 * mode, pressure=1.0)
    a0 = measure(h.values - base, grid)
    for _ in range(steps):
        h = step_linear(h, ones, dt, 1.0, crank_nicolson=crank_nicolson).profile
    return a0, measure(h.values - base, grid)


def steady_drift(cfg: SolverConfig) -> tuple[float, int]:
    """Sup-norm change of the steady profile over one nonlinear step under
    cfg, and the Picard iterations the step took.  The steady profile is a
    fixed point of the step."""
    h0 = steady_profile(cfg.pressure, make_grid(cfg.n)).profile
    result, iters = step_nonlinear(h0, cfg)
    return float(np.max(np.abs(result.profile.values - h0.values))), iters


def symmetry_defect(values: np.ndarray) -> float:
    """sup |h(x) - h(-x)| of a nodal field; the nodes are exact mirrors, so
    even data has defect 0 and the evolution keeps it near roundoff."""
    return float(np.max(np.abs(values - values[::-1])))


def entropy_under_bumps(
    p: Profile, cap: float, eps: float, nodes: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """Entropy of p, and the entropy after raising each listed node by 1e-3,
    one node at a time.  The density decreases below the cap, so no bump
    raises the entropy."""
    base = entropy(p, cap, eps)
    shifted = []
    for i in nodes:
        bumped = p.values.copy()
        bumped[i] += 1e-3
        shifted.append(entropy(Profile(grid=p.grid, values=bumped, pressure=p.pressure), cap, eps))
    return base, np.array(shifted)


def mass_telescoping_defect(h0: Profile, mobility: np.ndarray, dt: float) -> tuple[float, float]:
    """|interior mass change + dt * (last - first face flux)| over one
    backward-Euler step with frozen mobility, and the interior mass change.
    Summing the conservative rows 2..n-3 leaves only the two outermost
    interior face fluxes, so the defect is dx times the sum of the step's
    residuals on those rows."""
    grid = h0.grid
    h1v = step_linear(h0, mobility, dt, h0.pressure).profile.values
    w_face = face_flux(mobility, h1v, grid.dx)
    dmass = float(np.sum(h1v[2:-2] - h0.values[2:-2]) * grid.dx)
    return abs(dmass + dt * (w_face[-1] - w_face[0])), dmass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _perturbed(pressure: float) -> Profile:
    """The 201-node parabola plus 0.05 (1 - x^2)^2, projected."""
    grid = make_grid(201)
    values = ic_steady_perturbed_poly(pressure, grid, 0.05)
    return Profile(grid=grid, values=values, pressure=pressure)


def check_flux_identity() -> CheckResult:
    residuals = flux_identity_residuals((201, 401))
    ratio = residuals[0] / residuals[1]
    return CheckResult("flux-identity-refinement", bool(3.5 <= ratio <= 4.5),
                       f"residual ratio 201->401 = {ratio:.3f} (want [3.5, 4.5])")


def check_energy_monotonicity() -> CheckResult:
    cfg = SolverConfig(pressure=1.5, n=201, dt=1e-4, t_final=0.05, epsilon=0.0)
    traj = run(cfg, _perturbed(1.5))
    rises, drop = energy_increments(traj)
    worst = float(rises.max()) if len(rises) else 0.0
    e_start, e_end = traj.ledger[0].energy, traj.ledger[-1].energy
    floor = steady_energy(1.5)
    ok = (
        traj.termination is Termination.REACHED_T_FINAL
        and worst <= 1e-12 * max(1.0, abs(e_start))
        and drop >= 0.0
        and e_end >= floor - 1e-6
    )
    return CheckResult("energy-monotonicity", bool(ok), f"max rise {worst:.2e}, "
                       f"drop {drop:.3e}, floor gap {e_end - floor:.3e}")


def check_eigenmode_decay() -> CheckResult:
    dt, steps = 1e-5, 200
    a0, a1 = eigenmode_amplitudes(make_grid(201), 1, dt, steps)
    rate = ((a0 / a1) ** (1.0 / steps) - 1.0) / dt
    target = (np.pi / 2.0) ** 4
    rel = abs(rate - target) / target
    return CheckResult("eigenmode-decay", bool(rel <= 0.02),
                       f"mode-1 rate {rate:.4f} vs {target:.4f} (rel err {rel:.2%})")


def check_steady_fixed_point() -> CheckResult:
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-3, t_final=1.0, epsilon=1e-3)
    drift, iters = steady_drift(cfg)
    return CheckResult("steady-fixed-point", bool(drift <= 1e-9 and iters <= 2),
                       f"sup drift {drift:.2e} in {iters} iterations")


def check_symmetry_preservation() -> CheckResult:
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-4, t_final=0.02, epsilon=1e-3)
    traj = run(cfg, _perturbed(1.0))
    asym = symmetry_defect(traj.final.values)
    return CheckResult("even-symmetry", bool(asym <= 1e-9), f"sup |h(x) - h(-x)| = "
                       f"{asym:.2e} after {traj.snapshot_steps[-1]} steps")


def check_entropy_monotone() -> CheckResult:
    grid = make_grid(101)
    p = Profile(grid=grid, values=0.5 + 0.2 * np.sin(np.pi * grid.nodes), pressure=1.0)
    base, shifted = entropy_under_bumps(p, 1.5, 1e-2, (0, 17, 50, 83, 100))
    worst = max(0.0, float(np.max(shifted - base)))
    ok = base >= 0.0 and np.all(shifted <= base + 1e-14)
    return CheckResult("entropy-monotone", bool(ok), f"entropy {base:.4f} >= 0, "
                       f"worst increase under bump {worst:.2e}")


def check_mass_conservation() -> CheckResult:
    h0 = _perturbed(1.0)
    resid, dmass = mass_telescoping_defect(h0, np.sqrt(h0.values**2 + 1e-4), 1e-4)
    return CheckResult("interior-mass-telescoping", bool(resid <= 1e-9 * max(1.0, abs(dmass))),
                       f"|interior mass change + dt*(face flux jump)| = {resid:.2e}")


CHECKS = [
    check_flux_identity,
    check_energy_monotonicity,
    check_eigenmode_decay,
    check_steady_fixed_point,
    check_symmetry_preservation,
    check_entropy_monotone,
    check_mass_conservation,
]


def run_checks() -> list[CheckResult]:
    return [check() for check in CHECKS]


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    return "\n".join(lines)
