"""Named invariant checks behind the `verify` subcommand.

Each check runs a small self-contained experiment and returns a pass/fail
row; the quick subset covers the flux identity, energy monotonicity, and
linear eigenmode decay in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import SolverConfig, Termination, run, step_nonlinear
from .functionals import entropy, flux_identity_residual
from .grid import Profile, make_grid
from .initial import ic_steady_perturbed_poly
from .linear import face_flux, step_linear
from .steady import steady_energy, steady_profile


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_flux_identity() -> CheckResult:
    """Conservative-form identity residual shrinks at second order."""
    residuals = []
    for n in (201, 401):
        grid = make_grid(n)
        values = 1.0 + 0.2 * np.sin(np.pi * grid.nodes)
        residuals.append(
            flux_identity_residual(Profile(grid=grid, values=values, pressure=1.0))
        )
    ratio = residuals[0] / residuals[1]
    return CheckResult(
        name="flux-identity-refinement",
        passed=bool(3.5 <= ratio <= 4.5),
        detail=f"residual ratio 201->401 = {ratio:.3f} (want [3.5, 4.5])",
    )


def check_energy_monotonicity() -> CheckResult:
    """Ledger energy never increases and stays above the steady energy."""
    grid = make_grid(201)
    h0 = Profile(
        grid=grid,
        values=ic_steady_perturbed_poly(1.5, grid, 0.05),
        pressure=1.5,
    )
    cfg = SolverConfig(pressure=1.5, n=201, dt=1e-4, t_final=0.05, epsilon=0.0)
    traj = run(cfg, h0)
    energies = np.array([row.energy for row in traj.ledger])
    rises = np.diff(energies)
    worst = float(rises.max()) if len(rises) else 0.0
    drop = energies[0] - energies[-1]
    floor = steady_energy(1.5)
    ok = (
        traj.termination is Termination.REACHED_T_FINAL
        and worst <= 1e-12 * max(1.0, abs(energies[0]))
        and drop >= 0.0
        and energies[-1] >= floor - 1e-6
    )
    return CheckResult(
        name="energy-monotonicity",
        passed=bool(ok),
        detail=f"max rise {worst:.2e}, drop {drop:.3e}, floor gap "
        f"{energies[-1] - floor:.3e}",
    )


def check_eigenmode_decay() -> CheckResult:
    """Mode-1 decay under g = 1 matches the separation-of-variables rate."""
    grid = make_grid(201)
    base = steady_profile(1.0, grid).profile.values
    mode = np.sin(np.pi * (grid.nodes + 1.0) / 2.0)
    dt, steps = 1e-5, 200
    h = Profile(grid=grid, values=base + 1e-3 * mode, pressure=1.0)
    g = np.ones(grid.n)
    weights = np.full(grid.n, grid.dx)
    weights[0] = weights[-1] = 0.5 * grid.dx
    a0 = float(np.sum(weights * (h.values - base) * mode))
    for _ in range(steps):
        h = step_linear(h, g, dt, 1.0).profile
    a1 = float(np.sum(weights * (h.values - base) * mode))
    rate = ((a0 / a1) ** (1.0 / steps) - 1.0) / dt
    target = (np.pi / 2.0) ** 4
    rel = abs(rate - target) / target
    return CheckResult(
        name="eigenmode-decay",
        passed=bool(rel <= 0.02),
        detail=f"mode-1 rate {rate:.4f} vs {target:.4f} (rel err {rel:.2%})",
    )


def check_steady_fixed_point() -> CheckResult:
    """The steady profile survives a nonlinear step unchanged."""
    grid = make_grid(201)
    h0 = Profile(
        grid=grid, values=steady_profile(1.0, grid).profile.values, pressure=1.0
    )
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-3, t_final=1.0, epsilon=1e-3)
    result, iters = step_nonlinear(h0, cfg)
    drift = float(np.max(np.abs(result.profile.values - h0.values)))
    return CheckResult(
        name="steady-fixed-point",
        passed=bool(drift <= 1e-9 and iters <= 2),
        detail=f"sup drift {drift:.2e} in {iters} iterations",
    )


def check_symmetry_preservation() -> CheckResult:
    """Even initial data stays even under the evolution."""
    grid = make_grid(201)
    h0 = Profile(
        grid=grid,
        values=ic_steady_perturbed_poly(1.0, grid, 0.05),
        pressure=1.0,
    )
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-4, t_final=0.02, epsilon=1e-3)
    traj = run(cfg, h0)
    final = traj.final.values
    asym = float(np.max(np.abs(final - final[::-1])))
    return CheckResult(
        name="even-symmetry",
        passed=bool(asym <= 1e-9),
        detail=f"sup |h(x) - h(-x)| = {asym:.2e} after {traj.snapshot_steps[-1]} steps",
    )


def check_entropy_monotone() -> CheckResult:
    """Entropy decreases when any nodal value increases toward the cap."""
    grid = make_grid(101)
    values = 0.5 + 0.2 * np.sin(np.pi * grid.nodes)
    p = Profile(grid=grid, values=values, pressure=1.0)
    cap = 1.5
    base = entropy(p, cap, 1e-2)
    ok = base >= 0.0
    worst = 0.0
    for i in (0, 17, 50, 83, 100):
        bumped = values.copy()
        bumped[i] += 1e-3
        shifted = entropy(
            Profile(grid=grid, values=bumped, pressure=1.0), cap, 1e-2
        )
        worst = max(worst, shifted - base)
        ok = ok and shifted <= base + 1e-14
    return CheckResult(
        name="entropy-monotone",
        passed=bool(ok),
        detail=f"entropy {base:.4f} >= 0, worst increase under bump {worst:.2e}",
    )


def check_mass_conservation() -> CheckResult:
    """Interior mass change telescopes to the two extreme face fluxes.

    Summing the conservative interior rows of one implicit step leaves only
    the fluxes through the faces at the interior boundary; the identity holds
    to solver precision when the fluxes use the same frozen mobility.
    """
    grid = make_grid(201)
    h0 = Profile(
        grid=grid,
        values=ic_steady_perturbed_poly(1.0, grid, 0.05),
        pressure=1.0,
    )
    dt = 1e-4
    g = np.sqrt(h0.values**2 + 1e-4)
    h1v = step_linear(h0, g, dt, 1.0).profile.values
    w_face = face_flux(g, h1v, grid.dx)
    interior = slice(2, grid.n - 2)
    dmass = float(np.sum(h1v[interior] - h0.values[interior]) * grid.dx)
    resid = abs(dmass + dt * (w_face[-1] - w_face[0]))
    scale = max(1.0, abs(dmass))
    return CheckResult(
        name="interior-mass-telescoping",
        passed=bool(resid <= 1e-9 * scale),
        detail=f"|interior mass change + dt*(face flux jump)| = {resid:.2e}",
    )


QUICK_CHECKS = [check_flux_identity, check_energy_monotonicity, check_eigenmode_decay]
ALL_CHECKS = QUICK_CHECKS + [
    check_steady_fixed_point,
    check_symmetry_preservation,
    check_entropy_monotone,
    check_mass_conservation,
]


def run_checks(quick: bool = False) -> list[CheckResult]:
    return [check() for check in (QUICK_CHECKS if quick else ALL_CHECKS)]


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    return "\n".join(lines)
