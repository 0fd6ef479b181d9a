"""The model's invariants, each implemented once, and the `verify` rows.

Each invariant function takes the inputs that its consumers vary (grid,
data, dt, mode, amplitude measure, test function) and returns its defect or
measured value; none holds a bound.  The paper's certificates (the flux
identity, the entropy, the weak form) live here and nowhere else.  The
`verify` subcommand evaluates eight invariants on one fixed case against one
fixed bound, a row each; the tests evaluate the same functions on their own
cases and on generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import SolverConfig, Termination, Trajectory, run, step_nonlinear
from .grid import Grid, Profile, derivative, make_grid, quadrature, trapezoid_weights
from .initial import ic_steady_perturbed_poly
from .linear import Workspace, face_flux, step_linear
from .steady import steady_energy, steady_profile


# Nodes this far from each edge mix one-sided and centered stencils once the
# operators below are composed; the residual is measured inside that band.
_IDENTITY_MARGIN = 3


def flux_identity_residual(p: Profile) -> float:
    """Max interior defect of d1(h d3 h) - d2(h d2 h - |d1 h|^2 / 2).

    Both sides are second-order discretizations of the same quantity, so the
    residual must shrink like dx^2 on smooth profiles.  The maximum runs over
    nodes at least _IDENTITY_MARGIN from each boundary, where every stencil
    in the composition is centered.
    """
    h = p.values
    dx = p.grid.dx
    d1 = derivative(h, dx, 1)
    d2 = derivative(h, dx, 2)
    d3 = derivative(h, dx, 3)
    left = derivative(h * d3, dx, 1)
    right = derivative(h * d2 - 0.5 * d1 * d1, dx, 2)
    m = _IDENTITY_MARGIN
    return float(np.max(np.abs(left[m:-m] - right[m:-m])))


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
    energies = traj.ledger.energy
    return np.diff(energies), energies[0] - energies[-1]


def mode_shape(grid: Grid, k: int) -> np.ndarray:
    """Eigenmode k of the clamped biharmonic rows, sin(k pi (x + 1) / 2)."""
    return np.sin(k * np.pi * (grid.nodes + 1.0) / 2.0)


def eigenmode_amplitudes(
    grid: Grid, k: int, dt: float, steps: int, measure=None
) -> tuple[float, float]:
    """Amplitude of mode k before and after `steps` linear steps with g = 1,
    from the P = 1 parabola plus 1e-3 times the mode; the mode decays at the
    rate (k pi / 2)^4.  measure(deviation, grid) maps the deviation from the
    parabola to an amplitude, by default the trapezoid projection on the mode."""
    base = steady_profile(1.0, grid)
    mode = mode_shape(grid, k)
    if measure is None:
        weights = trapezoid_weights(grid)

        def measure(deviation, grid):
            return float(np.sum(weights * deviation * mode))

    ones = np.ones(grid.n)
    h = base + 1e-3 * mode
    a0 = measure(h - base, grid)
    workspace = Workspace(grid, 1.0)
    for _ in range(steps):
        h = step_linear(h, grid, ones, dt, 1.0, workspace).values
    return a0, measure(h - base, grid)


def steady_drift(cfg: SolverConfig) -> float:
    """Sup-norm change of the steady profile over one nonlinear step under
    cfg.  The steady profile is a fixed point of the step."""
    grid = make_grid(cfg.n)
    h0 = steady_profile(cfg.pressure, grid)
    result, _ = step_nonlinear(h0, grid, cfg)
    return float(np.max(np.abs(result.values - h0)))


def symmetry_defect(values: np.ndarray) -> float:
    """sup |h(x) - h(-x)| of a nodal field; the nodes are exact mirrors, so
    even data has defect 0 and the evolution keeps it near roundoff."""
    return float(np.max(np.abs(values - values[::-1])))


def entropy_density(s: np.ndarray, bound: float, eps: float) -> np.ndarray:
    """Closed-form F_eps(s) with F'' = 1/sqrt(s^2 + eps^2), F(A) = F'(A) = 0.

    F_eps(s) = sqrt(A^2+eps^2) - sqrt(s^2+eps^2)
               + s (asinh(s/eps) - asinh(A/eps)),
    nonnegative and decreasing on s <= A.
    """
    a = bound
    return (
        np.sqrt(a * a + eps * eps)
        - np.sqrt(s * s + eps * eps)
        + s * (np.arcsinh(s / eps) - np.arcsinh(a / eps))
    )


def entropy(p: Profile, bound: float, eps: float) -> float:
    """Quadrature of the entropy density F_eps over the profile.

    bound (the anchor A) must be finite and dominate the profile, and eps
    must be finite and positive; the density blows up logarithmically at
    negative values as eps shrinks, which is what makes it a nonnegativity
    sentinel.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"entropy eps must be finite and positive, got {eps}")
    top = float(np.max(p.values))
    if not (math.isfinite(bound) and bound >= top):
        raise ValueError(f"entropy anchor {bound} is not finite or below the profile maximum {top}")
    return quadrature(entropy_density(p.values, bound, eps), p.grid)


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
    h1v = step_linear(h0.values, grid, mobility, dt, h0.pressure).values
    w_face = face_flux(mobility, h1v, grid.dx)
    dmass = float(np.sum(h1v[2:-2] - h0.values[2:-2]) * grid.dx)
    return abs(dmass + dt * (w_face[-1] - w_face[0])), dmass


@dataclass(frozen=True)
class MinLogSlopeSeries:
    """Residuals of the minimum-height log-derivative identity.

    At each snapshot midpoint, compares the finite difference of ln h_m with
    -d4 h at the minimum of the averaged profile; the identity holds because
    the first derivative vanishes at an interior minimum.
    """

    times: np.ndarray
    residuals: np.ndarray
    reference: np.ndarray

    @property
    def relative(self) -> np.ndarray:
        return self.residuals / np.maximum(self.reference, 1e-300)


def log_min_derivative_check(traj: Trajectory) -> MinLogSlopeSeries:
    """Residual series |d ln h_m / dt + d4 h(x_m)| at snapshot midpoints,
    over the pairs of consecutive snapshots whose time increases and whose
    minima are both positive."""
    if len(traj.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    t, snaps = traj.times, traj.snapshots
    mins = snaps.min(axis=1)
    keep = (t[1:] > t[:-1]) & (mins[:-1] > 0) & (mins[1:] > 0)
    t0, t1 = t[:-1][keep], t[1:][keep]
    rate = (np.log(mins[1:][keep]) - np.log(mins[:-1][keep])) / (t1 - t0)
    avg = 0.5 * (snaps[:-1][keep] + snaps[1:][keep])
    d4 = derivative(avg, traj.grid.dx, 4)[np.arange(len(avg)), np.argmin(avg, axis=1)]
    return MinLogSlopeSeries(
        times=0.5 * (t0 + t1),
        residuals=np.abs(rate + d4),
        reference=np.abs(d4),
    )


def _bump_rates(
    x: np.ndarray, t: float | np.ndarray, centre: tuple[float, float],
    radii: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """phi_t and phi_xx at the nodes x and time t of the test function
    phi(x, t) = b((x - x_c) / r_x) b((t - t_c) / r_t), where centre is
    (x_c, t_c), radii is (r_x, r_t) and b(s) = exp(-1 / (1 - s^2)) is the
    mollifier, zero for |s| >= 1 with all its derivatives.  For a vector of
    k times, both are (k, n) stacks, a row per time."""
    (x_c, t_c), (r_x, r_t) = centre, radii
    t = np.asarray(t, dtype=float)
    n = len(x)
    s = np.append((x - x_c) / r_x, (t - t_c) / r_t)
    inside = np.abs(s) < 1.0
    q = np.where(inside, 1.0 - s * s, 1.0)
    b = np.where(inside, np.exp(-1.0 / q), 0.0)
    g1 = -2.0 * s / q**2                        # b' / b
    g2 = -2.0 / q**2 - 8.0 * s * s / q**3       # (b' / b)'
    b_x, b_t, g1_t = b[:n], b[n:].reshape(t.shape), g1[n:].reshape(t.shape)
    phi_t = b_x * (b_t * g1_t / r_t)[..., None]
    phi_xx = b_x * (g2[:n] + g1[:n] * g1[:n]) * (b_t / r_x**2)[..., None]
    return phi_t, phi_xx


def weak_residual(
    traj: Trajectory, centre: tuple[float, float], radii: tuple[float, float]
) -> float:
    """int int h phi_t - (h d2 h - |d1 h|^2/2) phi_xx over the trajectory, for
    the bump of _bump_rates centred at (x, t) = centre with radii (r_x, r_t).

    Zero for an exact weak solution of dt h + d/dx^2 (h d2 h - |d1 h|^2/2) = 0;
    on solver output it converges to zero with the discretization.  Trapezoid
    in time over the snapshot times and in space.
    """
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 3:
        raise ValueError("trajectory too short: need at least 3 snapshots")
    (x_c, t_c), (r_x, r_t) = centre, radii
    if not (-1.0 < x_c - r_x and x_c + r_x < 1.0):
        raise ValueError("test function support exceeds the spatial domain")
    if not (times[0] < t_c - r_t and t_c + r_t < times[-1]):
        raise ValueError("test function support exceeds the trajectory time window")
    grid, h = traj.grid, traj.snapshots
    d1 = derivative(h, grid.dx, 1)
    d2 = derivative(h, grid.dx, 2)
    phi_t, phi_xx = _bump_rates(grid.nodes, times, centre, radii)
    integrand = quadrature(h * phi_t, grid) - quadrature(
        (h * d2 - 0.5 * d1 * d1) * phi_xx, grid
    )
    return float(np.trapezoid(integrand, times))


def weak_residuals(levels: tuple[tuple[int, float], ...]) -> list[float]:
    """weak_residual of the P = 1, eps = 1e-2 run from the 0.05-perturbed
    parabola to t = 0.25, snapshots every 25 steps, for each (n, dt) in
    levels, against the bump at (0, 0.125) with radii (0.8, 0.1)."""
    residuals = []
    for n, dt in levels:
        h0 = _perturbed(1.0, n)
        cfg = SolverConfig(pressure=1.0, n=n, dt=dt, t_final=0.25, epsilon=1e-2,
                           output_every=25)
        residuals.append(weak_residual(run(cfg, h0), (0.0, 0.125), (0.8, 0.1)))
    return residuals


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _perturbed(pressure: float, n: int = 201) -> Profile:
    """The n-node parabola plus 0.05 (1 - x^2)^2, projected."""
    grid = make_grid(n)
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
    e_start, e_end = traj.ledger.energy[[0, -1]]
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
    drift = steady_drift(cfg)
    return CheckResult("steady-fixed-point", bool(drift <= 1e-9), f"sup drift {drift:.2e}")


def check_symmetry_preservation() -> CheckResult:
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-4, t_final=0.02, epsilon=1e-3)
    traj = run(cfg, _perturbed(1.0))
    asym = symmetry_defect(traj.snapshots[-1])
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


def check_weak_residual() -> CheckResult:
    residuals = weak_residuals(((201, 2e-4), (401, 1e-4)))
    ratio = abs(residuals[0]) / abs(residuals[1])
    return CheckResult("weak-residual-refinement", bool(ratio >= 3.0),
                       f"residual ratio (201, 2e-4)->(401, 1e-4) = {ratio:.3f} (want >= 3)")


CHECKS = [
    check_flux_identity,
    check_energy_monotonicity,
    check_eigenmode_decay,
    check_steady_fixed_point,
    check_symmetry_preservation,
    check_entropy_monotone,
    check_mass_conservation,
    check_weak_residual,
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
