"""Energy, dissipation, flux and entropy functionals on nodal profiles.

These are the scalar diagnostics the solver logs every step, plus the weak
residual used to certify trajectories against the conservative form
dt h + d/dx(h d3 h) = d/dx^2 (h d2 h - |d1 h|^2 / 2) of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, Profile, derivative, quadrature

if TYPE_CHECKING:  # pragma: no cover
    from .evolve import Trajectory


@dataclass(frozen=True, slots=True)
class EnergyLedger:
    """One per-step ledger row: energy, instantaneous and accumulated dissipation."""

    time: float
    energy: float
    dissipation: float
    cumulative_dissipation: float


def energy(p: Profile, pressure: float, rule: str = "trapezoid") -> float:
    """E(h) = 1/2 int |d1 h|^2 + P int h."""
    d1 = derivative(p.values, p.grid.dx, 1)
    return 0.5 * quadrature(d1 * d1, p.grid, rule) + pressure * quadrature(
        p.values, p.grid, rule
    )


def dissipation(values: np.ndarray, grid: Grid, rule: str = "trapezoid") -> float:
    """D(h) = int h |d3 h|^2 of a nodal field, with negative h clipped to zero.

    Clipping keeps the reported rate nonnegative when roundoff or a
    regularized run lets a node dip below zero.  It takes raw values, as
    h1_norm does, so the step loop's midpoint needs no Profile.
    """
    d3 = derivative(values, grid.dx, 3)
    h = np.maximum(values, 0.0)
    return quadrature(h * d3 * d3, grid, rule)


def flux(p: Profile, mobility: np.ndarray) -> np.ndarray:
    """Nodal flux field w = g * d3 h for a positive mobility field g."""
    g = np.asarray(mobility, dtype=float)
    if g.shape != (p.grid.n,):
        raise ValueError(
            f"mobility has shape {g.shape}, expected ({p.grid.n},)"
        )
    if not (g > 0.0).all():
        raise ValueError("mobility must be positive everywhere")
    return g * derivative(p.values, p.grid.dx, 3)


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


@dataclass(frozen=True)
class SpaceTimeBump:
    """Smooth compactly supported test function phi(x, t).

    Tensor product of standard mollifier bumps exp(-1/(1-s^2)) in space and
    time, centered at (x_center, t_center) with the given radii.  Vanishes
    with all derivatives at the support edge.
    """

    x_center: float
    x_radius: float
    t_center: float
    t_radius: float
    amplitude: float = 1.0

    @staticmethod
    def _bump(s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - si * si))
        return out

    @staticmethod
    def _bump_d1(s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si * si
        out[inside] = np.exp(-1.0 / q) * (-2.0 * si / q**2)
        return out

    @staticmethod
    def _bump_d2(s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si * si
        g1 = -2.0 * si / q**2
        g2 = -2.0 / q**2 - 8.0 * si * si / q**3
        out[inside] = np.exp(-1.0 / q) * (g2 + g1 * g1)
        return out

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        sx = (np.asarray(x, dtype=float) - self.x_center) / self.x_radius
        st = (t - self.t_center) / self.t_radius
        out = self.amplitude * self._bump(sx) * self._bump(st)
        return float(out[0]) if np.ndim(x) == 0 else out

    def dt(self, x: np.ndarray, t: float) -> np.ndarray:
        sx = (np.asarray(x, dtype=float) - self.x_center) / self.x_radius
        st = (t - self.t_center) / self.t_radius
        out = self.amplitude * self._bump(sx) * self._bump_d1(st) / self.t_radius
        return float(out[0]) if np.ndim(x) == 0 else out

    def dxx(self, x: np.ndarray, t: float) -> np.ndarray:
        sx = (np.asarray(x, dtype=float) - self.x_center) / self.x_radius
        st = (t - self.t_center) / self.t_radius
        out = (
            self.amplitude
            * self._bump_d2(sx)
            / self.x_radius**2
            * self._bump(st)
        )
        return float(out[0]) if np.ndim(x) == 0 else out


def weak_residual(traj: "Trajectory", phi: SpaceTimeBump) -> float:
    """Space-time quadrature of int int h phi_t - (h d2 h - |d1 h|^2/2) phi_xx.

    Zero for an exact weak solution; on solver output it converges to zero
    with the discretization.  Trapezoid in time over the snapshot times,
    configured quadrature in space.
    """
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 3:
        raise ValueError("trajectory too short: need at least 3 snapshots")
    grid = traj.grid
    if not (-1.0 < phi.x_center - phi.x_radius and phi.x_center + phi.x_radius < 1.0):
        raise ValueError("test function support exceeds the spatial domain")
    if not (times[0] < phi.t_center - phi.t_radius and phi.t_center + phi.t_radius < times[-1]):
        raise ValueError("test function support exceeds the trajectory time window")
    rule = traj.config.rule
    x = grid.nodes
    integrand = np.empty(len(times))
    for j, (t, snap) in enumerate(zip(times, traj.snapshots)):
        h = snap.values
        d1 = derivative(h, grid.dx, 1)
        d2 = derivative(h, grid.dx, 2)
        a = quadrature(h * phi.dt(x, t), grid, rule)
        b = quadrature((h * d2 - 0.5 * d1 * d1) * phi.dxx(x, t), grid, rule)
        integrand[j] = a - b
    return float(np.trapezoid(integrand, times))


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


def entropy(p: Profile, bound: float, eps: float, rule: str = "trapezoid") -> float:
    """Quadrature of the entropy density F_eps over the profile.

    bound (the anchor A) must dominate the profile and eps must be positive;
    the density blows up logarithmically at negative values as eps shrinks,
    which is what makes it a nonnegativity sentinel.
    """
    if eps <= 0.0:
        raise ValueError(f"entropy eps must be positive, got {eps}")
    if bound < float(np.max(p.values)):
        raise ValueError(
            f"entropy anchor {bound} is below the profile maximum {np.max(p.values)}"
        )
    return quadrature(entropy_density(p.values, bound, eps), p.grid, rule)
