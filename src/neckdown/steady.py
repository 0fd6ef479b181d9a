"""Steady profiles of the neck model and their exact energies.

For pressure P <= 2 the steady profile is the single parabola
(P/2)(x^2 - 1) + 1; for P > 2 it is two parabolic arcs (P/2)(|x| - x_P)^2
meeting a flat zero zone, with contact point x_P = 1 - sqrt(2/P).  Both
branches satisfy h(+-1) = 1 and h''(+-1) = P and both are nonnegative.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid


def check_pressure(pressure: float) -> None:
    """ValueError unless the pressure is a finite P > 0."""
    if not (math.isfinite(pressure) and pressure > 0):
        raise ValueError(f"pressure must be finite and satisfy P>0, got {pressure}")


def contact_point(pressure: float) -> float:
    """Contact point of the steady profile: 1 - sqrt(2/P) for P > 2, else 0."""
    check_pressure(pressure)
    if pressure <= 2.0:
        return 0.0
    return 1.0 - np.sqrt(2.0 / pressure)


def parabola(pressure: float, grid: Grid) -> np.ndarray:
    """The single-parabola branch (P/2)(x^2 - 1) + 1 sampled on the grid.

    Equals the steady profile for P <= 2; for larger P it dips negative and
    serves only as the base shape for perturbed initial data.
    """
    x = grid.nodes
    return 0.5 * pressure * (x * x - 1.0) + 1.0


def steady_profile(pressure: float, grid: Grid) -> np.ndarray:
    """The steady profile for the given pressure, sampled on the grid."""
    x_p = contact_point(pressure)
    if pressure <= 2.0:
        return parabola(pressure, grid)
    ax = np.abs(grid.nodes)
    return np.where(ax >= x_p, 0.5 * pressure * (ax - x_p) ** 2, 0.0)


def steady_energy(pressure: float) -> float:
    """Closed-form energy of the steady profile.

    E = -P^2/3 + 2P on the parabola branch (P <= 2) and (4 sqrt(2)/3) sqrt(P)
    on the two-arc branch; the two expressions agree (8/3) at P = 2.
    """
    check_pressure(pressure)
    if pressure <= 2.0:
        return -(pressure**2) / 3.0 + 2.0 * pressure
    return (4.0 * np.sqrt(2.0) / 3.0) * np.sqrt(pressure)
