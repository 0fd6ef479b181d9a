"""The energy and its dissipation rate on nodal profiles.

These are the scalar diagnostics the solver logs in its ledger every step:
the energy E(h) and the rate D(h) at which the evolution dissipates it.
The paper's other certificates (the flux identity, the entropy and the weak
form) live with the invariants in verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, Profile, derivative, quadrature


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
