"""The energy and its dissipation rate on nodal profiles.

These are the scalar diagnostics the solver logs in its ledger every step:
the energy E(h) and the rate D(h) at which the evolution dissipates it.
The paper's other certificates (the flux identity, the entropy and the weak
form) live with the invariants in verify.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, derivative, quadrature


def energy(values: np.ndarray, grid: Grid, pressure: float) -> float | np.ndarray:
    """E(h) = 1/2 int |d1 h|^2 + P int h of a nodal field, or of each row of
    a (k, n) stack, where each row gets the bits of its own 1-D call."""
    d1 = derivative(values, grid.dx, 1)
    d1 *= d1
    return 0.5 * quadrature(d1, grid) + pressure * quadrature(values, grid)


def dissipation(values: np.ndarray, grid: Grid) -> float | np.ndarray:
    """D(h) = int h |d3 h|^2 of a nodal field, or of each row of a (k, n)
    stack, with negative h clipped to zero.

    Clipping keeps the reported rate nonnegative when roundoff or a
    regularized run lets a node dip below zero.  It takes raw values, as
    h1_norm does, so the run's block of states needs no Profile.  The
    products h * d3 * d3 are taken in place, in that order, so a stack
    holds few temporaries at once.
    """
    d3 = derivative(values, grid.dx, 3)
    integrand = np.maximum(values, 0.0)
    integrand *= d3
    integrand *= d3
    return quadrature(integrand, grid)
