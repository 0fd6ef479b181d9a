"""One backward-Euler step of the frozen-coefficient problem.

The step solves (I + dt * L_g) h_new = h_old where L_g is the conservative
discretization of d/dx (g * d3 h): face fluxes g_{i+1/2} * D3_face with
D3_face the 4-node third difference, differenced back to nodes.  Rows 0 and
n-1 pin the boundary values to 1; rows 1 and n-2 impose the curvature
condition d2 h = P through one-sided 4-node stencils, which keeps the matrix
pentadiagonal.  The solve sets the two known values and eliminates them:
columns 0 and n-1 move into the rhs, and rows and columns 1..n-2, still a
(2, 2) band, go through one banded LU with partial pivoting.  LAPACK gbsv
factors and solves in one call (it is gbtrf followed by gbtrs), and it is
the only factorization: when a solve is rejected, gbcon estimates the
condition number of that block from the LU gbsv returned.  Both come from
scipy's compiled LAPACK module, scipy/linalg/_flapack, which _scipy loads
from its file without running scipy.linalg's package import.  The
backward-error gate tests the full system.  States are plain float64 arrays
here; nothing in the step builds a Profile.  A run's solves share one
Workspace: its band keeps the boundary rows, and each solve rewrites only
the interior rows and the buffers in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import extension
from .grid import CURVATURE_STENCIL, Grid, derivative, quadrature

_flapack = extension("linalg._flapack")
dgbcon, dgbsv = _flapack.dgbcon, _flapack.dgbsv

RESIDUAL_RTOL = 1e-9

# sub- and superdiagonals of the pentadiagonal matrix
_KL = _KU = 2


class LinearSolveError(RuntimeError):
    """Banded solve failed or produced an unacceptable residual."""


def _band_product(ab: np.ndarray, x: np.ndarray, workspace: Workspace) -> np.ndarray:
    """A x for A in (5, n) band storage, in workspace's product buffer."""
    np.multiply(ab, x, out=workspace.product)
    return _row_sums(workspace.product, workspace.product_views)


def _row_sum_views(terms: np.ndarray) -> tuple:
    """(out, pairs): out = terms[2] and the (target, source) views that
    _row_sums adds, for a (5, n) band-stored array.  Entry (i, j) sits at
    terms[2 + i - j, j], and each row adds its diagonal, then the entries at
    j = i+1, i+2, i-1, i-2."""
    out = terms[2]
    return out, ((out[:-1], terms[1, 1:]), (out[:-2], terms[0, 2:]),
                 (out[1:], terms[3, :-1]), (out[2:], terms[4, :-2]))


def _row_sums(terms: np.ndarray, views: tuple | None = None) -> np.ndarray:
    """Row sums of a (5, n) band-stored matrix, in place, in the order of
    _row_sum_views(terms), or of views, which a workspace keeps for its
    product buffer.  Returns a view of terms[2]."""
    out, pairs = views or _row_sum_views(terms)
    for target, source in pairs:
        target += source
    return out


def _interior_abs_row_sums(diagonals: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """Row sums of |A| on the interior rows 2..n-3 into out (length n-4),
    with the bits of _row_sums(np.abs(ab)) there, from the interior
    diagonals (i, i+2), (i, i+1), (i, i), (i, i-1), (i, i-2).  Their signs
    are +, -, +, -, + because assemble_operator checks g > 0 and dt > 0, so
    each |entry| is added in _row_sums' order as the entry itself or
    subtracted as it: diag - up1 + up2 - lo1 + lo2."""
    up2, up1, diag, lo1, lo2 = diagonals
    np.subtract(diag, up1, out=out)
    out += up2
    out -= lo1
    out += lo2
    return out


class Workspace:
    """The arrays that the implicit steps of one run, on one grid at one
    pressure, fill in place.

    band is (I + dt L_g) in (5, n) band storage, and diagonals are the views
    of its interior rows that assemble_operator rewrites.  The four boundary
    rows are written here once, with boundary_norm, their largest |A| row
    sum.  gate holds the four vectors whose largest |entry| the
    backward-error gate takes in one pass: rhs (row 0, with the boundary
    targets 1, P, P, 1), the residual, the solution and the interior |A|
    row sums, in the first n-4 entries of row 3 (the rest stay zero, below
    any row sum, which is at least 1).  lu is gbsv's Fortran-ordered
    (7, n-2) buffer and product the (5, n) band product.  A workspace
    serves one node count and pressure; check, which assemble_operator
    makes before it writes a buffer, raises ValueError on any other.
    """

    def __init__(self, grid: Grid, pressure: float):
        n, dx = grid.n, grid.dx
        self.n = n
        self.pressure = float(pressure)
        # rows 0 and n-1 pin the values to 1; row 1 (columns 0..3) and row
        # n-2 (columns n-4..n-1, the exact mirror) impose d2 h = P
        band = self.band = np.zeros((5, n))
        band[2, 0] = 1.0
        band[2, n - 1] = 1.0
        w = CURVATURE_STENCIL / dx**2
        band[3, 0], band[2, 1], band[1, 2], band[0, 3] = w
        band[4, n - 4], band[3, n - 3], band[2, n - 2], band[1, n - 1] = w[::-1]
        self.diagonals = (band[0, 4:], band[1, 3:-1], band[2, 2:-2], band[3, 1:-3], band[4, :-4])
        # the interior rows are still zero, so the largest row sum is a
        # boundary row's, which no interior write changes
        self.boundary_norm = float(_row_sums(np.abs(band)).max())
        self.gate = np.zeros((4, n))
        self.gate_abs = np.empty((4, n))
        self.rhs = self.gate[0]
        self.rhs[0] = self.rhs[n - 1] = 1.0
        self.rhs[1] = self.rhs[n - 2] = self.pressure
        self.abs_sums = self.gate[3, :-4]
        self.g_face = np.empty(n - 3)
        self.lu = _lu_buffer(band[:, 1:-1])
        self.product = np.empty((5, n))
        self.product_views = _row_sum_views(self.product)

    def check(self, grid: Grid, pressure: float) -> None:
        """ValueError unless grid and pressure are the ones it was built for."""
        if grid.n != self.n or pressure != self.pressure:
            raise ValueError(
                f"workspace for n={self.n}, P={self.pressure!r} "
                f"cannot serve n={grid.n}, P={pressure!r}"
            )


@dataclass(frozen=True)
class StepResult:
    """Output of one implicit step: new nodal values and solve residual.

    solver_residual is ||A h - rhs||_inf; backward_error the normwise
    relative backward error ||A h - rhs|| / (||A|| ||h|| + ||rhs||), which is
    the quantity the acceptance gate tests (a backward-stable solve keeps it
    near machine epsilon no matter how large dt scales the operator).
    """

    values: np.ndarray
    solver_residual: float
    backward_error: float


def face_flux(mobility: np.ndarray, values: np.ndarray, dx: float) -> np.ndarray:
    """Face fluxes g_{i+1/2} * D3_face on faces 3/2 .. n-5/2 (length n-3).

    g_{i+1/2} is the mean of the two adjacent nodal mobilities and D3_face
    the 4-node third difference centred on the face; verify checks the
    assembled band's L_g against it.
    """
    g_face = 0.5 * (mobility[:-1] + mobility[1:])  # g at face i+1/2, length n-1
    d3_face = (-values[:-3] + 3.0 * values[1:-2] - 3.0 * values[2:-1] + values[3:]) / dx**3
    return g_face[1:-1] * d3_face


def assemble_operator(
    mobility: np.ndarray,
    grid: Grid,
    dt: float,
    pressure: float,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (I + dt L_g) with the four boundary rows: (ab, rhs), the
    band and rhs of workspace, or of a fresh Workspace(grid, pressure).

    ab is the pentadiagonal matrix in LAPACK band storage, shape (5, n): row
    u + i - j holds entry (i, j) for |i - j| <= 2 (u = 2).  rhs carries the
    boundary row targets (1, P, P, 1); its interior entries are the caller's
    to fill with h_old (zeros in a fresh workspace).
    """
    ws = workspace or Workspace(grid, pressure)
    ws.check(grid, pressure)
    n = grid.n
    dx = grid.dx
    g = np.asarray(mobility, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"mobility has shape {g.shape}, expected ({n},)")
    if not g.min() > 0.0:
        raise ValueError("mobility must be positive everywhere")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    # interior rows i = 2..n-3: I + dt/dx^4 * [gm, -(gp+3gm), 3(gp+gm), -(3gp+gm), gp],
    # written in place; each diagonal repeats the operations, in their order,
    # of the whole-array expression beside it, so it rounds the same way
    g_face = np.add(g[1:-2], g[2:-1], out=ws.g_face)
    g_face *= 0.5                   # g_{i+1/2} for i = 1..n-3
    gp = g_face[1:]                 # g_{i+1/2} for interior rows i
    gm = g_face[:-1]                # g_{i-1/2}
    scale = dt / dx**4
    up2, up1, diag, lo1, lo2 = ws.diagonals
    np.multiply(scale, gp, out=up2)     # (i, i+2) = scale * gp
    np.multiply(-3.0, gp, out=up1)      # (i, i+1) = scale * (-3.0 * gp - gm)
    up1 -= gm
    up1 *= scale
    np.add(gp, gm, out=diag)            # (i, i) = 1.0 + scale * 3.0 * (gp + gm)
    diag *= scale * 3.0
    diag += 1.0
    np.multiply(3.0, gm, out=lo2)       # (i, i-1) = scale * (-gp - 3.0 * gm),
    np.negative(gp, out=lo1)            # with lo2 holding 3.0 * gm until
    lo1 -= lo2                          # it takes its own diagonal
    lo1 *= scale
    np.multiply(scale, gm, out=lo2)     # (i, i-2) = scale * gm
    return ws.band, ws.rhs


def _lu_buffer(ab: np.ndarray) -> np.ndarray:
    """A (5, n) band matrix with the _KL extra rows above it that gbsv needs
    for the fill-in of row swaps, Fortran-ordered so that LAPACK factors it
    in place."""
    buf = np.zeros((2 * _KL + _KU + 1, ab.shape[1]), order="F")
    buf[_KL:] = ab
    return buf


def _kappa(inner: np.ndarray, lu: np.ndarray, ipiv: np.ndarray) -> float:
    """kappa_1 = 1 / rcond of the band inner by LAPACK gbcon on the LU that
    gbsv returned for it, with ||A||_1 the largest column sum of |A|."""
    rcond, _ = dgbcon(_KL, _KU, lu, ipiv, float(np.max(np.abs(inner).sum(axis=0))))
    return 1.0 / rcond if rcond > 0.0 else np.inf


def condition_estimate(matrix: np.ndarray) -> float:
    """1-norm condition estimate kappa_1 of the block of rows and columns
    1..n-2 of a (5, n) band matrix, the block step_linear factors, through
    the gbsv call the step makes; inf when the LU finds an exactly zero
    pivot."""
    inner = matrix[:, 1:-1]
    lu, ipiv, _, info = dgbsv(_KL, _KU, _lu_buffer(inner), np.zeros(inner.shape[1]),
                              overwrite_ab=True)
    return np.inf if info > 0 else _kappa(inner, lu, ipiv)


def step_linear(
    values: np.ndarray,
    grid: Grid,
    mobility: np.ndarray,
    dt: float,
    pressure: float,
    workspace: Workspace | None = None,
) -> StepResult:
    """Advance the frozen-coefficient problem one implicit step from the
    nodal values h_old, which are only read, in workspace or in a fresh
    Workspace(grid, pressure); the returned values are a new array.

    The step is backward Euler, (I + dt L_g) h_new = h_old on the interior
    rows, with the boundary rows enforced at the new time.
    """
    ws = workspace or Workspace(grid, pressure)
    ab, rhs = assemble_operator(mobility, grid, dt, pressure, ws)
    rhs[2:-2] = values[2:-2]

    # h(-1) = h(1) = 1 (rhs rows 0 and n-1): move columns 0 and n-1 into the
    # rhs of rows 1, 2 and n-3, n-2, so that no row swap mixes a value row
    # into the LU of the rows and columns 1..n-2 between them
    new_values = rhs.copy()
    new_values[1] -= ab[3, 0]           # entries (1, 0), (2, 0)
    new_values[2] -= ab[4, 0]
    new_values[-3] -= ab[0, -1]         # entries (n-3, n-1), (n-2, n-1)
    new_values[-2] -= ab[1, -1]
    b = new_values[1:-1]
    inner = ab[:, 1:-1]
    ws.lu[_KL:] = inner
    # b is a contiguous float64 view, so gbsv writes the solution into it
    # and new_values holds h_new with no copy
    lu, ipiv, _, info = dgbsv(_KL, _KU, ws.lu, b, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinearSolveError(
            f"banded solve failed (condition estimate inf): singular matrix, "
            f"zero pivot in column {info}"
        )

    # the gate's four infinity norms in one pass over ws.gate; a non-finite
    # entry of the solution makes the residual, and so backward,
    # non-finite, and the gate rejects it with no separate scan.  ||A|| is
    # the larger of the interior and boundary rows' largest sums, the
    # interior's first so that a NaN would carry through
    gate = ws.gate
    np.subtract(_band_product(ab, new_values, ws), rhs, out=gate[1])
    gate[2] = new_values
    _interior_abs_row_sums(ws.diagonals, ws.abs_sums)
    rhs_norm, residual, x_norm, a_interior = (
        np.maximum.reduce(np.abs(gate, out=ws.gate_abs), axis=1).tolist()
    )
    a_norm = max(a_interior, ws.boundary_norm)
    backward = residual / (a_norm * x_norm + rhs_norm)
    if not math.isfinite(backward) or backward > RESIDUAL_RTOL:
        raise LinearSolveError(
            f"backward error {backward:.3e} exceeds {RESIDUAL_RTOL:.0e} "
            f"(residual {residual:.3e}, condition estimate {_kappa(inner, lu, ipiv):.3e})"
        )

    return StepResult(values=new_values, solver_residual=residual, backward_error=backward)


def flux_energy_report(
    values: np.ndarray,
    mobility: np.ndarray,
    grid: Grid,
    dt: float,
    times: list[float],
) -> np.ndarray:
    """Discrete balance of d/dt int w^2/g = int (dt g / g^2) w^2 - 2 int |d2 w|^2
    across each step of a sequence of states.

    values and mobility are (k+1, n) stacks of consecutive states h^0..h^k,
    oldest first, and of their mobilities.  Returns a (k, 4) float64 array,
    the columns of the flux CSV: row j covers the step from h^j to h^(j+1)
    and holds times[j], the weighted flux norm ||w / sqrt(g)||_L2 and the
    flux curvature norm ||d2 w||_L2 at h^(j+1), and the defect of the
    balance across the step.  Each state's flux w = g d3 h, int w^2/g, d2 w
    and int |d2 w|^2 are computed once, for the steps on both sides of
    it.  The residual uses trapezoid-in-time averages of the right
    side across the step and the finite difference (g - g_prev)/dt for the
    coefficient rate; it vanishes to first order for smooth data and is
    identically small when the mobility is frozen.
    """
    w = mobility * derivative(values, grid.dx, 3)
    q = quadrature(w * w / mobility, grid)
    d2w = derivative(w, grid.dx, 2)
    sink = quadrature(d2w * d2w, grid)

    g_new, g_old = mobility[1:], mobility[:-1]
    w_new, w_old = w[1:], w[:-1]
    g_rate = (g_new - g_old) / dt
    source_new = quadrature(g_rate / g_new**2 * w_new * w_new, grid)
    source_old = quadrature(g_rate / g_old**2 * w_old * w_old, grid)

    residual = (
        q[1:]
        - q[:-1]
        - dt * 0.5 * (source_new + source_old)
        + 2.0 * dt * 0.5 * (sink[1:] + sink[:-1])
    )
    return np.column_stack([times, np.sqrt(q[1:]), np.sqrt(sink[1:]), residual])
