"""Uniform-grid fields on [-1, 1]: finite differences, quadrature, norms.

Everything downstream (steady profiles, energy functionals, the implicit
stepper) works on nodal fields living on the grid built here.  The node set
is chosen so that the endpoints and the center node are exact floating-point
values and the nodes are mirror-symmetric to the last bit; several symmetry
diagnostics rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
import scipy.sparse as sp

# scipy's private C++ kernels under `csr_matrix @ vector` and `@ (n, k)
# block`: y += A x over the stored entries of each row, in storage order, with
# csr_matvecs adding each term to all k columns of a row at once.  Called here
# on a zeroed y, they return the bits of `op @ v` without scipy.sparse's
# per-call dispatch, and each column of a block gets the bits of its own
# product.  They are not public API and check no lengths; test_grid pins the
# imports and the equalities.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

MIN_NODES = 9

# interior half-stencil width per derivative order (second-order centered)
_HALF_WIDTH = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3}

# one-sided 4-node second difference at unit spacing, the stencil of the
# boundary curvature rows: d2h(-1) ~ (2 h0 - 5 h1 + 4 h2 - h3) / dx^2, and
# mirrored, (2 h_{n-1} - 5 h_{n-2} + 4 h_{n-3} - h_{n-4}) / dx^2 at x = 1
CURVATURE_STENCIL = np.array([2.0, -5.0, 4.0, -1.0])
CURVATURE_STENCIL.flags.writeable = False


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [-1, 1] with an odd number of nodes.

    Attributes
    ----------
    n : int
        Number of nodes (odd, >= 9).
    dx : float
        Node spacing 2/(n-1).
    nodes : ndarray
        Node coordinates; nodes[i] = (2*i - (n-1))/(n-1), so nodes[0] = -1,
        nodes[-1] = 1 and nodes[(n-1)//2] = 0 exactly, with exact mirror
        symmetry nodes[n-1-i] == -nodes[i].
    """

    n: int
    dx: float
    nodes: np.ndarray


@dataclass(frozen=True)
class Profile:
    """A nodal height field together with its grid and pressure parameter.

    No admissibility is enforced here: test fields (polynomials, modes) are
    legitimate profiles.  Solver entry points check boundary rows themselves.
    """

    grid: Grid
    values: np.ndarray
    pressure: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"profile has {values.shape} values for a {self.grid.n}-node grid"
            )
        if not np.isfinite(values).all():
            raise ValueError("profile values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def check_nodes(n: int) -> None:
    """ValueError unless the node count n is odd, so that x = 0 is a node,
    and at least MIN_NODES, so that all one-sided stencils fit."""
    if n < MIN_NODES or n % 2 == 0:
        raise ValueError(f"n must be odd and >= {MIN_NODES}, got {n}")


def make_grid(n: int) -> Grid:
    """Build the uniform grid with n nodes (see check_nodes)."""
    check_nodes(n)
    nodes = (2.0 * np.arange(n) - (n - 1)) / (n - 1)
    nodes.flags.writeable = False
    return Grid(n=n, dx=2.0 / (n - 1), nodes=nodes)


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on integer offsets for the given derivative.

    Solves the small Vandermonde system sum_i w_i o_i^m = m! delta_{m,order};
    with len(offsets) = order + 2 points the formula is second-order accurate
    at any window position.
    """
    o = np.asarray(offsets, dtype=float)
    m = len(o)
    vand = np.vander(o, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = factorial(order)
    return np.linalg.solve(vand, rhs)


@lru_cache(maxsize=None)
def _derivative_operator(n: int, order: int) -> sp.csr_matrix:
    """Dimensionless k-th difference operator on n nodes (unit spacing).

    Centered second-order stencils in the interior; one-sided second-order
    stencils (order + 2 points) at the boundary-adjacent nodes.  Left and
    right edge rows are exact mirrors of each other, and centered rows are
    symmetrized, so even/odd fields map to exactly odd/even fields.
    """
    half = _HALF_WIDTH[order]
    width = order + 2
    if n < max(width, 2 * half + 1):
        raise ValueError(f"grid too small for order-{order} stencils: n={n}")

    centered_offsets = np.arange(-half, half + 1)
    w_c = _fd_weights(centered_offsets, order)
    sign = -1.0 if order % 2 else 1.0
    w_c = 0.5 * (w_c + sign * w_c[::-1])  # enforce exact (anti)symmetry

    rows, cols, vals = [], [], []
    for i in range(half):
        offs = np.arange(width) - i
        w = _fd_weights(offs, order)
        j = n - 1 - i  # mirrored right-edge row, bit-exact mirror weights
        for w_i, o in zip(w, offs):
            rows.append(i)
            cols.append(i + o)
            vals.append(w_i)
            rows.append(j)
            cols.append(j - o)
            vals.append(sign * w_i)
    for i in range(half, n - half):
        for w_i, o in zip(w_c, centered_offsets):
            rows.append(i)
            cols.append(i + o)
            vals.append(w_i)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _apply(op: sp.csr_matrix, values: np.ndarray, dx: float, order: int) -> np.ndarray:
    """(op @ values) / dx**order, bit for bit, of one field (n,) through
    csr_matvec, or of each row of a (k, n) stack through csr_matvecs on its
    (n, k) transpose; a stack comes back as a C-ordered (k, n) array.

    The kernels read n entries per field whatever the array holds, so any
    other shape is a ValueError here, before the call.
    """
    n = op.shape[0]
    shape = np.shape(values)
    if shape == (n,):
        out = np.zeros(n)
        csr_matvec(n, n, op.indptr, op.indices, op.data, values, out)
    elif len(shape) == 2 and shape[1] == n:
        columns = np.zeros((n, shape[0]))
        csr_matvecs(n, n, shape[0], op.indptr, op.indices, op.data,
                    np.ascontiguousarray(np.transpose(values), dtype=float).ravel(),
                    columns.ravel())
        out = np.ascontiguousarray(columns.T)
    else:
        raise ValueError(f"field has shape {shape}, operator has {n} nodes")
    out /= dx**order
    return out


def derivative(values: np.ndarray, dx: float, order: int) -> np.ndarray:
    """k-th finite-difference derivative, on all nodes, of a one-dimensional
    nodal field or of each row of a (k, n) stack of fields."""
    if order not in _HALF_WIDTH:
        raise ValueError(f"derivative order must be in 1..5, got {order}")
    return _apply(_derivative_operator(np.shape(values)[-1], order), values, dx, order)


def quadrature(values: np.ndarray, grid: Grid, rule: str = "trapezoid") -> float | np.ndarray:
    """Integrate a nodal field over [-1, 1], or each row of a (k, n) stack.

    rule is "trapezoid" (default) or "simpson"; the node count is odd so the
    composite Simpson rule always applies. It is summed the way
    scipy.integrate.simpson sums an odd count at spacing dx, bit for bit,
    without importing scipy.integrate.  A stack is reduced row by row over
    contiguous rows, so each row gets the pairwise sum of its own 1-D call.
    """
    values = np.ascontiguousarray(values)
    if values.shape[-1] != grid.n:
        raise ValueError(f"field has {values.shape[-1]} values on a {grid.n}-node grid")
    if rule == "trapezoid":
        # values.T[0] is the first node of the field, or of every row
        return grid.dx * (np.add.reduce(values, -1) - 0.5 * (values.T[0] + values.T[-1]))
    if rule == "simpson":
        panels = values[..., 0:-2:2] + 4.0 * values[..., 1:-1:2] + values[..., 2::2]
        return np.add.reduce(panels, -1) * (grid.dx / 3.0)
    raise ValueError(f"unknown quadrature rule {rule!r}")


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Nodal weights of the trapezoid rule: dx inside, dx/2 at both ends."""
    weights = np.full(grid.n, grid.dx)
    weights[0] = weights[-1] = 0.5 * grid.dx
    return weights


def h1_norm(values: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Discrete H^1 norm sqrt(int h^2 + int |d1 h|^2) of a raw nodal field,
    trapezoid in both terms (used in Picard stopping tests), or the (k,)
    norms of the rows of a (k, n) stack.

    A stack takes one csr_matvec with the block-diagonal operator of
    _stacked_first_difference, not _apply's csr_matvecs path, which costs
    more than the rows it saves for small k.  The rows and their
    derivatives share one (2k, n) buffer that is squared, summed row by row
    and trapezoid-corrected at once, so each norm gets the bits of its row's
    own call.
    """
    n = grid.n
    values = np.asarray(values, dtype=float)
    shape = values.shape
    if shape == (n,):
        d1 = _apply(_derivative_operator(n, 1), values, grid.dx, 1)
        return float(np.sqrt(quadrature(values**2, grid) + quadrature(d1**2, grid)))
    if len(shape) != 2 or shape[1] != n:
        raise ValueError(f"field has shape {shape}, operator has {n} nodes")
    k = shape[0]
    indptr, indices, data = _stacked_first_difference(n, k)
    terms = np.zeros((2 * k, n))
    terms[:k] = values
    csr_matvec(k * n, k * n, indptr, indices, data, terms[:k].ravel(), terms[k:].ravel())
    terms[k:] /= grid.dx
    terms *= terms
    q = quadrature(terms, grid)
    return np.sqrt(q[:k] + q[k:])


@lru_cache(maxsize=8)
def _stacked_first_difference(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of the (kn, kn) block-diagonal
    matrix with k copies of the order-1 operator on n nodes.  Each row keeps
    its entries in that operator's storage order, so one csr_matvec over a
    C-ordered (k, n) stack gives every row the bits of its own product."""
    op = _derivative_operator(n, 1)
    shifts = np.arange(k)[:, None]
    indptr = np.concatenate([[0], (op.indptr[1:] + op.indptr[-1] * shifts).ravel()])
    indices = (op.indices + n * shifts).ravel()
    return (indptr.astype(op.indptr.dtype), indices.astype(op.indices.dtype),
            np.tile(op.data, k))


def min_value(p: Profile) -> tuple[float, float]:
    """Nodal minimum of a profile: returns (x_m, h_m), leftmost node on ties."""
    i = int(np.argmin(p.values))
    return float(p.grid.nodes[i]), float(p.values[i])
