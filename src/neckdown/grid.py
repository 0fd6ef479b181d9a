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

import numpy as np

# scipy's private C++ kernels under `csr_matrix @ vector` and `@ (n, k)
# block`: y += A x over the stored entries of each row, in storage order, with
# csr_matvecs adding each term to all k columns of a row at once.  Called here
# on a zeroed y, they return the bits of `csr_matrix @ v` without
# scipy.sparse's per-call dispatch, and each column of a block gets the bits
# of its own product.  They are not public API and check no lengths;
# test_grid pins the equalities.  _scipy loads their compiled module,
# scipy/sparse/_sparsetools, from its file, without scipy.sparse's package.
from ._scipy import extension

_sparsetools = extension("sparse._sparsetools")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs

MIN_NODES = 9

# Second-order difference weights at unit spacing (Fornberg, Math. Comp. 51,
# 1988), every one a half-integer: order -> (centred weights on offsets
# -h..h, one-sided rows).  One-sided row i holds node i's order + 2 weights
# on nodes 0..order + 1, for each of the first h nodes; the last h nodes take
# the rows reversed and times (-1)**order.
STENCILS = {
    1: ((-0.5, 0.0, 0.5),
        ((-1.5, 2.0, -0.5),)),
    2: ((1.0, -2.0, 1.0),
        ((2.0, -5.0, 4.0, -1.0),)),
    3: ((-0.5, 1.0, 0.0, -1.0, 0.5),
        ((-2.5, 9.0, -12.0, 7.0, -1.5),
         (-1.5, 5.0, -6.0, 3.0, -0.5))),
    4: ((1.0, -4.0, 6.0, -4.0, 1.0),
        ((3.0, -14.0, 26.0, -24.0, 11.0, -2.0),
         (2.0, -9.0, 16.0, -14.0, 6.0, -1.0))),
    5: ((-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5),
        ((-3.5, 20.0, -47.5, 60.0, -42.5, 16.0, -2.5),
         (-2.5, 14.0, -32.5, 40.0, -27.5, 10.0, -1.5),
         (-1.5, 8.0, -17.5, 20.0, -12.5, 4.0, -0.5))),
}

# the stencil of the boundary curvature rows: d2h(-1) ~ (2 h0 - 5 h1 + 4 h2
# - h3) / dx^2, and mirrored, (2 h_{n-1} - 5 h_{n-2} + 4 h_{n-3} - h_{n-4}) /
# dx^2 at x = 1
CURVATURE_STENCIL = np.array(STENCILS[2][1][0])
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


@lru_cache(maxsize=32)
def _operator(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of the dimensionless order-th
    difference operator on n nodes (unit spacing).

    Rows take STENCILS' weights, centred inside and one-sided at the h
    nodes next to each end, each row's entries in ascending column order.
    Left and right edge weights mirror each other exactly, but even/odd
    fields map to odd/even fields only to roundoff: a right-edge row adds
    its mirrored terms in the opposite order (a storage order that added
    them in the same order would change order-1 results).
    """
    centre, edge = STENCILS[order]
    width, half = order + 2, len(edge)
    if n < width:
        raise ValueError(f"grid too small for order-{order} stencils: n={n}")
    sign = -1.0 if order % 2 else 1.0
    right = [sign * np.array(row[::-1]) for row in edge[::-1]]
    inner = n - 2 * half
    data = np.concatenate([*edge, np.tile(centre, inner), *right])
    indices = np.concatenate([
        *[np.arange(width)] * half,
        (np.arange(half, n - half)[:, None] + np.arange(-half, half + 1)).ravel(),
        *[np.arange(n - width, n)] * half,
    ])
    lengths = np.repeat([width, len(centre), width], [half, inner, half])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return indptr.astype(np.int32), indices.astype(np.int32), data


def derivative(values: np.ndarray, dx: float, order: int) -> np.ndarray:
    """order-th finite-difference derivative, on all nodes, of a
    one-dimensional nodal field (through csr_matvec) or of each row of a
    (k, n) stack of fields (through csr_matvecs on its (n, k) transpose; a
    stack comes back as a C-ordered (k, n) array).

    The kernels read n entries per field whatever the array holds, so any
    other shape is a ValueError here, before the call.
    """
    if order not in STENCILS:
        raise ValueError(f"derivative order must be in 1..5, got {order}")
    shape = np.shape(values)
    n = shape[-1]
    op = _operator(n, order)
    if len(shape) == 1:
        out = np.zeros(n)
        csr_matvec(n, n, *op, values, out)
    elif len(shape) == 2:
        columns = np.zeros((n, shape[0]))
        csr_matvecs(n, n, shape[0], *op,
                    np.ascontiguousarray(np.transpose(values), dtype=float).ravel(),
                    columns.ravel())
        out = np.ascontiguousarray(columns.T)
    else:
        raise ValueError(f"field has shape {shape}, operator has {n} nodes")
    out /= dx**order
    return out


def quadrature(values: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Trapezoid integral of a nodal field over [-1, 1], or of each row of a
    (k, n) stack, reduced row by row over contiguous rows so that each row
    gets the pairwise sum of its own 1-D call."""
    values = np.ascontiguousarray(values)
    if values.shape[-1] != grid.n:
        raise ValueError(f"field has {values.shape[-1]} values on a {grid.n}-node grid")
    # values.T[0] is the first node of the field, or of every row
    return grid.dx * (np.add.reduce(values, -1) - 0.5 * (values.T[0] + values.T[-1]))


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Nodal weights of the trapezoid rule: dx inside, dx/2 at both ends."""
    weights = np.full(grid.n, grid.dx)
    weights[0] = weights[-1] = 0.5 * grid.dx
    return weights


def h1_norm(values: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Discrete H^1 norm sqrt(int h^2 + int |d1 h|^2) of a raw nodal field,
    trapezoid in both terms, or the (k,) norms of the rows of a (k, n)
    stack.

    The derivative is derivative's, through csr_matvec or csr_matvecs, so
    no operator is built per stack size, and both integrals reduce each
    row on its own: each norm gets the bits of its row's own call.
    """
    values = np.asarray(values, dtype=float)
    shape = values.shape
    if len(shape) not in (1, 2) or shape[-1] != grid.n:
        raise ValueError(f"field has shape {shape}, operator has {grid.n} nodes")
    d1 = derivative(values, grid.dx, 1)
    d1 *= d1
    norm = np.sqrt(quadrature(values * values, grid) + quadrature(d1, grid))
    return float(norm) if len(shape) == 1 else norm


def min_value(p: Profile) -> tuple[float, float]:
    """Nodal minimum of a profile: returns (x_m, h_m), leftmost node on ties."""
    i = int(np.argmin(p.values))
    return float(p.grid.nodes[i]), float(p.values[i])
