"""Initial-data families and the boundary-row projection helper.

The stepper requires data satisfying the four discrete boundary rows
(values 1 at the endpoints, one-sided second difference P at both ends).
Analytic perturbation shapes rarely satisfy the curvature rows exactly, so
each analytic family adds to its raw profile the quartic of minimal discrete
L2 norm that repairs all four rows.  File data is used as stored, and a run
rejects it if it is off the rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import CURVATURE_STENCIL, Grid, trapezoid_weights
from .steady import parabola, steady_profile


def bc_residuals(values: np.ndarray, grid: Grid, pressure: float) -> np.ndarray:
    """Defects of the four discrete boundary rows: [left value, left curvature,
    right curvature, right value]."""
    dx2 = grid.dx**2
    return np.array(
        [
            values[0] - 1.0,
            CURVATURE_STENCIL @ values[:4] / dx2 - pressure,
            CURVATURE_STENCIL @ values[-1:-5:-1] / dx2 - pressure,
            values[-1] - 1.0,
        ]
    )


def project_boundary_rows(values: np.ndarray, grid: Grid, pressure: float) -> np.ndarray:
    """Add the minimal-L2-norm quartic making all four boundary rows exact.

    The constraint system is 4 rows on 5 polynomial coefficients; the free
    direction is resolved by minimizing the quadrature norm of the correction
    itself.  Symmetric defects therefore receive an even correction, so even
    data stays even.
    """
    x = grid.nodes
    vand = np.vander(x, 5, increasing=True)  # columns 1, x, x^2, x^3, x^4
    dx2 = grid.dx**2
    rows = np.vstack(
        [
            vand[0],
            CURVATURE_STENCIL @ vand[:4] / dx2,
            CURVATURE_STENCIL @ vand[-1:-5:-1] / dx2,
            vand[-1],
        ]
    )
    target = -bc_residuals(values, grid, pressure)
    # particular solution + 1-dim null space of the constraint rows
    coeff_p, *_ = np.linalg.lstsq(rows, target, rcond=None)
    _, _, vt = np.linalg.svd(rows)
    null = vt[-1]
    # minimize || vand (coeff_p + z null) ||_quadrature over scalar z
    weights = trapezoid_weights(grid)
    qp = vand @ coeff_p
    qn = vand @ null
    denom = np.sum(weights * qn * qn)
    z = -np.sum(weights * qp * qn) / denom if denom > 0 else 0.0
    correction = vand @ (coeff_p + z * null)
    return values + correction


def ic_steady(pressure: float, grid: Grid) -> np.ndarray:
    """The steady profile itself (projection is a no-op up to roundoff)."""
    return steady_profile(pressure, grid)


def ic_steady_perturbed_poly(
    pressure: float, grid: Grid, amplitude: float
) -> np.ndarray:
    """Parabola base plus amplitude * (1 - x^2)^2, projected onto the BC rows.

    The base (P/2)(x^2-1)+1 is the steady profile for P <= 2; for larger P it
    dips negative and the bump must lift the waist above zero.  Raises if the
    projected profile is not strictly positive.
    """
    x = grid.nodes
    raw = parabola(pressure, grid) + amplitude * (1.0 - x * x) ** 2
    values = project_boundary_rows(raw, grid, pressure)
    if np.min(values) <= 0.0:
        raise ValueError(
            f"perturbed-poly data with amplitude {amplitude} is not positive "
            f"(min {np.min(values):.3e}); increase the amplitude"
        )
    return values


def default_poly_amplitude(pressure: float) -> float:
    """Amplitude keeping the perturbed-poly family positive: 0.05 below the
    two-arc regime, 0.3 P above it."""
    return 0.05 if pressure <= 2.0 else 0.3 * pressure


def ic_steady_perturbed_random(
    pressure: float, grid: Grid, amplitude: float, seed: int
) -> np.ndarray:
    """Parabola base plus a random combination of the 5 lowest sine modes.

    Each mode sin(m pi (x+1)/2) vanishes with its second derivative at the
    endpoints, so the projection only repairs O(dx^2) discrete defects.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=5)
    x = grid.nodes
    bump = np.zeros(grid.n)
    for m, c in enumerate(coeffs, start=1):
        bump += c * np.sin(m * np.pi * (x + 1.0) / 2.0)
    raw = parabola(pressure, grid) + amplitude * bump
    values = project_boundary_rows(raw, grid, pressure)
    if np.min(values) <= 0.0:
        raise ValueError(
            f"random perturbation (seed {seed}, amplitude {amplitude}) "
            f"is not positive (min {np.min(values):.3e})"
        )
    return values


# the JSON types of a number; JSON integers are unbounded, so a number must
# also convert to a double
NUMBER = (int, float)


def _is_double(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_json_type(name: str, value, kind, wanted: str, bound=None) -> None:
    """ValueError unless value has JSON type kind and meets bound; bools are
    ints to isinstance, so only kind bool takes them, and kind NUMBER takes
    no integer beyond the double range."""
    if (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
            or (kind == NUMBER and not _is_double(value))
            or (bound is not None and not bound(value))):
        raise ValueError(f"{name} needs {wanted}, got {value!r:.40}")


def check_json_numbers(name: str, value) -> np.ndarray:
    """value as a float64 array, or ValueError unless it is a JSON list of
    numbers within the double range; bools and numeric strings are not
    numbers.  One pass over the item types admits a list of ints and floats;
    only a list that fails it, or holds an int beyond the double range, is
    walked item by item to name the offender."""
    check_json_type(name, value, list, "a list of numbers")
    if {int, float}.issuperset(map(type, value)):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:
            pass
    for item in value:
        check_json_type(name, item, NUMBER, "a list of numbers")
    return np.asarray(value, dtype=float)


def read_json(path: str | Path, name: str):
    """The JSON document in the file at path; bytes that are not JSON text,
    or not in a JSON encoding, raise ValueError naming the file, as name and
    path."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data)
    except ValueError as exc:
        raise ValueError(f"{name} {path} is not JSON: {exc}") from None


def ic_from_file(path: str | Path, grid: Grid) -> np.ndarray:
    """Nodal values from a JSON file {"values": [...]} matching the grid,
    unprojected.  A file of any other shape raises ValueError naming it."""
    data = read_json(path, "initial-condition file")
    check_json_type("initial-condition file", data, dict, "a JSON object")
    if "values" not in data:
        raise ValueError("initial-condition file lacks the 'values' key")
    values = check_json_numbers("initial-condition file 'values'", data["values"])
    if len(values) != grid.n:
        raise ValueError(f"file data has {len(values)} values, grid has {grid.n} nodes")
    return values


def _ic_file(pressure: float, grid: Grid, arg: str, seed: int) -> np.ndarray:
    if not arg:
        raise ValueError("file initial condition needs a path: file:PATH")
    return ic_from_file(arg, grid)


# each family's builder, called with the pressure, the grid, the spec's text
# after ":" and the seed
IC_FAMILIES = {
    "steady": lambda pressure, grid, arg, seed: ic_steady(pressure, grid),
    "steady-perturbed-poly": lambda pressure, grid, arg, seed: ic_steady_perturbed_poly(
        pressure, grid, float(arg) if arg else default_poly_amplitude(pressure)),
    "steady-perturbed-random": lambda pressure, grid, arg, seed: ic_steady_perturbed_random(
        pressure, grid, float(arg) if arg else 0.05, seed),
    "file": _ic_file,
}


def ic_family(spec: str) -> str:
    """The family of an initial-condition spec: its text before any ":"."""
    family = spec.partition(":")[0]
    if family not in IC_FAMILIES:
        raise ValueError(f"unknown initial-condition family {family!r}; "
                         f"choose one of {', '.join(IC_FAMILIES)}")
    return family


def build_initial_condition(
    spec: str, pressure: float, grid: Grid, seed: int = 0
) -> np.ndarray:
    """Resolve an initial-condition spec string to nodal values.

    Formats: "steady", "steady-perturbed-poly[:amplitude]",
    "steady-perturbed-random[:amplitude]", "file:path".
    """
    return IC_FAMILIES[ic_family(spec)](pressure, grid, spec.partition(":")[2], seed)
