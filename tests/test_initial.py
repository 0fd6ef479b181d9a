"""Tests for initial-data families and the boundary-row projection."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neckdown.grid import make_grid
from neckdown.initial import (
    bc_residuals,
    build_initial_condition,
    default_poly_amplitude,
    ic_from_file,
    ic_steady,
    ic_steady_perturbed_poly,
    ic_steady_perturbed_random,
    project_boundary_rows,
)
from neckdown.evolve import CURVATURE_ROW_TOL, VALUE_ROW_TOL
from neckdown.steady import parabola, steady_profile
from neckdown.verify import symmetry_defect


def test_steady_parabola_satisfies_boundary_rows(grid201):
    base = parabola(1.0, grid201)
    assert np.max(np.abs(bc_residuals(base, grid201, 1.0))) < 1e-10


def test_bc_residuals_detect_curvature_defect(grid201):
    # (1 - x^2)^2 vanishes at the endpoints but has curvature 8 there
    raw = parabola(1.0, grid201) + 0.1 * (1.0 - grid201.nodes**2) ** 2
    res = bc_residuals(raw, grid201, 1.0)
    assert abs(res[0]) < 1e-12 and abs(res[3]) < 1e-12
    assert abs(res[1]) > 0.5 and abs(res[2]) > 0.5


def test_projection_repairs_all_four_rows(grid201):
    raw = parabola(1.0, grid201) + 0.1 * (1.0 - grid201.nodes**2) ** 2
    proj = project_boundary_rows(raw, grid201, 1.0)
    assert np.max(np.abs(bc_residuals(proj, grid201, 1.0))) < 1e-9


def test_projection_keeps_even_data_even(grid201):
    raw = parabola(1.0, grid201) + 0.1 * (1.0 - grid201.nodes**2) ** 2
    proj = project_boundary_rows(raw, grid201, 1.0)
    assert symmetry_defect(proj) < 1e-12


def assert_within_run_tolerances(values, grid, pressure):
    """The boundary-row checks that run applies to its initial data."""
    res = bc_residuals(values, grid, pressure)
    assert max(abs(res[0]), abs(res[3])) <= VALUE_ROW_TOL
    assert max(abs(res[1]), abs(res[2])) <= CURVATURE_ROW_TOL * max(1.0, pressure)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    pressure=st.floats(0.01, 10.0),
    bump=st.floats(0.0, 10.0),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
)
def test_projection_meets_the_run_tolerances_on_smooth_data(n, pressure, bump, coeffs):
    """Generated domain: n in {9, 201, 801}, P in [0.01, 10], and the
    parabola plus bump * (1 - x^2)^2 plus sum_m c_m sin(m pi (x + 1) / 2),
    m = 1..5, with bump in [0, 10] and each c_m in [-1, 1]: the shapes
    the initial-data families project."""
    grid = make_grid(n)
    x = grid.nodes
    raw = parabola(pressure, grid) + bump * (1.0 - x * x) ** 2
    for m, c in enumerate(coeffs, start=1):
        raw += c * np.sin(m * np.pi * (x + 1.0) / 2.0)
    assert_within_run_tolerances(project_boundary_rows(raw, grid, pressure), grid, pressure)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the constraint rows apply the 1/dx^2 curvature stencil to the "
        "monomials 1, x, .., x^4, which loses about eps n^2 of each entry, so "
        "the correction misses the curvature rows by about that fraction of "
        "the data's own curvature defect: over 200 seeds the worst curvature "
        "row defect is 1.8e-6 at n=201 with noise of scale 10 and 8.2e-6 at "
        "n=801 with noise of scale 0.1, both above CURVATURE_ROW_TOL = 1e-6"
    ),
)
@settings(max_examples=60, deadline=None)
@example(n=201, pressure=1.0, scale=7.0, seed=3)
@given(
    n=st.sampled_from([9, 201, 801]),
    pressure=st.floats(0.01, 10.0),
    scale=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_meets_the_run_tolerances_on_rough_data(n, pressure, scale, seed):
    """Generated domain: n in {9, 201, 801}, P in [0.01, 10], and nodal
    values scale * N(0, 1) with scale in [0, 100]."""
    grid = make_grid(n)
    raw = scale * np.random.default_rng(seed).standard_normal(n)
    assert_within_run_tolerances(project_boundary_rows(raw, grid, pressure), grid, pressure)


def test_projection_is_identity_on_compatible_data(grid201):
    base = parabola(1.0, grid201)
    proj = project_boundary_rows(base, grid201, 1.0)
    assert np.max(np.abs(proj - base)) < 1e-10


def test_steady_family_matches_steady_profile(grid201):
    vals = ic_steady(3.0, grid201)
    np.testing.assert_allclose(
        vals, steady_profile(3.0, grid201), atol=1e-15
    )


def test_poly_family_raises_when_not_positive(grid201):
    with pytest.raises(ValueError, match="not positive"):
        ic_steady_perturbed_poly(8.0, grid201, 0.01)


def test_random_family_raises_when_not_positive(grid201):
    with pytest.raises(ValueError, match="not positive"):
        ic_steady_perturbed_random(1.0, grid201, 10.0, seed=0)


def test_default_amplitudes_keep_data_positive(grid201):
    assert default_poly_amplitude(1.0) == 0.05
    assert default_poly_amplitude(2.0) == 0.05
    assert default_poly_amplitude(4.0) == pytest.approx(1.2)
    for pressure in (0.5, 1.0, 2.0, 4.0):
        vals = ic_steady_perturbed_poly(
            pressure, grid201, default_poly_amplitude(pressure)
        )
        assert vals.min() > 0.0
        assert np.max(np.abs(bc_residuals(vals, grid201, pressure))) < 1e-9
    # 0.3 P stops clearing the parabola depth P/2 - 1 near P = 5; deeper
    # wells need an explicit amplitude and the constructor says so
    with pytest.raises(ValueError, match="not positive"):
        ic_steady_perturbed_poly(8.0, grid201, default_poly_amplitude(8.0))


def test_random_family_is_seeded_and_compatible(grid201):
    a = ic_steady_perturbed_random(1.0, grid201, 0.05, seed=4)
    b = build_initial_condition("steady-perturbed-random", 1.0, grid201, seed=4)
    c = build_initial_condition("steady-perturbed-random", 1.0, grid201, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() > 0.0
    assert np.max(np.abs(bc_residuals(a, grid201, 1.0))) < 1e-9


def test_file_family_roundtrip(tmp_path):
    grid = make_grid(21)
    vals = parabola(1.0, grid)
    path = tmp_path / "ic.json"
    path.write_text(json.dumps({"values": vals.tolist()}))
    back = ic_from_file(path, grid)
    np.testing.assert_allclose(back, vals, atol=1e-15)
    with pytest.raises(ValueError, match="values"):
        ic_from_file(path, make_grid(41))


def test_build_dispatch_and_errors(grid201):
    direct = ic_steady_perturbed_poly(1.0, grid201, 0.1)
    via_spec = build_initial_condition("steady-perturbed-poly:0.1", 1.0, grid201)
    assert np.array_equal(direct, via_spec)
    steady = build_initial_condition("steady", 3.0, grid201)
    assert np.array_equal(steady, ic_steady(3.0, grid201))
    with pytest.raises(ValueError, match="unknown initial-condition family"):
        build_initial_condition("sine-wave", 1.0, grid201)
    with pytest.raises(ValueError, match="needs a path"):
        build_initial_condition("file", 1.0, grid201)
