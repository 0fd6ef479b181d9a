"""Tests for the frozen-coefficient implicit step and its diagnostics."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from neckdown.evolve import VALUE_ROW_TOL, SolverConfig, step_nonlinear
from neckdown.grid import CURVATURE_STENCIL as _BC_LEFT, Profile, h1_norm, make_grid
from neckdown.functionals import energy
from neckdown import linear
from neckdown.initial import build_initial_condition, project_boundary_rows
from neckdown.linear import (
    RESIDUAL_RTOL,
    LinearSolveError,
    assemble_operator,
    Workspace,
    condition_estimate,
    flux_energy_report,
    step_linear,
)
from neckdown.steady import steady_profile
from neckdown.verify import eigenmode_amplitudes, mass_telescoping_defect, mode_shape

MODE_RATE = (np.pi / 2.0) ** 4


def perturbed_state(grid):
    """The P = 1 parabola plus 1e-2 times eigenmode 1."""
    return steady_profile(1.0, grid) + 1e-2 * mode_shape(grid, 1)


def test_constant_mobility_reduces_to_biharmonic_rows(grid201):
    dt = 1e-5
    ab, _ = assemble_operator(np.ones(201), grid201, dt, 1.0)
    scale = dt / grid201.dx**4
    i = 100
    assert ab[0, i + 2] == pytest.approx(scale)
    assert ab[1, i + 1] == pytest.approx(-4.0 * scale)
    assert ab[2, i] == pytest.approx(1.0 + 6.0 * scale)
    assert ab[3, i - 1] == pytest.approx(-4.0 * scale)
    assert ab[4, i - 2] == pytest.approx(scale)


def test_boundary_rows_pin_values_and_curvature(grid201):
    n = grid201.n
    dx = grid201.dx
    ab, rhs = assemble_operator(np.ones(n), grid201, 1e-5, 2.5)
    # value rows are bare identity rows
    assert ab[2, 0] == 1.0 and ab[2, n - 1] == 1.0
    assert ab[1, 1] == 0.0 and ab[3, n - 2] == 0.0
    # curvature rows carry the one-sided second-difference stencil
    left = np.array([ab[3, 0], ab[2, 1], ab[1, 2], ab[0, 3]])
    np.testing.assert_allclose(left, _BC_LEFT / dx**2)
    right = np.array([ab[4, n - 4], ab[3, n - 3], ab[2, n - 2], ab[1, n - 1]])
    np.testing.assert_allclose(right, _BC_LEFT[::-1] / dx**2)
    # rhs targets
    assert rhs[0] == 1.0 and rhs[-1] == 1.0
    assert rhs[1] == 2.5 and rhs[-2] == 2.5


def test_band_matvec_matches_dense(grid201):
    rng = np.random.default_rng(11)
    g = 0.5 + rng.random(grid201.n)
    ab, _ = assemble_operator(g, grid201, 1e-5, 1.0)
    n = grid201.n
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        linear._band_product(ab, x, Workspace(grid201, 1.0)), dense @ x, rtol=1e-13, atol=1e-13
    )


def test_assemble_rejects_bad_inputs(grid201):
    ones = np.ones(grid201.n)
    with pytest.raises(ValueError, match="dt must be positive"):
        assemble_operator(ones, grid201, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive everywhere"):
        bad = ones.copy()
        bad[17] = 0.0
        assemble_operator(bad, grid201, 1e-5, 1.0)
    with pytest.raises(ValueError, match="shape"):
        assemble_operator(np.ones(13), grid201, 1e-5, 1.0)


def test_nan_mobility_is_rejected(grid201):
    g = np.ones(grid201.n)
    g[57] = np.nan
    with pytest.raises(ValueError, match="mobility must be positive"):
        assemble_operator(g, grid201, 1e-5, 1.0)
    h = steady_profile(1.0, grid201)
    with pytest.raises(ValueError, match="mobility must be positive"):
        step_linear(h, grid201, g, 1e-5, 1.0)


def test_infinite_mobility_is_rejected():
    """An infinite mobility passes assemble_operator's g > 0 check; ||A|| and
    the residual are then non-finite, and the gate refuses the step."""
    grid = make_grid(51)
    g = np.ones(grid.n)
    g[25] = np.inf
    with pytest.raises(LinearSolveError, match="backward error nan"):
        step_linear(steady_profile(1.0, grid), grid, g, 1e-5, 1.0)


def test_assembled_arrays_are_not_shared_between_calls(grid201):
    """A call without a workspace fills a fresh one; mutating one call's
    matrix and rhs (step_linear fills the rhs in place) leaves the next call
    intact."""
    g = 0.5 + np.random.default_rng(8).random(grid201.n)
    first_ab, first_rhs = assemble_operator(g, grid201, 1e-5, 1.5)
    matrix, rhs = first_ab.copy(), first_rhs.copy()
    first_ab[:] = np.nan
    first_rhs[:] = np.nan
    again_ab, again_rhs = assemble_operator(g, grid201, 1e-5, 1.5)
    assert again_ab.tobytes() == matrix.tobytes()
    assert again_rhs.tobytes() == rhs.tobytes()

    _, other_rhs = assemble_operator(g, grid201, 1e-5, 3.0)
    assert other_rhs[1] == other_rhs[-2] == 3.0
    assert again_rhs[1] == again_rhs[-2] == 1.5


def test_parabola_is_fixed_point_for_any_mobility(grid201):
    rng = np.random.default_rng(5)
    state = steady_profile(1.5, grid201)
    g = 0.2 + rng.random(grid201.n)
    out = step_linear(state, grid201, g, 1e-3, 1.5)
    assert np.max(np.abs(out.values - state)) < 1e-9


def test_step_enforces_boundary_conditions(grid201):
    rng = np.random.default_rng(3)
    g = 0.5 + rng.random(grid201.n)
    h = perturbed_state(grid201)
    v = step_linear(h, grid201, g, 1e-5, 1.0).values
    dx = grid201.dx
    assert abs(v[0] - 1.0) < 1e-11
    assert abs(v[-1] - 1.0) < 1e-11
    assert abs(_BC_LEFT @ v[:4] / dx**2 - 1.0) < 1e-9
    assert abs(_BC_LEFT[::-1] @ v[-4:] / dx**2 - 1.0) < 1e-9


def test_step_residual_gate(grid201):
    h = perturbed_state(grid201)
    out = step_linear(h, grid201, np.ones(grid201.n), 1e-5, 1.0)
    # rhs: 1 and P = 1 on the boundary rows, h on the interior rows
    assert out.solver_residual <= 1e-9 * max(1.0, np.abs(h[2:-2]).max())
    assert out.backward_error <= RESIDUAL_RTOL
    assert out.backward_error < 1e-12


def test_single_step_mode_decay_factors(grid201):
    """One backward Euler step damps eigenmode k by 1/(1 + z), with
    z = dt (k pi/2)^4."""
    for k, dt, rtol in ((1, 1e-3, 1e-4), (2, 1e-3, 1e-3), (1, 1e-2, 1e-4)):
        a0, a1 = eigenmode_amplitudes(grid201, k, dt, 1)
        expected = 1.0 / (1.0 + dt * k**4 * MODE_RATE)
        assert a1 / a0 == pytest.approx(expected, rel=rtol)


def test_interior_mass_telescopes_to_boundary_fluxes(grid201):
    """Conservative form: interior mass change equals dt times the net flux
    through the outermost interior faces, computed with the same frozen
    mobility the solve used."""
    h = Profile(grid=grid201, values=perturbed_state(grid201), pressure=1.0)
    defect, _ = mass_telescoping_defect(h, np.sqrt(h.values**2 + 1e-4), 1e-5)
    assert defect < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    g_lo=st.floats(1e-4, 3.0),
    g_hi=st.floats(1e-4, 3.0),
    log_dt=st.floats(-7.0, -2.0),
    pressure=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_interior_mass_telescopes_on_generated_steps(n, g_lo, g_hi, log_dt, pressure, seed):
    """Generated domain: n in {9, 201, 801}; mobility uniform on [g_lo, g_hi]
    within [1e-4, 3]; dt = 10**U(-7, -2); P in [0.5, 4]; data 1 + 0.1 N(0, 1)
    per node, projected onto the four boundary rows.

    The defect is dx times the sum of the step's residuals over rows
    2..n-3. The backward-error gate holds each below
    RESIDUAL_RTOL (||A|| ||h1|| + ||b||) in the infinity norm, and
    (n-4) dx = 2 - 6/(n-1), which leaves 6/(n-1) of the bound below for the
    rounding of the defect's own sums."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    g = rng.uniform(min(g_lo, g_hi), max(g_lo, g_hi), n)
    dt = 10.0**log_dt
    values = project_boundary_rows(1.0 + 0.1 * rng.standard_normal(n), grid, pressure)
    h = Profile(grid=grid, values=values, pressure=pressure)
    defect, _ = mass_telescoping_defect(h, g, dt)
    out = step_linear(h.values, grid, g, dt, pressure)
    ab, rhs = assemble_operator(g, grid, dt, pressure)
    rhs[2:-2] = h.values[2:-2]
    a_norm = np.max(np.abs(band_to_dense(ab)).sum(axis=1))
    x_norm = np.max(np.abs(out.values))
    assert defect <= 2.0 * RESIDUAL_RTOL * (a_norm * x_norm + np.max(np.abs(rhs)))


def test_repeated_steps_dissipate_energy_and_contract(grid201):
    rng = np.random.default_rng(3)
    g = 0.5 + rng.random(grid201.n)
    base = steady_profile(1.0, grid201)
    h = perturbed_state(grid201)
    e_prev = energy(h, grid201, 1.0)
    d_prev = h1_norm(h - base, grid201)
    for _ in range(20):
        h = step_linear(h, grid201, g, 1e-4, 1.0).values
        e = energy(h, grid201, 1.0)
        d = h1_norm(h - base, grid201)
        assert e <= e_prev + 1e-14
        assert d <= d_prev * (1.0 + 1e-12)
        e_prev, d_prev = e, d


def flux_report(cur, mobility, prev, mobility_prev, grid, dt, time=0.0):
    """flux_energy_report of the single step from prev to cur: its one row,
    (t, weighted_flux_norm, flux_curvature_norm, identity_residual)."""
    report = flux_energy_report(
        np.stack([prev, cur]),
        np.stack([mobility_prev, mobility]),
        grid,
        dt,
        [time],
    )
    assert report.shape == (1, 4) and report.dtype == np.float64
    return report[0]


def test_flux_report_vanishes_on_steady_state(grid201):
    sp = steady_profile(1.0, grid201)
    ones = np.ones(grid201.n)
    _, weighted_flux_norm, flux_curvature_norm, identity_residual = flux_report(
        sp, ones, sp, ones, grid201, 1e-4
    )
    assert weighted_flux_norm < 1e-8
    assert flux_curvature_norm < 1e-4
    assert abs(identity_residual) < 1e-12


def test_flux_report_norm_decays_for_constant_mobility(grid201):
    ones = np.ones(grid201.n)
    prev = perturbed_state(grid201)
    norms = []
    for k in range(6):
        cur = step_linear(prev, grid201, ones, 1e-4, 1.0).values
        t, weighted_flux_norm, _, _ = flux_report(
            cur, ones, prev, ones, grid201, 1e-4, time=(k + 1) * 1e-4
        )
        assert t == (k + 1) * 1e-4
        norms.append(weighted_flux_norm)
        prev = cur
    assert all(b <= a for a, b in zip(norms, norms[1:]))


def test_flux_report_residual_is_first_order_in_dt(grid201):
    ones = np.ones(grid201.n)
    residuals = []
    for dt in (2e-4, 1e-4, 5e-5):
        h = perturbed_state(grid201)
        r1 = step_linear(h, grid201, ones, dt, 1.0).values
        r2 = step_linear(r1, grid201, ones, dt, 1.0).values
        _, _, _, identity_residual = flux_report(r2, ones, r1, ones, grid201, dt)
        residuals.append(abs(identity_residual))
    assert residuals[0] < 1e-6
    for a, b in zip(residuals, residuals[1:]):
        assert 1.8 < a / b < 2.2


def test_condition_estimate_is_finite_and_grows_with_dt(grid201):
    ones = np.ones(grid201.n)
    c_small = condition_estimate(assemble_operator(ones, grid201, 1e-5, 1.0)[0])
    c_large = condition_estimate(assemble_operator(ones, grid201, 1e-3, 1.0)[0])
    assert 1.0 < c_small < c_large < 1e12


def reduced_solve(ab, rhs):
    """Solve of the band system whose rows 0 and n-1 pin the values to 1:
    gbsv on rows and columns 1..n-2, with A[i, 0] and A[i, n-1] moved to
    the rhs as dense-index products."""
    dense = band_to_dense(ab)
    x = np.ones(ab.shape[1])
    b = rhs[1:-1] - dense[1:-1, 0] * x[0] - dense[1:-1, -1] * x[-1]
    x[1:-1] = sla.solve_banded((2, 2), ab[:, 1:-1], b)
    return x


def band_to_dense(ab):
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]
    return dense


@settings(max_examples=50, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    g_lo=st.floats(1e-4, 3.0),
    g_hi=st.floats(1e-4, 3.0),
    log_dt=st.floats(-7.0, -2.0),
    pressure=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_solve_banded_bit_for_bit(n, g_lo, g_hi, log_dt, pressure, seed):
    """The step gives exactly what LAPACK gbsv, through solve_banded, gives
    on the system reduced by the two known boundary values."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    g = rng.uniform(min(g_lo, g_hi), max(g_lo, g_hi), n)
    dt = 10.0**log_dt
    h = 1.0 + 0.1 * rng.standard_normal(n)
    out = step_linear(h, grid, g, dt, pressure)
    ab, rhs = assemble_operator(g, grid, dt, pressure)
    rhs[2:-2] = h[2:-2]
    expected = reduced_solve(ab, rhs)
    assert out.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [201, 401])
@pytest.mark.parametrize("dt", [1e-5, 1e-3])
def test_condition_estimate_matches_dense_condition_number(n, dt):
    """kappa_1 of the block of rows and columns 1..n-2, the block the step
    factors once the two value rows are eliminated."""
    grid = make_grid(n)
    g = 0.5 + np.random.default_rng(n).random(n)
    ab, _ = assemble_operator(g, grid, dt, 1.0)
    dense = np.linalg.cond(band_to_dense(ab)[1:-1, 1:-1], 1)
    assert condition_estimate(ab) == pytest.approx(dense, rel=0.05)


def test_condition_estimate_of_singular_band_is_inf():
    assert condition_estimate(np.zeros((5, 201))) == np.inf


def value_row_defects(steps):
    """|h(-1) - 1| and h(1) - 1 over successive frozen-mobility steps at
    P = 1.5, n = 801, dt = 1e-4 with g = sqrt(h^2 + 1e-4) from each new state."""
    grid = make_grid(801)
    values = build_initial_condition("steady-perturbed-random:0.02", 1.5, grid, seed=53)
    h = values
    left, right = [], []
    for _ in range(steps):
        h = step_linear(h, grid, np.sqrt(h**2 + 1e-4), 1e-4, 1.5).values
        left.append(abs(h[0] - 1.0))
        right.append(h[-1] - 1.0)
    return np.array(left), np.array(right)


def test_right_value_row_is_exact():
    """The known values never enter the LU, so h(1) = 1 to the bit."""
    _, right = value_row_defects(17)
    assert np.all(right == 0.0)


def test_left_value_row_stays_within_restore_tolerance():
    """h(-1) = 1 to the bit as well.  Were the value row in the LU, partial
    pivoting in column 0 could pick the curvature row or the first interior
    row over it, and h(-1) - 1 would reach 1.15e-9 after 17 steps, above
    VALUE_ROW_TOL."""
    left, _ = value_row_defects(17)
    assert np.max(left) <= VALUE_ROW_TOL
    assert np.all(left == 0.0)


def test_gate_rejects_non_finite_solution(grid201, monkeypatch):
    real = linear.dgbsv

    def nan_solve(*args, **kwargs):
        lu, ipiv, x, info = real(*args, **kwargs)
        x[7] = np.nan
        x[9] = np.inf
        return lu, ipiv, x, info

    monkeypatch.setattr(linear, "dgbsv", nan_solve)
    with pytest.raises(LinearSolveError, match="backward error") as exc:
        step_linear(perturbed_state(grid201), grid201, np.ones(grid201.n), 1e-5, 1.0)
    assert "condition estimate" in str(exc.value)


def test_gate_rejects_perturbed_solution(grid201, monkeypatch):
    real = linear.dgbsv

    def off_solve(*args, **kwargs):
        lu, ipiv, x, info = real(*args, **kwargs)
        x += 1e-3
        return lu, ipiv, x, info

    monkeypatch.setattr(linear, "dgbsv", off_solve)
    with pytest.raises(LinearSolveError, match=f"exceeds {RESIDUAL_RTOL:.0e}"):
        step_linear(perturbed_state(grid201), grid201, np.ones(grid201.n), 1e-5, 1.0)


def test_rejected_solve_estimates_condition_from_its_own_lu(grid201, monkeypatch):
    """A rejected solve takes kappa_1 from gbcon on the LU that gbsv
    returned, with no second factorization, and reports what
    condition_estimate gives for the same band."""
    ones = np.ones(grid201.n)
    expected = condition_estimate(assemble_operator(ones, grid201, 1e-5, 1.0)[0])
    real_solve, real_gbcon = linear.dgbsv, linear.dgbcon
    solved, estimated = [], []

    def off_solve(*args, **kwargs):
        lu, ipiv, x, info = real_solve(*args, **kwargs)
        solved.append(lu)
        x += 1e-3
        return lu, ipiv, x, info

    def recording_gbcon(kl, ku, lu, ipiv, anorm):
        estimated.append(lu)
        return real_gbcon(kl, ku, lu, ipiv, anorm)

    monkeypatch.setattr(linear, "dgbsv", off_solve)
    monkeypatch.setattr(linear, "dgbcon", recording_gbcon)
    with pytest.raises(LinearSolveError, match="condition estimate") as exc:
        step_linear(perturbed_state(grid201), grid201, ones, 1e-5, 1.0)
    assert len(solved) == 1 and len(estimated) == 1
    assert estimated[0] is solved[0]
    assert str(exc.value).endswith(f"condition estimate {expected:.3e})")


def test_gate_rejects_singular_factorization(grid201, monkeypatch):
    real = linear.dgbsv

    def zero_pivot(*args, **kwargs):
        lu, ipiv, x, _ = real(*args, **kwargs)
        return lu, ipiv, x, 5

    monkeypatch.setattr(linear, "dgbsv", zero_pivot)
    with pytest.raises(LinearSolveError, match="singular matrix, zero pivot in column 5"):
        step_linear(perturbed_state(grid201), grid201, np.ones(grid201.n), 1e-5, 1.0)


def test_solve_writes_the_solution_into_the_returned_values(grid201, monkeypatch):
    """gbsv solves in place into the rhs slice of the returned values, with
    the bits of a solve into a fresh array."""
    real = linear.dgbsv
    calls = []

    def recording_solve(kl, ku, ab, b, **kwargs):
        fresh = real(kl, ku, ab.copy(order="F"), b.copy())[2]
        lu, ipiv, x, info = real(kl, ku, ab, b, **kwargs)
        calls.append((x, fresh))
        return lu, ipiv, x, info

    monkeypatch.setattr(linear, "dgbsv", recording_solve)
    result = step_linear(perturbed_state(grid201), grid201, np.ones(grid201.n), 1e-5, 1.0)
    [(x, fresh)] = calls
    assert np.shares_memory(x, result.values)
    assert result.values[1:-1].tobytes() == fresh.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    g_lo=st.floats(1e-4, 3.0),
    g_hi=st.floats(1e-4, 3.0),
    log_dt=st.floats(-7.0, -2.0),
    pressure=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_error_uses_dense_infinity_norm(n, g_lo, g_hi, log_dt, pressure, seed):
    """backward_error = ||A x - b|| / (||A|| ||x|| + ||b||) in the infinity
    norm, with ||A|| the largest row sum of the dense |A|."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    g = rng.uniform(min(g_lo, g_hi), max(g_lo, g_hi), n)
    dt = 10.0**log_dt
    h = 1.0 + 0.1 * rng.standard_normal(n)
    out = step_linear(h, grid, g, dt, pressure)
    ab, rhs = assemble_operator(g, grid, dt, pressure)
    rhs[2:-2] = h[2:-2]
    a_norm = np.max(np.abs(band_to_dense(ab)).sum(axis=1))
    x_norm = np.max(np.abs(out.values))
    b_norm = np.max(np.abs(rhs))
    expected = out.solver_residual / (a_norm * x_norm + b_norm)
    assert out.backward_error == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([9, 51, 201, 801]),
    g_lo=st.floats(1e-4, 3.0),
    g_hi=st.floats(1e-4, 3.0),
    log_g_scale=st.floats(-3.0, 1.0),
    log_dt=st.floats(-9.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_interior_norm_closed_form_matches_dense_row_sums(n, g_lo, g_hi, log_g_scale, log_dt,
                                                          seed):
    """For g > 0 and dt > 0 the largest |A| row sum of the interior rows is
    1 + (8/3)(max a_ii - 1), within 4 ulp of the dense sum."""
    grid = make_grid(n)
    g_scale = 10.0**log_g_scale
    g = np.random.default_rng(seed).uniform(min(g_lo, g_hi), max(g_lo, g_hi), n) * g_scale
    ab, _ = assemble_operator(g, grid, 10.0**log_dt, 1.0)
    dense = float(np.max(np.abs(band_to_dense(ab)).sum(axis=1)[2:-2]))
    closed = 1.0 + 8.0 / 3.0 * (float(ab[2, 2:-2].max()) - 1.0)
    assert abs(closed - dense) <= 4.0 * np.spacing(dense)


def _reference_band_product(ab, x):
    """A x as whole-array products added row by row."""
    out = ab[2] * x
    out[:-1] += ab[1, 1:] * x[1:]
    out[:-2] += ab[0, 2:] * x[2:]
    out[1:] += ab[3, :-1] * x[:-1]
    out[2:] += ab[4, :-2] * x[:-2]
    return out


def _reference_assembly(g, grid, dt, pressure):
    """(I + dt L_g) and its rhs from whole-array expressions, the reference
    for the in-place assembly."""
    n, dx = grid.n, grid.dx
    g_face = 0.5 * (g[:-1] + g[1:])
    gp = g_face[2:-1]
    gm = g_face[1:-2]
    scale = dt / dx**4
    ab = np.zeros((5, n))
    ab[0, 4:] = scale * gp
    ab[1, 3:-1] = scale * (-3.0 * gp - gm)
    ab[2, 2:-2] = 1.0 + scale * 3.0 * (gp + gm)
    ab[3, 1:-3] = scale * (-gp - 3.0 * gm)
    ab[4, :-4] = scale * gm
    ab[2, 0] = 1.0
    ab[2, n - 1] = 1.0
    w = _BC_LEFT / dx**2
    ab[3, 0], ab[2, 1], ab[1, 2], ab[0, 3] = w
    ab[4, n - 4], ab[3, n - 3], ab[2, n - 2], ab[1, n - 1] = w[::-1]
    rhs = np.zeros(n)
    rhs[0] = rhs[n - 1] = 1.0
    rhs[1] = rhs[n - 2] = pressure
    return ab, rhs


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    g_lo=st.floats(1e-4, 3.0),
    g_hi=st.floats(1e-4, 3.0),
    log_dt=st.floats(-7.0, -2.0),
    pressure=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_whole_array_formulation_bit_for_bit(n, g_lo, g_hi, log_dt, pressure, seed):
    """The in-place assembly and the gate's norms give the bits of the
    whole-array expressions they replaced, in every output; the solution's
    reference is the reduced solve, and ||A|| the interior rows' closed
    form on the reference diagonal beside the boundary rows' sums.  A workspace that already served a
    solve with another mobility and dt gives the same bytes as a fresh
    one."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    g = rng.uniform(min(g_lo, g_hi), max(g_lo, g_hi), n)
    dt = 10.0**log_dt
    h = 1.0 + 0.1 * rng.standard_normal(n)

    ab, rhs = _reference_assembly(g, grid, dt, pressure)
    assembled_ab, assembled_rhs = assemble_operator(g, grid, dt, pressure)
    assert assembled_ab.tobytes() == ab.tobytes()
    assert assembled_rhs.tobytes() == rhs.tobytes()

    rhs[2:-2] = h[2:-2]
    x = reduced_solve(ab, rhs)
    # ||A||: the interior rows' closed form on the reference diagonal, whose
    # bytes the assertion above ties to the in-place one, then the
    # boundary rows' summed |A|
    boundary = _reference_band_product(np.abs(ab), np.ones(n))[[0, 1, -2, -1]]
    a_norm = max(1.0 + 8.0 / 3.0 * (float(ab[2, 2:-2].max()) - 1.0), float(boundary.max()))
    residual = float(np.max(np.abs(_reference_band_product(ab, x) - rhs)))
    rhs_norm = float(np.max(np.abs(rhs)))
    x_norm = float(np.max(np.abs(x)))

    out = step_linear(h, grid, g, dt, pressure)
    assert out.values.tobytes() == x.tobytes()
    assert out.solver_residual == residual
    assert out.backward_error == residual / (a_norm * x_norm + rhs_norm)

    workspace = Workspace(grid, pressure)
    step_linear(1.0 + 0.1 * rng.standard_normal(n), grid, g[::-1] + 0.5, 2.0 * dt,
                pressure, workspace)
    reused = step_linear(h, grid, g, dt, pressure, workspace)
    assert reused.values.tobytes() == out.values.tobytes()
    assert reused.solver_residual.hex() == out.solver_residual.hex()
    assert reused.backward_error.hex() == out.backward_error.hex()


def test_workspace_serves_only_its_node_count_and_pressure(grid201):
    """A workspace holds the boundary rows of one grid and pressure; any
    other raises before a buffer is written."""
    workspace = Workspace(grid201, 1.5)
    h = steady_profile(1.5, grid201)
    g = np.ones(grid201.n)
    band = workspace.band.copy()
    for grid, pressure in ((grid201, 1.0), (make_grid(51), 1.5), (make_grid(203), 1.5)):
        with pytest.raises(ValueError, match="workspace for n=201, P=1.5 cannot serve"):
            assemble_operator(np.ones(grid.n), grid, 1e-5, pressure, workspace)
        with pytest.raises(ValueError, match="cannot serve"):
            step_linear(steady_profile(pressure, grid), grid, np.ones(grid.n), 1e-5, pressure,
                        workspace=workspace)
        cfg = SolverConfig(pressure=pressure, n=grid.n, epsilon=1e-2)
        with pytest.raises(ValueError, match="cannot serve"):
            step_nonlinear(steady_profile(pressure, grid), grid, cfg, workspace=workspace)
    assert workspace.band.tobytes() == band.tobytes()
    assert step_linear(h, grid201, g, 1e-5, 1.5, workspace=workspace).values.tobytes() == (
        step_linear(h, grid201, g, 1e-5, 1.5).values.tobytes()
    )
