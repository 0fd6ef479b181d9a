import numpy as np
import pytest
import scipy.integrate

from neckdown import (
    Profile,
    SolverConfig,
    SpaceTimeBump,
    dissipation,
    energy,
    entropy,
    entropy_density,
    flux,
    flux_identity_residual,
    make_grid,
    run,
    steady_profile,
    weak_residual,
)
from neckdown.initial import ic_steady, ic_steady_perturbed_poly
from neckdown.verify import entropy_under_bumps


def test_energy_constant_profile(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    assert energy(p, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_energy_steady_profile(grid201):
    state = steady_profile(1.0, grid201)
    assert energy(state.profile, 1.0) == pytest.approx(5.0 / 3.0, abs=1e-4)


def test_energy_sine_gradient_term(grid201):
    # 1/2 * (0.1 pi)^2 * integral cos^2(pi x) = 0.04935 at P = 0
    p = Profile(
        grid=grid201, values=1.0 + 0.1 * np.sin(np.pi * grid201.nodes), pressure=1.0
    )
    expected = 0.5 * (0.1 * np.pi) ** 2
    assert energy(p, 0.0) == pytest.approx(expected, abs=1e-4)


def test_dissipation_vanishes_on_quadratics(grid201):
    p = Profile(grid=grid201, values=0.3 * grid201.nodes**2 + 0.5, pressure=1.0)
    assert dissipation(p.values, grid201) < 1e-12
    state = steady_profile(1.0, grid201)
    assert dissipation(state.profile.values, grid201) < 1e-12


def test_dissipation_sine_oracle(grid401):
    p = Profile(
        grid=grid401, values=1.0 + 0.1 * np.sin(np.pi * grid401.nodes), pressure=1.0
    )
    expected = 0.01 * np.pi**6
    assert dissipation(p.values, grid401) == pytest.approx(expected, rel=0.01)


def test_flux_constant_mobility_cubic(grid201):
    p = Profile(grid=grid201, values=grid201.nodes**3, pressure=1.0)
    w = flux(p, np.ones(201))
    assert np.max(np.abs(w - 6.0)) < 1e-7


def test_flux_zero_on_steady(grid201):
    state = steady_profile(1.0, grid201)
    g = np.sqrt(state.profile.values**2 + 1e-6)
    assert np.max(np.abs(flux(state.profile, g))) < 1e-9


def test_flux_scaled_sine(grid201):
    p = Profile(grid=grid201, values=np.sin(np.pi * grid201.nodes), pressure=1.0)
    w = flux(p, 2.0 * np.ones(201))
    exact = -2.0 * np.pi**3 * np.cos(np.pi * grid201.nodes)
    assert np.max(np.abs(w - exact)) < 2e-2 * np.pi**3


def test_flux_rejects_bad_mobility(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    with pytest.raises(ValueError):
        flux(p, np.ones(200))
    g = np.ones(201)
    g[7] = 0.0
    with pytest.raises(ValueError):
        flux(p, g)


def test_flux_rejects_nan_mobility(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    g = np.ones(201)
    g[7] = np.nan
    with pytest.raises(ValueError, match="mobility must be positive"):
        flux(p, g)


def test_flux_identity_vanishes_on_quadratics():
    # Coarse grid: differentiating twice amplifies roundoff like eps/dx^4,
    # so the identity is only clean far from that floor.
    grid = make_grid(21)
    p = Profile(grid=grid, values=0.4 * grid.nodes**2 + 0.6, pressure=1.0)
    assert flux_identity_residual(p) < 1e-10
    state = steady_profile(1.0, grid)
    assert flux_identity_residual(state.profile) < 1e-10


def test_entropy_zero_at_cap(grid201):
    p = Profile(grid=grid201, values=np.full(201, 1.3), pressure=1.0)
    assert entropy(p, 1.3, 1e-2) == pytest.approx(0.0, abs=1e-12)


def test_entropy_nonnegative(grid201):
    rng = np.random.default_rng(11)
    for _ in range(5):
        vals = rng.uniform(-0.5, 1.0, size=201)
        p = Profile(grid=grid201, values=vals, pressure=1.0)
        assert entropy(p, 1.0, 1e-3) >= 0.0


def test_entropy_against_nested_quadrature(grid201):
    # F(s) = -int_s^A f(r) dr with f(r) = asinh(r/eps) - asinh(A/eps)
    A, eps = 1.0, 0.1
    f = lambda r: np.arcsinh(r / eps) - np.arcsinh(A / eps)
    F_half = -scipy.integrate.quad(f, 0.5, A)[0]
    closed = entropy_density(np.array([0.5]), A, eps)[0]
    assert closed == pytest.approx(F_half, abs=1e-10)

    p = Profile(grid=grid201, values=np.full(201, 0.5), pressure=1.0)
    assert entropy(p, A, eps) == pytest.approx(2.0 * F_half, abs=1e-6)


def test_entropy_density_negative_argument_matches_quadrature():
    A, eps = 1.0, 1e-3
    f = lambda r: np.arcsinh(r / eps) - np.arcsinh(A / eps)
    F_neg = -scipy.integrate.quad(f, -0.1, A)[0]
    closed = entropy_density(np.array([-0.1]), A, eps)[0]
    assert closed == pytest.approx(F_neg, abs=1e-8)


def test_entropy_nonincreasing_in_nodal_values(grid201):
    p = Profile(grid=grid201, values=0.4 + 0.3 * np.cos(np.pi * grid201.nodes), pressure=1.0)
    base, shifted = entropy_under_bumps(p, 1.0, 1e-2, (0, 50, 100, 150, 200))
    assert np.all(shifted < base)


def test_entropy_rejects_bad_arguments(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    with pytest.raises(ValueError):
        entropy(p, 0.5, 1e-2)  # cap below max value
    with pytest.raises(ValueError):
        entropy(p, 2.0, 0.0)
    with pytest.raises(ValueError):
        entropy(p, 2.0, -1e-3)


def _bump_numbers(phi, x, t, dh=1e-5):
    val = phi.value(x, t)
    dt_n = (phi.value(x, t + dh) - phi.value(x, t - dh)) / (2 * dh)
    dxx_n = (phi.value(x + dh, t) - 2 * val + phi.value(x - dh, t)) / dh**2
    return dt_n, dxx_n


def test_bump_derivatives_match_finite_differences():
    phi = SpaceTimeBump(
        x_center=0.1, x_radius=0.5, t_center=0.3, t_radius=0.2, amplitude=1.7
    )
    for x, t in ((0.1, 0.3), (0.3, 0.25), (-0.2, 0.4)):
        dt_n, dxx_n = _bump_numbers(phi, x, t)
        assert phi.dt(x, t) == pytest.approx(dt_n, rel=1e-5, abs=1e-7)
        assert phi.dxx(x, t) == pytest.approx(dxx_n, rel=1e-4, abs=1e-5)


def test_bump_vanishes_outside_support():
    phi = SpaceTimeBump(
        x_center=0.0, x_radius=0.5, t_center=0.5, t_radius=0.1, amplitude=1.0
    )
    assert phi.value(0.6, 0.5) == 0.0
    assert phi.value(0.0, 0.75) == 0.0
    assert phi.dt(0.9, 0.5) == 0.0
    assert phi.dxx(0.0, 0.2) == 0.0


def test_weak_residual_zero_test_function(grid201):
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.03, epsilon=1e-2, output_every=5
    )
    traj = run(cfg, h0)
    phi = SpaceTimeBump(
        x_center=0.0, x_radius=0.5, t_center=0.015, t_radius=0.01, amplitude=0.0
    )
    assert weak_residual(traj, phi) == 0.0


def test_weak_residual_steady_is_quadrature_error(grid201):
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=5
    )
    traj = run(cfg, h0)
    phi = SpaceTimeBump(
        x_center=0.2, x_radius=0.5, t_center=0.025, t_radius=0.02, amplitude=1.0
    )
    assert abs(weak_residual(traj, phi)) < 1e-5


def test_weak_residual_rejects_bad_input(grid201):
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=100
    )
    traj = run(cfg, h0)  # start + final snapshot only
    inside = SpaceTimeBump(
        x_center=0.0, x_radius=0.5, t_center=0.025, t_radius=0.01, amplitude=1.0
    )
    with pytest.raises(ValueError):
        weak_residual(traj, inside)

    cfg_fine = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=5
    )
    traj_fine = run(cfg_fine, h0)
    wide = SpaceTimeBump(
        x_center=0.8, x_radius=0.5, t_center=0.025, t_radius=0.01, amplitude=1.0
    )
    with pytest.raises(ValueError):
        weak_residual(traj_fine, wide)
    late = SpaceTimeBump(
        x_center=0.0, x_radius=0.5, t_center=0.049, t_radius=0.01, amplitude=1.0
    )
    with pytest.raises(ValueError):
        weak_residual(traj_fine, late)


def test_weak_residual_refines_under_space_time_refinement():
    # the trajectory error is first order in dt, the quadratures second
    # order; together a (dx, dt, snapshot spacing) halving must shrink the
    # residual by 3 or better
    vals = []
    for n, dt in ((201, 2e-4), (401, 1e-4)):
        g = make_grid(n)
        h0 = Profile(
            grid=g, values=ic_steady_perturbed_poly(1.0, g, 0.05), pressure=1.0
        )
        cfg = SolverConfig(
            pressure=1.0, n=n, dt=dt, t_final=0.25, epsilon=1e-2, output_every=25
        )
        traj = run(cfg, h0)
        phi = SpaceTimeBump(
            x_center=0.0, x_radius=0.8, t_center=0.125, t_radius=0.1, amplitude=1.0
        )
        vals.append(weak_residual(traj, phi))
    assert abs(vals[0]) / abs(vals[1]) >= 3.0
