import numpy as np
import pytest
import scipy.integrate

from neckdown import (
    Profile,
    SolverConfig,
    dissipation,
    energy,
    make_grid,
    run,
    steady_profile,
)
from neckdown.grid import derivative, quadrature
from neckdown.initial import ic_steady, ic_steady_perturbed_poly
from neckdown.verify import (
    _bump_rates,
    entropy,
    entropy_density,
    entropy_under_bumps,
    flux_identity_residual,
    weak_residual,
    weak_residuals,
)


def test_energy_constant_profile(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    assert energy(p.values, grid201, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_energy_steady_profile(grid201):
    assert energy(steady_profile(1.0, grid201), grid201, 1.0) == pytest.approx(5.0 / 3.0, abs=1e-4)


def test_energy_sine_gradient_term(grid201):
    # 1/2 * (0.1 pi)^2 * integral cos^2(pi x) = 0.04935 at P = 0
    p = Profile(
        grid=grid201, values=1.0 + 0.1 * np.sin(np.pi * grid201.nodes), pressure=1.0
    )
    expected = 0.5 * (0.1 * np.pi) ** 2
    assert energy(p.values, grid201, 0.0) == pytest.approx(expected, abs=1e-4)


def test_dissipation_vanishes_on_quadratics(grid201):
    p = Profile(grid=grid201, values=0.3 * grid201.nodes**2 + 0.5, pressure=1.0)
    assert dissipation(p.values, grid201) < 1e-12
    assert dissipation(steady_profile(1.0, grid201), grid201) < 1e-12


def test_dissipation_sine_oracle(grid401):
    p = Profile(
        grid=grid401, values=1.0 + 0.1 * np.sin(np.pi * grid401.nodes), pressure=1.0
    )
    expected = 0.01 * np.pi**6
    assert dissipation(p.values, grid401) == pytest.approx(expected, rel=0.01)


def test_flux_identity_vanishes_on_quadratics():
    # Coarse grid: differentiating twice amplifies roundoff like eps/dx^4,
    # so the identity is only clean far from that floor.
    grid = make_grid(21)
    p = Profile(grid=grid, values=0.4 * grid.nodes**2 + 0.6, pressure=1.0)
    assert flux_identity_residual(p) < 1e-10
    state = Profile(grid=grid, values=steady_profile(1.0, grid), pressure=1.0)
    assert flux_identity_residual(state) < 1e-10


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
    with pytest.raises(ValueError, match="eps must be finite"):
        entropy(p, 2.0, np.nan)
    with pytest.raises(ValueError, match="anchor nan is not finite"):
        entropy(p, np.nan, 1e-2)


def _mollifier(x, t, centre, radii):
    # phi(x, t) = b(sx) b(st) with b(s) = exp(-1/(1 - s^2)) inside |s| < 1
    def b(s):
        return np.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

    return b((x - centre[0]) / radii[0]) * b((t - centre[1]) / radii[1])


def test_bump_derivatives_match_finite_differences():
    centre, radii, dh = (0.1, 0.3), (0.5, 0.2), 1e-5
    for x, t in ((0.1, 0.3), (0.3, 0.25), (-0.2, 0.4)):
        val = _mollifier(x, t, centre, radii)
        dt_n = (_mollifier(x, t + dh, centre, radii) - _mollifier(x, t - dh, centre, radii)) / (2 * dh)
        dxx_n = (
            _mollifier(x + dh, t, centre, radii) - 2 * val + _mollifier(x - dh, t, centre, radii)
        ) / dh**2
        phi_t, phi_xx = _bump_rates(np.array([x]), t, centre, radii)
        assert phi_t[0] == pytest.approx(dt_n, rel=1e-5, abs=1e-7)
        assert phi_xx[0] == pytest.approx(dxx_n, rel=1e-4, abs=1e-5)


def test_bump_vanishes_outside_support():
    centre, radii = (0.0, 0.5), (0.5, 0.1)
    phi_t, phi_xx = _bump_rates(np.array([0.6, 0.9, -0.5]), 0.5, centre, radii)
    assert np.all(phi_t == 0.0) and np.all(phi_xx == 0.0)
    phi_t, phi_xx = _bump_rates(np.array([0.0, 0.1]), 0.75, centre, radii)
    assert np.all(phi_t == 0.0) and np.all(phi_xx == 0.0)
    phi_t, phi_xx = _bump_rates(np.array([0.0]), 0.6, centre, radii)
    assert phi_t[0] == 0.0 and phi_xx[0] == 0.0


def test_weak_residual_zero_test_function(grid201):
    # snapshots every 5 ms; the bump's time support (0.0155, 0.0195) holds
    # none of them, so it is zero wherever the residual samples it
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.03, epsilon=1e-2, output_every=5
    )
    traj = run(cfg, h0)
    assert weak_residual(traj, (0.0, 0.0175), (0.5, 0.002)) == 0.0


def test_weak_residual_steady_is_quadrature_error(grid201):
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=5
    )
    traj = run(cfg, h0)
    assert abs(weak_residual(traj, (0.2, 0.025), (0.5, 0.02))) < 1e-5


def test_weak_residual_matches_a_loop_over_snapshots(grid201):
    """The residual takes its derivatives, test function and quadratures on
    the snapshot stack; it must give the bits of a loop over the snapshots,
    one 1-D call each."""
    h0 = Profile(grid=grid201, values=ic_steady_perturbed_poly(1.0, grid201, 0.1), pressure=1.0)
    cfg = SolverConfig(pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2,
                       output_every=5)
    traj = run(cfg, h0)
    centre, radii, dx = (0.2, 0.025), (0.5, 0.02), grid201.dx
    integrand = []
    for t, h in zip(traj.times, traj.snapshots):
        d1, d2 = derivative(h, dx, 1), derivative(h, dx, 2)
        phi_t, phi_xx = _bump_rates(grid201.nodes, t, centre, radii)
        integrand.append(quadrature(h * phi_t, grid201)
                         - quadrature((h * d2 - 0.5 * d1 * d1) * phi_xx, grid201))
    want = float(np.trapezoid(integrand, traj.times))
    assert weak_residual(traj, centre, radii) == want != 0.0


def test_weak_residual_rejects_bad_input(grid201):
    h0 = Profile(grid=grid201, values=ic_steady(1.0, grid201), pressure=1.0)
    cfg = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=100
    )
    traj = run(cfg, h0)  # start + final snapshot only
    with pytest.raises(ValueError, match="at least 3 snapshots"):
        weak_residual(traj, (0.0, 0.025), (0.5, 0.01))

    cfg_fine = SolverConfig(
        pressure=1.0, n=201, dt=1e-3, t_final=0.05, epsilon=1e-2, output_every=5
    )
    traj_fine = run(cfg_fine, h0)
    with pytest.raises(ValueError, match="spatial domain"):
        weak_residual(traj_fine, (0.8, 0.025), (0.5, 0.01))
    with pytest.raises(ValueError, match="time window"):
        weak_residual(traj_fine, (0.0, 0.049), (0.5, 0.01))


def test_weak_residual_refines_under_space_time_refinement():
    # the trajectory error is first order in dt, the quadratures second
    # order; together a (dx, dt, snapshot spacing) halving must shrink the
    # residual by 3 or better
    vals = weak_residuals(((201, 2e-4), (401, 1e-4)))
    assert abs(vals[0]) / abs(vals[1]) >= 3.0
