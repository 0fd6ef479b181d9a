import numpy as np
import pytest

from neckdown import (
    Profile,
    contact_point,
    energy,
    make_grid,
    min_value,
    parabola,
    steady_energy,
    steady_profile,
)
from neckdown.grid import derivative
from neckdown.initial import bc_residuals
from neckdown.verify import symmetry_defect


def test_contact_point_formulas():
    assert contact_point(8.0) == pytest.approx(0.5, abs=1e-14)
    assert contact_point(4.5) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert contact_point(2.0) == 0.0
    assert contact_point(1.0) == 0.0


def test_contact_point_rejects_nonpositive_pressure():
    with pytest.raises(ValueError, match="P>0"):
        contact_point(0.0)
    with pytest.raises(ValueError, match="P>0"):
        contact_point(-3.0)


def test_steady_energy_closed_forms():
    assert steady_energy(1.0) == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert steady_energy(8.0) == pytest.approx(16.0 / 3.0, abs=1e-14)
    # both branch formulas meet at P = 2
    assert steady_energy(2.0) == pytest.approx(8.0 / 3.0, abs=1e-14)
    assert (4.0 * np.sqrt(2.0) / 3.0) * np.sqrt(2.0) == pytest.approx(8.0 / 3.0)


def test_steady_energy_matches_quadrature():
    g = make_grid(401)
    for P in (0.5, 1.0, 2.0, 4.5, 8.0):
        e_num = energy(steady_profile(P, g), g, P)
        assert e_num == pytest.approx(steady_energy(P), abs=5e-4)


def test_steady_profile_point_values():
    g = make_grid(201)
    p1 = steady_profile(1.0, g)
    assert p1[100] == pytest.approx(0.5, abs=1e-15)     # x = 0
    p2 = steady_profile(2.0, g)
    assert p2[100] == pytest.approx(0.0, abs=1e-15)     # touch-down at origin
    p8 = steady_profile(8.0, g)
    x = g.nodes
    i = np.searchsorted(x, 0.75)
    assert x[i] == 0.75
    assert p8[i] == pytest.approx(0.25, abs=1e-14)


def test_steady_profile_boundary_rows():
    g = make_grid(201)
    for P in (1.0, 3.0, 8.0):
        res = bc_residuals(steady_profile(P, g), g, P)
        assert abs(res[0]) < 1e-14 and abs(res[3]) < 1e-14
        # discrete curvature rows agree with P within O(dx^2)
        assert abs(res[1]) < 1e-8 * max(1.0, P)
        assert abs(res[2]) < 1e-8 * max(1.0, P)


def test_steady_profile_dead_zone_and_symmetry():
    g = make_grid(201)
    vals = steady_profile(8.0, g)
    x = g.nodes
    inner = np.abs(x) <= contact_point(8.0) - g.dx
    assert np.all(vals[inner] == 0.0)
    assert np.all(vals >= 0.0)
    assert symmetry_defect(vals) == 0.0


def test_steady_profile_min_leftmost_for_flat_zone():
    g = make_grid(201)
    state = Profile(grid=g, values=steady_profile(8.0, g), pressure=8.0)
    x_m, h_m = min_value(state)
    assert h_m == 0.0
    assert x_m == -0.5


def test_steady_profile_rejects_nonpositive_pressure():
    g = make_grid(201)
    with pytest.raises(ValueError, match="P>0"):
        steady_profile(-1.0, g)


@pytest.mark.parametrize("pressure", [float("nan"), float("inf"), 0.0, -1.0])
def test_steady_functions_reject_a_pressure_that_is_not_finite_and_positive(pressure):
    g = make_grid(21)
    for call in (lambda: contact_point(pressure), lambda: steady_profile(pressure, g),
                 lambda: steady_energy(pressure)):
        with pytest.raises(ValueError, match="P>0"):
            call()


def test_parabola_is_steady_branch_below_two():
    g = make_grid(201)
    assert np.allclose(
        parabola(1.5, g), steady_profile(1.5, g), atol=1e-15
    )


def test_two_arc_profile_curvature_is_pressure_off_contact():
    g = make_grid(201)
    P = 4.5
    d2 = derivative(steady_profile(P, g), g.dx, 2)
    outer = np.abs(g.nodes) >= contact_point(P) + 3 * g.dx
    assert np.max(np.abs(d2[outer] - P)) < 1e-6
