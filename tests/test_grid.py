import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from neckdown import Profile, dissipation, energy, make_grid, min_value, quadrature
from neckdown.grid import STENCILS, _operator, derivative, h1_norm


def test_make_grid_small():
    g = make_grid(9)
    assert g.dx == 0.25
    assert g.nodes[4] == 0.0
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0


def test_make_grid_standard():
    g = make_grid(201)
    assert g.dx == pytest.approx(0.01, abs=0.0)
    assert g.dx * (g.n - 1) == pytest.approx(2.0, rel=1e-15)


def test_make_grid_rejects_bad_counts():
    with pytest.raises(ValueError):
        make_grid(8)
    with pytest.raises(ValueError):
        make_grid(7)
    with pytest.raises(ValueError):
        make_grid(200)


def test_nodes_are_exact_mirrors():
    g = make_grid(41)
    assert np.all(g.nodes + g.nodes[::-1] == 0.0)


def test_profile_checks_length_and_finiteness(grid201):
    with pytest.raises(ValueError):
        Profile(grid=grid201, values=np.ones(200), pressure=1.0)
    bad = np.ones(201)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        Profile(grid=grid201, values=bad, pressure=1.0)


def test_profile_values_are_frozen(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    with pytest.raises(ValueError):
        p.values[0] = 2.0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_diff_exact_on_low_degree_polynomials(order):
    # one-sided rows span order+2 points and centred rows are exact one
    # degree beyond their width by symmetry, so degree <= order+1
    # differentiates exactly up to roundoff; a coarse grid keeps the
    # eps/dx^order amplification of it negligible
    g = make_grid(21)
    x = g.nodes
    coeffs = np.arange(1.0, order + 3.0)  # degree order+1
    values = sum(c * x**j for j, c in enumerate(coeffs))
    p = Profile(grid=g, values=values, pressure=1.0)
    got = derivative(p.values, p.grid.dx, order)
    exact = np.zeros_like(x)
    for j, c in enumerate(coeffs):
        if j >= order:
            fac = 1.0
            for m in range(j, j - order, -1):
                fac *= m
            exact += c * fac * x ** (j - order)
    assert np.max(np.abs(got - exact)) < 1e-8 * max(1.0, np.max(np.abs(exact)))


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([9, 11, 21, 51]),
    order=st.integers(1, 5),
    polys=st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=7), min_size=1, max_size=3),
)
def test_diff_exact_on_integer_polynomials_at_unit_spacing(n, order, polys):
    """STENCILS' weights are half-integers, so at dx = 1 on integer nodes an
    integer polynomial of degree <= order + 1 differentiates with no
    roundoff at all: == on every node, for a field and for each row of a
    stack."""
    x = np.arange(n) - (n - 1) // 2
    coeffs = [np.array(c[: order + 2]) for c in polys]
    values = np.array([np.polynomial.polynomial.polyval(x, c) for c in coeffs])
    exact = [np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(c, order))
             for c in coeffs]
    for row, want in zip(values, exact):
        assert np.array_equal(derivative(row, 1.0, order), want)
    assert np.array_equal(derivative(values, 1.0, order), np.array(exact))


def test_operator_rows_keep_ascending_columns_and_mirror_at_the_right_edge():
    """Each row stores its entries in ascending column order, which fixes
    the kernels' summation order; the last h nodes take the one-sided rows
    reversed and times (-1)**order, and the centred rows the centre."""
    n = 21
    for order, (centre, edge) in STENCILS.items():
        indptr, indices, data = _operator(n, order)
        row = lambda i: (indices[indptr[i]:indptr[i + 1]].tolist(),
                         data[indptr[i]:indptr[i + 1]].tolist())
        for i, weights in enumerate(edge):
            assert row(i) == (list(range(order + 2)), list(weights))
            mirrored = [(-1.0) ** order * w for w in weights[::-1]]
            assert row(n - 1 - i) == (list(range(n - order - 2, n)), mirrored)
        h = len(centre) // 2
        assert row(n // 2) == (list(range(n // 2 - h, n // 2 + h + 1)), list(centre))


def test_diff_x_squared_is_two(grid201):
    p = Profile(grid=grid201, values=grid201.nodes**2, pressure=1.0)
    assert np.max(np.abs(derivative(p.values, p.grid.dx, 2) - 2.0)) < 1e-10


def test_diff_x4_fifth_derivative_vanishes():
    g = make_grid(21)
    p = Profile(grid=g, values=g.nodes**4, pressure=1.0)
    assert np.max(np.abs(derivative(p.values, p.grid.dx, 5))) < 1e-8


def test_diff_third_derivative_refinement():
    errs = []
    for n in (201, 401):
        g = make_grid(n)
        p = Profile(grid=g, values=np.sin(np.pi * g.nodes), pressure=1.0)
        exact = -np.pi**3 * np.cos(np.pi * g.nodes)
        errs.append(np.max(np.abs(derivative(p.values, p.grid.dx, 3) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_diff_rejects_bad_order(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    with pytest.raises(ValueError):
        derivative(p.values, p.grid.dx, 0)
    with pytest.raises(ValueError):
        derivative(p.values, p.grid.dx, 6)


def test_quadrature_constant_exact(grid201):
    assert quadrature(np.ones(201), grid201) == pytest.approx(2.0, rel=1e-15)


def test_quadrature_odd_field_is_zero(grid201):
    vals = grid201.nodes**3 + 0.7 * grid201.nodes
    assert abs(quadrature(vals, grid201)) < 1e-15


def test_quadrature_x_squared(grid201):
    assert quadrature(grid201.nodes**2, grid201) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_quadrature_length_mismatch(grid201):
    with pytest.raises(ValueError):
        quadrature(np.ones(100), grid201)


# h1_norm is the discrete Sobolev norm H^1: sqrt(int h^2 + int |d1 h|^2)


def test_sobolev_norm_constant(grid201):
    assert h1_norm(np.ones(201), grid201) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_sobolev_norm_linear(grid201):
    assert h1_norm(grid201.nodes.copy(), grid201) == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-4)


def test_sobolev_norm_zero_and_monotone(grid201):
    assert h1_norm(np.zeros(201), grid201) == 0.0
    vals = 1.0 + 0.3 * np.sin(2 * np.pi * grid201.nodes)
    assert h1_norm(vals, grid201) >= np.sqrt(quadrature(vals**2, grid201))


def test_h1_norm_matches_sobolev(grid201):
    vals = 1.0 + 0.3 * np.sin(np.pi * grid201.nodes)
    d1 = derivative(vals, grid201.dx, 1)
    sobolev = np.sqrt(quadrature(vals**2, grid201) + quadrature(d1**2, grid201))
    assert h1_norm(vals, grid201) == pytest.approx(sobolev, rel=1e-12)


def test_h1_norm_of_integer_data_is_that_of_its_float_copy(grid201):
    """Squares of int64 nodes from about 3.04e9 on wrap around; the norm is
    taken in float64, for one field as for each row of a stack."""
    ints = np.full(201, 4 * 10**9) + np.arange(201)
    expected = h1_norm(ints.astype(float), grid201)
    assert h1_norm(ints, grid201) == expected
    assert h1_norm(np.stack([ints, ints]), grid201).tolist() == [expected, expected]


def test_min_value_constant_ties_leftmost(grid201):
    p = Profile(grid=grid201, values=np.ones(201), pressure=1.0)
    assert min_value(p) == (-1.0, 1.0)


def test_min_value_parabola_vertex(grid201):
    p = Profile(grid=grid201, values=grid201.nodes**2 + 0.5, pressure=1.0)
    assert min_value(p) == (0.0, 0.5)


def test_derivative_raw_array_interface(grid201):
    vals = grid201.nodes**3
    d = derivative(vals, grid201.dx, 3)
    assert np.max(np.abs(d - 6.0)) < 1e-8


# finite values the kernel path must carry to the same bits as op @ v:
# signed zeros, subnormals, and magnitudes from 1e-8 to 1e8
_TINY = 2.2250738585072014e-308  # smallest normal double
_SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-_TINY, _TINY, exclude_min=True, exclude_max=True),
    st.floats(1e-8, 1e8),
    st.floats(-1e8, -1e-8),
)


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([9, 11, 201, 801]),
    layout=st.sampled_from(["contiguous", "strided", "integer"]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(_SPECIAL, max_size=12),
)
def test_kernel_path_matches_sparse_matmul_bit_for_bit(n, layout, seed, specials):
    """derivative and h1_norm take one field through scipy's private
    csr_matvecs kernel as a stack of one; it must give the bytes of
    (op @ v) / dx**k, op scipy's public csr_matrix built from the cached
    operator's arrays.  This pins the private import and the summation
    order it relies on."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    if layout == "integer":
        vals = rng.integers(-10**7, 10**7, n)
    else:
        dense = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        dense[rng.integers(0, n, len(specials))] = specials
        if layout == "contiguous":
            vals = dense
        else:
            vals = np.zeros(2 * n)[::2]
            vals[:] = dense
    ops = {k: scipy.sparse.csr_matrix(_operator(n, k)[::-1], shape=(n, n)) for k in range(1, 6)}
    for k, op in ops.items():
        expected = (op @ vals) / grid.dx**k
        assert derivative(vals, grid.dx, k).tobytes() == expected.tobytes()
    d1 = (ops[1] @ vals) / grid.dx
    expected = float(np.sqrt(quadrature(vals**2, grid) + quadrature(d1**2, grid)))
    assert h1_norm(vals, grid).hex() == expected.hex()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([9, 201, 801]),
    k=st.sampled_from([1, 2, 63, 64, 65]),
    layout=st.sampled_from(["contiguous", "rows-of-a-buffer", "fortran"]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(_SPECIAL, max_size=40),
)
def test_stacked_calls_match_per_field_calls_bit_for_bit(n, k, layout, seed, specials):
    """derivative, quadrature, energy, dissipation and h1_norm take a (k, n)
    stack through csr_matvecs and row-wise reductions; every row must get the bytes of its own 1-D call, on negative nodes (the
    dissipation clip), signed zeros, subnormals and magnitudes from 1e-8 to
    1e8, whatever the layout of the stack."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (k, n))
    dense.flat[rng.integers(0, k * n, len(specials))] = specials
    if layout == "contiguous":
        stack = dense
    elif layout == "rows-of-a-buffer":
        stack = np.zeros((k + 2, n))[1:-1]
        stack[:] = dense
    else:
        stack = np.asfortranarray(dense)
    rows = [np.array(row) for row in dense]
    for order in range(1, 6):
        stacked = derivative(stack, grid.dx, order)
        assert stacked.shape == (k, n)
        for row, got in zip(rows, stacked):
            assert got.tobytes() == derivative(row, grid.dx, order).tobytes()
    per_field = {
        "quadrature": [quadrature(row, grid) for row in rows],
        "energy": [energy(row, grid, 1.5) for row in rows],
        "dissipation": [dissipation(row, grid) for row in rows],
        "h1_norm": [h1_norm(row, grid) for row in rows],
    }
    stacked = {
        "quadrature": quadrature(stack, grid),
        "energy": energy(stack, grid, 1.5),
        "dissipation": dissipation(stack, grid),
        "h1_norm": h1_norm(stack, grid),
    }
    for name, values in per_field.items():
        assert stacked[name].shape == (k,), name
        assert stacked[name].tobytes() == np.array(values).tobytes(), name


def test_kernel_path_rejects_fields_of_the_wrong_shape(grid201):
    """The raw kernel reads n entries per field whatever the array holds, so
    a mismatch must raise before it runs.  h1_norm checks the grid's node
    count, for one field or each row of a (k, n) stack; derivative builds
    its own from the last axis, so a (k, n) stack is fine and only an array
    whose rows are too short for the stencil, or that has no axis or more
    than two, can disagree with it."""
    for length in (9, 199, 200, 202, 401):
        for shape in ((length,), (2, length), (1, length)):
            with pytest.raises(ValueError):
                h1_norm(np.ones(shape), grid201)
    for shape in ((201, 1), (201, 2), (2, 3, 201)):
        with pytest.raises(ValueError):
            h1_norm(np.ones(shape), grid201)
    for shape in ((), (201, 1), (201, 2), (2, 3, 201)):
        for k in range(1, 6):
            with pytest.raises(ValueError):
                derivative(np.ones(shape), grid201.dx, k)
