"""Basis evaluation, tile geometry, and field evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinereg import bspline_core as core
from tests.conftest import random_grid


def monomial_value(point, powers):
    return point[0] ** powers[0] * point[1] ** powers[1] * point[2] ** powers[2]


# ---------------------------------------------------------------------------
# eval_basis
# ---------------------------------------------------------------------------

def test_basis_piece0_at_zero():
    assert core.eval_basis(0.0, 0, 0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_basis_piece1_at_half():
    assert core.eval_basis(0.5, 1, 0) == pytest.approx(2.875 / 6.0, abs=1e-15)


def test_basis_derivative_matches_finite_difference():
    h = 1e-5
    fd = (core.eval_basis(0.3 + h, 2, 0) - core.eval_basis(0.3 - h, 2, 0)) / (2 * h)
    assert abs(core.eval_basis(0.3, 2, 1) - fd) < 1e-8


@given(st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_partition_of_unity(u):
    total = sum(core.eval_basis(u, piece, 0) for piece in range(4))
    assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_basis_rejects_bad_u(bad):
    with pytest.raises(ValueError):
        core.eval_basis(bad, 0, 0)


def test_basis_rejects_bad_piece_and_order():
    with pytest.raises(ValueError):
        core.eval_basis(0.5, 4, 0)
    with pytest.raises(ValueError):
        core.eval_basis(0.5, 0, 4)


# ---------------------------------------------------------------------------
# build_q
# ---------------------------------------------------------------------------

def test_q_zero_order_at_origin_gives_basis_values():
    q = core.build_q(1.0, 0)
    np.testing.assert_allclose(
        q @ [1.0, 0.0, 0.0, 0.0], [1 / 6, 4 / 6, 1 / 6, 0.0], atol=1e-15
    )


def test_q_first_derivative_at_origin():
    q = core.build_q(1.0, 1)
    np.testing.assert_allclose(
        q @ [1.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.5, 0.0], atol=1e-15
    )


def test_q_derivative_scales_with_spacing():
    narrow = core.build_q(1.0, 1) @ [1.0, 0.0, 0.0, 0.0]
    wide = core.build_q(2.0, 1) @ [1.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(wide, narrow / 2.0, atol=1e-15)


def test_q_rejects_degenerate_spacing():
    with pytest.raises(ValueError):
        core.build_q(0.0, 0)
    with pytest.raises(ValueError):
        core.build_q(1e-9, 1)


def _q_curve(spacing, order, offset):
    q = core.build_q(spacing, order)
    return q @ np.array([1.0, offset, offset ** 2, offset ** 3])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_q_derivatives_match_central_differences(order):
    """Nested central differences of the order-0 curve recover Q^(order).

    The curves are cubics, so the order-1 stencil carries the only nonzero
    truncation term; orders 2 and 3 are exact up to roundoff.
    """
    spacing = 1.7
    x = 0.6
    exact = _q_curve(spacing, order, x)

    def stencil(h):
        if order == 1:
            return (_q_curve(spacing, 0, x + h) - _q_curve(spacing, 0, x - h)) / (2 * h)
        if order == 2:
            return (
                _q_curve(spacing, 0, x + h)
                - 2 * _q_curve(spacing, 0, x)
                + _q_curve(spacing, 0, x - h)
            ) / h ** 2
        return (
            _q_curve(spacing, 0, x + 2 * h)
            - 2 * _q_curve(spacing, 0, x + h)
            + 2 * _q_curve(spacing, 0, x - h)
            - _q_curve(spacing, 0, x - 2 * h)
        ) / (2 * h ** 3)

    assert np.abs(stencil(1e-3) - exact).max() < 1e-6


def test_q_first_derivative_converges_second_order():
    """h-refinement of the first-derivative stencil shows the O(h^2) rate."""
    spacing = 1.7
    x = 0.6
    exact = _q_curve(spacing, 1, x)
    errors = []
    for h in (4e-2, 2e-2, 1e-2):
        approx = (_q_curve(spacing, 0, x + h) - _q_curve(spacing, 0, x - h)) / (2 * h)
        errors.append(np.max(np.abs(approx - exact)))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# geometry and locate
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ValueError):
        core.GridGeometry((0, 1, 1), (10, 10, 10))
    with pytest.raises(ValueError):
        core.GridGeometry((1, 1, 1), (10, -1, 10))
    geom = core.GridGeometry((2, 3, 4), (10, 10, 10))
    assert geom.lattice_shape == (5, 6, 7)
    assert geom.extent == (20.0, 30.0, 40.0)


@pytest.mark.parametrize("counts", [(2.7, 3, 3), (3, np.float64(3.5), 3), (2, 2, np.nan), (2, "2", 2)])
def test_geometry_takes_only_whole_tile_counts(counts):
    """A count that is not a whole number is rejected by name, not truncated
    (2.7 built 2 tiles); integral floats and numpy integers become ints."""
    geom = core.GridGeometry((2.0, np.int64(3), np.float32(4)), (10, 10, 10))
    assert geom.tile_counts == (2, 3, 4) and all(type(n) is int for n in geom.tile_counts)
    with pytest.raises(ValueError, match="tile_counts"):
        core.GridGeometry(counts, (10, 10, 10))


def test_locate_basic():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0))
    loc = core.locate(geom, (15.0, 0.0, 29.9))
    assert loc.tile_index == (1, 0, 2)
    assert loc.u == pytest.approx((0.5, 0.0, 0.99), abs=1e-12)


def test_locate_far_corner_closes_last_tile():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0))
    loc = core.locate(geom, (30.0, 30.0, 30.0))
    assert loc.tile_index == (2, 2, 2)
    assert loc.u == (1.0, 1.0, 1.0)


def test_locate_origin():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0), origin=(5.0, 5.0, 5.0))
    loc = core.locate(geom, (5.0, 5.0, 5.0))
    assert loc.tile_index == (0, 0, 0)
    assert loc.u == (0.0, 0.0, 0.0)


def test_locate_rejects_outside_extent():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0))
    with pytest.raises(ValueError):
        core.locate(geom, (-0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        core.locate(geom, (0.0, 0.0, 30.5))


# ---------------------------------------------------------------------------
# displacement evaluation
# ---------------------------------------------------------------------------

def test_zero_grid_evaluates_to_zero():
    grid = core.ControlPointGrid.zeros(core.GridGeometry((2, 2, 2), (10, 10, 10)))
    np.testing.assert_array_equal(core.eval_displacement(grid, (7.0, 3.0, 16.0)), 0.0)


def test_constant_coefficients_give_constant_field():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    coeffs = np.zeros((3,) + geom.lattice_shape)
    coeffs[0] = 3.25
    grid = core.ControlPointGrid(geom, coeffs)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(0, 20, size=3)
        v = core.eval_displacement(grid, p)
        assert v == pytest.approx([3.25, 0.0, 0.0], abs=1e-13)


def test_linear_reproduction():
    geom = core.GridGeometry((3, 2, 2), (7.0, 9.0, 11.0), origin=(-3.0, 2.0, 5.0))
    a = 0.25
    grid = core.linear_field_grid(geom, matrix=[[a, 0, 0], [0, 0, 0], [0, 0, 0]])
    rng = np.random.default_rng(2)
    lo, hi = np.array(geom.origin), np.array(geom.far_corner())
    for _ in range(50):
        p = rng.uniform(lo, hi)
        v = core.eval_displacement(grid, p)
        assert abs(v[0] - a * p[0]) <= 1e-10 * max(1.0, abs(a * p[0]))
        assert abs(v[1]) < 1e-12 and abs(v[2]) < 1e-12


def test_matrix_and_direct_paths_agree():
    """Q-matrix evaluation equals the direct basis-product sum at random points."""
    grid = random_grid((3, 3, 3), (10.0, 12.0, 8.0), seed=5)
    geom = grid.geometry
    rng = np.random.default_rng(6)
    lo, hi = np.array(geom.origin), np.array(geom.far_corner())
    pts = rng.uniform(lo, hi, size=(1000, 3))
    for p in pts:
        loc = core.locate(geom, p)
        t1, t2, t3 = loc.tile_index
        direct = np.zeros(3)
        for l in range(4):
            b1 = core.eval_basis(loc.u[0], l)
            for m in range(4):
                b2 = core.eval_basis(loc.u[1], m)
                for n in range(4):
                    b3 = core.eval_basis(loc.u[2], n)
                    direct += (
                        b1 * b2 * b3
                        * grid.coefficients[:, t1 + l, t2 + m, t3 + n]
                    )
        matrix_path = core.eval_displacement(grid, p)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(matrix_path - direct).max() <= 1e-12 * scale


def test_polynomial_reproduction_totals_degree_three():
    """Random polynomials of total degree <= 3 are reproduced exactly."""
    geom = core.GridGeometry((3, 3, 3), (6.0, 5.0, 7.0), origin=(1.0, -2.0, 0.5))
    rng = np.random.default_rng(7)
    monomials = [
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a + b + c <= 3
    ]
    weights = rng.normal(size=len(monomials))
    coeffs = np.zeros((3,) + geom.lattice_shape)
    for w, powers in zip(weights, monomials):
        coeffs += core.monomial_grid(geom, 1, powers, scale=w).coefficients
    grid = core.ControlPointGrid(geom, coeffs)

    lo, hi = np.array(geom.origin), np.array(geom.far_corner())
    pts = rng.uniform(lo, hi, size=(40, 3))
    for p in pts:
        expected = sum(w * monomial_value(p, pw) for w, pw in zip(weights, monomials))
        got = core.eval_displacement(grid, p)[0]
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_eval_partial_on_linear_field():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0))
    a = 0.4
    grid = core.linear_field_grid(geom, matrix=[[a, 0, 0], [0, 0, 0], [0, 0, 0]])
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rng.uniform(0, 30, size=3)
        assert core.eval_partial(grid, p, 1, (1, 0, 0)) == pytest.approx(a, abs=1e-12)
        assert core.eval_partial(grid, p, 1, (2, 0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_eval_partial_matches_finite_differences():
    grid = random_grid((3, 3, 3), (10.0, 12.0, 8.0), seed=9)
    geom = grid.geometry
    rng = np.random.default_rng(10)
    lo = np.array(geom.origin) + 2.0
    hi = np.array(geom.far_corner()) - 2.0
    for _ in range(10):
        p = rng.uniform(lo, hi)
        for axis in range(3):
            orders = tuple(1 if d == axis else 0 for d in range(3))
            h = 1e-3 * geom.tile_spacing[axis]
            hp, hm = p.copy(), p.copy()
            hp[axis] += h
            hm[axis] -= h
            fd = (
                core.eval_displacement(grid, hp)[0] - core.eval_displacement(grid, hm)[0]
            ) / (2 * h)
            exact = core.eval_partial(grid, p, 1, orders)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_eval_partial_zero_grid_and_validation():
    grid = core.ControlPointGrid.zeros(core.GridGeometry((2, 2, 2), (10, 10, 10)))
    assert core.eval_partial(grid, (5.0, 5.0, 5.0), 1, (1, 1, 1)) == 0.0
    with pytest.raises(ValueError):
        core.eval_partial(grid, (5.0, 5.0, 5.0), 1, (2, 2, 0))
    with pytest.raises(ValueError):
        core.eval_partial(grid, (5.0, 5.0, 5.0), 4, (1, 0, 0))


def test_locality_of_one_coefficient():
    geom = core.GridGeometry((4, 4, 4), (10.0, 10.0, 10.0))
    base = core.ControlPointGrid.zeros(geom)
    bumped = base.copy()
    bumped.coefficients[0, 4, 4, 4] = 1.0  # supports tiles 1..4 per axis
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(0, 40, size=3)
        loc = core.locate(geom, p)
        inside = all(1 <= t <= 4 for t in loc.tile_index)
        dv = core.eval_displacement(bumped, p) - core.eval_displacement(base, p)
        if inside:
            continue  # support region; change allowed (and expected generically)
        assert np.abs(dv).max() == 0.0


# ---------------------------------------------------------------------------
# tile coefficient extraction
# ---------------------------------------------------------------------------

def test_tile_coefficients_constant_grid():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    coeffs = np.full((3,) + geom.lattice_shape, 1.5)
    grid = core.ControlPointGrid(geom, coeffs)
    p1, p2, p3 = core.tile_coefficients(grid, (1, 0, 1))
    for vec in (p1, p2, p3):
        np.testing.assert_array_equal(vec, np.full(64, 1.5))


def test_tile_coefficients_single_entry_and_order():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    grid = core.ControlPointGrid.zeros(geom)
    grid.coefficients[0, 0, 0, 0] = 7.0
    p1, _, _ = core.tile_coefficients(grid, (0, 0, 0))
    assert p1[0] == 7.0
    assert np.count_nonzero(p1) == 1
    # entry 16*l + 4*m + n: lattice (1, 2, 3) of tile (0,0,0) lands at 27
    grid.coefficients[0, 0, 0, 0] = 0.0
    grid.coefficients[0, 1, 2, 3] = 2.0
    p1, _, _ = core.tile_coefficients(grid, (0, 0, 0))
    assert p1[16 * 1 + 4 * 2 + 3] == 2.0


def test_adjacent_tiles_share_48_coefficients():
    grid = random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=12)
    a, _, _ = core.tile_coefficients(grid, (0, 0, 0))
    b, _, _ = core.tile_coefficients(grid, (1, 0, 0))
    # overlap: lattice planes 1..3 of tile 0 equal planes 0..2 of tile 1
    shared = np.intersect1d(a, b)
    assert shared.size >= 48  # random values collide only by coincidence
    np.testing.assert_array_equal(a.reshape(4, 4, 4)[1:], b.reshape(4, 4, 4)[:3])


def test_tile_coefficients_out_of_range():
    grid = random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=13)
    with pytest.raises(IndexError):
        core.tile_coefficients(grid, (2, 0, 0))


def test_support_index_map_matches_tile_coefficients():
    for grid in (random_grid((3, 2, 4), (10.0, 10.0, 10.0), seed=14),
                 random_grid((1, 3, 2), (6.0, 10.0, 4.0), seed=15, origin=(-3.0, 2.0, 5.0))):
        gmap = core.support_index_map(grid.geometry)
        flat = grid.coefficients[0].ravel()
        n1, n2, n3 = grid.geometry.tile_counts
        t = 0
        for t1 in range(n1):
            for t2 in range(n2):
                for t3 in range(n3):
                    p1, _, _ = core.tile_coefficients(grid, (t1, t2, t3))
                    np.testing.assert_array_equal(flat[gmap[t]], p1)
                    t += 1


# ---------------------------------------------------------------------------
# separable sampling helpers
# ---------------------------------------------------------------------------

def test_sample_displacement_matches_pointwise():
    grid = random_grid((3, 3, 3), (10.0, 11.0, 12.0), seed=15)
    axes = [np.linspace(0.0, grid.geometry.extent[d], 7) for d in range(3)]
    sampled = core.sample_displacement(grid, axes)
    for i in (0, 3, 6):
        for j in (1, 4):
            for k in (2, 5):
                p = (axes[0][i], axes[1][j], axes[2][k])
                np.testing.assert_allclose(
                    sampled[i, j, k], core.eval_displacement(grid, p), atol=1e-12
                )


def test_sample_displacement_components_are_contiguous_planes():
    """Each component of the (S1, S2, S3, 3) result is one C-contiguous
    volume, bitwise equal to that component sampled on its own."""
    grid = random_grid((3, 2, 4), (9.0, 13.0, 7.5), seed=18, origin=(-6.0, 2.5, 11.0))
    geom = grid.geometry
    axes = [o + np.linspace(0.3, e - 0.7, n) for o, e, n in zip(geom.origin, geom.extent, (11, 6, 17))]
    sampled = core.sample_displacement(grid, axes)
    assert sampled.shape == (11, 6, 17, 3)
    for c in range(3):
        assert sampled[..., c].flags.c_contiguous
        np.testing.assert_array_equal(sampled[..., c], core.sample_partial(grid, axes, c + 1, (0, 0, 0)))


def test_sample_partial_matches_pointwise():
    grid = random_grid((3, 3, 3), (10.0, 11.0, 12.0), seed=16)
    axes = [np.linspace(1.0, grid.geometry.extent[d] - 1.0, 5) for d in range(3)]
    for orders in [(1, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 3)]:
        sampled = core.sample_partial(grid, axes, 2, orders)
        for i in (0, 4):
            for j in (2,):
                for k in (1, 3):
                    p = (axes[0][i], axes[1][j], axes[2][k])
                    expected = core.eval_partial(grid, p, 2, orders)
                    assert sampled[i, j, k] == pytest.approx(expected, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize("shape", [(5, 190, 190), (64, 64, 64), (37, 38, 35)])
def test_contraction_blocks_match_whole_call(shape):
    """A separable contraction and its scatter block their rows by `_slabs`:
    contracting a block's weight rows gives that block's rows of the whole
    call, and summing the blocks' scatters in order from zeros gives the
    whole scatter, bitwise. Shapes: a row over the block budget, several
    equal blocks, and a short last block."""
    geom = core.GridGeometry((4, 5, 6), (9.0, 10.0, 11.0), (-2.0, 3.0, 1.5))
    rng = np.random.default_rng(19)
    lattice = rng.normal(size=geom.lattice_shape)
    values = rng.normal(size=shape)
    axes = [np.linspace(o, o + e, s) for o, e, s in zip(geom.origin, geom.extent, shape)]
    ws = [core.axis_weight_matrix(geom, d, axes[d], 0) for d in range(3)]
    parts = core._slabs(shape)
    assert len(parts) > 1
    whole = core._contract(lattice, *ws)
    summed = np.zeros(geom.lattice_shape)
    for part in parts:
        block = core._contract(lattice, ws[0][part], ws[1], ws[2])
        assert block.tobytes() == whole[part].tobytes()
        summed += core.scatter_separable(values[part], ws[0][part], ws[1], ws[2])
    assert summed.tobytes() == core.scatter_separable(values, *ws).tobytes()


@pytest.mark.parametrize("shape", [(64, 64, 64), (37, 38, 35)])
def test_contract_into_out_bitwise_equals_fresh_contract(shape):
    """Contracting into a given array (a spent buffer of another sampling,
    or one plane of planar storage) writes the bits of a fresh contraction
    and returns that array; an array of another shape or layout is refused."""
    geom = core.GridGeometry((4, 5, 6), (9.0, 10.0, 11.0), (-2.0, 3.0, 1.5))
    rng = np.random.default_rng(20)
    lattice = rng.normal(size=geom.lattice_shape)
    axes = [np.linspace(o, o + e, s) for o, e, s in zip(geom.origin, geom.extent, shape)]
    ws = [core.axis_weight_matrix(geom, d, axes[d], 0) for d in range(3)]
    fresh = core._contract(lattice, *ws)
    spent = rng.normal(size=shape)
    assert core._contract(lattice, *ws, out=spent) is spent
    assert spent.tobytes() == fresh.tobytes()
    planes = np.full((3,) + shape, np.nan)
    core._contract(lattice, *ws, out=planes[1])
    assert planes[1].tobytes() == fresh.tobytes() and np.all(np.isnan(planes[[0, 2]]))
    for bad in (np.empty(shape[:2] + (shape[2] + 1,)), np.empty(shape, dtype=np.float32),
                np.empty(shape[:2] + (2 * shape[2],))[..., ::2]):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            core._contract(lattice, *ws, out=bad)


def test_scatter_is_adjoint_of_sampling():
    grid = random_grid((2, 3, 2), (9.0, 10.0, 11.0), seed=17)
    geom = grid.geometry
    axes = [np.linspace(0.0, geom.extent[d], 6) for d in range(3)]
    ws = [core.axis_weight_matrix(geom, d, axes[d], 0) for d in range(3)]
    rng = np.random.default_rng(18)
    values = rng.normal(size=(6, 6, 6))
    lattice = rng.normal(size=geom.lattice_shape)
    lhs = np.sum(values * core._contract(lattice, *ws))
    rhs = np.sum(lattice * core.scatter_separable(values, *ws))
    assert lhs == pytest.approx(rhs, rel=1e-12)
