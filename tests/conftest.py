"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg.regularizers_analytic import DerivPair, build_v


def random_grid(tiles, spacing, seed, scale=1.0, origin=(0.0, 0.0, 0.0)):
    geometry = core.GridGeometry(tiles, spacing, origin)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(0.0, scale, size=(3,) + geometry.lattice_shape)
    return core.ControlPointGrid(geometry, coeffs)


def gauss_axis_weights(geometry, nodes_per_tile):
    """Per-axis Gauss-Legendre nodes mapped to one tile, with basis-derivative
    weight matrices for every order. Exact for the polynomial integrands here."""
    nodes, wts = np.polynomial.legendre.leggauss(nodes_per_tile)
    axis_w = []
    axis_quadw = []
    for d in range(3):
        r = geometry.tile_spacing[d]
        x = (nodes + 1.0) * 0.5 * r
        quad_w = wts * 0.5 * r
        xv = np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=1)
        axis_w.append([xv @ core.build_q(r, o).T for o in range(4)])
        axis_quadw.append(quad_w)
    return axis_w, axis_quadw


def gauss_penalty_terms(grid, nodes_per_tile=4):
    """Gauss-quadrature S1..S5: an independent, numerically exact oracle.

    The tile integrands are polynomials of per-axis degree at most 6, so
    4-point Gauss-Legendre per axis integrates them exactly; any disagreement
    with the closed-form path beyond roundoff is a real defect.
    """
    geometry = grid.geometry
    gmap = core.support_index_map(geometry)
    blocks = [grid.coefficients[c].ravel()[gmap].reshape(-1, 4, 4, 4) for c in range(3)]
    axis_w, axis_quadw = gauss_axis_weights(geometry, nodes_per_tile)
    wvol = (
        axis_quadw[0][:, None, None]
        * axis_quadw[1][None, :, None]
        * axis_quadw[2][None, None, :]
    )

    terms = np.zeros(5)
    diag_firsts = []
    for c in range(3):
        maps = {}

        def deriv(orders, comp=c, maps=maps):
            if orders not in maps:
                a = np.tensordot(blocks[comp], axis_w[0][orders[0]], axes=([1], [1]))
                a = np.tensordot(a, axis_w[1][orders[1]], axes=([1], [1]))
                a = np.tensordot(a, axis_w[2][orders[2]], axes=([1], [1]))
                maps[orders] = a
            return maps[orders]

        f0 = deriv((0, 0, 0))
        terms[4] += np.sum(f0 * f0 * wvol)
        for j in range(3):
            orders = tuple(1 if a == j else 0 for a in range(3))
            g = deriv(orders)
            terms[0] += np.sum(g * g * wvol)
            for k in range(3):
                o2 = tuple((1 if a == j else 0) + (1 if a == k else 0) for a in range(3))
                g2 = deriv(o2)
                terms[1] += np.sum(g2 * g2 * wvol)
                for q in range(3):
                    o3 = tuple(
                        (1 if a == j else 0) + (1 if a == k else 0) + (1 if a == q else 0)
                        for a in range(3)
                    )
                    g3 = deriv(o3)
                    terms[3] += np.sum(g3 * g3 * wvol)
        diag_firsts.append(deriv(tuple(1 if a == c else 0 for a in range(3))))
    cross = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            cross += np.sum(diag_firsts[a] * diag_firsts[b] * wvol)
    terms[2] = terms[0] + cross
    return terms


def direct_v_integral(tile_spacing, pair: DerivPair, nodes_per_axis=4):
    """Non-separable 3D quadrature of the 64x64 tile integrand.

    Walks every 3D Gauss node explicitly and accumulates the outer product of
    the per-axis basis-derivative vectors, never using the Kronecker
    factorization that `build_v` relies on.
    """
    nodes, wts = np.polynomial.legendre.leggauss(nodes_per_axis)
    per_axis = []
    for d in range(3):
        r = float(np.asarray(tile_spacing)[d])
        x = (nodes + 1.0) * 0.5 * r
        w = wts * 0.5 * r
        xv = np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=1)
        qi = core.build_q(r, pair.delta_i[d])
        qj = core.build_q(r, pair.delta_j[d])
        per_axis.append((xv @ qi.T, xv @ qj.T, w))  # (n,4), (n,4), (n,)
    out = np.zeros((64, 64))
    n = nodes_per_axis
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = np.kron(
                    np.kron(per_axis[0][0][i], per_axis[1][0][j]), per_axis[2][0][k]
                )
                col = np.kron(
                    np.kron(per_axis[0][1][i], per_axis[1][1][j]), per_axis[2][1][k]
                )
                weight = per_axis[0][2][i] * per_axis[1][2][j] * per_axis[2][2][k]
                out += weight * np.outer(row, col)
    return out


def midpoint_v_integral(tile_spacing, pair: DerivPair, samples=32):
    """Plain midpoint-rule integration of the separable tile integrand."""
    per_axis = []
    for d in range(3):
        r = float(np.asarray(tile_spacing)[d])
        x = (np.arange(samples) + 0.5) * (r / samples)
        xv = np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=1)
        qi = core.build_q(r, pair.delta_i[d])
        qj = core.build_q(r, pair.delta_j[d])
        gi = xv @ qi.T
        gj = xv @ qj.T
        per_axis.append(np.einsum("sa,sb->ab", gi, gj) * (r / samples))
    return np.kron(np.kron(per_axis[0], per_axis[1]), per_axis[2])


@pytest.fixture
def small_grid():
    return random_grid((3, 3, 3), (10.0, 12.0, 8.0), seed=42)


def assert_build_v_matches_pair(spacing, pair, tol=1e-9):
    reference = direct_v_integral(spacing, pair)
    built = build_v(spacing, pair)
    scale = max(np.abs(reference).max(), 1e-300)
    assert np.abs(built - reference).max() / scale < tol
