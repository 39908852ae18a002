"""Independent reference computations the workloads check the program against.

Nothing here calls the penalty code under test. The Gauss-Legendre oracle
evaluates S1..S5 straight from their definitions (ordered sums over
components and derivative directions) at quadrature nodes inside every tile.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

# Exact for the per-axis degree-6 tile integrands of cubic B-spline fields.
GAUSS_NODES = 4

# Uniform cubic B-spline pieces on one tile as power series in the normalized
# offset u: (1-u)^3/6, (3u^3-6u^2+4)/6, (-3u^3+3u^2+3u+1)/6 and u^3/6. Piece l
# weighs the control point at lattice offset l from the tile's first one.
BSPLINE_PIECES = (
    (1 / 6, -3 / 6, 3 / 6, -1 / 6),
    (4 / 6, 0.0, -6 / 6, 3 / 6),
    (1 / 6, 3 / 6, 3 / 6, -3 / 6),
    (0.0, 0.0, 0.0, 1 / 6),
)


def _unit(axis: int) -> tuple:
    return tuple(1 if a == axis else 0 for a in range(3))


def _orders_with_multiplicity(order: int) -> Counter:
    """Derivative multi-indices of total `order`, counted over ordered direction
    tuples (j, k, ...), i.e. mixed partials appear as often as the sum has them."""
    counts: Counter = Counter()
    for dirs in itertools.product(range(3), repeat=order):
        counts[tuple(dirs.count(a) for a in range(3))] += 1
    return counts


def _axis_tables(spacing: float):
    """Gauss weights on one tile and, per derivative order, the (nodes, 4)
    values of the four basis pieces' physical derivatives at the nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    u = (nodes + 1.0) * 0.5
    tables = []
    for order in range(4):
        vals = np.zeros((GAUSS_NODES, 4))
        for piece in range(4):
            poly = np.polynomial.Polynomial(BSPLINE_PIECES[piece]).deriv(order)
            vals[:, piece] = poly(u) / spacing ** order
        tables.append(vals)
    return weights * 0.5 * spacing, tables


def gauss_penalty_terms(coefficients: np.ndarray, tile_spacing) -> np.ndarray:
    """S1..S5 of the field with lattice `coefficients` (3, P1, P2, P3).

    Tiles are processed one slab at a time so memory stays bounded on large
    grids.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    axis = [_axis_tables(float(r)) for r in tile_spacing]
    wvol = np.einsum("i,j,k->ijk", axis[0][0], axis[1][0], axis[2][0])
    firsts = [_unit(a) for a in range(3)]
    seconds = _orders_with_multiplicity(2)
    thirds = _orders_with_multiplicity(3)
    needed = {(0, 0, 0), *firsts, *seconds, *thirds}

    windows = [np.lib.stride_tricks.sliding_window_view(coefficients[c], (4, 4, 4)) for c in range(3)]
    terms = np.zeros(5)
    for t1 in range(windows[0].shape[0]):
        values = []
        for c in range(3):
            block = windows[c][t1]  # (N2, N3, 4, 4, 4) supporting blocks of one slab
            values.append({
                o: np.einsum("yzlmn,il,jm,kn->yzijk", block, axis[0][1][o[0]],
                             axis[1][1][o[1]], axis[2][1][o[2]], optimize=True)
                for o in needed
            })

        def integral(a, b):
            return float(np.sum(a * b * wvol))

        for c in range(3):
            v = values[c]
            terms[4] += integral(v[(0, 0, 0)], v[(0, 0, 0)])
            terms[0] += sum(integral(v[o], v[o]) for o in firsts)
            terms[1] += sum(m * integral(v[o], v[o]) for o, m in seconds.items())
            terms[3] += sum(m * integral(v[o], v[o]) for o, m in thirds.items())
        terms[2] += sum(
            integral(values[a][firsts[a]], values[b][firsts[b]])
            for a in range(3) for b in range(a + 1, 3)
        )
    terms[2] += terms[0]
    return terms


def relative_error(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)))
