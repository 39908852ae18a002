"""Timing shape of the two penalty routes.

These assertions use min-of-repeats with wide bands; they encode scaling
laws, not absolute speeds.
"""

import numpy as np

from splinereg import bspline_core as core
from splinereg import volume_io as vio
from splinereg._threads import single_threaded_blas
from splinereg.regularizers_analytic import RegularizerWeights, build_vbank, penalty
from splinereg.regularizers_numeric import SamplingSpec, fd_penalty
from tests._timing import best_of_each

NO_WEIGHTS = RegularizerWeights()


def best_of(fn, repeats):
    return best_of_each([fn], repeats)[0]


def test_analytic_time_scales_with_tile_count():
    """Doubling the tile count roughly doubles analytic evaluation time."""
    bank = build_vbank((10.0, 10.0, 10.0))
    calls = []
    for tiles in ((12, 12, 12), (24, 12, 12)):
        geom = core.GridGeometry(tiles, (10.0, 10.0, 10.0))
        grid = vio.random_coefficient_grid(geom, 1.0, seed=1)
        calls.append(lambda g=grid: penalty(g, NO_WEIGHTS, bank, with_gradient=False))
    with single_threaded_blas():
        t_small, t_large = best_of_each(calls, 7, budget_s=0.2)
    ratio = t_large / t_small
    assert 1.5 <= ratio <= 2.5, f"tile-doubling time ratio {ratio:.2f}"


def test_numeric_time_scales_with_voxels_analytic_does_not():
    """The finite-difference route is voxel-bound; the analytic route never
    touches voxels, so only the numeric time should track sample count."""
    geom = core.GridGeometry((4, 4, 4), (16.0, 16.0, 16.0))
    grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=32.0, seed=2)
    bank = build_vbank(geom.tile_spacing)
    numeric = [
        lambda: fd_penalty(grid, NO_WEIGHTS, SamplingSpec.voxel_grid((2.0, 2.0, 2.0)), terms=[1]),
        lambda: fd_penalty(grid, NO_WEIGHTS, SamplingSpec.voxel_grid((1.0, 2.0, 2.0)), terms=[1]),
    ]
    with single_threaded_blas():
        t_coarse, t_fine = best_of_each(numeric, 3, budget_s=0.2)
        t_analytic_a = best_of(lambda: penalty(grid, NO_WEIGHTS, bank, with_gradient=False), 7)
        t_analytic_b = best_of(lambda: penalty(grid, NO_WEIGHTS, bank, with_gradient=False), 7)
    voxel_ratio = t_fine / t_coarse  # 2x the samples
    assert 1.3 <= voxel_ratio <= 3.5, f"numeric voxel-doubling ratio {voxel_ratio:.2f}"
    drift = abs(t_analytic_b - t_analytic_a) / max(t_analytic_a, t_analytic_b)
    assert drift < 0.5, f"analytic timing drift {drift:.2f}"
    assert t_analytic_a < t_coarse, "analytic should beat the numeric route outright"
