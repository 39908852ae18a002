"""Mean-squared-error B-spline registration with analytic gradients.

The driver minimizes C = sum w(p) (M(p) - F(x))^2 + S(v), p = x + v(x), over
the coefficient lattice using a limited-memory quasi-Newton loop (two-loop
recursion) with Armijo backtracking. M is the trilinear interpolant of the
moving image, and the image gradient is always the exact derivative of that
interpolant. The hull fade w(p) falls from 1 to 0 across the moving image's
outermost voxel cell, so a sample leaving the image changes C continuously
and the line search need not backtrack around it. Stages run coarse to fine;
each stage fits its grid to the previous stage's field by separable least
squares before optimizing; stage sizes that would leave that fit singular
are rejected before the first stage runs. M and its gradient come from one
kernel that evaluates each sample's cell polynomial by its rules: the
coefficients are the cell's corner values forward-differenced along each
axis, the value is Horner's rule along axis 3, then 2, then 1, and the
derivative along an axis is the polynomial of the coefficients with a 1 there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import bspline_core as core
from .regularizers_analytic import RegularizerWeights, penalty
from .volume_io import (
    Volume,
    box_downsample,
    covering_geometry,
    _hull_faded_sample,
    _voxel_weights,
    _warped_planes,
)


HISTORY_SIZE = 10  # (s, y) pairs kept by the L-BFGS two-loop recursion


@dataclass(frozen=True)
class RegistrationStage:
    grid_spacing: tuple
    max_iterations: int = 100
    image_downsample: int = 1

    def __post_init__(self):
        object.__setattr__(self, "grid_spacing", core._triple(self.grid_spacing, "grid_spacing"))
        if any(not np.isfinite(s) or s <= 0 for s in self.grid_spacing):
            raise ValueError(f"grid spacing must be finite and positive, got {self.grid_spacing}")
        object.__setattr__(self, "max_iterations", core._count(self.max_iterations, "max_iterations"))
        object.__setattr__(self, "image_downsample", core._count(self.image_downsample, "image_downsample"))


@dataclass(frozen=True)
class OptimizerSettings:
    gradient_tolerance: float = 1e-4
    step_tolerance: float = 1e-9

    def __post_init__(self):
        tolerances = (self.gradient_tolerance, self.step_tolerance)
        if not all(np.isfinite(t) and t >= 0 for t in tolerances):
            raise ValueError(f"tolerances must be finite and >= 0, got {tolerances}")


@dataclass(frozen=True)
class RegistrationConfig:
    stages: tuple
    weights: RegularizerWeights = RegularizerWeights()
    optimizer: OptimizerSettings = OptimizerSettings()

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("need at least one registration stage")
        for prev, cur in zip(stages, stages[1:]):
            if any(c > p for c, p in zip(cur.grid_spacing, prev.grid_spacing)):
                raise ValueError("stage grid spacings must be non-increasing coarse to fine")
        object.__setattr__(self, "stages", stages)


@dataclass
class StageHistory:
    grid_spacing: tuple
    iterations: int
    costs: list = field(default_factory=list)
    stop_reason: str = ""
    evaluations: int = 0


def mse_cost_grad(fixed: Volume, moving: Volume, grid: core.ControlPointGrid) -> tuple:
    """Sum of hull-faded squared intensity differences under the warp, and its
    gradient with respect to every coefficient.

    C = sum_x w(p) r^2 with p = x + v(x) and r = M(p) - F(x). M is the
    trilinear interpolant of the moving image. The fade w(p) = prod_d
    clip(min(i_d, n_d - 1 - i_d), 0, 1) at p's voxel index i_d falls from 1 to
    0 across the outermost voxel cell, so C is continuous where a sample
    crosses the voxel-centre hull. An axis of one or two voxels has no room
    for the ramp; there w_d is 1 on and between the voxel planes and 0 off
    them. dC/dp = 2 w r grad M + r^2 grad w, with grad M the exact derivative
    of the interpolant, so the finite-difference check of the cost closes to
    roundoff. Samples on or beyond the hull's faces, or off the planes of a
    thin axis, contribute nothing to value or gradient.

    M and grad M come from one kernel, `volume_io._cell_sample`: each
    sample's cell polynomial, its coefficients forward-differenced from the
    cell's eight corners, evaluated by Horner's rule one axis at a time, the
    derivative along an axis the polynomial of the coefficients with a 1
    there; w and grad w follow by the product rule. Each `core._slabs` row
    block is warped, sampled, faded and scattered in turn, with the bits of
    whole-volume steps; only the cost is whole, so that its sum keeps its
    bits. The block budget
    suits these temporaries: on 2 x86-64 vCPUs an evaluation was faster with it
    than with twice it in 39 of 40 alternating rounds at 48^3 voxels (min 14.6
    against 17.0 ms) and 18 of 24 at 64^3 (34.5 against 35.4 ms, `BENCH_one_route.json`).
    """
    if not fixed.same_geometry(moving):
        raise ValueError("fixed and moving volumes must share dims, spacing and origin")
    if fixed.components != 1 or moving.components != 1:
        raise ValueError("registration expects scalar volumes")

    geometry = grid.geometry
    axes = [fixed.axis_coords(d) for d in range(3)]
    near, far = [a[0] for a in axes], [a[-1] for a in axes]
    if not (geometry.contains(near) and geometry.contains(far)):
        raise ValueError("grid extent does not cover the fixed image")

    ws = _voxel_weights(geometry, fixed)  # built once for all of a stage's evaluations
    cost, gradient = np.empty(fixed.dims), np.zeros((3,) + geometry.lattice_shape)
    for part in core._slabs(fixed.dims):
        planes = _warped_planes(grid, axes, ws, part)
        m_vals, m_grads, fade, fade_grads = _hull_faded_sample(moving, planes)
        # in place on the slab's own arrays, which bound the peak memory
        diff = np.subtract(m_vals, fixed.data[part], out=m_vals)
        faded = np.multiply(fade, diff, out=fade)
        np.multiply(faded, diff, out=cost[part])
        square = np.multiply(diff, diff, out=diff)
        twice = np.multiply(faded, 2.0, out=faded)
        for c in range(3):
            weighted = np.multiply(twice, m_grads[c], out=m_grads[c])
            weighted += np.multiply(square, fade_grads[c], out=fade_grads[c])
            gradient[c] += core.scatter_separable(weighted, ws[0][part], ws[1], ws[2])
    return float(np.sum(cost)), gradient


def _collocation_rank(w: np.ndarray, coords) -> int:
    """Rank of the B-spline weight matrix `w` of the sample positions `coords`
    along one axis, from its nonzero pattern alone (Schoenberg-Whitney; de Boor,
    A Practical Guide to Splines): a square submatrix of distinct increasing
    sites and increasing basis functions is nonsingular exactly when its
    diagonal is nonzero. Each site's nonzeros are one run of columns whose
    ends rise with the site, so matching each distinct site in turn to the
    first free column of its run gives the largest such diagonal."""
    sites = np.unique(np.asarray(coords, dtype=float), return_index=True)[1]
    support = w[sites] != 0
    first = support.argmax(axis=1).tolist()
    last = (w.shape[1] - 1 - support[:, ::-1].argmax(axis=1)).tolist()
    rank = free = 0  # sites matched so far, and the first column none holds
    for lo, hi in zip(first, last):
        column = max(lo, free)
        if column <= hi:
            rank, free = rank + 1, column + 1
    return rank


def fit_grid_to_field(
    geometry: core.GridGeometry, axes, field_samples: np.ndarray
) -> core.ControlPointGrid:
    """Least-squares coefficients reproducing a displacement field sampled on a
    separable grid. The design matrix is a Kronecker product, so the normal
    equations split per axis; fields exactly representable on the lattice are
    recovered exactly. An axis whose weight matrix has fewer rows than columns,
    or is rank-deficient, raises ValueError: its normal equations are singular."""
    ws = [core.axis_weight_matrix(geometry, d, axes[d], 0) for d in range(3)]
    solvers = []
    for axis, w in enumerate(ws, 1):
        rank = _collocation_rank(w, axes[axis - 1])  # at most the sample count
        if rank < w.shape[1]:
            raise ValueError(f"axis {axis}: {w.shape[0]} samples determine only {rank} of {w.shape[1]} control points")
        gram = w.T @ w
        solvers.append(np.linalg.solve(gram, w.T))  # (P, S)
    coeffs = np.empty((3,) + geometry.lattice_shape)
    for c in range(3):
        coeffs[c] = core._contract(field_samples[..., c], *solvers)
    return core.ControlPointGrid(geometry, coeffs)


def _lbfgs(fun, x0: np.ndarray, max_iterations: int, settings: OptimizerSettings) -> tuple:
    """Two-loop-recursion L-BFGS with Armijo backtracking.

    Returns (x, costs, stop_reason). costs holds the accepted iterate values,
    monotone non-increasing by construction of the line search.
    """
    x = x0.copy()
    f, g = fun(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise RuntimeError(f"non-finite cost at the initial point: f={f}")
    costs = [f]
    history = deque(maxlen=HISTORY_SIZE)  # (s, y, 1 / y.s) of each kept step, oldest first
    reason = "max_iterations"
    flat_count = 0

    for _ in range(max_iterations):
        gmax = float(np.max(np.abs(g)))
        if gmax < settings.gradient_tolerance:
            reason = "gradient_tolerance"
            break

        q = g.copy()
        alphas = []
        for s, y, rho in reversed(history):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        if history:
            s, y, _ = history[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), alpha in zip(history, reversed(alphas)):
            q += s * (alpha - rho * float(y @ q))
        direction = -q

        slope = float(g @ direction)
        if slope >= 0:  # curvature information went bad; fall back to steepest descent
            direction = -g
            slope = -float(g @ g)

        step = 1.0
        accepted = False
        for _ in range(40):
            x_new = x + step * direction
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            reason = "line_search_failure"
            break
        if not np.all(np.isfinite(g_new)):
            raise RuntimeError("non-finite gradient during optimization")

        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            history.append((s_vec, y_vec, 1.0 / sy))

        rel_drop = (f - f_new) / max(abs(f), 1e-300)
        x, f, g = x_new, f_new, g_new
        costs.append(f)
        if rel_drop < settings.step_tolerance:
            flat_count += 1
            if flat_count >= 3:
                reason = "step_tolerance"
                break
        else:
            flat_count = 0
    return x, costs, reason


def _check_stage_sizes(fixed: Volume, stages) -> None:
    """Raise ValueError, naming the stage, the axis and both counts, when a
    stage's image_downsample leaves an axis without a voxel, or when a later
    stage's image has fewer voxels on an axis than its lattice has control
    points: the fit that starts that stage from the previous field would be
    singular. Voxels are counted as box_downsample would leave them."""
    for number, stage in enumerate(stages, 1):
        lattice = covering_geometry(fixed, stage.grid_spacing).lattice_shape
        for axis, (n, points) in enumerate(zip(fixed.dims, lattice), 1):
            voxels = n // stage.image_downsample
            if voxels < 1:
                raise ValueError(f"stage {number}: image_downsample {stage.image_downsample} leaves no voxel "
                                 f"of the {n} on axis {axis}")
            if number > 1 and voxels < points:
                raise ValueError(f"stage {number}: its image has {voxels} voxels on axis {axis}, fewer than "
                                 f"the {points} control points of its lattice")


def optimize(fixed: Volume, moving: Volume, config: RegistrationConfig) -> tuple:
    """Multi-stage registration of `moving` onto `fixed`.

    Returns the final ControlPointGrid (on the last stage's geometry) and a
    list of StageHistory records. Costs within a stage are monotone
    non-increasing; a non-finite cost aborts with a diagnostic. Stage sizes
    that leave a stage undetermined (`_check_stage_sizes`) raise ValueError
    before the first stage runs.
    """
    if not fixed.same_geometry(moving):
        raise ValueError("fixed and moving volumes must share dims, spacing and origin")
    _check_stage_sizes(fixed, config.stages)

    grid = None
    histories = []
    for stage in config.stages:
        if stage.image_downsample == 1:
            vol_f, vol_m = fixed, moving  # read only: no copy needed
        else:
            vol_f = box_downsample(fixed, stage.image_downsample)
            vol_m = box_downsample(moving, stage.image_downsample)
        # every stage's lattice covers the full-resolution domain so that
        # coarse fields can always be resampled onto finer stages
        geometry = covering_geometry(fixed, stage.grid_spacing)

        if grid is None:
            stage_grid = core.ControlPointGrid.zeros(geometry)
        else:
            axes = [vol_f.axis_coords(d) for d in range(3)]
            samples = core.sample_displacement(grid, axes)
            stage_grid = fit_grid_to_field(geometry, axes, samples)

        shape = (3,) + geometry.lattice_shape
        calls = [0]  # cost-and-gradient evaluations in this stage

        def cost(x, geometry=geometry, vol_f=vol_f, vol_m=vol_m, shape=shape, calls=calls):
            calls[0] += 1
            g = core.ControlPointGrid(geometry, x.reshape(shape))
            mse_val, mse_grad = mse_cost_grad(vol_f, vol_m, g)
            pen = penalty(g, config.weights)
            return mse_val + pen.value, (mse_grad + pen.gradient).ravel()

        x, costs, reason = _lbfgs(
            cost, stage_grid.coefficients.ravel(), stage.max_iterations, config.optimizer
        )
        grid = core.ControlPointGrid(geometry, x.reshape(shape))
        histories.append(
            StageHistory(
                grid_spacing=stage.grid_spacing,
                iterations=len(costs) - 1,
                costs=[float(c) for c in costs],
                stop_reason=reason,
                evaluations=calls[0],
            )
        )
    return grid, histories
