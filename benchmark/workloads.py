"""The three workloads: inputs from a seed, one timed round, and the checks.

Every workload is driven through the library's public functions, looked up
as module attributes at call time so that the tracer's rebinding is seen.
A round always attempts the same operations; `Recorder.op` times each one,
counts it, and counts it as failed if it raises.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import numpy as np

from splinereg import bspline_core as core
from splinereg import field_metrics as fm
from splinereg import regularizers_analytic as ra
from splinereg import regularizers_numeric as rn
from splinereg import registration as reg
from splinereg import volume_io as vio

import oracles

SPEC_JACOBIAN = rn.SamplingSpec.per_tile((4, 4, 4))  # as `splinereg register` uses


@dataclass
class Recorder:
    """Times, counts and spans the operations of the rounds."""

    tracer: object
    prefix: str
    timings: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def op(self, key: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(f"{self.prefix}.{key}"):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:  # a failed operation is counted, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                return None
            self.timings.setdefault(key, []).append(time.perf_counter() - t0)
        return out


def cold_caches():
    """Drop the library's per-geometry memo so each set-up pays what a fresh
    process pays. A later version without the memo needs nothing dropped."""
    memo = getattr(core, "_support_index_map", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def check_close(name: str, actual, expected, tol: float) -> Check:
    err = oracles.relative_error(actual, expected)
    return Check(name, err <= tol, f"max relative error {err:.2e} (tolerance {tol:.0e})")


# ---------------------------------------------------------------------------
# penalty_eval
# ---------------------------------------------------------------------------

class PenaltyEval:
    """Analytic value-and-gradient penalty, five weights, on three lattice sizes."""

    name = "penalty_eval"
    WEIGHTS = ra.RegularizerWeights(
        diffusion=0.5, curvature=1.0, linear_elastic=0.25, third_order=2.0, total_displacement=0.01
    )
    TILE_MM = 8.0

    def __init__(self, tiny: bool):
        self.tiles = (
            {"small": (2, 2, 3), "grad": (4, 4, 4), "large": (6, 6, 6)} if tiny
            else {"small": (3, 4, 5), "grad": (16, 16, 16), "large": (32, 32, 32)}
        )
        # One round: cheap calls in batches between the expensive ones, so
        # that each size is sampled at many moments of the round and a slow
        # spell of the machine does not fall on one size only.
        self.schedule = (
            ("small", 5), ("grad", 1), ("small", 5), ("large", 1), ("small", 5),
            ("grad", 1), ("small", 5), ("parallel", 1), ("small", 5), ("grad", 1),
        )
        self.threads = len(os.sched_getaffinity(0))

    def setup(self, seed: int, workdir) -> dict:
        cold_caches()
        spacing = (self.TILE_MM,) * 3
        grids = {
            key: vio.make_smooth_grid(
                core.GridGeometry(tiles, spacing), amplitude=5.0, smoothness=16.0, seed=seed + i
            )
            for i, (key, tiles) in enumerate(self.tiles.items())
        }
        bank = ra.build_vbank(spacing)
        state = {"grids": grids, "bank": bank, "results": {}}
        for key in ("small", "grad", "large"):
            ra.penalty(grids[key], self.WEIGHTS, bank)
        ra.penalty_parallel(grids["large"], self.WEIGHTS, bank, self.threads)
        return state

    def run_round(self, state: dict, rec: Recorder):
        grids, bank, results = state["grids"], state["bank"], state["results"]
        for key, count in self.schedule:
            for _ in range(count):
                if key == "parallel":
                    out = rec.op(key, ra.penalty_parallel, grids["large"], self.WEIGHTS, bank, self.threads)
                else:
                    out = rec.op(key, ra.penalty, grids[key], self.WEIGHTS, bank)
                results[key] = out if out is not None else results.get(key)

    def end_to_end(self, state: dict, rec: Recorder) -> dict:
        # quick: the per-call overhead regime; main: the registration lattice.
        # The 32^3 serial and parallel calls are most of `round_s`.
        return {"quick_op_ms": median_ms(rec.timings["small"]), "main_op_ms": median_ms(rec.timings["grad"])}

    def layer_extras(self, state: dict, tracer) -> dict:
        out = {}
        for key in ("grad", "large"):
            tiles = state["grids"][key].geometry.tile_total
            out[f"regularizers_analytic.ns_per_tile.{key}"] = (
                1e6 * tracer.mean_ms(f"{self.name}.{key}", "round") / tiles, "ns")
        tracemalloc.start()
        try:
            ra.penalty(state["grids"]["large"], self.WEIGHTS, state["bank"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["regularizers_analytic.peak_alloc_mb"] = (peak / 2 ** 20, "MB")
        return out

    def checks(self, state: dict, seed: int) -> list:
        grids, bank, results = state["grids"], state["bank"], state["results"]
        rng = np.random.default_rng(seed + 1000)
        found = []
        for key, grid in grids.items():
            res = results.get(key)
            if res is None:
                found.append(Check(f"{key}: result", False, "no result: every call failed"))
                continue
            oracle = oracles.gauss_penalty_terms(grid.coefficients, grid.geometry.tile_spacing)
            found.append(check_close(f"{key}: S1..S5 vs Gauss oracle", res.terms, oracle, 1e-12))
            # homogeneous of degree 2: gradient . coefficients = 2 value
            dot = float(np.sum(res.gradient * grid.coefficients))
            found.append(check_close(f"{key}: gradient.p = 2 value", dot, 2.0 * res.value, 1e-10))
            if key == "large":
                continue  # two more large calls would double the check time
            # exactly quadratic: the central difference has no truncation error
            direction = rng.normal(size=grid.coefficients.shape)
            eps = 1.0
            plus = ra.penalty(grid.with_coefficients(grid.coefficients + eps * direction), self.WEIGHTS, bank, False)
            minus = ra.penalty(grid.with_coefficients(grid.coefficients - eps * direction), self.WEIGHTS, bank, False)
            fd = (plus.value - minus.value) / (2 * eps)
            found.append(check_close(f"{key}: central difference = gradient.d", fd,
                                     float(np.sum(res.gradient * direction)), 1e-9))
        par, ser = results.get("parallel"), results.get("large")
        if par is not None and ser is not None:
            found.append(check_close("parallel: terms = penalty", par.terms, ser.terms, 1e-12))
            scale = float(np.max(np.abs(ser.gradient)))
            gerr = float(np.max(np.abs(par.gradient - ser.gradient))) / scale
            found.append(Check("parallel: gradient = penalty", gerr <= 1e-12,
                               f"max gradient difference / max |gradient| {gerr:.2e} (tolerance 1e-12)"))
        else:
            found.append(Check("parallel: result", False, "no result: every call failed"))
        return found


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

class Register:
    """Two-stage MSE + curvature registration in the criterion-8 shape."""

    name = "register"
    # The image pair is the acceptance suite's criterion-8 pair. The number of
    # cost evaluations depends strongly on the pair (81 to 193 over five other
    # pairs at these caps, at 64^3), so a seeded pair would make the
    # registration time measure the draw; the seed draws the landmarks and the
    # gradient-check coefficients.
    PHANTOM_SEED = 21
    FIELD_SEED = 22
    WEIGHTS = ra.RegularizerWeights(curvature=1e-2)
    OPTIMIZER = reg.OptimizerSettings(gradient_tolerance=1e-8, step_tolerance=1e-12)
    OUTPUT_REPEATS = 5

    def __init__(self, tiny: bool):
        # 48^3 rather than criterion 8's 64^3: one registration takes about
        # 6 s instead of 21-32 s, so a run times three and reports their
        # median; a single 64^3 registration spread by 22% between runs.
        self.dims = (24, 24, 24) if tiny else (48, 48, 48)
        caps = (3, 3) if tiny else (15, 15)  # 15: the coarse stage reaches its plateau
        self.config = reg.RegistrationConfig(
            stages=(
                reg.RegistrationStage((16.0,) * 3, max_iterations=caps[0], image_downsample=2),
                reg.RegistrationStage((8.0,) * 3, max_iterations=caps[1]),
            ),
            weights=self.WEIGHTS,
            optimizer=self.OPTIMIZER,
        )
        self.landmarks = 100 if tiny else 1000

    def setup(self, seed: int, workdir) -> dict:
        cold_caches()
        base = vio.make_phantom("blobs", self.dims, (2.0, 2.0, 2.0), seed=self.PHANTOM_SEED)
        moving = vio.Volume(data=base.data * 0.3, spacing=base.spacing, origin=base.origin)
        geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
        amplitude = 4.0
        truth, _, _ = vio.make_ground_truth_field(
            geom, amplitude=amplitude, smoothness=30.0, seed=self.FIELD_SEED, n_landmarks=200
        )
        fixed = vio.warp_volume(moving, truth, moving)
        lo, hi = np.array(geom.origin), np.array(geom.far_corner())
        margin = amplitude + 0.01 * (hi - lo)
        points = np.random.default_rng(seed).uniform(lo + margin, hi - margin, size=(self.landmarks, 3))
        fixed_lms = fm.LandmarkSet(points=points, label="fixed")
        moving_lms = fm.warp_landmarks(truth, fixed_lms)
        reg.mse_cost_grad(fixed, moving, core.ControlPointGrid.zeros(geom))  # warm-up
        return {"fixed": fixed, "moving": moving, "fixed_lms": fixed_lms,
                "moving_lms": moving_lms, "outputs": None}

    def _outputs(self, state: dict, grid, histories) -> dict:
        """What `splinereg register` reports after the optimizer returns."""
        fixed, moving = state["fixed"], state["moving"]
        warped = vio.warp_volume(moving, grid, fixed)
        _, min_j = fm.jacobian_map(grid, SPEC_JACOBIAN)
        mask = fm.extent_mask(grid.geometry, state["fixed_lms"])
        warped_lms = fm.warp_landmarks(grid, state["fixed_lms"].select(mask))
        return {
            "grid": grid, "histories": histories, "warped": warped, "min_jacobian": min_j,
            "mls": fm.mls(warped_lms, state["moving_lms"].select(mask)),
            "mls_identity": fm.mls(state["fixed_lms"], state["moving_lms"]),
            "landmarks_kept": int(mask.sum()),
        }

    def run_round(self, state: dict, rec: Recorder):
        found = rec.op("optimize", reg.optimize, state["fixed"], state["moving"], self.config)
        if found is None:
            return
        # the output stage is short beside the optimizer: repeated, so that
        # its median does not rest on one sample
        for _ in range(self.OUTPUT_REPEATS):
            out = rec.op("outputs", self._outputs, state, *found)
            if out is not None:
                state["outputs"] = out

    def end_to_end(self, state: dict, rec: Recorder) -> dict:
        return {"quick_op_ms": median_ms(rec.timings["outputs"]), "main_op_ms": median_ms(rec.timings["optimize"])}

    def layer_extras(self, state: dict, tracer) -> dict:
        out = state["outputs"]
        accepted = sum(h.iterations for h in out["histories"]) if out else 0
        return {"registration.accepted_iterations": (float(accepted), "count")}

    def checks(self, state: dict, seed: int) -> list:
        out = state["outputs"]
        if out is None:
            return [Check("registration: result", False, "no result: every registration failed")]
        found = []
        for n, h in enumerate(out["histories"], start=1):
            rises = [b - a for a, b in zip(h.costs, h.costs[1:]) if b > a]
            found.append(Check(f"stage {n}: costs do not increase", not rises,
                               f"{len(h.costs)} costs, {len(rises)} increases, stop {h.stop_reason}"))
        # MSE gradient against central differences, as in acceptance criterion 2
        fixed = vio.box_downsample(state["fixed"], 2)
        moving = vio.box_downsample(state["moving"], 2)
        grid = out["grid"]
        _, gradient = reg.mse_cost_grad(fixed, moving, grid)
        floor = 1e-4 * float(np.max(np.abs(gradient)))
        rng = np.random.default_rng(seed + 2000)
        worst, h = 0.0, 1e-4
        for _ in range(8):
            idx = (int(rng.integers(0, 3)),) + tuple(int(rng.integers(0, s)) for s in grid.geometry.lattice_shape)
            plus, minus = grid.copy(), grid.copy()
            plus.coefficients[idx] += h
            minus.coefficients[idx] -= h
            fd = (reg.mse_cost_grad(fixed, moving, plus)[0] - reg.mse_cost_grad(fixed, moving, minus)[0]) / (2 * h)
            an = float(gradient[idx])
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), floor))
        found.append(Check("mse_cost_grad: gradient vs central differences", worst <= 1e-4,
                           f"max relative error {worst:.2e} over 8 coefficients (tolerance 1e-4)"))
        found.append(Check("MLS below identity", out["mls"] < out["mls_identity"],
                           f"MLS {out['mls_identity']:.3f} -> {out['mls']:.3f} mm "
                           f"over {out['landmarks_kept']} landmarks"))
        found.append(Check("min Jacobian > 0", out["min_jacobian"] > 0.0,
                           f"min J {out['min_jacobian']:.3f}"))
        return found


# ---------------------------------------------------------------------------
# paper_compare
# ---------------------------------------------------------------------------

class PaperCompare:
    """The paper's experiment: analytic S1..S5 against finite differences."""

    name = "paper_compare"
    NO_WEIGHTS = ra.RegularizerWeights()  # S1..S5 are computed whatever the weights
    ANALYTIC_CALLS = 20

    def __init__(self, tiny: bool):
        self.dims = (64, 64, 64) if tiny else (128, 128, 128)
        self.tile_mm = 32.0
        self.voxel_mm = 2.0
        # Stated gap between each finite-difference term and the exact value,
        # S1..S5; measured gaps are a third to a tenth of these. On the tiny
        # 4^3-tile grid the skipped stencil margin is a larger share of the
        # field, so its gaps are larger.
        self.fd_gap = (0.2, 0.2, 0.2, 0.5, 1e-3) if tiny else (1e-2, 2e-2, 1e-2, 1e-1, 1e-5)

    def setup(self, seed: int, workdir) -> dict:
        cold_caches()
        extent = [(d - 1) * self.voxel_mm for d in self.dims]
        tiles = tuple(max(1, int(np.ceil(e / self.tile_mm - 1e-9))) for e in extent)
        made = vio.make_smooth_grid(core.GridGeometry(tiles, (self.tile_mm,) * 3),
                                    amplitude=5.0, smoothness=2.0 * self.tile_mm, seed=seed)
        path = workdir / f"{self.name}-{seed}.bspg"
        vio.write_grid(made, path)
        grid = vio.read_grid(path)
        path.unlink()
        bank = ra.build_vbank(grid.geometry.tile_spacing)
        ra.penalty(grid, self.NO_WEIGHTS, bank, with_gradient=False)  # warm-up
        return {"grid": grid, "bank": bank, "spec": rn.SamplingSpec.voxel_grid((self.voxel_mm,) * 3),
                "analytic": None, "fd": [None] * 5}

    def run_round(self, state: dict, rec: Recorder):
        grid, bank = state["grid"], state["bank"]
        # The analytic calls in one block: right after a finite-difference
        # term has freed its volumes, a call takes up to twice as long, and
        # interleaved batches made that a quarter of the samples.
        for _ in range(self.ANALYTIC_CALLS):
            res = rec.op("analytic", ra.penalty, grid, self.NO_WEIGHTS, bank, with_gradient=False)
            if res is not None:
                state["analytic"] = res.terms
        for n, name in enumerate(ra.REGULARIZER_NAMES):
            res = rec.op(f"fd.{name}", rn.fd_penalty, grid, self.NO_WEIGHTS, state["spec"], terms=[n])
            if res is not None:
                state["fd"][n] = float(res.terms[n])

    def end_to_end(self, state: dict, rec: Recorder) -> dict:
        # the sum of the terms' medians: a slow spell in one term does not
        # carry the other four of its round with it
        fd_ms = sum(median_ms(rec.timings[f"fd.{n}"]) for n in ra.REGULARIZER_NAMES)
        return {"quick_op_ms": median_ms(rec.timings["analytic"]), "main_op_ms": fd_ms}

    def layer_extras(self, state: dict, tracer) -> dict:
        return {
            f"regularizers_numeric.fd_penalty_ms.{name}": (tracer.mean_ms(f"{self.name}.fd.{name}", "round"), "ms")
            for name in ra.REGULARIZER_NAMES
        }

    def checks(self, state: dict, seed: int) -> list:
        grid, analytic = state["grid"], state["analytic"]
        if analytic is None:
            return [Check("analytic: result", False, "no result: every call failed")]
        oracle = oracles.gauss_penalty_terms(grid.coefficients, grid.geometry.tile_spacing)
        found = [check_close("analytic S1..S5 vs Gauss oracle", analytic, oracle, 1e-12)]
        for n, name in enumerate(ra.REGULARIZER_NAMES):
            fd = state["fd"][n]
            if fd is None:
                found.append(Check(f"fd {name}: result", False, "no result"))
                continue
            found.append(check_close(f"fd {name}: gap to analytic", fd, analytic[n], self.fd_gap[n]))
        found.extend(self._convergence(seed))
        return found

    def _convergence(self, seed: int) -> list:
        """Halving the voxel spacing cuts the S1..S3 gap about fourfold.

        The lattice is zero on its four outer shells on every side, so the field
        vanishes on the outermost tiles and skipping the stencil margin drops
        nothing: what is left is the O(h^2) error of the first- and
        second-difference stencils. (Third derivatives jump at every knot, so
        the S4 stencil converges only O(h); S5 has no stencil.)
        """
        geom = core.GridGeometry((8, 8, 8), (8.0, 8.0, 8.0))
        coeffs = np.zeros((3,) + geom.lattice_shape)
        inner = (slice(None),) + (slice(4, -4),) * 3
        coeffs[inner] = np.random.default_rng(seed + 3000).normal(0.0, 2.0, size=coeffs[inner].shape)
        grid = core.ControlPointGrid(geom, coeffs)
        exact = oracles.gauss_penalty_terms(coeffs, geom.tile_spacing)
        gaps = []
        for h in (2.0, 1.0):
            fd = rn.fd_penalty(grid, self.NO_WEIGHTS, rn.SamplingSpec.voxel_grid((h,) * 3), terms=[0, 1, 2]).terms
            gaps.append(np.abs(fd[:3] - exact[:3]) / np.abs(exact[:3]))
        ratios = gaps[0] / gaps[1]
        ok = bool(np.all((ratios > 3.0) & (ratios < 5.0)))
        return [Check("fd S1..S3: gap ratio at h=2 mm vs 1 mm", ok,
                      "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " (need 3..5)")]


WORKLOADS = {cls.name: cls for cls in (PenaltyEval, Register, PaperCompare)}
