"""Command-line interface.

Machine-readable output is line-delimited JSON on stdout (enable with
--json); without it a small human-readable table is printed instead.
Progress and notes always go to stderr. Exit codes: 0 success, 2 usage,
3 data/format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bspline_core as core
from . import field_metrics as metrics
from . import regularizers_analytic as analytic
from . import regularizers_numeric as numeric
from . import registration as reg
from . import volume_io as vio
from ._threads import blas_environment, physical_core_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _note(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _emit(rows: list, args):
    if getattr(args, "json", False):
        for row in rows:
            print(json.dumps(row, sort_keys=True), flush=True)
    else:
        for row in rows:
            print("  ".join(f"{k}={_short(v)}" for k, v in row.items()))


def _short(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return v


def _weights_from_args(args) -> analytic.RegularizerWeights:
    return analytic.RegularizerWeights(**{n: getattr(args, n) for n in analytic.REGULARIZER_NAMES})


def _add_weight_flags(p: argparse.ArgumentParser):
    for mu, name in enumerate(analytic.REGULARIZER_NAMES, start=1):
        p.add_argument("--" + name.replace("_", "-"), type=_weight, default=0.0,
                       help=f"weight mu{mu}")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return value

    return integer


def _weight(text: str) -> float:
    """argparse type: a finite number >= 0."""
    value = float(text)
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _spacing(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)
    if not np.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _weight_list(text: str) -> list:
    """argparse type: a comma-separated list of weights."""
    return [_weight(v) for v in text.split(",")]


def _add_json_flag(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="emit line-delimited JSON on stdout")


def _add_seed_flag(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="random seed")


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

def cmd_penalty(args) -> int:
    grid = vio.read_grid(args.grid)
    weights = _weights_from_args(args)

    t0 = time.perf_counter()
    if args.method == "analytic":
        res = analytic.penalty_parallel(grid, weights, thread_count=args.threads,
                                        with_gradient=bool(args.dump_gradient))
        terms, value = res.terms, res.value
        if args.dump_gradient:
            gradient_grid = core.ControlPointGrid(grid.geometry, res.gradient)
            vio.write_grid(gradient_grid, args.dump_gradient)
            _note(f"wrote penalty gradient to {args.dump_gradient}")
    elif args.method == "quadrature":
        bd = numeric.quadrature_penalty(grid, weights, (args.samples_per_tile,) * 3)
        terms, value = bd.terms, bd.value
    else:
        spec = numeric.SamplingSpec.voxel_grid(tuple(args.voxel_spacing), args.boundary)
        bd = numeric.fd_penalty(grid, weights, spec)
        terms, value = bd.terms, bd.value
    elapsed = time.perf_counter() - t0

    row = {"command": "penalty", "method": args.method, "value": float(value), "seconds": elapsed}
    row.update({name: float(t) for name, t in zip(analytic.REGULARIZER_NAMES, terms)})
    _emit([row], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    grid = vio.read_grid(args.grid)
    weights = analytic.RegularizerWeights()
    spec = numeric.SamplingSpec.voxel_grid(tuple(args.voxel_spacing), args.boundary)

    t0 = time.perf_counter()
    res = analytic.penalty(grid, weights, with_gradient=False)
    analytic_seconds = time.perf_counter() - t0

    rows = []
    for n, name in enumerate(analytic.REGULARIZER_NAMES):
        t0 = time.perf_counter()
        bd = numeric.fd_penalty(grid, weights, spec, terms=[n])
        numeric_seconds = time.perf_counter() - t0
        a, f = float(res.terms[n]), float(bd.terms[n])
        denom = max(abs(a), 1e-300)
        rows.append(
            {
                "command": "compare",
                "regularizer": name,
                "analytic": a,
                "numeric": f,
                "rel_diff": abs(a - f) / denom,
                "analytic_seconds": analytic_seconds,
                "numeric_seconds": numeric_seconds,
            }
        )
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _timed(fn, repeats: int) -> dict:
    """Min and mean wall time (s) of `repeats` calls of fn, after a warm-up call
    that pays cache and allocator costs."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    if min(times) <= 0:
        raise ValueError("non-positive wall time recorded")
    return {"seconds_min": min(times), "seconds_mean": float(np.mean(times))}


def cmd_bench(args) -> int:
    dims = tuple(args.dims)
    vsp = tuple(args.voxel_spacing)
    gsp = tuple(args.grid_spacing)
    geometry = vio.covering_geometry(vio.Volume(np.broadcast_to(0.0, dims), vsp), gsp)
    grid = vio.make_smooth_grid(geometry, amplitude=5.0, smoothness=2.0 * max(gsp), seed=args.seed)
    spec = numeric.SamplingSpec.voxel_grid(vsp)
    weights = analytic.RegularizerWeights()

    config = {
        "dims": list(dims),
        "voxel_spacing": list(vsp),
        "grid_spacing": list(gsp),
        "tiles": list(geometry.tile_counts),
        "tile_total": geometry.tile_total,
        "repeats": args.repeats,
        # the environment the timings were taken in
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "physical_cores": physical_core_count(),
        **blas_environment(),
    }

    _note(f"bench: {geometry.tile_total} tiles, {np.prod(dims)} voxels, {args.repeats} repeats")
    analytic_time = _timed(lambda: analytic.penalty(grid, weights, with_gradient=False), args.repeats)
    rows = [{"command": "bench", "kind": "analytic", **analytic_time, **config}]

    if not args.skip_numeric:
        for n, name in enumerate(analytic.REGULARIZER_NAMES):
            t = _timed(lambda n=n: numeric.fd_penalty(grid, weights, spec, terms=[n]),
                       max(3, args.repeats // 4))
            speedup = t["seconds_min"] / analytic_time["seconds_min"]
            rows.append({"command": "bench", "kind": "numeric", "regularizer": name, **t,
                         "speedup": speedup, **config})

    base = None
    for nt in sorted(set(args.thread_list or [1])):
        t = _timed(lambda nt=nt: analytic.penalty_parallel(grid, weights, thread_count=nt), args.repeats)
        if nt == 1:
            base = t["seconds_min"]
        row = {"command": "bench", "kind": "scaling", "threads": nt, **t, **config}
        if base is not None:  # speedup is relative to the 1-thread run
            row["speedup"] = base / t["seconds_min"]
            row["efficiency"] = row["speedup"] / nt
        rows.append(row)
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _parse_stage(text: str) -> reg.RegistrationStage:
    """argparse type: 'spacing[:iterations[:downsample]]'."""
    spacing, *counts = text.split(":")
    try:
        if len(counts) > 2:
            raise ValueError("more than three fields")
        return reg.RegistrationStage((float(spacing),) * 3, *(int(v) for v in counts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"stage must be 'spacing[:iterations[:downsample]]', got {text!r}: {exc}"
        ) from None


def _run_registration(fixed, moving, config, landmarks) -> dict:
    grid, histories = reg.optimize(fixed, moving, config)
    warped = vio.warp_volume(moving, grid, fixed)
    final_mse, _ = reg.mse_cost_grad(fixed, moving, grid)  # hull-faded samples, as optimized
    spec = numeric.SamplingSpec.per_tile((4, 4, 4))
    _, min_j = metrics.jacobian_map(grid, spec)
    out = {
        "final_mse": final_mse,
        "min_jacobian": min_j,
        "stage_iterations": [h.iterations for h in histories],
        "stage_final_costs": [h.costs[-1] for h in histories],
        "stage_stop_reasons": [h.stop_reason for h in histories],
        "stage_evaluations": [h.evaluations for h in histories],
    }
    if landmarks is not None:
        fit, kept_fixed, _, kept_moving = _landmark_fit(grid, *landmarks)
        out.update(fit, mls_identity=metrics.mls(kept_fixed, kept_moving))
    return out, grid, warped


def cmd_register(args) -> int:
    out_dir = Path(args.out_prefix).parent  # the outputs are written only after the long run
    if not out_dir.is_dir():
        raise FileNotFoundError(f"output directory of --out-prefix does not exist: {out_dir}")
    fixed = vio.read_volume(args.fixed)
    moving = vio.read_volume(args.moving)
    stages = tuple(args.stage) if args.stage else (
        reg.RegistrationStage((20.0,) * 3, 60, 2),
        reg.RegistrationStage((10.0,) * 3, 60, 1),
    )
    optimizer = reg.OptimizerSettings(
        gradient_tolerance=args.gradient_tolerance,
        step_tolerance=args.step_tolerance,
    )

    landmarks = None
    if args.landmarks_fixed:  # the parser requires its pair; read before the long run
        landmarks = _landmark_pair(metrics.read_landmarks(args.landmarks_fixed),
                                   metrics.read_landmarks(args.landmarks_moving))
    sweep = args.sweep_weights or [None]

    rows = []
    for sweep_value in sweep:
        weights = _weights_from_args(args)
        if sweep_value is not None:
            weights = dataclasses.replace(weights, **{args.sweep_regularizer: sweep_value})
        config = reg.RegistrationConfig(stages=stages, weights=weights, optimizer=optimizer)
        _note(f"registering with weights {weights}")
        result, grid, warped = _run_registration(fixed, moving, config, landmarks)
        row = {"command": "register", **result}
        if sweep_value is not None:
            row["sweep_regularizer"] = args.sweep_regularizer
            row["sweep_weight"] = sweep_value
        rows.append(row)
        if sweep_value is None or sweep_value == sweep[-1]:
            vio.write_grid(grid, f"{args.out_prefix}.bspg")
            vio.write_volume(warped, f"{args.out_prefix}_warped.vol")
            _note(f"wrote {args.out_prefix}.bspg and {args.out_prefix}_warped.vol")
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _landmark_pair(a: metrics.LandmarkSet, b: metrics.LandmarkSet) -> tuple:
    """(a, b), checked to pair point for point."""
    if len(a) != len(b):
        raise ValueError(f"landmark sets differ in length: {len(a)} vs {len(b)}")
    return a, b


def _landmark_fit(grid, a: metrics.LandmarkSet, b: metrics.LandmarkSet) -> tuple:
    """Warp the landmarks of `a` inside the grid's extent through the grid.

    Returns the row fields `dropped_landmarks` and `mls` (against the partners
    in `b`), then the kept points of `a`, their warps and their partners.
    """
    mask = metrics.extent_mask(grid.geometry, a)
    kept_a, kept_b = a.select(mask), b.select(mask)
    warped = metrics.warp_landmarks(grid, kept_a)
    fit = {"dropped_landmarks": int(len(a) - int(mask.sum())), "mls": metrics.mls(warped, kept_b)}
    return fit, kept_a, warped, kept_b


def _load_landmarks(path, args) -> metrics.LandmarkSet:
    lms = metrics.read_landmarks(path)
    if args.landmark_voxel_spacing:
        sp = np.array(args.landmark_voxel_spacing)
        org = np.array(args.landmark_origin or (0.0, 0.0, 0.0))
        lms = metrics.LandmarkSet(points=org + lms.points * sp, label=lms.label)
    return lms


def cmd_metrics(args) -> int:
    grid = vio.read_grid(args.grid)
    row = {"command": "metrics"}
    spec = numeric.SamplingSpec.per_tile((args.jacobian_samples,) * 3)
    _, min_j = metrics.jacobian_map(grid, spec)
    row["min_jacobian"] = min_j
    if args.landmarks_a:  # the parser requires its pair
        a, b = _landmark_pair(_load_landmarks(args.landmarks_a, args),
                              _load_landmarks(args.landmarks_b, args))
        fit, _, warped, kept_b = _landmark_fit(grid, a, b)
        row.update(fit)
        sep = np.linalg.norm(warped.points - kept_b.points, axis=1)
        if len(sep):
            row["separation_p50"] = float(np.percentile(sep, 50))
            row["separation_p95"] = float(np.percentile(sep, 95))
    _emit([row], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth_phantom(args) -> int:
    vol = vio.make_phantom(args.kind, tuple(args.dims), tuple(args.voxel_spacing), args.seed)
    vio.write_volume(vol, args.out)
    _emit([{"command": "synth-phantom", "kind": args.kind, "out": args.out,
            "dims": list(vol.dims), "seed": args.seed}], args)
    return EXIT_OK


def cmd_synth_field(args) -> int:
    geometry = core.GridGeometry(tuple(args.tiles), tuple(args.grid_spacing))
    grid, fixed_lms, warped_lms = vio.make_ground_truth_field(
        geometry,
        amplitude=args.amplitude,
        smoothness=args.smoothness,
        seed=args.seed,
        n_landmarks=args.landmarks,
    )
    vio.write_grid(grid, f"{args.out_prefix}.bspg")
    metrics.write_landmarks(fixed_lms, f"{args.out_prefix}_fixed.lmk")
    metrics.write_landmarks(warped_lms, f"{args.out_prefix}_warped.lmk")
    _emit(
        [{
            "command": "synth-field",
            "out_grid": f"{args.out_prefix}.bspg",
            "out_landmarks": [f"{args.out_prefix}_fixed.lmk", f"{args.out_prefix}_warped.lmk"],
            "seed": args.seed,
        }],
        args,
    )
    return EXIT_OK


def cmd_synth_grid(args) -> int:
    geometry = core.GridGeometry(tuple(args.tiles), tuple(args.grid_spacing))
    if args.smoothness > 0:
        grid = vio.make_smooth_grid(geometry, args.amplitude, args.smoothness, args.seed,
                                    edge_taper=not args.no_taper)
    else:
        grid = vio.random_coefficient_grid(geometry, args.amplitude, args.seed)
    vio.write_grid(grid, args.out)
    _emit([{"command": "synth-grid", "out": args.out, "tiles": list(geometry.tile_counts),
            "seed": args.seed}], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# vbank
# ---------------------------------------------------------------------------

def cmd_vbank(args) -> int:
    bank = analytic.build_vbank(tuple(args.spacing))
    analytic.write_vbank(bank, args.out)
    _emit(
        [{
            "command": "vbank",
            "out": args.out,
            "pairs": len(bank),
            "payload_bytes": bank.payload_bytes(),
        }],
        args,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinereg",
        description="Analytic regularization of cubic B-spline displacement fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("penalty", help="evaluate the smoothness penalty of a coefficient grid")
    p.add_argument("--grid", required=True, help="BSPG1 coefficient file")
    p.add_argument("--method", choices=("analytic", "numeric", "quadrature"), default="analytic")
    p.add_argument("--voxel-spacing", type=_spacing, nargs=3, default=(2.0, 2.0, 2.0),
                   metavar=("S1", "S2", "S3"), help="sample spacing for --method numeric")
    p.add_argument("--samples-per-tile", type=_int_at_least(2), default=16,
                   help="for --method quadrature")
    p.add_argument("--boundary", choices=("skip-boundary", "clamp"), default="skip-boundary")
    p.add_argument("--dump-gradient", metavar="PATH", help="write the penalty gradient (BSPG1)")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="worker threads")
    _add_weight_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_penalty)

    p = sub.add_parser("compare", help="analytic vs finite-difference values per regularizer")
    p.add_argument("--grid", required=True)
    p.add_argument("--voxel-spacing", type=_spacing, nargs=3, default=(2.0, 2.0, 2.0),
                   metavar=("S1", "S2", "S3"))
    p.add_argument("--boundary", choices=("skip-boundary", "clamp"), default="skip-boundary")
    _add_json_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="time analytic vs numeric penalties and thread scaling")
    p.add_argument("--dims", type=_int_at_least(1), nargs=3, default=(128, 128, 128),
                   metavar=("D1", "D2", "D3"))
    p.add_argument("--voxel-spacing", type=_spacing, nargs=3, default=(2.0, 2.0, 2.0),
                   metavar=("S1", "S2", "S3"))
    p.add_argument("--grid-spacing", type=_spacing, nargs=3, default=(32.0, 32.0, 32.0),
                   metavar=("R1", "R2", "R3"))
    p.add_argument("--repeats", type=_int_at_least(3), default=20, help="timed runs, at least 3")
    p.add_argument("--thread-list", type=_int_at_least(1), nargs="*", default=None,
                   help="thread counts for the scaling sweep")
    p.add_argument("--skip-numeric", action="store_true", help="only run analytic timings")
    _add_seed_flag(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("register", help="MSE + penalty registration of two volumes")
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--stage", action="append", type=_parse_stage,
                   help="'spacing[:iterations[:downsample]]', repeat coarse to fine")
    p.add_argument("--out-prefix", default="registered")
    p.add_argument("--landmarks-fixed", help="landmarks in the fixed frame (mm)")
    p.add_argument("--landmarks-moving", help="true corresponding points in the moving frame (mm)")
    p.add_argument("--gradient-tolerance", type=_weight, default=1e-4)
    p.add_argument("--step-tolerance", type=_weight, default=1e-9)
    p.add_argument("--sweep-weights", type=_weight_list,
                   help="comma list of weights to sweep, one run each")
    p.add_argument("--sweep-regularizer", choices=analytic.REGULARIZER_NAMES,
                   help="which weight --sweep-weights varies")
    _add_weight_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("metrics", help="min Jacobian and landmark separation of a field")
    p.add_argument("--grid", required=True)
    p.add_argument("--landmarks-a", help="landmarks to warp through the field")
    p.add_argument("--landmarks-b", help="reference landmarks to compare against")
    p.add_argument("--landmark-voxel-spacing", type=_spacing, nargs=3, default=None,
                   metavar=("S1", "S2", "S3"),
                   help="treat landmark coordinates as voxel indices with this spacing")
    p.add_argument("--landmark-origin", type=float, nargs=3, default=None,
                   metavar=("O1", "O2", "O3"),
                   help="physical position of voxel index (0, 0, 0) with --landmark-voxel-spacing "
                        "(default 0 0 0)")
    p.add_argument("--jacobian-samples", type=_int_at_least(1), default=4,
                   help="samples per tile per axis")
    _add_json_flag(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate synthetic volumes, fields, and grids")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    sp = synth_sub.add_parser("phantom", help="synthetic test image")
    sp.add_argument("--kind", choices=("blobs", "gradient", "checker"), default="blobs")
    sp.add_argument("--dims", type=_int_at_least(1), nargs=3, default=(64, 64, 64),
                    metavar=("D1", "D2", "D3"))
    sp.add_argument("--voxel-spacing", type=_spacing, nargs=3, default=(2.0, 2.0, 2.0),
                    metavar=("S1", "S2", "S3"))
    sp.add_argument("--out", required=True)
    _add_seed_flag(sp)
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_synth_phantom)

    sp = synth_sub.add_parser("field", help="ground-truth field plus landmark pair")
    sp.add_argument("--tiles", type=_int_at_least(1), nargs=3, default=(8, 8, 8),
                    metavar=("N1", "N2", "N3"))
    sp.add_argument("--grid-spacing", type=_spacing, nargs=3, default=(16.0, 16.0, 16.0),
                    metavar=("R1", "R2", "R3"))
    sp.add_argument("--amplitude", type=_weight, default=4.0, help="peak displacement (mm)")
    sp.add_argument("--smoothness", type=_weight, default=30.0, help="correlation scale (mm)")
    sp.add_argument("--landmarks", type=_int_at_least(0), default=300)
    sp.add_argument("--out-prefix", dest="out_prefix", default="field")
    _add_seed_flag(sp)
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_synth_field)

    sp = synth_sub.add_parser("grid", help="random coefficient grid")
    sp.add_argument("--tiles", type=_int_at_least(1), nargs=3, default=(4, 4, 4),
                    metavar=("N1", "N2", "N3"))
    sp.add_argument("--grid-spacing", type=_spacing, nargs=3, default=(10.0, 10.0, 10.0),
                    metavar=("R1", "R2", "R3"))
    sp.add_argument("--amplitude", type=_weight, default=1.0)
    sp.add_argument("--smoothness", type=_weight, default=0.0,
                    help="if > 0, blur to this physical scale")
    sp.add_argument("--no-taper", action="store_true", help="skip the boundary taper")
    sp.add_argument("--out", required=True)
    _add_seed_flag(sp)
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_synth_grid)

    p = sub.add_parser("vbank", help="build and export the 23 integrated tile operators")
    p.add_argument("--spacing", type=_spacing, nargs=3, required=True, metavar=("R1", "R2", "R3"))
    p.add_argument("--out", required=True)
    _add_json_flag(p)
    p.set_defaults(func=cmd_vbank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump_gradient", None) and args.method != "analytic":
        parser.error("--dump-gradient requires --method analytic")
    if getattr(args, "landmark_origin", None) and not args.landmark_voxel_spacing:
        parser.error("--landmark-origin requires --landmark-voxel-spacing")
    pairs = (("sweep_weights", "sweep_regularizer"), ("landmarks_fixed", "landmarks_moving"),
             ("landmarks_a", "landmarks_b"))
    for a, b in pairs:
        if bool(getattr(args, a, None)) != bool(getattr(args, b, None)):
            parser.error(f"--{a} and --{b} must be given together".replace("_", "-"))
    try:
        return args.func(args)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        _note(f"numerical failure: {exc}")
        return EXIT_NUMERIC
    except (vio.FormatError, OSError, ValueError, IndexError) as exc:
        _note(f"error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
