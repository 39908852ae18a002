"""Command-line surface: exit codes, JSONL schema, determinism."""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splinereg import _threads
from splinereg import bspline_core as core
from splinereg import volume_io as vio
from splinereg.cli import main
from tests.conftest import random_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out: str) -> list:
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


@pytest.fixture
def grid_file(tmp_path):
    grid = random_grid((3, 3, 3), (10.0, 10.0, 10.0), seed=21)
    path = tmp_path / "grid.bspg"
    vio.write_grid(grid, path)
    return str(path)


def test_penalty_zero_grid(tmp_path, capsys):
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    path = tmp_path / "zero.bspg"
    vio.write_grid(core.ControlPointGrid.zeros(geom), path)
    code, out, _ = run_cli(capsys, "penalty", "--grid", str(path), "--json", "--curvature", "1.0")
    assert code == 0
    row = jsonl(out)[0]
    assert row["value"] == 0.0
    for name in ("diffusion", "curvature", "linear_elastic", "third_order", "total_displacement"):
        assert row[name] == 0.0


def test_penalty_analytic_vs_quadrature(grid_file, capsys):
    code, out_a, _ = run_cli(capsys, "penalty", "--grid", grid_file, "--json")
    assert code == 0
    code, out_q, _ = run_cli(
        capsys, "penalty", "--grid", grid_file, "--json", "--method", "quadrature",
        "--samples-per-tile", "16",
    )
    assert code == 0
    a, q = jsonl(out_a)[0], jsonl(out_q)[0]
    for name in ("diffusion", "linear_elastic", "total_displacement"):
        assert abs(a[name] - q[name]) / abs(a[name]) <= 1e-4


def test_penalty_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.bspg"
    bad.write_bytes(b"not a grid\n")
    code, _, err = run_cli(capsys, "penalty", "--grid", str(bad), "--json")
    assert code == 3
    assert "error" in err


def test_penalty_dumps_gradient_and_builds_no_bank(grid_file, tmp_path, capsys, monkeypatch):
    from splinereg import regularizers_analytic

    built = []
    build = regularizers_analytic.build_vbank
    monkeypatch.setattr(regularizers_analytic, "build_vbank", lambda s: built.append(s) or build(s))
    gr = tmp_path / "grad.bspg"
    code, _, _ = run_cli(
        capsys, "penalty", "--grid", grid_file, "--json", "--curvature", "1.0", "--dump-gradient", str(gr),
    )
    assert code == 0
    gradient = vio.read_grid(gr)
    assert np.any(gradient.coefficients != 0.0)
    assert built == []  # the penalty kernel needs no bank; `vbank` exports one


def test_compare_reports_all_regularizers(grid_file, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--grid", grid_file, "--json", "--voxel-spacing", "1.25", "1.25", "1.25"
    )
    assert code == 0
    rows = jsonl(out)
    names = {r["regularizer"] for r in rows}
    assert names == {"diffusion", "curvature", "linear_elastic", "third_order", "total_displacement"}
    for r in rows:
        assert r["analytic_seconds"] > 0
        assert r["numeric_seconds"] > 0
        assert np.isfinite(r["rel_diff"])


def test_metrics_identity_field(tmp_path, capsys):
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    gpath = tmp_path / "zero.bspg"
    vio.write_grid(core.ControlPointGrid.zeros(geom), gpath)
    from splinereg.field_metrics import LandmarkSet, write_landmarks

    pts = LandmarkSet(points=[[5.0, 5.0, 5.0], [12.0, 8.0, 15.0]])
    apath, bpath = tmp_path / "a.lmk", tmp_path / "b.lmk"
    write_landmarks(pts, apath)
    write_landmarks(pts, bpath)
    code, out, _ = run_cli(
        capsys, "metrics", "--grid", str(gpath), "--landmarks-a", str(apath),
        "--landmarks-b", str(bpath), "--json",
    )
    assert code == 0
    row = jsonl(out)[0]
    assert row["mls"] == 0.0
    assert row["min_jacobian"] == pytest.approx(1.0, abs=1e-12)
    assert row["dropped_landmarks"] == 0


def test_metrics_rejects_mismatched_counts(tmp_path, capsys):
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    gpath = tmp_path / "zero.bspg"
    vio.write_grid(core.ControlPointGrid.zeros(geom), gpath)
    (tmp_path / "a.lmk").write_text("1 1 1\n2 2 2\n")
    (tmp_path / "b.lmk").write_text("1 1 1\n")
    code, _, err = run_cli(
        capsys, "metrics", "--grid", str(gpath),
        "--landmarks-a", str(tmp_path / "a.lmk"), "--landmarks-b", str(tmp_path / "b.lmk"),
        "--json",
    )
    assert code == 3
    assert "differ" in err


def test_synth_grid_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.bspg", tmp_path / "b.bspg"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "synth", "grid", "--tiles", "3", "3", "3", "--grid-spacing", "10", "10", "10",
            "--seed", "11", "--out", str(path), "--json",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_phantom_and_field(tmp_path, capsys):
    vpath = tmp_path / "img.vol"
    code, _, _ = run_cli(
        capsys, "synth", "phantom", "--kind", "blobs", "--dims", "12", "12", "12",
        "--voxel-spacing", "2", "2", "2", "--seed", "3", "--out", str(vpath), "--json",
    )
    assert code == 0
    vol = vio.read_volume(vpath)
    assert vol.dims == (12, 12, 12)

    code, out, _ = run_cli(
        capsys, "synth", "field", "--tiles", "4", "4", "4", "--grid-spacing", "12", "12", "12",
        "--amplitude", "2.0", "--smoothness", "20", "--landmarks", "10",
        "--out-prefix", str(tmp_path / "gt"), "--json",
    )
    assert code == 0
    grid = vio.read_grid(tmp_path / "gt.bspg")
    assert grid.geometry.tile_counts == (4, 4, 4)
    from splinereg.field_metrics import read_landmarks

    fixed = read_landmarks(tmp_path / "gt_fixed.lmk")
    warped = read_landmarks(tmp_path / "gt_warped.lmk")
    assert len(fixed) == len(warped) == 10


def test_vbank_command(tmp_path, capsys):
    path = tmp_path / "bank.vbank"
    code, out, _ = run_cli(
        capsys, "vbank", "--spacing", "10", "10", "10", "--out", str(path), "--json"
    )
    assert code == 0
    row = jsonl(out)[0]
    assert row["pairs"] == 23
    assert row["payload_bytes"] == 23 * 64 * 64 * 8


def test_bench_small(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--dims", "24", "24", "24", "--voxel-spacing", "2", "2", "2",
        "--grid-spacing", "16", "16", "16", "--repeats", "3", "--thread-list", "1", "2",
        "--json",
    )
    assert code == 0
    rows = jsonl(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"analytic", "numeric", "scaling"}
    for r in rows:
        assert r["seconds_min"] > 0
        assert r["seconds_mean"] >= r["seconds_min"]
    numeric_rows = [r for r in rows if r["kind"] == "numeric"]
    assert len(numeric_rows) == 5


def test_bench_states_its_environment(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--dims", "12", "12", "12", "--grid-spacing", "8", "8", "8",
        "--repeats", "3", "--skip-numeric", "--json",
    )
    assert code == 0
    for row in jsonl(out):
        assert row["python"] == platform.python_version()
        assert row["numpy"] == np.__version__
        assert row["physical_cores"] == _threads.physical_core_count() >= 1
        assert row["blas_pinning"] in ("threadpoolctl", "openblas-ctypes", None)
        for key in ("blas_threads", "blas_threads_pinned"):
            assert row[key] is None or row[key] >= 1
        if row["blas_pinning"] is not None and row["blas_threads"] is not None:
            assert row["blas_threads_pinned"] == 1


def test_cold_start_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import splinereg, splinereg.cli; "
        "print(json.dumps([splinereg.__file__, sorted(sys.modules)]))"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    origin, modules = json.loads(done.stdout)
    assert Path(origin).resolve().is_relative_to(src)
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_register_tiny(tmp_path, capsys):
    moving = vio.make_phantom("blobs", (16, 16, 16), (2.0, 2.0, 2.0), seed=5)
    geom = vio.covering_geometry(moving, (16.0, 16.0, 16.0))
    truth, fixed_lms, moving_lms = vio.make_ground_truth_field(
        geom, amplitude=1.5, smoothness=20.0, seed=6, n_landmarks=8
    )
    fixed = vio.warp_volume(moving, truth, moving)
    fpath, mpath = tmp_path / "f.vol", tmp_path / "m.vol"
    vio.write_volume(fixed, fpath)
    vio.write_volume(moving, mpath)
    from splinereg.field_metrics import write_landmarks

    write_landmarks(fixed_lms, tmp_path / "fixed.lmk")
    write_landmarks(moving_lms, tmp_path / "moving.lmk")

    code, out, _ = run_cli(
        capsys, "register", "--fixed", str(fpath), "--moving", str(mpath),
        "--stage", "16:15:1", "--curvature", "1e-2",
        "--landmarks-fixed", str(tmp_path / "fixed.lmk"),
        "--landmarks-moving", str(tmp_path / "moving.lmk"),
        "--out-prefix", str(tmp_path / "out"), "--json",
    )
    assert code == 0
    row = jsonl(out)[0]
    assert row["mls"] < row["mls_identity"]
    # each accepted iteration costs at least one evaluation, the start point one more
    assert len(row["stage_evaluations"]) == 1
    assert row["stage_evaluations"][0] >= row["stage_iterations"][0] + 1
    assert (tmp_path / "out.bspg").exists()
    assert (tmp_path / "out_warped.vol").exists()


def test_penalty_numeric_method(grid_file, capsys):
    code, out, _ = run_cli(
        capsys, "penalty", "--grid", grid_file, "--json", "--method", "numeric",
        "--voxel-spacing", "2", "2", "2", "--total-displacement", "1.0",
    )
    assert code == 0
    row = jsonl(out)[0]
    assert row["method"] == "numeric"
    assert row["value"] == pytest.approx(row["total_displacement"])
    assert row["value"] > 0


def test_register_weight_sweep(tmp_path, capsys):
    moving = vio.make_phantom("blobs", (12, 12, 12), (2.0, 2.0, 2.0), seed=9)
    fpath, mpath = tmp_path / "f.vol", tmp_path / "m.vol"
    vio.write_volume(moving, fpath)
    vio.write_volume(moving, mpath)
    code, out, _ = run_cli(
        capsys, "register", "--fixed", str(fpath), "--moving", str(mpath),
        "--stage", "16:3:1", "--sweep-weights", "1e-3,1e-1",
        "--sweep-regularizer", "curvature",
        "--out-prefix", str(tmp_path / "sw"), "--json",
    )
    assert code == 0
    rows = jsonl(out)
    assert [r["sweep_weight"] for r in rows] == [1e-3, 1e-1]
    assert all(r["sweep_regularizer"] == "curvature" for r in rows)


@pytest.mark.parametrize("moving_landmarks", ["1 1 1\n", None], ids=["unequal-counts", "missing-file"])
def test_register_checks_landmarks_before_optimizing(tmp_path, capsys, monkeypatch, moving_landmarks):
    """A landmark pair that cannot be scored is a data error found before the
    registration runs, not after it."""
    from splinereg import registration as reg

    def optimize(*args, **kwargs):
        raise AssertionError("registration ran before the landmarks were checked")

    monkeypatch.setattr(reg, "optimize", optimize)
    volume = vio.make_phantom("blobs", (8, 8, 8), (2.0, 2.0, 2.0), seed=3)
    for name in ("f.vol", "m.vol"):
        vio.write_volume(volume, tmp_path / name)
    (tmp_path / "f.lmk").write_text("1 1 1\n2 2 2\n")
    if moving_landmarks is not None:
        (tmp_path / "m.lmk").write_text(moving_landmarks)
    code, _, err = run_cli(
        capsys, "register", "--fixed", str(tmp_path / "f.vol"), "--moving", str(tmp_path / "m.vol"),
        "--stage", "8:2:1", "--landmarks-fixed", str(tmp_path / "f.lmk"),
        "--landmarks-moving", str(tmp_path / "m.lmk"), "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 3, err
    assert "error:" in err
    assert not (tmp_path / "out.bspg").exists()


def test_register_checks_output_directory_before_optimizing(tmp_path, capsys, monkeypatch):
    """An --out-prefix in a directory that does not exist is a data error
    found before the registration runs, not after every sweep weight."""
    from splinereg import registration as reg

    def optimize(*args, **kwargs):
        raise AssertionError("registration ran before the output directory was checked")

    monkeypatch.setattr(reg, "optimize", optimize)
    volume = vio.make_phantom("blobs", (8, 8, 8), (2.0, 2.0, 2.0), seed=3)
    for name in ("f.vol", "m.vol"):
        vio.write_volume(volume, tmp_path / name)
    missing = tmp_path / "no" / "such"
    code, _, err = run_cli(
        capsys, "register", "--fixed", str(tmp_path / "f.vol"), "--moving", str(tmp_path / "m.vol"),
        "--stage", "8:2:1", "--sweep-regularizer", "curvature", "--sweep-weights", "1e-3,1e-1",
        "--out-prefix", str(missing / "out"),
    )
    assert code == 3, err
    assert f"error: output directory of --out-prefix does not exist: {missing}" in err


def test_register_nan_volume_is_a_data_error(tmp_path, capsys):
    fixed = vio.make_phantom("blobs", (16, 16, 16), (2.0, 2.0, 2.0), seed=5)
    moving = vio.make_phantom("blobs", (16, 16, 16), (2.0, 2.0, 2.0), seed=6)
    moving.data[7, 8, 9] = np.nan
    fpath, mpath = tmp_path / "f.vol", tmp_path / "m.vol"
    vio.write_volume(fixed, fpath)
    vio.write_volume(moving, mpath)
    code, _, err = run_cli(
        capsys, "register", "--fixed", str(fpath), "--moving", str(mpath),
        "--stage", "16:2:1", "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 3, err
    assert "not finite" in err


def test_register_non_finite_origin_is_a_data_error(tmp_path, capsys):
    image = vio.make_phantom("blobs", (16, 16, 16), (2.0, 2.0, 2.0), seed=5)
    fpath, mpath = tmp_path / "f.vol", tmp_path / "m.vol"
    vio.write_volume(image, fpath)
    vio.write_volume(image, mpath)
    mpath.write_bytes(mpath.read_bytes().replace(b"origin 0.0 0.0 0.0\n", b"origin nan 0.0 0.0\n"))
    code, _, err = run_cli(
        capsys, "register", "--fixed", str(fpath), "--moving", str(mpath),
        "--stage", "16:2:1", "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 3, err
    assert "error: header field 'origin nan 0.0 0.0'" in err


def test_register_undetermined_stage_is_a_data_error(tmp_path, capsys, monkeypatch):
    """A later stage whose image has fewer voxels on an axis than its lattice
    has control points is rejected as a data error before any stage runs."""
    from splinereg import registration as reg

    monkeypatch.setattr(reg, "mse_cost_grad", lambda *args: pytest.fail("a stage ran"))
    image = vio.make_phantom("blobs", (40, 1, 40), (2.0, 2.0, 2.0), seed=5)
    vio.write_volume(image, tmp_path / "f.vol")
    vio.write_volume(image, tmp_path / "m.vol")
    code, _, err = run_cli(
        capsys, "register", "--fixed", str(tmp_path / "f.vol"), "--moving", str(tmp_path / "m.vol"),
        "--stage", "16:2:1", "--stage", "8:2:1", "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 3, err
    assert "stage 2: its image has 1 voxels on axis 2" in err


@pytest.mark.parametrize("argv", [
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--threads", "2"),  # no such flag there
    ("penalty", "--grid", "g.bspg", "--threads", "0"),
    ("penalty", "--grid", "g.bspg", "--threads", "-1"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--stage", "16:x"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--stage", "0:2"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--stage", "16:2:1:1"),
    # the files do not exist: a sweep without its regularizer fails before reading them
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--sweep-weights", "1e-3"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--sweep-weights", "1e-3,x",
     "--sweep-regularizer", "curvature"),
    ("bench", "--repeats", "2"),
    ("bench", "--thread-list", "0"),
    # out-of-range values are usage errors, found before any file is read
    ("penalty", "--grid", "g.bspg", "--curvature", "-1"),
    ("penalty", "--grid", "g.bspg", "--diffusion", "nan"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--third-order", "inf"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--sweep-weights", "1e-3,-1",
     "--sweep-regularizer", "curvature"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--stage", "nan:2"),
    ("metrics", "--grid", "g.bspg", "--jacobian-samples", "0"),
    ("penalty", "--grid", "g.bspg", "--method", "quadrature", "--samples-per-tile", "0"),
    ("penalty", "--grid", "g.bspg", "--method", "numeric", "--voxel-spacing", "0", "2", "2"),
    ("compare", "--grid", "g.bspg", "--voxel-spacing", "2", "-1", "2"),
    ("bench", "--grid-spacing", "-4", "8", "8"),
    ("vbank", "--spacing", "8", "0", "8", "--out", "b.vbk"),
    ("bench", "--dims", "0", "8", "8"),
    ("synth", "phantom", "--dims", "8", "-1", "8", "--out", "p.vol"),
    ("synth", "field", "--tiles", "0", "2", "2"),
    ("synth", "field", "--landmarks", "-3"),
    ("synth", "field", "--smoothness", "inf"),
    ("synth", "grid", "--smoothness", "inf", "--out", "g.bspg"),
    ("synth", "field", "--amplitude", "-1"),
    ("synth", "grid", "--amplitude", "nan", "--out", "g.bspg"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--stage", "inf:2"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--gradient-tolerance", "nan"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--step-tolerance", "-5"),
    # a landmark file without its partner is a usage error, not silently ignored
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--landmarks-fixed", "f.lmk"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--landmarks-moving", "m.lmk"),
    ("metrics", "--grid", "g.bspg", "--landmarks-a", "a.lmk"),
    ("metrics", "--grid", "g.bspg", "--landmarks-b", "b.lmk"),
    # a flag the chosen path would silently ignore
    ("penalty", "--grid", "g.bspg", "--method", "numeric", "--dump-gradient", "d.bspg"),
    ("penalty", "--grid", "g.bspg", "--method", "quadrature", "--dump-gradient", "d.bspg"),
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--sweep-regularizer", "curvature"),
    ("metrics", "--grid", "g.bspg", "--landmark-origin", "100", "100", "100"),
])
def test_thread_flag_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["penalty"])  # missing required --grid
    assert err.value.code == 2
