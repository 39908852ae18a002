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


def test_penalty_dump_vbank_and_gradient(grid_file, tmp_path, capsys, monkeypatch):
    from splinereg import regularizers_analytic

    built = []
    build = regularizers_analytic.build_vbank
    monkeypatch.setattr(regularizers_analytic, "build_vbank", lambda s: built.append(s) or build(s))
    vb = tmp_path / "ops.vbank"
    gr = tmp_path / "grad.bspg"
    code, _, _ = run_cli(
        capsys, "penalty", "--grid", grid_file, "--json", "--curvature", "1.0",
        "--dump-vbank", str(vb), "--dump-gradient", str(gr),
    )
    assert code == 0
    from splinereg.regularizers_analytic import read_vbank

    bank = read_vbank(vb)
    assert len(bank) == 23
    gradient = vio.read_grid(gr)
    assert np.any(gradient.coefficients != 0.0)
    assert len(built) == 1  # the dumped bank is the one the penalty uses


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


def test_thread_count_resolution(monkeypatch, capsys):
    from splinereg import _threads
    from splinereg._threads import THREADS_ENV_VAR, resolve_thread_count

    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_thread_count(None) == 1
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert resolve_thread_count(None) == 3
    assert resolve_thread_count(2) == 2  # the flag wins
    assert capsys.readouterr().err == ""
    _threads._warn_bad_thread_env.cache_clear()
    try:
        for bad in ("junk", "0", "-2"):
            monkeypatch.setenv(THREADS_ENV_VAR, bad)
            assert resolve_thread_count(None) == 1
            assert resolve_thread_count(None) == 1
            err = capsys.readouterr().err
            assert err.count(f"{THREADS_ENV_VAR}={bad!r}") == 1, err  # said once
    finally:
        _threads._warn_bad_thread_env.cache_clear()


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
    ("register", "--fixed", "f.vol", "--moving", "m.vol", "--history-size", "0"),
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
])
def test_thread_flag_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["penalty"])  # missing required --grid
    assert err.value.code == 2
