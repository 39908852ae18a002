"""Integrated tile operators and the closed-form penalty assembly."""

import numpy as np
import pytest
from scipy.integrate import quad

from splinereg import bspline_core as core
from splinereg import regularizers_analytic as ra
from tests.conftest import (
    assert_build_v_matches_pair,
    direct_v_integral,
    gauss_penalty_terms,
    midpoint_v_integral,
    random_grid,
)


# ---------------------------------------------------------------------------
# DerivPair
# ---------------------------------------------------------------------------

def test_pair_canonicalization():
    pair, swapped = ra.DerivPair.canonical((1, 0, 0), (0, 1, 0))
    assert pair == ra.DerivPair((0, 1, 0), (1, 0, 0))
    assert swapped
    pair, swapped = ra.DerivPair.canonical((0, 1, 0), (1, 0, 0))
    assert not swapped
    with pytest.raises(ValueError):
        ra.DerivPair((1, 0, 0), (0, 1, 0))  # not canonical
    with pytest.raises(ValueError):
        ra.DerivPair((2, 2, 0), (2, 2, 0))  # total order 4


def test_canonical_pair_census():
    pairs = ra.canonical_pairs()
    assert len(pairs) == 23
    by_order = {}
    for p in pairs:
        key = (sum(p.delta_i), sum(p.delta_j), p.delta_i == p.delta_j)
        by_order[key] = by_order.get(key, 0) + 1
    assert by_order[(0, 0, True)] == 1       # total displacement
    assert by_order[(1, 1, True)] == 3       # first-derivative squares
    assert by_order[(1, 1, False)] == 3      # elastic cross pairs
    assert by_order[(2, 2, True)] == 6       # second-derivative squares
    assert by_order[(3, 3, True)] == 10      # third-derivative squares


def test_transpose_identity_between_swapped_pairs():
    spacing = (2.0, 3.0, 5.0)
    pair = ra.DerivPair((0, 1, 0), (1, 0, 0))
    v = ra.build_v(spacing, pair)
    flipped = np.kron(
        np.kron(
            ra.build_psi(spacing[0], 1, 0),
            ra.build_psi(spacing[1], 0, 1),
        ),
        ra.build_psi(spacing[2], 0, 0),
    )
    np.testing.assert_allclose(flipped, v.T, atol=1e-14)


# ---------------------------------------------------------------------------
# build_psi
# ---------------------------------------------------------------------------

def test_psi_entry_against_adaptive_quadrature():
    psi = ra.build_psi(1.0, 0, 0)
    assert psi[0, 0] == pytest.approx(1.0 / 252.0, abs=1e-15)
    for a in range(4):
        for b in range(4):
            val, _ = quad(
                lambda x, a=a, b=b: core.build_q(1.0, 0)[a]
                @ [1, x, x * x, x ** 3]
                * (core.build_q(1.0, 0)[b] @ [1, x, x * x, x ** 3]),
                0.0,
                1.0,
                epsabs=1e-14,
            )
            assert psi[a, b] == pytest.approx(val, abs=1e-12)


def test_psi_first_derivative_annihilates_constants():
    psi = ra.build_psi(1.0, 1, 1)
    assert abs(np.ones(4) @ psi @ np.ones(4)) < 1e-15


def test_psi_zeroth_order_scales_linearly_with_spacing():
    np.testing.assert_allclose(ra.build_psi(2.0, 0, 0), 2.0 * ra.build_psi(1.0, 0, 0), rtol=1e-13)


def test_psi_scale_covariance_general():
    """Each derivative order k on either side contributes spacing^-k; the
    measure contributes spacing^1."""
    for (da, db) in [(1, 1), (2, 2), (0, 1), (3, 3), (1, 2)]:
        r = 2.5
        expected = r ** (1 - da - db) * ra.build_psi(1.0, da, db)
        got = ra.build_psi(r, da, db)
        atol = 1e-14 * np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=atol)


# ---------------------------------------------------------------------------
# build_v
# ---------------------------------------------------------------------------

def test_v_zeroth_pair_partition_of_unity():
    v = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((0, 0, 0), (0, 0, 0)))
    assert np.ones(64) @ v @ np.ones(64) == pytest.approx(1.0, rel=1e-12)


def test_v_first_derivative_annihilates_constant_vector():
    v = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((1, 0, 0), (1, 0, 0)))
    assert np.abs(v @ np.ones(64)).max() < 1e-14


def test_v_zeroth_pair_scales_with_tile_volume():
    v1 = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((0, 0, 0), (0, 0, 0)))
    v2 = ra.build_v((2.0, 3.0, 5.0), ra.DerivPair((0, 0, 0), (0, 0, 0)))
    np.testing.assert_allclose(v2, 30.0 * v1, rtol=1e-12)


@pytest.mark.parametrize("pair_index", [0, 2, 5, 9, 14, 22])
def test_v_matches_nonseparable_direct_integration(pair_index):
    spacing = (2.0, 3.0, 5.0)
    pair = ra.canonical_pairs()[pair_index]
    assert_build_v_matches_pair(spacing, pair, tol=1e-9)


def test_v_matches_midpoint_quadrature_at_its_accuracy():
    """Midpoint integration of the tile integrand converges O(h^2); at 32
    samples per axis that limits agreement to roughly 1e-3 of the largest
    entry, and halving the spacing improves it about 4x."""
    spacing = (7.0, 9.0, 11.0)
    pair = ra.DerivPair((0, 2, 0), (0, 2, 0))
    exact = ra.build_v(spacing, pair)
    scale = np.abs(exact).max()
    err32 = np.abs(midpoint_v_integral(spacing, pair, 32) - exact).max() / scale
    err64 = np.abs(midpoint_v_integral(spacing, pair, 64) - exact).max() / scale
    assert err32 < 5e-3
    assert err32 / err64 == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# bank
# ---------------------------------------------------------------------------

def test_bank_contents_and_memory():
    bank = ra.build_vbank((10.0, 10.0, 10.0))
    assert len(bank) == 23
    assert bank.payload_bytes() == 23 * 64 * 64 * 8
    assert bank.payload_bytes() <= 1 << 20


def test_bank_rebuild_is_bitwise_identical():
    a = ra.build_vbank((17.0, 23.0, 29.0))
    b = ra.build_vbank((17.0, 23.0, 29.0))
    for pair in a.pairs:
        np.testing.assert_array_equal(a.get(pair), b.get(pair))


def test_bank_export_round_trip(tmp_path):
    bank = ra.build_vbank((10.0, 12.5, 8.0))
    path = tmp_path / "bank.vbank"
    ra.write_vbank(bank, path)
    loaded = ra.read_vbank(path)
    assert loaded.tile_spacing == bank.tile_spacing
    assert loaded.pairs == bank.pairs
    for pair in bank.pairs:
        np.testing.assert_array_equal(loaded.get(pair), bank.get(pair))


def test_bank_read_rejects_garbage(tmp_path):
    from splinereg.volume_io import FormatError

    path = tmp_path / "bad.vbank"
    path.write_bytes(b"NOTABANK\n")
    with pytest.raises(FormatError):
        ra.read_vbank(path)
    good = ra.build_vbank((1.0, 1.0, 1.0))
    ra.write_vbank(good, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])  # truncate payload
    with pytest.raises(FormatError):
        ra.read_vbank(path)


# ---------------------------------------------------------------------------
# tile_term
# ---------------------------------------------------------------------------

def test_tile_term_zero_vector():
    v = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((1, 0, 0), (1, 0, 0)))
    assert ra.tile_term(np.zeros(64), v, np.ones(64)) == 0.0


def test_tile_term_constant_with_first_derivative():
    v = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((1, 0, 0), (1, 0, 0)))
    c = np.full(64, 3.7)
    assert abs(ra.tile_term(c, v, c)) < 1e-12


def test_tile_term_linear_field():
    """nu1 = 3 x1 on a unit tile: integral of (d nu1/d x1)^2 is 9."""
    geom = core.GridGeometry((1, 1, 1), (1.0, 1.0, 1.0))
    grid = core.linear_field_grid(geom, matrix=[[3.0, 0, 0], [0, 0, 0], [0, 0, 0]])
    p1, _, _ = core.tile_coefficients(grid, (0, 0, 0))
    v = ra.build_v((1.0, 1.0, 1.0), ra.DerivPair((1, 0, 0), (1, 0, 0)))
    assert ra.tile_term(p1, v, p1) == pytest.approx(9.0, rel=1e-12)


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

def weights_one(index: int) -> ra.RegularizerWeights:
    arr = np.zeros(5)
    arr[index] = 1.0
    return ra.RegularizerWeights.from_array(arr)


def test_penalty_zero_grid():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    grid = core.ControlPointGrid.zeros(geom)
    bank = ra.build_vbank(geom.tile_spacing)
    res = ra.penalty(grid, ra.RegularizerWeights(curvature=1.0), bank)
    assert res.value == 0.0
    np.testing.assert_array_equal(res.terms, 0.0)
    np.testing.assert_array_equal(res.gradient, 0.0)


def test_penalty_constant_field_total_displacement():
    geom = core.GridGeometry((1, 1, 1), (1.0, 1.0, 1.0))
    coeffs = np.zeros((3, 4, 4, 4))
    coeffs[0] = 2.0
    grid = core.ControlPointGrid(geom, coeffs)
    bank = ra.build_vbank(geom.tile_spacing)
    res = ra.penalty(grid, ra.RegularizerWeights(total_displacement=1.0), bank)
    assert res.value == pytest.approx(4.0, rel=1e-12)
    assert res.terms[4] == pytest.approx(4.0, rel=1e-12)
    for n in range(4):
        assert abs(res.terms[n]) < 1e-10


def test_penalty_matches_gauss_oracle():
    """Gauss quadrature integrates the tile polynomials exactly, so the
    closed-form values must agree to roundoff. The single-tile axes are the
    lattice operators' edge case: there K_d reduces to Psi itself."""
    cases = [((4, 3, 5), (17.0, 9.0, 23.0), seed) for seed in (0, 1, 2)]
    cases += [
        ((1, 1, 1), (6.0, 11.0, 4.5), 3),
        ((1, 3, 2), (12.0, 5.0, 19.0), 4),
        ((5, 1, 2), (7.5, 21.0, 10.0), 5),
    ]
    for tiles, spacing, seed in cases:
        grid = random_grid(tiles, spacing, seed=seed, scale=4.0)
        bank = ra.build_vbank(grid.geometry.tile_spacing)
        res = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False)
        oracle = gauss_penalty_terms(grid)
        np.testing.assert_allclose(res.terms, oracle, rtol=1e-11)


def test_penalty_matches_midpoint_oracle_at_its_accuracy():
    """Midpoint quadrature at 32^3 samples/tile carries O(h^2) truncation
    error; measured constants put S1/S3/S5 below 2.5e-5 and S2/S4 in the
    few-1e-4 range (they shrink 4x per refinement, see the numeric tests)."""
    from splinereg.regularizers_numeric import quadrature_penalty

    grid = random_grid((4, 4, 4), (17.0, 9.0, 23.0), seed=3, scale=4.0)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    res = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False)
    oracle = quadrature_penalty(grid, ra.RegularizerWeights(), (32, 32, 32)).terms
    rel = np.abs(res.terms - oracle) / np.abs(res.terms)
    assert rel[0] < 2.5e-5
    assert rel[2] < 2.5e-5
    assert rel[4] < 2.5e-5
    assert rel[1] < 1.5e-3
    assert rel[3] < 8e-4


def test_penalty_value_equals_weighted_breakdown():
    grid = random_grid((3, 3, 3), (10.0, 10.0, 10.0), seed=4)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(0.3, 0.1, 0.7, 0.01, 2.0)
    res = ra.penalty(grid, weights, bank, with_gradient=False)
    assert res.value == pytest.approx(float(weights.as_array() @ res.terms), rel=1e-12)


def test_penalty_tile_additivity():
    """The grid total equals the sum over single-tile subgrids."""
    grid = random_grid((2, 2, 3), (7.0, 8.0, 9.0), seed=5)
    geom = grid.geometry
    bank = ra.build_vbank(geom.tile_spacing)
    total = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False).terms

    single_geom = core.GridGeometry((1, 1, 1), geom.tile_spacing)
    single_bank = ra.build_vbank(geom.tile_spacing)
    acc = np.zeros(5)
    for t1 in range(geom.tile_counts[0]):
        for t2 in range(geom.tile_counts[1]):
            for t3 in range(geom.tile_counts[2]):
                block = grid.coefficients[:, t1 : t1 + 4, t2 : t2 + 4, t3 : t3 + 4]
                sub = core.ControlPointGrid(single_geom, block)
                acc += ra.penalty(sub, ra.RegularizerWeights(), single_bank, with_gradient=False).terms
    np.testing.assert_allclose(total, acc, rtol=1e-11)


def test_penalty_spacing_mismatch_rejected():
    grid = random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=6)
    bank = ra.build_vbank((9.0, 10.0, 10.0))
    with pytest.raises(ValueError):
        ra.penalty(grid, ra.RegularizerWeights(), bank)


@pytest.mark.parametrize("with_gradient", [True, False])
def test_penalty_without_a_bank_is_bitwise_equal(with_gradient):
    """The kernel reads only the grid's tile spacing, so a bank is optional:
    without one, `penalty` and `penalty_parallel` give the same bits."""
    grid = random_grid((5, 4, 3), (10.0, 12.0, 8.0), seed=6)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(0.3, 0.01, 2.0, 0.5, 1e-3)
    want = _result_bytes(ra.penalty(grid, weights, bank, with_gradient))
    assert _result_bytes(ra.penalty(grid, weights, with_gradient=with_gradient)) == want
    for threads in (1, 2, 3):
        got = ra.penalty_parallel(grid, weights, thread_count=threads, with_gradient=with_gradient)
        assert _result_bytes(got) == want


def test_constant_shift_changes_only_total_displacement():
    grid = random_grid((3, 3, 3), (11.0, 9.0, 13.0), seed=7)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    base = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False).terms
    shifted = grid.copy()
    shifted.coefficients[1] += 4.2
    after = ra.penalty(shifted, ra.RegularizerWeights(), bank, with_gradient=False).terms
    for n in (0, 1, 2, 3):
        assert abs(after[n] - base[n]) <= 1e-10 * abs(base[n])
    assert abs(after[4] - base[4]) > 1e-3 * abs(base[4])


def test_linear_trend_leaves_curvature_and_third_order():
    grid = random_grid((3, 3, 3), (11.0, 9.0, 13.0), seed=8)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    base = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False).terms
    trend = core.linear_field_grid(
        grid.geometry, matrix=[[0.02, 0.01, 0.0], [0.0, -0.03, 0.01], [0.01, 0.0, 0.02]],
        offset=[1.0, -2.0, 0.5],
    )
    bent = grid.copy()
    bent.coefficients += trend.coefficients
    after = ra.penalty(bent, ra.RegularizerWeights(), bank, with_gradient=False).terms
    assert abs(after[1] - base[1]) <= 1e-10 * abs(base[1])
    assert abs(after[3] - base[3]) <= 1e-10 * abs(base[3])
    assert abs(after[0] - base[0]) > 1e-6 * abs(base[0])


def test_terms_are_nonnegative_on_random_grids():
    for seed in range(50):
        grid = random_grid((2, 2, 2), (8.0, 10.0, 12.0), seed=seed, scale=3.0)
        bank = ra.build_vbank(grid.geometry.tile_spacing)
        terms = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False).terms
        assert np.all(terms >= 0.0)


def test_gradient_matches_finite_differences_small():
    grid = random_grid((2, 2, 2), (9.0, 10.0, 11.0), seed=9)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(0.5, 0.25, 0.1, 0.05, 1.5)
    res = ra.penalty(grid, weights, bank)
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(25):
        c = rng.integers(0, 3)
        ijk = tuple(rng.integers(0, s) for s in grid.geometry.lattice_shape)
        plus = grid.copy()
        plus.coefficients[(c,) + ijk] += h
        minus = grid.copy()
        minus.coefficients[(c,) + ijk] -= h
        fd = (
            ra.penalty(plus, weights, bank, with_gradient=False).value
            - ra.penalty(minus, weights, bank, with_gradient=False).value
        ) / (2 * h)
        got = res.gradient[(c,) + ijk]
        assert abs(fd - got) <= 1e-5 * max(abs(fd), abs(got), 1e-9)


def test_gradient_skips_zero_weight_terms():
    grid = random_grid((2, 2, 2), (9.0, 10.0, 11.0), seed=11)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    res = ra.penalty(grid, ra.RegularizerWeights(curvature=2.0), bank)
    only_curv = ra.penalty(grid, ra.RegularizerWeights(curvature=1.0), bank)
    np.testing.assert_allclose(res.gradient, 2.0 * only_curv.gradient, rtol=1e-12)


# ---------------------------------------------------------------------------
# parallel evaluation
# ---------------------------------------------------------------------------

def test_parallel_single_thread_bitwise_equal():
    grid = random_grid((4, 4, 4), (10.0, 10.0, 10.0), seed=12)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    a = ra.penalty(grid, weights, bank)
    b = ra.penalty_parallel(grid, weights, bank, thread_count=1)
    assert a.value == b.value
    np.testing.assert_array_equal(a.terms, b.terms)
    np.testing.assert_array_equal(a.gradient, b.gradient)


@pytest.mark.parametrize("threads", [2, 4, 8])
def test_parallel_matches_serial_within_tolerance(threads):
    grid = random_grid((4, 4, 4), (10.0, 10.0, 10.0), seed=13)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(0.2, 0.4, 0.1, 0.05, 0.8)
    serial = ra.penalty(grid, weights, bank)
    parallel = ra.penalty_parallel(grid, weights, bank, thread_count=threads)
    assert parallel.value == serial.value
    np.testing.assert_array_equal(parallel.terms, serial.terms)
    np.testing.assert_array_equal(parallel.gradient, serial.gradient)


@pytest.mark.parametrize("threads", [1.5, 2.5, np.nan, "2"])
def test_parallel_takes_only_whole_thread_counts(threads):
    """A thread count that is not a whole number is rejected by name (1.5
    opened a pool of max_workers=1.5); integral floats and numpy integers
    give `penalty`'s bits, on a lattice of several groups."""
    grid = random_grid((10, 10, 10), (10.0, 10.0, 10.0), seed=13)
    weights = ra.RegularizerWeights(curvature=1.0)
    serial = ra.penalty(grid, weights)
    for whole in (2.0, np.int64(2)):
        np.testing.assert_array_equal(ra.penalty_parallel(grid, weights, thread_count=whole).gradient, serial.gradient)
    with pytest.raises(ValueError, match="thread_count"):
        ra.penalty_parallel(grid, weights, thread_count=threads)


def test_parallel_is_deterministic_for_fixed_thread_count():
    grid = random_grid((3, 3, 3), (10.0, 10.0, 10.0), seed=14)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(diffusion=1.0)
    a = ra.penalty_parallel(grid, weights, bank, thread_count=3)
    b = ra.penalty_parallel(grid, weights, bank, thread_count=3)
    assert a.value == b.value
    np.testing.assert_array_equal(a.gradient, b.gradient)


def _result_bytes(res):
    return res.value, res.terms.tobytes(), None if res.gradient is None else res.gradient.tobytes()


@pytest.mark.parametrize("tiles, sizes", [
    ((3, 4, 5), [3]),
    ((10, 10, 10), [2, 1]),  # a 13^3 lattice
    ((16, 16, 16), [1, 1, 1]),
    ((1, 6, 5), [3]),  # a single-tile axis
])
def test_grouped_components_bitwise_equal_to_one_per_group(tiles, sizes, monkeypatch):
    """Components sharing one pass of the lattice kernel give the bits each
    gives alone, and every thread count (sharing out the same groups) gives
    them too."""
    grid = random_grid(tiles, (8.0, 9.0, 7.5), seed=16)
    bank = ra.build_vbank(grid.geometry.tile_spacing)
    weights = ra.RegularizerWeights(0.5, 1.0, 0.25, 2.0, 0.01)
    lattice_size = grid.coefficients[0].size
    groups = ra._component_groups(lattice_size)
    assert [g.stop - g.start for g in groups] == sizes
    for with_gradient in (True, False):
        grouped = ra.penalty(grid, weights, bank, with_gradient=with_gradient)
        for threads in (1, 2, 3):
            parallel = ra.penalty_parallel(grid, weights, bank, threads, with_gradient=with_gradient)
            assert _result_bytes(parallel) == _result_bytes(grouped)
        with monkeypatch.context() as m:
            m.setattr(ra, "_GROUP_FLOATS", 1)
            assert len(ra._component_groups(lattice_size)) == 3
            alone = ra.penalty(grid, weights, bank, with_gradient=with_gradient)
        assert _result_bytes(alone) == _result_bytes(grouped)


def test_parallel_starts_no_thread_for_one_group(monkeypatch):
    """A lattice whose components share one group runs on the calling thread."""
    grid = random_grid((3, 4, 5), (8.0, 9.0, 7.5), seed=17)
    weights = ra.RegularizerWeights(0.5, 1.0, 0.25, 2.0, 0.01)
    serial = ra.penalty(grid, weights)

    def no_pool(*args, **kwargs):
        raise AssertionError("penalty_parallel started a thread pool for one group")

    monkeypatch.setattr(ra, "ThreadPoolExecutor", no_pool)
    assert _result_bytes(ra.penalty_parallel(grid, weights, thread_count=3)) == _result_bytes(serial)


def test_scale_covariance_against_gauss_oracle():
    grid = random_grid((2, 2, 2), (2.0, 3.0, 5.0), seed=15, scale=2.0)
    bank = ra.build_vbank((2.0, 3.0, 5.0))
    res = ra.penalty(grid, ra.RegularizerWeights(), bank, with_gradient=False)
    oracle = gauss_penalty_terms(grid)
    np.testing.assert_allclose(res.terms, oracle, rtol=1e-11)
