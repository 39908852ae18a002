"""Print one `name sha256` line per output group of the numeric paths. Two trees
print the same lines exactly when these outputs are bitwise equal (at equal
BLAS settings). The first line, `blas_threads N`, gives the OpenBLAS thread
count the run saw outside the penalties' pin: compare the named lines only
between runs whose first lines agree. Run as:
PYTHONPATH=<tree>/src python tools/digest.py"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

import splinereg as sr
from splinereg import bspline_core as core
from splinereg import volume_io as vio
from splinereg._threads import blas_environment

GRIDS = [  # tiles, tile spacing (mm) and, off the origin, origin (mm)
    ((3, 4, 5), (10, 12, 8)), ((1, 1, 1), (7, 5, 9)), ((1, 3, 2), (6, 10, 4), (-3, 2, 5)), ((5, 1, 2), (9, 9, 11)),
    ((16, 16, 16), (8, 8, 8)), ((7, 9, 4), (5.5, 7, 6.25), (1.5, -2, 0.25)), ((12, 10, 8), (16, 16, 16), (-40, 0, 12))]
WEIGHTS = [(1, 1, 1, 1, 1), (0, 1e-2, 0, 0, 0), (0, 0, 1, 0, 0), (0.3, 0.01, 2, 0.5, 1e-3), (0,) * 5]
SHAPES = [(48, 48, 48), (64, 64, 64), (37, 38, 35), (3, 200, 200), (20, 1, 24)]


def show(name, *items):
    h = hashlib.sha256()
    for item in items:  # arrays and floats by their bytes, the rest by repr
        text = item is None or isinstance(item, (str, int))
        h.update(repr(item).encode() if text else np.ascontiguousarray(item).tobytes())
    print(name, h.hexdigest(), flush=True)


def image_pair(dims):
    """(fixed, moving): a blob phantom and its warp by a smooth field."""
    moving = sr.make_phantom("blobs", dims, (2.0, 2.0, 2.0), seed=21)
    truth = sr.make_smooth_grid(sr.covering_geometry(moving, (16.0,) * 3), 3.0, 20.0, seed=22)
    return sr.warp_volume(moving, truth, moving), moving


print("blas_threads", blas_environment()["blas_threads"], flush=True)
rng = np.random.default_rng(0)
grids = [core.ControlPointGrid(geo, rng.normal(size=(3,) + geo.lattice_shape))
         for geo in (core.GridGeometry(*g) for g in GRIDS)]
weights = [sr.RegularizerWeights(*w) for w in WEIGHTS]
serial, parallel = [], []
for g in grids:
    bank = sr.build_vbank(g.geometry.tile_spacing)
    for w in weights:
        for grad in (True, False):
            r = sr.penalty(g, w, bank, with_gradient=grad)
            serial += [r.value, r.terms, r.gradient]
            for r in (sr.penalty_parallel(g, w, bank, t, with_gradient=grad) for t in (1, 2, 3)):
                parallel += [r.value, r.terms, r.gradient]
show("penalty", *serial)
show("penalty_parallel", *parallel)
groups = []  # lattices whose components share the lattice kernel's pass in groups of 3, 2 + 1 and 1
grng = np.random.default_rng(2)
for tiles, spacing in (((3, 4, 5), (10, 12, 8)), ((10, 10, 10), (8, 9, 7.5)), ((16, 16, 16), (6, 6, 6))):
    geo = core.GridGeometry(tiles, spacing)
    g, bank = core.ControlPointGrid(geo, grng.normal(size=(3,) + geo.lattice_shape)), sr.build_vbank(spacing)
    for w in weights:
        for grad in (True, False):
            r = sr.penalty(g, w, bank, with_gradient=grad)
            groups += [r.value, r.terms, r.gradient]
show("penalty_groups", *groups)
bank = sr.build_vbank((10.0, 12.0, 8.0))
show("vbank", *[str(p) for p in bank.pairs], *[bank.get(p) for p in bank.pairs])
with tempfile.TemporaryDirectory() as tmp:  # the bytes each writer puts on disk
    path, frng = Path(tmp) / "file", np.random.default_rng(5)
    sr.write_vbank(bank, path)
    show("vbank_file", path.read_bytes())
    files = []
    for vol in (sr.Volume(frng.normal(size=(2, 3, 4)), (0.92, 0.92, 2.5), (1.0, -2.0, 3.5)),
                sr.Volume(frng.normal(size=(3, 1, 2, 3)), (1, 2, 3))):  # scalar and 3-component
        sr.write_volume(vol, path)
        files.append(path.read_bytes())
    show("volume_file", *files)
    geo = core.GridGeometry((2, 1, 3), (10.0, 7.5, 8.0), (-12.5, 0.25, -3.75))
    sr.write_grid(core.ControlPointGrid(geo, frng.normal(size=(3,) + geo.lattice_shape)), path)
    show("grid_file", path.read_bytes())
mse, warped, centers, fits = [], [], [], []
for fixed, moving in map(image_pair, SHAPES):
    geometry = sr.covering_geometry(fixed, (8.0,) * 3)
    for g in (core.ControlPointGrid.zeros(geometry), sr.make_smooth_grid(geometry, 2.0, 20.0, 5)):
        mse += list(sr.mse_cost_grad(fixed, moving, g))
        warped.append(sr.warp_volume(moving, g, fixed).data)
        centers.append(vio.warped_voxel_centers(g, fixed))
show("mse_cost_grad", *mse)
show("warp_volume", *warped)
show("warped_voxel_centers", *centers)
cells, faded = [], []  # the kernel itself: the data term hides it on and beyond the hull's faces
crng = np.random.default_rng(3)
for dims, spacing, origin in (((5, 6, 7), (2.0, 1.5, 3.0), (-4.0, 1.0, 2.5)), ((1, 4, 2), (1.0, 2.5, 2.0), (0, 0, 0)),
                              ((2, 1, 9), (3.0, 1.0, 0.5), (1.0, -2.0, 0.0))):  # thin axes of 1 and 2 voxels
    vol = sr.Volume(crng.normal(size=dims), spacing, origin)
    ends = [[-2.5, -0.5, 0.0, 0.5, n - 1.0, n - 0.6, n + 1.25] for n in dims]  # inside, on and beyond faces
    index = np.concatenate([crng.uniform(0.0, np.array(dims) - 1.0, size=(200, 3)),
                            np.array(np.meshgrid(*ends, indexing="ij")).reshape(3, -1).T])
    points = np.array(origin) + index * np.array(spacing)
    for p in (points, points[7], points[-3]):  # (n, 3) points, and one point inside and one beyond
        idx = [(p[..., d] - origin[d]) / spacing[d] for d in range(3)]
        for grad in (False, True):
            values, grads = vio._cell_sample(vol, idx, grad)
            cells += [values, *(grads or [None])]
        cells += list(vio.trilinear_sample(vol, p))
    values, grads, fade, fade_grads = vio._hull_faded_sample(vol, np.moveaxis(points, -1, 0))
    faded += [values, *grads, fade, fade_grads]
show("cell_sample", *cells)
show("hull_faded_sample", *faded)
off_knot = [[np.linspace(o + 0.31 * r, o + e - 0.53 * r, 2 * n + 3)  # no sample on a knot
             for o, e, r, n in zip(geo.origin, geo.extent, geo.tile_spacing, geo.tile_counts)]
            for geo in (g.geometry for g in grids)]
show("sample_displacement", *[core.sample_displacement(g, axes) for g, axes in zip(grids, off_knot)])
prng = np.random.default_rng(1)
points = []  # per grid: scattered points, the 8 corners, and points on each face
for geo in (g.geometry for g in grids):
    lo, hi = np.array(geo.origin), np.array(geo.far_corner())
    on_faces = prng.uniform(lo, hi, size=(6, 5, 3))
    for f in range(6):
        on_faces[f, :, f % 3] = (lo, hi)[f // 3][f % 3]
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(3, 8).T
    points.append(np.concatenate([prng.uniform(lo, hi, size=(250, 3)), corners, on_faces.reshape(-1, 3)]))
show("eval_displacement", *[core.eval_displacement(g, p) for g, p in zip(grids, points)])
multi = [o for o in np.ndindex(4, 4, 4) if sum(o) <= 3]  # the 20 multi-indices
show("eval_partial", *[core.eval_partial(g, q, c, o) for g, p in zip(grids, points)
                       for q in p[240:] for c in (1, 2, 3) for o in multi])  # 10 scattered, corners, faces
show("eval_basis", *[core.eval_basis(u, k, o) for u in np.linspace(0, 1, 13) for k in range(4) for o in range(4)])
show("tile_layout", *[x for g in grids for x in (core.support_index_map(g.geometry), *[
    v for t in np.ndindex(*g.geometry.tile_counts) for v in core.tile_coefficients(g, t)])])
for g, geo in ((g, g.geometry) for g in grids[4:]):
    axes = [np.linspace(o, o + e, 3 * n + 2) for o, e, n in zip(geo.origin, geo.extent, geo.tile_counts)]
    fits.append(sr.fit_grid_to_field(geo, axes, core.sample_displacement(g, axes)).coefficients)
show("fit_grid_to_field", *fits)
smooth = [sr.make_smooth_grid(core.GridGeometry((4, 3, 5), r), 2.0, 15.0, seed=7)
          for r in ((8.0,) * 3, (8.0, 12.0, 10.0))]
show("fd_penalty", *[sr.fd_penalty(g, weights[0], sr.SamplingSpec.voxel_grid(v, b)).terms for g in smooth
                     for v in ((2.0, 2.0, 2.0), (1.0, 2.0, 2.0)) for b in ("skip-boundary", "clamp")])
show("fd_penalty_single_term", *[sr.fd_penalty(g, weights[0], sr.SamplingSpec.voxel_grid((1.0, 2.0, 2.0), b),
                                                terms=[n]).terms
                                 for g in smooth for b in ("skip-boundary", "clamp") for n in range(5)])
slabbed = []  # blocks whose interiors span several slabs of fd_penalty and end in a short one
for t, o, v in (((9, 4, 5), (-5.0, 3.0, 1.0), (2.0, 2.0, 2.0)), ((8, 5, 6), (0, 0, 0), (2.0, 2.0, 2.5))):
    g = sr.make_smooth_grid(core.GridGeometry(t, (16.0,) * 3, o), 2.0, 30.0, seed=8)
    slabbed += [(g, sr.SamplingSpec.voxel_grid(v, b)) for b in ("skip-boundary", "clamp")]
show("fd_penalty_slabs", *[sr.fd_penalty(g, weights[0], s).terms for g, s in slabbed])
show("fd_penalty_slabs_single_term", *[sr.fd_penalty(g, weights[0], s, terms=[n]).terms
                                       for g, s in slabbed for n in range(5)])
show("fd_penalty_slabs_mixed_terms", *[sr.fd_penalty(g, weights[0], s, terms=t).terms  # S3 with others
                                      for g, s in slabbed for t in ([0, 2], [1, 2, 3], [2, 4])])
per_tile = [(g, sr.SamplingSpec.per_tile(s, b)) for g, s in ((smooth[1], (4, 5, 6)), (slabbed[0][0], (4, 12, 12)))
            for b in ("skip-boundary", "clamp")]  # the second spans several slabs and ends in a short one
show("fd_penalty_per_tile", *[sr.fd_penalty(g, weights[0], s, terms=t).terms
                              for g, s in per_tile for t in (None, *([n] for n in range(5)))])
crossed = []  # S3's diagonals, each the slab walk run in place, end in a one-row block
# (first block skip-boundary, second clamp) or else in a short one
for n in ((67, 34, 34), (65, 32, 32)):
    g = sr.make_smooth_grid(core.GridGeometry((4, 2, 2), (16.0,) * 3), 2.0, 30.0, seed=11)
    crossed += [(g, sr.SamplingSpec.voxel_grid([e / k for e, k in zip(g.geometry.extent, n)], b))
                for b in ("skip-boundary", "clamp")]
show("fd_penalty_cross", *[sr.fd_penalty(g, weights[0], s, terms=t).terms
                           for g, s in crossed for t in ([2], [0, 2], [2, 3], [0, 2, 3])])
fields = [sr.dense_field(g, s) for g in smooth
          for s in (sr.SamplingSpec.voxel_grid((2.0, 2.5, 1.5)), sr.SamplingSpec.per_tile((5, 4, 6)))]
show("dense_field", *[x for v in fields for x in (v.data, v.spacing, v.origin)])
show("quadrature_penalty", *[sr.quadrature_penalty(g, weights[0], s).terms
                             for g in smooth for s in ((8, 8, 8), (5, 6, 7))])
off_origin = sr.make_smooth_grid(core.GridGeometry((5, 1, 3), (9.0, 7.0, 11.0), (-6.0, 2.5, 4.0)), 2.0, 15.0, 9)
show("quadrature_penalty_off_origin", *[sr.quadrature_penalty(off_origin, weights[0], s).terms  # 4 slabs, then 1
                                        for s in ((12, 20, 30), (3, 2, 5))])
jacobians = [(sr.make_smooth_grid(core.GridGeometry(t, (8.0,) * 3), 2.0, 20.0, seed=4), sr.SamplingSpec.per_tile(s))
             for t, s in (((13, 12, 11), (4, 4, 4)), ((5, 38, 38), (1, 5, 5)))]  # short last slab; a row over budget
show("jacobian_map", *[x for g, s in jacobians for vol, min_j in [sr.jacobian_map(g, s)] for x in (vol.data, min_j)])
stages = (sr.RegistrationStage((16.0,) * 3, 14, 1), sr.RegistrationStage((8.0,) * 3, 14, 1))  # past HISTORY_SIZE
final, histories = sr.optimize(*image_pair((32, 32, 32)), sr.RegistrationConfig(stages, weights[1]))
show("optimize", final.coefficients, *[x for h in histories for x in
                                       (np.array(h.costs), h.stop_reason, h.evaluations, h.iterations)])
