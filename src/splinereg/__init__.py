"""Analytic regularization of uniform cubic B-spline displacement fields.

Core workflow: build a `ControlPointGrid`, then evaluate the weighted
smoothness penalty and its gradient in closed form: the per-tile quadratic
forms p' V p, summed over the lattice by per-axis operators built from the
grid's tile spacing (a `VMatrixBank`, if one is given, is only checked to match it).
Sampled numerical counterparts, field-quality metrics, a registration driver,
and synthetic-data generators round out the toolkit; the `splinereg` command
exposes everything on the command line.
"""

from .bspline_core import (
    ControlPointGrid,
    GridGeometry,
    LocalCoord,
    build_q,
    eval_basis,
    eval_displacement,
    eval_partial,
    linear_field_grid,
    locate,
    monomial_grid,
    tile_coefficients,
)
from .field_metrics import (
    LandmarkSet,
    extent_mask,
    jacobian_map,
    mls,
    read_landmarks,
    warp_landmarks,
    write_landmarks,
)
from .regularizers_analytic import (
    DerivPair,
    PenaltyResult,
    RegularizerWeights,
    VMatrixBank,
    build_psi,
    build_v,
    build_vbank,
    canonical_pairs,
    penalty,
    penalty_parallel,
    read_vbank,
    tile_term,
    write_vbank,
)
from .regularizers_numeric import (
    SamplingSpec,
    dense_field,
    fd_penalty,
    quadrature_penalty,
)
from .registration import (
    OptimizerSettings,
    RegistrationConfig,
    RegistrationStage,
    fit_grid_to_field,
    mse_cost_grad,
    optimize,
)
from .volume_io import (
    FormatError,
    Volume,
    box_downsample,
    covering_geometry,
    make_ground_truth_field,
    make_phantom,
    make_smooth_grid,
    random_coefficient_grid,
    read_grid,
    read_volume,
    warp_volume,
    write_grid,
    write_volume,
)

__version__ = "0.1.0"
