"""Closed-form smoothness penalties for B-spline displacement fields.

Every supported penalty is an integral of products of field derivatives, and
within one tile such an integral collapses to a quadratic form p_i' V p_j on
the 64 supporting coefficients. The 64x64 operators V factor per axis:
V = Psi_1 (x) Psi_2 (x) Psi_3, where each Psi is a 4x4 matrix of exact
monomial integrals of basis-derivative products over the tile width. The
bank of 23 such matrices is the paper-facing form.

Evaluation sums the same algebra over the lattice: the tiles form a Cartesian
product, so sum_t p_t' (Psi_1 (x) Psi_2 (x) Psi_3) q_t = p' (K_1 (x) K_2 (x)
K_3) q, where each K_d is an (N_d+3)^2 seven-diagonal matrix assembled from
the Psi of its axis (sum factorization). Three batched stages of mode
products then give every term at once, with no per-tile gather or scatter.
`penalty` runs the three coefficient components through these stages in
groups whose 20 products fit 2^17 float64 (1 MiB): all three at once on
lattices of up to 2184 points (9^3 tiles), two up to 3276, else one at a
time. `penalty_parallel` shares the same groups out over worker threads, so
a lattice of one group starts no thread. Each matrix product is the same for
any grouping and any thread, so both are bitwise equal at every group size
and thread count.

Five penalties are assembled:

  S1 diffusion           sum of squared first derivatives (9 terms)
  S2 curvature           sum of squared second derivatives, mixed ones twice
  S3 linear elastic      S1's squares plus the three cross products of
                         distinct diagonal first derivatives, each once
                         (twelve products in total)
  S4 third order         squared third derivatives with ordered-sum
                         multiplicities 1 / 3 / 6
  S5 total displacement  squared field magnitude

The weighted total is S = mu1 S1 + ... + mu5 S5.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bspline_core as core
from ._threads import single_threaded_blas
from .volume_io import FormatError, _numbers, _read_header, _read_payload, _write_file  # the one file codec

FIRST_DERIVS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
SECOND_DERIVS = (
    ((2, 0, 0), 1),
    ((0, 2, 0), 1),
    ((0, 0, 2), 1),
    ((1, 1, 0), 2),
    ((1, 0, 1), 2),
    ((0, 1, 1), 2),
)
THIRD_DERIVS = (
    ((3, 0, 0), 1),
    ((0, 3, 0), 1),
    ((0, 0, 3), 1),
    ((2, 1, 0), 3),
    ((2, 0, 1), 3),
    ((1, 2, 0), 3),
    ((0, 2, 1), 3),
    ((1, 0, 2), 3),
    ((0, 1, 2), 3),
    ((1, 1, 1), 6),
)
# (delta_i, delta_j, component_i, component_j): the divergence-style cross
# products of the elastic penalty, one per unordered component pair, in the
# canonical orientation delta_i <= delta_j of their V-bank pairs.
ELASTIC_CROSS = (
    ((0, 1, 0), (1, 0, 0), 1, 0),
    ((0, 0, 1), (1, 0, 0), 2, 0),
    ((0, 0, 1), (0, 1, 0), 2, 1),
)

REGULARIZER_NAMES = ("diffusion", "curvature", "linear_elastic", "third_order", "total_displacement")


@dataclass(frozen=True)
class DerivPair:
    """Canonically ordered pair of derivative multi-indices keying one V matrix."""

    delta_i: tuple
    delta_j: tuple

    def __post_init__(self):
        di = core._check_multi_index(self.delta_i)
        dj = core._check_multi_index(self.delta_j)
        if di > dj:
            raise ValueError(f"pair must be in canonical order (delta_i <= delta_j): {di}, {dj}")
        object.__setattr__(self, "delta_i", di)
        object.__setattr__(self, "delta_j", dj)

    @classmethod
    def canonical(cls, delta_i, delta_j) -> tuple:
        """Canonical pair plus whether the inputs were swapped to get there.

        Swapping is harmless because p' V q forms transpose cleanly:
        V(a, b) = V(b, a)' entry for entry.
        """
        di, dj = core._check_multi_index(delta_i), core._check_multi_index(delta_j)
        if di <= dj:
            return cls(di, dj), False
        return cls(dj, di), True


@lru_cache(maxsize=1)
def canonical_pairs() -> tuple:
    """The 23 pairs the penalty assembly needs, in bank/file order:
    1 zeroth, 3 first squares, 3 first cross pairs, 6 second squares,
    10 third squares."""
    pairs = [DerivPair((0, 0, 0), (0, 0, 0))]
    pairs += [DerivPair(d, d) for d in FIRST_DERIVS]
    pairs += [DerivPair(di, dj) for di, dj, _, _ in ELASTIC_CROSS]
    pairs += [DerivPair(d, d) for d, _ in SECOND_DERIVS]
    pairs += [DerivPair(d, d) for d, _ in THIRD_DERIVS]
    assert len(set(pairs)) == len(pairs) == 23
    return tuple(pairs)


def _moment_matrix(spacing: float) -> np.ndarray:
    """H[m, n] = integral_0^spacing x^(m+n) dx = spacing^(m+n+1) / (m+n+1)."""
    h = np.empty((4, 4))
    for m in range(4):
        for n in range(4):
            h[m, n] = spacing ** (m + n + 1) / (m + n + 1)
    return h


def build_psi(spacing: float, order_a: int, order_b: int) -> np.ndarray:
    """4x4 matrix of exact integrals of basis-derivative products over one axis.

    Psi[a, b] = integral_0^spacing q_a^(order_a)(x) q_b^(order_b)(x) dx, with q
    the rows of the Q operator. The integrand is a polynomial, so the entries
    are monomial moments contracted with the Q coefficients.
    """
    qa = core.build_q(spacing, order_a)
    qb = core.build_q(spacing, order_b)
    return qa @ _moment_matrix(spacing) @ qb.T


def build_v(tile_spacing, pair: DerivPair) -> np.ndarray:
    """64x64 integrated tile operator for one derivative pair.

    Kronecker order matches the 64-vector flattening of `tile_coefficients`
    (axis 3 fastest), so p_i' V p_j integrates the corresponding derivative
    product over the tile.
    """
    r = core._triple(tile_spacing, "tile_spacing")
    psis = [build_psi(r[d], pair.delta_i[d], pair.delta_j[d]) for d in range(3)]
    return np.kron(np.kron(psis[0], psis[1]), psis[2])


class VMatrixBank:
    """Immutable map from derivative pairs to their integrated tile operators."""

    __slots__ = ("tile_spacing", "_entries")

    def __init__(self, tile_spacing, entries: dict):
        self.tile_spacing = core._triple(tile_spacing, "tile_spacing")
        self._entries = dict(entries)
        for v in self._entries.values():
            v.setflags(write=False)

    def get(self, pair: DerivPair) -> np.ndarray:
        return self._entries[pair]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pairs(self) -> tuple:
        return tuple(self._entries.keys())

    def payload_bytes(self) -> int:
        """Total bytes held by the matrices themselves."""
        return sum(v.nbytes for v in self._entries.values())


def build_vbank(tile_spacing) -> VMatrixBank:
    """Build the canonical 23-operator bank for one tile spacing.

    Construction is deterministic: rebuilding with the same spacing yields
    bitwise identical matrices.
    """
    spacing = core._triple(tile_spacing, "tile_spacing")
    return VMatrixBank(spacing, {p: build_v(spacing, p) for p in canonical_pairs()})


def tile_term(p_i, v: np.ndarray, p_j) -> float:
    """One quadratic form p_i' V p_j: the tile integral of a derivative product."""
    p_i = np.asarray(p_i, dtype=float)
    p_j = np.asarray(p_j, dtype=float)
    if p_i.shape != (64,) or p_j.shape != (64,) or v.shape != (64, 64):
        raise ValueError("tile_term expects 64-vectors and a 64x64 operator")
    return float(p_i @ v @ p_j)


@dataclass(frozen=True)
class RegularizerWeights:
    """Non-negative weights mu1..mu5 for the five penalties."""

    diffusion: float = 0.0
    curvature: float = 0.0
    linear_elastic: float = 0.0
    third_order: float = 0.0
    total_displacement: float = 0.0

    def __post_init__(self):
        for name in REGULARIZER_NAMES:
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"weight {name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in REGULARIZER_NAMES])

    @classmethod
    def from_array(cls, values) -> "RegularizerWeights":
        vals = list(np.asarray(values, dtype=float))
        if len(vals) != 5:
            raise ValueError(f"expected 5 weights, got {len(vals)}")
        return cls(*vals)


@dataclass
class PenaltyResult:
    """Weighted penalty value, its coefficient gradient, and the S1..S5 breakdown."""

    value: float
    terms: np.ndarray  # (5,) unweighted S1..S5
    gradient: np.ndarray | None  # (3, P1, P2, P3) gradient of the weighted value, if computed

    def breakdown(self) -> dict:
        return dict(zip(REGULARIZER_NAMES, (float(t) for t in self.terms)))


# The 20 multi-indices with |delta| <= 3; those sharing axis-2/3 orders are
# adjacent, so the lattice kernel's axis-1 stage writes each group at once.
_DELTAS = tuple((o1, o2, o3) for o3 in range(4) for o2 in range(4 - o3) for o1 in range(4 - o2 - o3))


def _square_multiplicities() -> np.ndarray:
    """(20, 5) multiplicities in S1..S5 of the same-component squares
    <P_c, X_delta>, in `_DELTAS` order; equal for every component."""
    mults = np.zeros((len(_DELTAS), 5))
    mults[_DELTAS.index((0, 0, 0)), 4] = 1.0
    for d in FIRST_DERIVS:
        mults[_DELTAS.index(d), [0, 2]] = 1.0  # diffusion; elastic reuses the squares
    for d, m in SECOND_DERIVS:
        mults[_DELTAS.index(d), 1] = m
    for d, m in THIRD_DERIVS:
        mults[_DELTAS.index(d), 3] = m
    mults.setflags(write=False)
    return mults


_SQUARE_MULTS = _square_multiplicities()


@lru_cache(maxsize=32)
def _axis_operators(spacing: float, count: int) -> np.ndarray:
    """(5, count+3, count+3) lattice operators of one axis: K^(o,o) for
    o = 0..3, then K^(1,0); K^(a,b)[i, j] sums Psi^(a,b)[i - t, j - t] over
    tiles t. K^(o,o) is symmetrized: the gradient of <p, K p> is exactly 2 K p.
    """
    ops = np.zeros((5, count + 3, count + 3))
    tiles = np.arange(count)
    for k, (a, b) in enumerate(((0, 0), (1, 1), (2, 2), (3, 3), (1, 0))):
        psi = build_psi(spacing, a, b)
        if a == b:
            psi = 0.5 * (psi + psi.T)
        for i in range(4):
            for j in range(4):
                ops[k, tiles + i, tiles + j] += psi[i, j]
    ops.setflags(write=False)
    return ops


def _mode_products(vol: np.ndarray, k1, k2, k3) -> np.ndarray:
    """(K1 (x) K2 (x) K3) applied to one (P1, P2, P3) lattice volume."""
    p1, p2, p3 = vol.shape
    out = k2 @ (vol.reshape(p1 * p2, p3) @ k3.T).reshape(p1, p2, p3)
    return (k1 @ out.reshape(p1, p2 * p3)).reshape(p1, p2, p3)


def _component_share(p: np.ndarray, axis_ops, delta_weights, with_gradient: bool) -> tuple:
    """The same-component squares of a stack of C coefficient lattices P_c.

    X_delta = (K1^(d1,d1) (x) K2^(d2,d2) (x) K3^(d3,d3)) P_c for all 20 delta,
    from batched mode products along axis 3 (4 orders), axis 2 (10 order
    pairs) and axis 1 (20 multi-indices); each product is the same GEMM for
    any C, only repeated over the stack. Returns per lattice the 20 products
    <P_c, X_delta> and, if asked, the gradient sum 2 w_delta X_delta.
    """
    c, p1, p2, p3 = p.shape
    k1, k2, k3 = axis_ops
    y = np.matmul(p.reshape(c * p1 * p2, p3), k3[:4]).reshape(4, c * p1, p2, p3)
    x = np.empty((len(_DELTAS), c, p1, p2 * p3))
    k = 0
    for o3 in range(4):
        z = np.matmul(k2[: 4 - o3, None], y[o3]).reshape(4 - o3, c, p1, p2 * p3)
        for o2 in range(4 - o3):
            n = 4 - o2 - o3
            np.matmul(k1[:n, None], z[o2], out=x[k : k + n])
            k += n
    x = x.reshape(len(_DELTAS), c, -1)
    # one GEMV per lattice: over the whole stack, BLAS's row tail would fall
    # on other entries and change their last bits
    gradients = [((2.0 * delta_weights) @ x[:, i]).reshape(p1, p2, p3) if with_gradient else None
                 for i in range(c)]
    # numpy's pairwise summation keeps the rounding of each S local to where
    # P changes, which central differences of the value rely on
    x *= p.reshape(c, -1)
    return [(x[:, i].sum(axis=1), g) for i, g in enumerate(gradients)]


# Components share one `_component_share` pass while their 20 products fit in
# this many float64 (1 MiB) together: small lattices then pay numpy's per-call
# overhead once rather than three times, and no pass over a large lattice
# holds more than one component's products.
_GROUP_FLOATS = 2 ** 17


def _component_groups(lattice_size: int) -> tuple:
    """Slices of consecutive components sharing one `_component_share` pass,
    as many as `_GROUP_FLOATS` holds; threads only share these slices out."""
    size = max(1, _GROUP_FLOATS // (len(_DELTAS) * lattice_size))
    return tuple(slice(c, min(c + size, 3)) for c in range(0, 3, size))


def _check_bank(grid: core.ControlPointGrid, bank: VMatrixBank):
    if bank.tile_spacing != grid.geometry.tile_spacing:
        raise ValueError(
            f"V bank spacing {bank.tile_spacing} does not match grid spacing "
            f"{grid.geometry.tile_spacing}; rebuild the bank for this grid"
        )


def penalty(
    grid: core.ControlPointGrid,
    weights: RegularizerWeights,
    bank: VMatrixBank | None = None,
    with_gradient: bool = True,
) -> PenaltyResult:
    """Weighted smoothness penalty and its gradient over the whole grid.

    All five S values are always computed; the gradient covers only terms
    with nonzero weight. The kernel builds its own per-axis operators from
    the grid's tile spacing; a bank, if given, is only checked to be built
    for that spacing.
    """
    return _lattice_penalty(grid, weights, bank, with_gradient, thread_count=1)


def penalty_parallel(
    grid: core.ControlPointGrid,
    weights: RegularizerWeights,
    bank: VMatrixBank | None = None,
    thread_count: int = 1,
    with_gradient: bool = True,
) -> PenaltyResult:
    """Same contract as `penalty`, with its component groups shared out over up
    to `thread_count` worker threads; a lattice of one group (up to 9^3 tiles)
    runs on the calling thread. Shares and cross terms merge in fixed order, so
    every thread count gives results bitwise identical to `penalty`.
    """
    return _lattice_penalty(grid, weights, bank, with_gradient, core._count(thread_count, "thread_count"))


def _lattice_penalty(grid, weights, bank, with_gradient: bool, thread_count: int) -> PenaltyResult:
    """The one kernel behind `penalty` and `penalty_parallel`."""
    if bank is not None:
        _check_bank(grid, bank)
    geometry = grid.geometry
    axis_ops = [_axis_operators(r, n) for r, n in zip(geometry.tile_spacing, geometry.tile_counts)]
    warr = weights.as_array()
    delta_weights = _SQUARE_MULTS @ warr
    coeffs = grid.coefficients
    groups = _component_groups(coeffs[0].size)

    def share(group):
        return _component_share(coeffs[group], axis_ops, delta_weights, with_gradient)

    with single_threaded_blas():
        if thread_count > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=min(thread_count, len(groups))) as pool:
                parts = list(pool.map(share, groups))
        else:
            parts = [share(g) for g in groups]
        shares = [pair for pairs in parts for pair in pairs]

        terms5 = np.zeros(5)
        for products, _ in shares:
            terms5 += products @ _SQUARE_MULTS
        gradient = np.stack([g for _, g in shares]) if with_gradient else None
        # <P_i, M P_j> with M = K1 (x) K2 (x) K3 of orders (delta_i, delta_j);
        # its gradient is M P_j for P_i and M' P_i for P_j.
        w = weights.linear_elastic
        for di, dj, ci, cj in ELASTIC_CROSS:
            ops = [o[a] if a == b else (o[4] if a > b else o[4].T) for o, a, b in zip(axis_ops, di, dj)]
            forward = _mode_products(coeffs[cj], *ops)
            terms5[2] += float(np.sum(coeffs[ci] * forward))
            if with_gradient and w != 0.0:
                gradient[ci] += w * forward
                gradient[cj] += w * _mode_products(coeffs[ci], *(o.T for o in ops))
    return PenaltyResult(value=float(warr @ terms5), terms=terms5, gradient=gradient)


# ---------------------------------------------------------------------------
# Bank export (VBANK1): the common header, `spacing`, `pairs N` and N `pair`
# lines, then the matrices as raw little-endian float64, row-major in header order.
# ---------------------------------------------------------------------------

def write_vbank(bank: VMatrixBank, path):
    pairs = [("pair", ["".join(map(str, d)) for d in (p.delta_i, p.delta_j)]) for p in bank.pairs]
    _write_file(path, "VBANK1", [("spacing", bank.tile_spacing), ("pairs", (len(bank),))] + pairs,
                np.stack([bank.get(p) for p in bank.pairs]), "<f8")


def read_vbank(path) -> VMatrixBank:
    """Read a VBANK1 file; its operators are read-only views of one payload array."""
    with open(path, "rb") as fh:
        spacing, count = _read_header(fh, (("spacing", 3), ("pairs", 1)), "VBANK1")
        (count,) = _numbers("pairs", count, int, 1)
        codes = _read_header(fh, itertools.repeat(("pair", 2), count))
        matrices = _read_payload(fh, "<f8", (count, 64, 64))
    try:
        entries = {DerivPair(*(tuple(map(int, code)) for code in pair)): v for pair, v in zip(codes, matrices)}
    except ValueError as exc:
        raise FormatError(f"VBANK1 pair line names no canonical derivative pair: {exc}") from exc
    if len(entries) != count:
        raise FormatError(f"VBANK1 header repeats a pair: its {count} pair lines name {len(entries)} operators")
    return VMatrixBank(_numbers("spacing", spacing, low=core.MIN_TILE_SPACING), entries)
