"""Outer-product camera-to-BEV projection with threshold pruning.

A per-pixel categorical depth distribution lifts each image feature
column along its camera ray; entries whose depth probability falls below
a threshold are dropped before the splat, which removes the bulk of the
projection work while bounding the per-cell error by the threshold.  The
splat is one sparse product over the kept entries, so its cost follows them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import CameraIntrinsics, FeatureMap
from .grid import UnevenGridSpec, cells_of, depth_bin_centers
from .rng import CounterRng

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DepthDistribution:
    """Per-pixel depth-bin probabilities, shape (C_d, H_f, W_f)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.probs, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("depth distribution must have shape (C_d, H_f, W_f)")
        if not np.all(arr >= 0):
            raise ValueError("depth probabilities must be non-negative, not NaN")
        sums = arr.sum(axis=0)
        if arr.shape[1] * arr.shape[2] and np.max(np.abs(sums - 1.0)) > _SUM_TOL:
            raise ValueError("each pixel's depth probabilities must sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_bins(self) -> int:
        return self.probs.shape[0]

    @property
    def spatial_shape(self) -> tuple:
        return self.probs.shape[1:]


@dataclass(frozen=True)
class SparseProjection:
    """Kept (pixel, depth-bin) pairs with their depth-probability weights.

    ``pixels`` are row-major linear indices h * W_f + w and ``bins`` lie in
    [0, C_d).  Entries must be ordered by pixel, as ``sparse_prune`` emits
    them ((pixel, bin) ascending); ``splat_to_bev`` refuses any other input.
    """

    pixels: np.ndarray
    bins: np.ndarray
    weights: np.ndarray
    source_shape: tuple
    tau: float

    @property
    def total(self) -> int:
        c, h, w = self.source_shape
        return c * h * w

    @property
    def kept(self) -> int:
        return int(self.weights.size)

    @property
    def removal_ratio(self) -> float:
        return 1.0 - self.kept / self.total


def outer_project(f_i: FeatureMap, f_d: DepthDistribution) -> FeatureMap:
    """Lift image features along depth: out[c,d,h,w] = F_i[c,0,h,w] * F_d[d,h,w]."""
    c, d, h, w = f_i.shape
    if d != 1 or (h, w) != f_d.spatial_shape:
        raise ValueError(
            f"image features {f_i.shape} do not match depth distribution "
            f"{f_d.probs.shape}: expected (C, 1, {f_d.probs.shape[1]}, {f_d.probs.shape[2]})"
        )
    return FeatureMap(f_i.data[:, 0][:, None, :, :] * f_d.probs[None, :, :, :])


def sparse_prune(f_d: DepthDistribution, tau: float) -> SparseProjection:
    """Keep exactly the (pixel, bin) pairs with probability >= tau.

    tau = 0 keeps everything, making the pruned splat bit-identical to
    the dense one.
    """
    if not tau >= 0:
        raise ValueError("tau must be non-negative, not NaN")
    c_d, h, w = f_d.probs.shape
    probs = f_d.probs.reshape(c_d, h * w)
    # flat indices into the (pixel, bin) transpose enumerate pixel-major,
    # bin ascending; split by scalar floor division and an in-place
    # subtract, as np.divmod takes numpy's slow int64 remainder path
    bins = np.flatnonzero((probs >= tau).T)
    pixels = bins // c_d
    bins -= pixels * c_d
    # the weights by a flat gather, as numpy's 2-D fancy index is slower;
    # the flat index is built in the bins' buffer and floor division takes
    # it back, so that no index array of the entries' size is allocated
    bins *= h * w
    bins += pixels
    weights = np.take(probs, bins)
    bins //= h * w
    return SparseProjection(pixels, bins, weights, f_d.probs.shape, float(tau))


@dataclass(frozen=True)
class SplatResult:
    bev: FeatureMap
    in_grid: int
    out_of_grid: int


class _ColumnTable(NamedTuple):
    """BEV cell (linear, -1 if off-grid) of each (depth bin d, image column
    w) at index d * W_f + w, as the image row never enters the cell, and
    the in-grid indices with their cells; read-only, shared by callers."""

    cells: np.ndarray
    in_grid: np.ndarray
    in_grid_cells: np.ndarray


def _column_cells(K: CameraIntrinsics, g: UnevenGridSpec, c_d: int, w_f: int,
                  uneven_bins: bool) -> _ColumnTable:
    """The column table of a feature camera, grid and depth-bin layout,
    built once per value key: the grid enters by its values, because its
    depth edges are an ndarray and an equal grid may be another object."""
    return _column_table(K, g.x_range, g.z_range, g.n_x, g.n_z, g.depth_edges.tobytes(),
                         c_d, w_f, bool(uneven_bins))


@functools.lru_cache(maxsize=8)
def _column_table(K, x_range, z_range, n_x, n_z, edges, c_d, w_f, uneven_bins) -> _ColumnTable:
    # the grid is rebuilt from the key, so the table depends on the key alone
    g = UnevenGridSpec(x_range, z_range, n_x, n_z, np.frombuffer(edges))
    z = np.repeat(depth_bin_centers(g.z_range[0], g.z_range[1], c_d, uneven_bins), w_f)
    u = np.tile(np.arange(w_f, dtype=np.float64), c_d)
    cells = cells_of((u - K.cx) * z / K.fx, z, g)
    in_grid = np.flatnonzero(cells >= 0)
    table = _ColumnTable(cells, in_grid, cells[in_grid])
    for arr in table:
        arr.setflags(write=False)
    return table


def _entry_targets(sp: SparseProjection, K: CameraIntrinsics, g: UnevenGridSpec,
                   uneven_bins: bool) -> np.ndarray:
    """BEV cell (linear, -1 if off-grid) for each kept projection entry."""
    c_d, _, w_f = sp.source_shape
    # bins * w_f + pixels % w_f, without numpy's slow int64 remainder path
    index = sp.pixels // w_f
    index *= -w_f
    index += sp.pixels
    index += sp.bins * w_f
    return _column_cells(K, g, c_d, w_f, uneven_bins).cells[index]


def splat_to_bev(f_i: FeatureMap, sp: SparseProjection, K: CameraIntrinsics,
                 g: UnevenGridSpec, reduce: str = "sum",
                 uneven_bins: bool = False) -> SplatResult:
    """Accumulate kept entries into the BEV grid cell hit by each ray.

    Each entry contributes weight * F_i[:, h, w] to the cell containing
    the 3D point at its pixel's ray and depth-bin center.  Entries must be
    ordered by pixel: every cell then adds its contributions in entry order,
    starting from zero, so the output is bit-reproducible; off-grid entries
    are dropped and counted.
    """
    import scipy.sparse  # loaded on first use: import bevkit stays scipy-free

    if reduce not in ("sum", "mean"):
        raise ValueError("reduce must be 'sum' or 'mean'")
    c_i, d, h, w = f_i.shape
    if d != 1 or (h, w) != sp.source_shape[1:]:
        raise ValueError("image features do not match the pruned projection's shape")
    if not sp.pixels.size == sp.bins.size == sp.weights.size:
        raise ValueError("projection pixels, bins and weights must have equal lengths")
    if np.any(sp.pixels[1:] < sp.pixels[:-1]):
        raise ValueError("projection entries must be ordered by pixel")
    if sp.pixels.size and (sp.pixels[0] < 0 or sp.pixels[-1] >= h * w):
        raise ValueError(f"projection pixels must lie in [0, {h * w})")
    if sp.bins.size and (sp.bins.min() < 0 or sp.bins.max() >= sp.source_shape[0]):
        raise ValueError(f"projection bins must lie in [0, {sp.source_shape[0]})")
    cells = _entry_targets(sp, K, g, uneven_bins)
    valid = cells >= 0
    cells, pixels, weights = cells[valid], sp.pixels[valid], sp.weights[valid]
    counts = np.bincount(cells, minlength=g.n_cells)
    hit = np.flatnonzero(counts)
    slot = np.cumsum(counts > 0) - 1   # row of each hit cell
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pixels, minlength=h * w))))
    by_pixel = scipy.sparse.csc_matrix((weights, slot[cells], indptr), shape=(hit.size, h * w))
    # scipy's csc_matvecs adds w * F[:, p] to each entry's cell row in stored order
    sums = by_pixel @ f_i.data.reshape(c_i, h * w).T
    if reduce == "mean":
        sums /= counts[hit, None]
    out = np.zeros((c_i, g.n_cells))
    out[:, hit] = sums.T
    bev = FeatureMap(out.reshape(c_i, 1, g.n_z, g.n_x))
    return SplatResult(bev, cells.size, sp.kept - cells.size)


def bev_depth_confidence(f_d: DepthDistribution, K: CameraIntrinsics,
                         g: UnevenGridSpec, uneven_bins: bool = False) -> np.ndarray:
    """Per-cell max depth probability landing in each BEV cell (n_z, n_x).

    This is the image-branch confidence field thresholded into a BEV mask
    downstream; max is the least destructive per-cell aggregate.
    """
    table = _column_cells(K, g, f_d.n_bins, f_d.probs.shape[2], uneven_bins)
    conf = np.zeros(g.n_cells)
    np.maximum.at(conf, table.in_grid_cells,
                  f_d.probs.max(axis=1, initial=0.0).ravel()[table.in_grid])
    return conf.reshape(g.n_z, g.n_x)


def synth_projection_inputs(seed: int, c_i: int, c_d: int, h_f: int, w_f: int):
    """Seeded synthetic feature map + softmax depth distribution."""
    rng = CounterRng(seed)
    feats = rng.normals(c_i * h_f * w_f).reshape(c_i, 1, h_f, w_f)
    logits = 4.0 * rng.normals(c_d * h_f * w_f).reshape(c_d, h_f, w_f)
    logits -= logits.max(axis=0, keepdims=True)
    expd = np.exp(logits)
    return FeatureMap(feats), DepthDistribution(expd / expd.sum(axis=0, keepdims=True))


def bench_projection(K: CameraIntrinsics, g: UnevenGridSpec, taus, seed: int,
                     c_i: int, c_d: int, h_f: int, w_f: int, uneven_bins: bool):
    """Prune once per threshold; report the kept ratio and a checksum.

    The checksum column hashes the dense (tau = 0) output, splatted with
    ``uneven_bins`` projection-bin spacing, so it is threshold-independent:
    rows benchmarked against different inputs cannot be compared by
    accident.
    """
    taus = [float(t) for t in taus]
    if not all(t >= 0 for t in taus):
        raise ValueError("tau must be non-negative, not NaN")
    f_i, f_d = synth_projection_inputs(seed, c_i, c_d, h_f, w_f)
    dense = splat_to_bev(f_i, sparse_prune(f_d, 0.0), K, g, uneven_bins=uneven_bins)
    checksum = hashlib.sha256(dense.bev.data.tobytes()).hexdigest()[:16]
    rows = []
    for tau in taus:
        sp = sparse_prune(f_d, tau)
        rows.append({"tau": tau, "kept_ratio": sp.kept / sp.total, "checksum": checksum})
    return rows
