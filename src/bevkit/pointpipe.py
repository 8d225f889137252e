"""Depth unification, visibility culling, pillarization, and BEV masks.

Heterogeneous depth inputs (depth maps, point clouds) are converted to a
single camera-frame cloud; points hidden from the camera are removed with
a per-pixel z-buffer; the survivors are reduced to BEV pillars whose
occupancy gives the point-branch mask, while the image-branch mask comes
from thresholding a per-cell depth-confidence field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import CameraIntrinsics, PointCloud, pixel_cell, project_points
from .grid import UnevenGridSpec, depth_bins_of, lateral_bins_of

# BEV masks are plain (n_z, n_x) boolean arrays.
BevMask = np.ndarray


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters; non-positive or non-finite = invalid."""

    depths: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.depths, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("depth map must be 2-D (height, width)")
        arr.setflags(write=False)
        object.__setattr__(self, "depths", arr)

    @property
    def height(self) -> int:
        return self.depths.shape[0]

    @property
    def width(self) -> int:
        return self.depths.shape[1]


@dataclass(frozen=True)
class PillarTensor:
    """Aggregated features of non-empty BEV cells.

    ``cells`` holds (i_z, i_x) row pairs in ascending linear-cell order;
    ``features`` columns are mean (x, y, z, intensity) followed by the
    mean offsets from the cell center along x and z.
    """

    cells: np.ndarray
    counts: np.ndarray
    features: np.ndarray
    n_assigned: int
    n_dropped: int

    def __post_init__(self):
        if np.any(self.counts < 1):
            raise ValueError("pillar counts must be >= 1")

    def __len__(self) -> int:
        return self.cells.shape[0]


def depthmap_to_cloud(dm: DepthMap, K: CameraIntrinsics) -> PointCloud:
    """One point per valid pixel, unprojected through the pinhole model.

    Pixels scan row-major; intensity is set to 1 for every point.
    """
    if (dm.height, dm.width) != (K.height, K.width):
        raise ValueError(
            f"depth map is {dm.width}x{dm.height} but intrinsics expect "
            f"{K.width}x{K.height}"
        )
    valid = np.isfinite(dm.depths) & (dm.depths > 0)
    vv, uu = np.nonzero(valid)
    z = dm.depths[vv, uu]
    x = (uu - K.cx) * z / K.fx
    y = (vv - K.cy) * z / K.fy
    return PointCloud(np.column_stack([x, y, z, np.ones(z.size)]))


def visibility_filter(pc: PointCloud, K: CameraIntrinsics, tol: float = 0.1) -> PointCloud:
    """Retain only points visible from the camera (per-pixel z-buffer).

    For each pixel cell the minimum-depth point survives, along with any
    point within ``tol`` meters of that minimum (absorbing surface
    thickness); out-of-view points are dropped.  Output order is the
    input order restricted to survivors, making the filter idempotent.
    """
    return unify_visible(pc, K, tol)[0]


def unify_stats(pc: PointCloud, K: CameraIntrinsics, tol: float) -> dict:
    """Counts for the unify pipeline: input / out-of-view / occluded / retained."""
    return _unify_counts(*_visibility_mask(pc, K, tol))


def unify_visible(pc: PointCloud, K: CameraIntrinsics, tol: float = 0.1):
    """``visibility_filter``'s survivors and ``unify_stats``' counts from
    one z-buffer pass; returns (PointCloud, dict)."""
    survive, in_view = _visibility_mask(pc, K, tol)
    return PointCloud(pc.points[survive]), _unify_counts(survive, in_view)


def _visibility_mask(pc: PointCloud, K: CameraIntrinsics, tol: float):
    """The one z-buffer pass behind every visibility entry point."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    u, v, z, in_view = project_points(pc.xyz, K)
    ui, vi = pixel_cell(u[in_view], v[in_view])
    cells = vi * K.width + ui
    minz = np.full(K.width * K.height, np.inf)
    np.minimum.at(minz, cells, z[in_view])
    survive = np.zeros(len(pc), dtype=bool)
    survive[in_view] = z[in_view] <= minz[cells] + tol
    return survive, in_view


def _unify_counts(survive: np.ndarray, in_view: np.ndarray) -> dict:
    n = survive.size
    n_out = int(np.sum(~in_view))
    n_kept = int(np.sum(survive))
    return {
        "input": n,
        "out_of_view": n_out,
        "occluded": n - n_out - n_kept,
        "retained": n_kept,
    }


def pillarize(pc: PointCloud, g: UnevenGridSpec) -> PillarTensor:
    """Group points into BEV cells and aggregate a per-pillar feature.

    A point lands in (depth bin of z, lateral bin of x); off-grid points
    are dropped and counted.  The feature is the per-pillar mean of
    (x, y, z, intensity) plus the mean's offset from the cell center.
    Pillars follow ascending cell order; each sums its points in input
    order.
    """
    i_z = depth_bins_of(pc.xyz[:, 2] if len(pc) else np.empty(0), g)
    i_x = lateral_bins_of(pc.xyz[:, 0] if len(pc) else np.empty(0), g)
    valid = (i_z >= 0) & (i_x >= 0)
    cells = (i_z[valid] * g.n_x + i_x[valid]).astype(np.int64)
    counts = np.bincount(cells, minlength=g.n_cells)
    seg_cells = np.flatnonzero(counts)
    counts = counts[seg_cells]
    points = pc.points[valid]
    sums = np.column_stack([
        np.bincount(cells, weights=points[:, k], minlength=g.n_cells)[seg_cells]
        for k in range(points.shape[1])
    ])
    means = sums / counts[:, None]
    iz = seg_cells // g.n_x
    ix = seg_cells % g.n_x
    # same arithmetic as cell_center, vectorized over pillars
    center_x = g.x_range[0] + (ix + 0.5) * g.lateral_width
    center_z = 0.5 * (g.depth_edges[iz] + g.depth_edges[iz + 1])
    offsets = np.column_stack([means[:, 0] - center_x, means[:, 2] - center_z])
    return PillarTensor(
        cells=np.column_stack([iz, ix]).astype(np.int64),
        counts=counts.astype(np.int64),
        features=np.column_stack([means, offsets]),
        n_assigned=int(valid.sum()),
        n_dropped=int(len(pc) - valid.sum()),
    )


def occupancy_mask(pt: PillarTensor, g: UnevenGridSpec) -> BevMask:
    """Point-branch BEV mask: true exactly where a pillar has points."""
    mask = np.zeros((g.n_z, g.n_x), dtype=bool)
    if len(pt):
        mask[pt.cells[:, 0], pt.cells[:, 1]] = True
    return mask


def image_confidence_mask(confidence: np.ndarray, eps: float = 5e-4) -> BevMask:
    """Image-branch BEV mask: cells whose confidence strictly exceeds eps."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    conf = np.asarray(confidence, dtype=np.float64)
    if conf.ndim != 2:
        raise ValueError("confidence field must be 2-D (n_z, n_x)")
    return conf > eps
