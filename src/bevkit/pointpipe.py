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

from . import rows
from .geom import CameraIntrinsics, PointCloud, _project
from .grid import UnevenGridSpec, _cells_of, cell_centers

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
    (u - cx) * z / fx comes from a row of u - cx broadcast down the
    image, (v - cy) * z / fy from a column.  Row-parallel: each block of
    image rows writes its slice of one point per pixel and checks it
    finite, and only a map with an invalid pixel is compressed after.
    """
    if (dm.height, dm.width) != (K.height, K.width):
        raise ValueError(
            f"depth map is {dm.width}x{dm.height} but intrinsics expect "
            f"{K.width}x{K.height}"
        )
    z, w = dm.depths, dm.width
    u = np.arange(w) - K.cx
    v = (np.arange(dm.height) - K.cy)[:, None]
    points = np.empty(z.shape + (4,))

    def block(lo, hi):
        r = slice(lo // w, hi // w)
        zr, pr = z[r], points[r]
        # an invalid pixel may give nan (0 * inf) or overflow (u * -1e308)
        # and is dropped below; a valid one that overflows fails the
        # finiteness check
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(u, zr, out=pr[..., 0])
            pr[..., 0] /= K.fx
            np.multiply(v[r], zr, out=pr[..., 1])
            pr[..., 1] /= K.fy
        pr[..., 2] = zr
        pr[..., 3] = 1.0
        return bool(np.isfinite(pr).all())

    finite = all(rows.run_blocks(z.size, block, quantum=w))
    points = points.reshape(-1, 4)
    valid = z > 0
    valid &= z < np.inf      # NaN fails both tests
    if not valid.all():
        return PointCloud(_compress_rows(valid.reshape(-1), points))
    # a point that overflowed fails PointCloud's own check
    return PointCloud._of_checked_rows(points) if finite else PointCloud(points)


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
    return _visibility_mask(pc, K, tol)[1]


def unify_visible(pc: PointCloud, K: CameraIntrinsics, tol: float = 0.1):
    """``visibility_filter``'s survivors and ``unify_stats``' counts from
    one z-buffer pass; returns (PointCloud, dict)."""
    survive, counts = _visibility_mask(pc, K, tol)
    return PointCloud._of_checked_rows(_compress_rows(survive, pc.points)), counts


def _compress_rows(mask: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``np.compress(mask, points, axis=0)``, row-parallel: each block of
    the kept rows is one take into its slice."""
    index = np.flatnonzero(mask)
    kept = np.empty((index.size,) + points.shape[1:])
    # mode="clip" takes in place; the default "raise" takes into a copy
    # of the slice, and every index here is in range
    rows.run_blocks(index.size, lambda lo, hi: np.take(
        points, index[lo:hi], axis=0, out=kept[lo:hi], mode="clip"))
    return kept


def _visibility_mask(pc: PointCloud, K: CameraIntrinsics, tol: float):
    """The one z-buffer pass behind every visibility entry point: the
    survivor mask and the unify counts, (survive, counts).

    Every point enters the z-buffer: out-of-view points all land in its
    one extra dump pixel, whose bound is pinned to -inf, below any finite
    depth, so none of them survives.  The z-buffer's ``minimum.at`` is
    serial; the survivor test after it is row-parallel."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    z, pixel, n_in_view = _project(pc.xyz, K)
    minz = np.full(K.width * K.height + 1, np.inf)
    np.minimum.at(minz, pixel, z)
    minz += tol               # once per pixel, not once per point
    minz[-1] = -np.inf        # the dump pixel: every PointCloud depth is finite
    survive = np.empty(z.size, dtype=bool)
    rows.run_blocks(z.size, lambda lo, hi: np.less_equal(
        z[lo:hi], minz[pixel[lo:hi]], out=survive[lo:hi]))
    n, n_kept = z.size, int(np.count_nonzero(survive))
    return survive, {"input": n, "out_of_view": n - n_in_view,
                     "occluded": n_in_view - n_kept, "retained": n_kept}


def pillarize(pc: PointCloud, g: UnevenGridSpec) -> PillarTensor:
    """Group points into BEV cells and aggregate a per-pillar feature.

    A point lands in (depth bin of z, lateral bin of x); off-grid points
    are dropped and counted.  The feature is the per-pillar mean of
    (x, y, z, intensity) plus the mean's offset from the cell center.
    Pillars follow ascending cell order; each sums its points in input
    order.
    """
    import scipy.sparse  # loaded on first use: import bevkit stays scipy-free

    n = len(pc)
    # off-grid rows go to one dump bin, marked inside cells_of's split
    # blocks rather than by a serial cells[cells < 0] pass after them
    cells = _cells_of(pc.xyz[:, 0], pc.xyz[:, 2], g, g.n_cells)
    counts = np.bincount(cells, minlength=g.n_cells + 1)
    n_dropped = int(counts[g.n_cells])
    seg_cells = np.flatnonzero(counts[:g.n_cells])
    counts = counts[seg_cells]
    # one entry per row; scipy's csc_matvecs adds each row to its cell's
    # sum in row order, and 1.0 * x is exact.  Indices that fit int32 go
    # in as int32, which scipy would otherwise find by a scan and a cast.
    index = np.int32 if n < np.iinfo(np.int32).max else np.int64
    by_row = scipy.sparse.csc_matrix(
        (np.ones(n), cells.astype(index), np.arange(n + 1, dtype=index)),
        shape=(g.n_cells + 1, n))
    sums = (by_row @ pc.points)[seg_cells]
    means = sums / counts[:, None]
    center_x, center_z = cell_centers(seg_cells, g)
    offsets = np.column_stack([means[:, 0] - center_x, means[:, 2] - center_z])
    return PillarTensor(
        cells=np.column_stack(np.divmod(seg_cells, g.n_x)),
        counts=counts.astype(np.int64),
        features=np.column_stack([means, offsets]),
        n_assigned=n - n_dropped,
        n_dropped=n_dropped,
    )


def occupancy_mask(pt: PillarTensor, g: UnevenGridSpec) -> BevMask:
    """Point-branch BEV mask: true exactly where a pillar has points."""
    mask = np.zeros((g.n_z, g.n_x), dtype=bool)
    if len(pt):
        mask[pt.cells[:, 0], pt.cells[:, 1]] = True
    return mask


def image_confidence_mask(confidence: np.ndarray, eps: float = 5e-4) -> BevMask:
    """Image-branch BEV mask: cells whose confidence strictly exceeds eps."""
    if not eps >= 0:
        raise ValueError("eps must be non-negative, not NaN")
    conf = np.asarray(confidence, dtype=np.float64)
    if conf.ndim != 2:
        raise ValueError("confidence field must be 2-D (n_z, n_x)")
    return conf > eps
