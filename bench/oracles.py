"""Reference computations the benchmark checks bevkit's outputs against.

Each oracle is written from the method's definition with plain numpy and
shares no code with bevkit: the splat scatters with ``bincount``, the
z-buffer sorts points by (pixel, depth), and box overlap is estimated by
Monte-Carlo sampling.  The pinhole and bin arithmetic follows the same
formulas as bevkit's documentation, in the same order, so that a point
on a cell boundary lands on the same side in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_DEPTH = 1e-9


def _bin_lookup(values, edges):
    """Bin of each value over monotone edges; -1 outside [edges[0], edges[-1]].

    Bins are [e_i, e_i+1) except the last, which also owns its upper edge.
    """
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[values == edges[-1]] = len(edges) - 2
    idx[(values < edges[0]) | (values > edges[-1])] = -1
    return idx


def bev_cells(xs, zs, grid):
    """Linear BEV cell of each (x, z), or -1 off the grid."""
    x_lo, x_hi = grid.x_range
    width = (x_hi - x_lo) / grid.n_x
    ix = np.minimum(np.floor((np.clip(xs, x_lo, x_hi) - x_lo) / width).astype(np.int64),
                    grid.n_x - 1)
    ix[(xs < x_lo) | (xs > x_hi)] = -1
    iz = _bin_lookup(zs, grid.depth_edges)
    return np.where((ix >= 0) & (iz >= 0), iz * grid.n_x + ix, -1)


def _entry_cells(probs, K, grid):
    """BEV cell of every (bin, row, col) entry: the ray through the
    column's pixel at the bin's centre depth."""
    n_bins, _, w = probs.shape
    z_lo, z_hi = grid.z_range
    edges = z_lo + (z_hi - z_lo) * (np.arange(n_bins + 1, dtype=np.float64) / float(n_bins))
    centers = 0.5 * (edges[:-1] + edges[1:])
    u = np.arange(w, dtype=np.float64)
    x = (u[None, :] - K.cx) * centers[:, None] / K.fx          # (bins, cols)
    cells = bev_cells(x.ravel(), np.repeat(centers, w), grid).reshape(n_bins, 1, w)
    return np.broadcast_to(cells, probs.shape)


@dataclass
class SplatOracle:
    bev: np.ndarray      # (C, n_z, n_x) sum of w * F per cell
    mass: np.ndarray     # (C, n_z, n_x) sum of |w * F| per cell
    count: np.ndarray    # (n_z, n_x) entries landing in each cell
    in_grid: int

    def dropped_per_cell(self, pruned: "SplatOracle") -> np.ndarray:
        return self.count - pruned.count


def splat(feats, probs, K, grid, tau) -> SplatOracle:
    """Sum-splat of the entries with probs >= tau into the BEV grid.

    ``feats`` is (C, H, W), ``probs`` is (bins, H, W).
    """
    keep = probs >= tau
    cells = _entry_cells(probs, K, grid)[keep]
    d, h, w = np.nonzero(keep)
    weights = probs[keep]
    on = cells >= 0
    cells, h, w, weights = cells[on], h[on], w[on], weights[on]
    n = grid.n_cells
    bev = np.empty((feats.shape[0], n))
    mass = np.empty((feats.shape[0], n))
    for c in range(feats.shape[0]):
        contrib = weights * feats[c, h, w]
        bev[c] = np.bincount(cells, weights=contrib, minlength=n)
        mass[c] = np.bincount(cells, weights=np.abs(contrib), minlength=n)
    shape = (feats.shape[0], grid.n_z, grid.n_x)
    count = np.bincount(cells, minlength=n).reshape(grid.n_z, grid.n_x)
    return SplatOracle(bev.reshape(shape), mass.reshape(shape), count, int(cells.size))


def depth_confidence(probs, K, grid) -> np.ndarray:
    """Per-cell maximum of every depth probability landing in it (0 if none)."""
    cells = _entry_cells(probs, K, grid).ravel()
    weights = probs.ravel()
    on = cells >= 0
    cells, weights = cells[on], weights[on]
    order = np.lexsort((weights, cells))
    last = np.r_[cells[order][1:] != cells[order][:-1], True]
    conf = np.zeros(grid.n_cells)
    conf[cells[order][last]] = weights[order][last]
    return conf.reshape(grid.n_z, grid.n_x)


def zbuffer_survivors(xyz, K, tol):
    """Points within ``tol`` of the nearest in-view point of their pixel.

    Returns (survivor mask, in-view mask).  Points are sorted by pixel,
    then depth; the first of each pixel run holds the pixel's minimum.
    """
    z = xyz[:, 2]
    front = z > _MIN_DEPTH
    zs = np.where(front, z, 1.0)
    ui = np.floor(K.fx * xyz[:, 0] / zs + K.cx + 0.5).astype(np.int64)
    vi = np.floor(K.fy * xyz[:, 1] / zs + K.cy + 0.5).astype(np.int64)
    in_view = front & (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
    idx = np.flatnonzero(in_view)
    pixel = vi[idx] * K.width + ui[idx]
    order = np.lexsort((z[idx], pixel))
    first = np.r_[True, pixel[order][1:] != pixel[order][:-1]]
    run = np.cumsum(first) - 1
    nearest = np.empty(idx.size)
    nearest[order] = z[idx][order][first][run]
    keep = np.zeros(len(xyz), dtype=bool)
    keep[idx] = z[idx] <= nearest + tol
    return keep, in_view


def depthmap_cloud(depths, K) -> np.ndarray:
    """Camera-frame (x, y, z) of every valid pixel, scanning row-major."""
    vv, uu = np.nonzero(np.isfinite(depths) & (depths > 0))
    z = depths[vv, uu]
    return np.column_stack([(uu - K.cx) * z / K.fx, (vv - K.cy) * z / K.fy, z])


def masked_mean_abs(target, pred, mask) -> float:
    """Mean |pred - target| over masked cells and every leading channel."""
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(pred[..., mask] - target[..., mask])))


def mc_intersection(a, b, n, rng):
    """Monte-Carlo estimate of vol(a & b) and its standard error.

    Samples ``n`` points uniformly in ``a`` and counts those inside ``b``.
    """
    local = (rng.random((n, 3)) - 0.5) * a.dims
    world = a.center + local @ a.rotation.T
    in_b = np.all(np.abs((world - b.center) @ b.rotation) <= 0.5 * b.dims, axis=1)
    p = float(in_b.mean())
    se = a.volume * np.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return a.volume * p, se


def spheres_disjoint(a, b) -> bool:
    """True when the boxes' circumscribed spheres do not meet: IoU is 0."""
    r = 0.5 * (np.linalg.norm(a.dims) + np.linalg.norm(b.dims))
    return bool(np.linalg.norm(a.center - b.center) > r)


def is_tilted(box) -> bool:
    """True when the rotation is not a pure yaw (about the vertical axis)."""
    return bool(abs(box.rotation[1, 1] - 1.0) > 1e-12)
