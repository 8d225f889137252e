"""BEV grid construction with linearly-growing depth bins.

Depth-bin edges follow e(i) = z_min + span * i*(i+1) / (n*(n+1)), so bin
widths grow by the constant 2*span/(n*(n+1)) from one bin to the next:
fine resolution near the camera, coverage far away, same cell count as a
uniform split.  The lateral (x) axis is always uniform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .io import json_array, json_value

OUT_OF_RANGE = -1


def depth_edges(z_min: float, z_max: float, n_bins: int, uneven: bool = True) -> np.ndarray:
    """n_bins + 1 monotone edges tiling [z_min, z_max]."""
    i = np.arange(n_bins + 1, dtype=np.float64)
    if uneven:
        frac = i * (i + 1.0) / (n_bins * (n_bins + 1.0))
    else:
        frac = i / float(n_bins)
    return z_min + (z_max - z_min) * frac


def depth_bin_centers(z_min: float, z_max: float, n_bins: int, uneven: bool = False) -> np.ndarray:
    """Midpoints of the n_bins depth intervals (used as ray-splat targets)."""
    edges = depth_edges(z_min, z_max, n_bins, uneven)
    return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class UnevenGridSpec:
    """BEV grid: uniform lateral cells, explicit depth-bin edges."""

    x_range: tuple
    z_range: tuple
    n_x: int
    n_z: int
    depth_edges: np.ndarray

    def __post_init__(self):
        for name in ("n_x", "n_z"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            object.__setattr__(self, name, int(n))
        for name in ("x_range", "z_range"):
            pair = tuple(float(v) for v in np.ravel(getattr(self, name)))
            if len(pair) != 2:
                raise ValueError(f"{name} must be a (lo, hi) pair")
            object.__setattr__(self, name, pair)
        edges = np.asarray(self.depth_edges, dtype=np.float64)
        if edges.shape != (self.n_z + 1,):
            raise ValueError("depth_edges must have n_z + 1 entries")
        if edges[0] != self.z_range[0] or edges[-1] != self.z_range[1]:
            raise ValueError("depth_edges must start at z_min and end at z_max")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("depth_edges must be strictly increasing")
        edges.setflags(write=False)
        object.__setattr__(self, "depth_edges", edges)

    @property
    def lateral_width(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.n_x

    @property
    def n_cells(self) -> int:
        return self.n_z * self.n_x

    def to_json(self) -> str:
        payload = {
            "x_range": list(self.x_range),
            "z_range": list(self.z_range),
            "n_x": self.n_x,
            "n_z": self.n_z,
            "depth_edges": self.depth_edges.tolist(),
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "UnevenGridSpec":
        d = json_value(json.loads(text), dict, "grid")
        return cls(
            json_array(d["x_range"], "x_range"), json_array(d["z_range"], "z_range"),
            d["n_x"], d["n_z"], json_array(d["depth_edges"], "depth_edges"),
        )


def build_grid(x_range, z_range, n_x: int, n_z: int, uneven: bool = True) -> UnevenGridSpec:
    """Construct the grid; depth edges uneven by default, lateral uniform."""
    if n_x < 1 or n_z < 1:
        raise ValueError("cell counts must be >= 1")
    x_lo, x_hi = (float(v) for v in x_range)
    z_lo, z_hi = (float(v) for v in z_range)
    if not (x_hi > x_lo and z_hi > z_lo):
        raise ValueError("ranges must be non-degenerate")
    edges = depth_edges(z_lo, z_hi, n_z, uneven)
    return UnevenGridSpec((x_lo, x_hi), (z_lo, z_hi), n_x, n_z, edges)


def depth_bin_of(z: float, g: UnevenGridSpec) -> int:
    """Bin i with edges[i] <= z < edges[i+1]; z == z_max maps to the last
    bin; OUT_OF_RANGE (-1) outside [z_min, z_max] (a normal path)."""
    z_lo, z_hi = g.z_range
    if z < z_lo or z > z_hi or not np.isfinite(z):
        return OUT_OF_RANGE
    if z == z_hi:
        return g.n_z - 1
    return int(np.searchsorted(g.depth_edges, z, side="right")) - 1


def lateral_bin_of(x: float, g: UnevenGridSpec) -> int:
    """Uniform lateral lookup with the same boundary rules as depth_bin_of."""
    x_lo, x_hi = g.x_range
    if x < x_lo or x > x_hi or not np.isfinite(x):
        return OUT_OF_RANGE
    if x == x_hi:
        return g.n_x - 1
    return min(int((x - x_lo) / g.lateral_width), g.n_x - 1)


def depth_bins_of(z: np.ndarray, g: UnevenGridSpec) -> np.ndarray:
    """Vectorized depth_bin_of."""
    z = np.asarray(z, dtype=np.float64)
    idx = np.searchsorted(g.depth_edges, z, side="right") - 1
    idx = np.where(z == g.z_range[1], g.n_z - 1, idx)
    bad = (z < g.z_range[0]) | (z > g.z_range[1]) | ~np.isfinite(z)
    return np.where(bad, OUT_OF_RANGE, idx).astype(np.int64)


def lateral_bins_of(x: np.ndarray, g: UnevenGridSpec) -> np.ndarray:
    """Vectorized lateral_bin_of."""
    x = np.asarray(x, dtype=np.float64)
    bad = (x < g.x_range[0]) | (x > g.x_range[1]) | ~np.isfinite(x)
    safe = np.where(bad, g.x_range[0], x)
    idx = np.floor((safe - g.x_range[0]) / g.lateral_width).astype(np.int64)
    idx = np.minimum(idx, g.n_x - 1)
    return np.where(bad, OUT_OF_RANGE, idx)


def cell_center(i_x: int, i_z: int, g: UnevenGridSpec) -> tuple:
    """(x, z) midpoint of cell (i_x, i_z)."""
    if not (0 <= i_x < g.n_x and 0 <= i_z < g.n_z):
        raise ValueError("cell index out of range")
    x = g.x_range[0] + (i_x + 0.5) * g.lateral_width
    z = 0.5 * (g.depth_edges[i_z] + g.depth_edges[i_z + 1])
    return float(x), float(z)
