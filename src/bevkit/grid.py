"""BEV grid construction with linearly-growing depth bins.

Depth-bin edges follow e(i) = z_min + span * i*(i+1) / (n*(n+1)), so bin
widths grow by the constant 2*span/(n*(n+1)) from one bin to the next:
fine resolution near the camera, coverage far away, same cell count as a
uniform split.  The lateral (x) axis is always uniform.

This module owns the cell rule: a point (x, z) lies in the linear cell
i_z * n_x + i_x of its depth bin i_z and lateral bin i_x (``cells_of``),
and ``cell_centers`` gives each linear cell's (x, z) midpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import json_array, json_value

OUT_OF_RANGE = -1
_MAX_SLOTS = 1 << 16


def depth_edges(z_min: float, z_max: float, n_bins: int, uneven: bool) -> np.ndarray:
    """n_bins + 1 monotone edges tiling [z_min, z_max]."""
    i = np.arange(n_bins + 1, dtype=np.float64)
    if uneven:
        frac = i * (i + 1.0) / (n_bins * (n_bins + 1.0))
    else:
        frac = i / float(n_bins)
    return z_min + (z_max - z_min) * frac


def depth_bin_centers(z_min: float, z_max: float, n_bins: int, uneven: bool) -> np.ndarray:
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
        _require_finite(self.x_range, self.z_range, edges)
        if edges.shape != (self.n_z + 1,):
            raise ValueError("depth_edges must have n_z + 1 entries")
        if edges[0] != self.z_range[0] or edges[-1] != self.z_range[1]:
            raise ValueError("depth_edges must start at z_min and end at z_max")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("depth_edges must be strictly increasing")
        edges.setflags(write=False)
        object.__setattr__(self, "depth_edges", edges)
        object.__setattr__(self, "_slots", _SlotTable.build(edges))

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


class _SlotTable(NamedTuple):
    """Uniform slots over [z_min, z_max] that narrow a depth lookup to the
    few bins a slot can hold.

    ``slot_of`` is monotone in z.  So an inner edge whose own slot is
    below a z's slot lies below z, and one whose slot is above lies above
    it: ``first_bin`` holds, per slot, the count of inner edges in lower
    slots, and only the edges that share the slot remain to compare,
    by binary lifting over ``upper`` (the inner edges, then +inf padding)
    with ``steps`` halving down to 1.  The bound holds for any strictly
    increasing edges, so every grid takes this one path."""

    z_min: float
    scale: float
    first_bin: np.ndarray
    upper: np.ndarray
    steps: tuple

    @classmethod
    def build(cls, edges: np.ndarray) -> "_SlotTable":
        inner = edges[1:-1]
        span = edges[-1] - edges[0]
        # slots of half the narrowest bin, so an even or uneven grid
        # shares at most one inner edge per slot
        with np.errstate(over="ignore"):   # the narrowest bin may be subnormal
            per_narrowest = span / np.min(np.diff(edges))
        n_slots = int(min(_MAX_SLOTS, 2 * np.ceil(per_narrowest)))
        table = cls(float(edges[0]), n_slots / span, np.empty(n_slots, np.int64), inner, ())
        slots = table.slot_of(inner)
        straddle = int(np.bincount(slots).max()) if slots.size else 0
        steps = tuple(1 << k for k in reversed(range(straddle.bit_length())))
        return table._replace(
            first_bin=np.searchsorted(slots, np.arange(n_slots), side="left"),
            upper=np.concatenate([inner, np.full(sum(steps), np.inf)]),
            steps=steps,
        )

    def slot_of(self, z: np.ndarray) -> np.ndarray:
        t = z - self.z_min
        with np.errstate(over="ignore"):   # a huge z clips to the last slot
            t *= self.scale
        return _floor_clipped(t, self.first_bin.size - 1)


def _floor_clipped(t: np.ndarray, top: int) -> np.ndarray:
    """floor(t) clipped to [0, top] as int64; NaN gives 0.  Clips t in
    place."""
    np.fmax(t, 0.0, out=t)
    np.fmin(t, top, out=t)
    return t.astype(np.int64)


def _in_range(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo <= v <= hi; false for a non-finite v, as a grid's range is finite."""
    ok = v >= lo
    ok &= v <= hi
    return ok


def _require_finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError("x_range, z_range and depth_edges must be finite")


def build_grid(x_range, z_range, n_x: int, n_z: int, uneven: bool = True) -> UnevenGridSpec:
    """Construct the grid; depth edges uneven by default, lateral uniform."""
    if n_x < 1 or n_z < 1:
        raise ValueError("cell counts must be >= 1")
    x_lo, x_hi = (float(v) for v in x_range)
    z_lo, z_hi = (float(v) for v in z_range)
    _require_finite(x_range, z_range)   # before the edges: inf * 0 is nan
    if not (x_hi > x_lo and z_hi > z_lo):
        raise ValueError("ranges must be non-degenerate")
    edges = depth_edges(z_lo, z_hi, n_z, uneven)
    return UnevenGridSpec((x_lo, x_hi), (z_lo, z_hi), n_x, n_z, edges)


def _depth_index(z: np.ndarray, g: UnevenGridSpec) -> np.ndarray:
    """Depth bin of each z in [z_min, z_max]: i with edges[i] <= z <
    edges[i+1], the last bin for z == z_max; any bin for other z."""
    table = g._slots
    idx = table.first_bin[table.slot_of(z)]
    for step in table.steps:
        np.add(idx, step, out=idx, where=z >= table.upper[step - 1:][idx])
    return idx


def _lateral_index(x: np.ndarray, g: UnevenGridSpec) -> np.ndarray:
    """Uniform lateral bin floor((x - x_min) / lateral_width) of each x in
    float64, capped at n_x - 1 so that x == x_max maps to the last bin;
    any bin for x outside [x_min, x_max]."""
    t = x - g.x_range[0]
    with np.errstate(over="ignore"):   # a huge x clips to the last bin
        t /= g.lateral_width
    return _floor_clipped(t, g.n_x - 1)


def depth_bins_of(z, g: UnevenGridSpec) -> np.ndarray:
    """Depth bin of each z: i with edges[i] <= z < edges[i+1]; z == z_max
    maps to the last bin; OUT_OF_RANGE (-1) outside [z_min, z_max] or for a
    non-finite z (a normal path, not an error).  Accepts scalars."""
    z = np.asarray(z, dtype=np.float64, order="C")
    shape, z = z.shape, z.reshape(-1)
    return np.where(_in_range(z, *g.z_range), _depth_index(z, g), OUT_OF_RANGE).reshape(shape)


def lateral_bins_of(x, g: UnevenGridSpec) -> np.ndarray:
    """Uniform lateral bin of each x (``_lateral_index``); OUT_OF_RANGE
    outside [x_min, x_max] or for a non-finite x (a normal path, not an
    error).  Accepts scalars."""
    x = np.asarray(x, dtype=np.float64, order="C")
    shape, x = x.shape, x.reshape(-1)
    return np.where(_in_range(x, *g.x_range), _lateral_index(x, g), OUT_OF_RANGE).reshape(shape)


def cells_of(x, z, g: UnevenGridSpec) -> np.ndarray:
    """Linear BEV cell i_z * n_x + i_x of each point (x, z), or OUT_OF_RANGE
    where either bin is off the grid; x and z share one shape.

    The two bin indices are combined in place, and one in-range mask
    covering both axes marks the off-grid points."""
    # one copy of a strided column costs less than strided reads in every pass
    x = np.asarray(x, dtype=np.float64, order="C")
    z = np.asarray(z, dtype=np.float64, order="C")
    shape, x, z = z.shape, x.reshape(-1), z.reshape(-1)
    off_grid = _in_range(z, *g.z_range)
    off_grid &= _in_range(x, *g.x_range)
    np.logical_not(off_grid, out=off_grid)
    i_x = _lateral_index(x, g)
    del x                     # a copy, freed before the depth lookup's temporaries
    cells = _depth_index(z, g)
    cells *= g.n_x
    cells += i_x
    np.copyto(cells, OUT_OF_RANGE, where=off_grid)
    return cells.reshape(shape)


def cell_centers(cells, g: UnevenGridSpec) -> tuple:
    """(x, z) midpoints of linear cells; a cell outside [0, n_cells) is a
    ValueError."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= g.n_cells):
        raise ValueError("cell index out of range")
    i_z, i_x = np.divmod(cells, g.n_x)
    x = g.x_range[0] + (i_x + 0.5) * g.lateral_width
    z = 0.5 * (g.depth_edges[i_z] + g.depth_edges[i_z + 1])
    return x, z
