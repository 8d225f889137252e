"""BEV grid construction with linearly-growing depth bins.

Depth-bin edges follow e(i) = z_min + span * i*(i+1) / (n*(n+1)), so bin
widths grow by the constant 2*span/(n*(n+1)) from one bin to the next:
fine resolution near the camera, coverage far away, same cell count as a
uniform split.  The lateral (x) axis is uniform: its edges are
x_min + i * width, the last one x_max.

This module owns the cell rule.  Both axes bin by explicit edges: bin i
holds edges[i] <= v < edges[i+1], and the upper end of the range goes to
the last bin.  A point (x, z) lies in the linear cell i_z * n_x + i_x of
its depth bin i_z and lateral bin i_x (``cells_of``), and
``cell_centers`` gives each linear cell's (x, z) midpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import json_array, json_value

OUT_OF_RANGE = -1
_MAX_SLOTS = 1 << 16
_MAX_SCALE = float(np.finfo(np.float64).max)


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
    """BEV grid: uniform lateral cells, explicit depth-bin edges; each
    axis keeps a slot table over its edges for ``cells_of``."""

    x_range: tuple
    z_range: tuple
    n_x: int
    n_z: int
    depth_edges: np.ndarray

    def __post_init__(self):
        for name in ("n_x", "n_z"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, int(n))
        for name in ("x_range", "z_range"):
            pair = tuple(float(v) for v in np.ravel(getattr(self, name)))
            if len(pair) != 2:
                raise ValueError(f"{name} must be a (lo, hi) pair")
            object.__setattr__(self, name, pair)
        edges = np.asarray(self.depth_edges, dtype=np.float64)
        _require_finite_spans(self.x_range, self.z_range, edges)
        if edges.shape != (self.n_z + 1,):
            raise ValueError("depth_edges must have n_z + 1 entries")
        if edges[0] != self.z_range[0] or edges[-1] != self.z_range[1]:
            raise ValueError("depth_edges must start at z_min and end at z_max")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("depth_edges must be strictly increasing")
        edges.setflags(write=False)
        object.__setattr__(self, "depth_edges", edges)
        lateral = self.x_range[0] + np.arange(self.n_x + 1) * self.lateral_width
        lateral[-1] = self.x_range[1]
        object.__setattr__(self, "_x_slots", _SlotTable.build(lateral))
        object.__setattr__(self, "_z_slots", _SlotTable.build(edges))

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
    """Uniform slots over one axis's range that narrow a bin lookup to
    the few bins a slot can hold.

    ``slot_of`` is monotone in v.  So an inner edge whose own slot is
    below a v's slot lies below v, and one whose slot is above lies above
    it: ``first_bin`` holds, per slot, the count of inner edges in lower
    slots, and only the edges that share the slot remain to compare,
    by binary lifting over ``upper`` (the inner edges, then +inf padding)
    with ``steps`` halving down to 1.  The bound holds for any
    non-decreasing edges, so both axes of every grid take this one path."""

    lo: float
    scale: float
    first_bin: np.ndarray
    upper: np.ndarray
    steps: tuple

    @classmethod
    def build(cls, edges: np.ndarray) -> "_SlotTable":
        inner = edges[1:-1]
        span = edges[-1] - edges[0]
        # slots of half the narrowest bin, so an even or uneven axis
        # shares at most one inner edge per slot; the cap binds for a
        # subnormal bin, or an empty one where lateral edges round together;
        # a subnormal span would overflow the scale, which stops at the
        # largest float so that slot_of never multiplies 0 by inf
        with np.errstate(over="ignore", divide="ignore"):
            per_narrowest = span / np.min(np.diff(edges))
            n_slots = int(min(_MAX_SLOTS, 2 * np.ceil(per_narrowest)))
            scale = min(n_slots / span, _MAX_SCALE)
        table = cls(float(edges[0]), scale, np.empty(n_slots, np.int64), inner, ())
        slots = table.slot_of(inner)
        straddle = int(np.bincount(slots).max()) if slots.size else 0
        steps = tuple(1 << k for k in reversed(range(straddle.bit_length())))
        return table._replace(
            first_bin=np.searchsorted(slots, np.arange(n_slots), side="left"),
            upper=np.concatenate([inner, np.full(sum(steps), np.inf)]),
            steps=steps,
        )

    def slot_of(self, v: np.ndarray) -> np.ndarray:
        """Slot of each v: the integer part of (v - lo) * scale, clipped to
        the slots; NaN gives slot 0."""
        t = v - self.lo
        with np.errstate(over="ignore"):   # a huge v clips to the last slot
            t *= self.scale
        np.fmax(t, 0.0, out=t)
        np.fmin(t, self.first_bin.size - 1, out=t)
        return t.astype(np.int64)

    def bins_of(self, v: np.ndarray) -> np.ndarray:
        """Bin of each v in [edges[0], edges[-1]]: i with edges[i] <= v <
        edges[i+1], the last bin for v == edges[-1]; any bin for other v."""
        idx = self.first_bin[self.slot_of(v)]
        for step in self.steps:   # a product, not a masked add: no branch per v
            idx += step * (v >= self.upper[step - 1:][idx])
        return idx


def _in_range(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo <= v <= hi; false for a non-finite v, as a grid's range is finite."""
    ok = v >= lo
    ok &= v <= hi
    return ok


def _require_finite_spans(x_range, z_range, edges=()) -> None:
    """Finite ranges and edges, and each range increasing with a span
    hi - lo that float64 holds, so that no edge is inf or NaN."""
    if not all(np.all(np.isfinite(v)) for v in (x_range, z_range, edges)):
        raise ValueError("x_range, z_range and depth_edges must be finite")
    for name, (lo, hi) in (("x_range", x_range), ("z_range", z_range)):
        if not 0.0 < hi - lo < np.inf:
            raise ValueError(f"{name} must have lo < hi and a finite span hi - lo")


def build_grid(x_range, z_range, n_x: int, n_z: int, uneven: bool = True) -> UnevenGridSpec:
    """Construct the grid; depth edges uneven by default, lateral uniform."""
    if n_x < 1 or n_z < 1:
        raise ValueError("cell counts must be >= 1")
    x_lo, x_hi = (float(v) for v in x_range)
    z_lo, z_hi = (float(v) for v in z_range)
    _require_finite_spans((x_lo, x_hi), (z_lo, z_hi))   # before the edges: inf * 0 is nan
    edges = depth_edges(z_lo, z_hi, n_z, uneven)
    return UnevenGridSpec((x_lo, x_hi), (z_lo, z_hi), n_x, n_z, edges)


def cells_of(x, z, g: UnevenGridSpec) -> np.ndarray:
    """Linear BEV cell i_z * n_x + i_x of each point (x, z), or OUT_OF_RANGE
    where either bin is off the grid or the value is not finite (a normal
    path, not an error); x and z share one shape, scalars included.

    The two bin indices are combined in place, and one in-range mask
    covering both axes marks the off-grid points."""
    # one copy of a strided column costs less than strided reads in every pass
    x = np.asarray(x, dtype=np.float64, order="C")
    z = np.asarray(z, dtype=np.float64, order="C")
    shape, x, z = z.shape, x.reshape(-1), z.reshape(-1)
    off_grid = _in_range(z, *g.z_range)
    off_grid &= _in_range(x, *g.x_range)
    np.logical_not(off_grid, out=off_grid)
    i_x = g._x_slots.bins_of(x)
    del x                     # a copy, freed before the depth lookup's temporaries
    cells = g._z_slots.bins_of(z)
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
