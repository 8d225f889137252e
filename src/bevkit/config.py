"""The operating point: the one source of every setting the CLI and the
evaluation harness share.

Defaults mirror the reference operating point: BEV ranges X(-30, 30),
Z(0, 80) m, a 60 x 80 BEV grid, projection-prune threshold 1e-3 and
class-alignment factor 0.2.  The image-mask threshold 5e-4 and the 100
proposals are constants of the class, not settable keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Tuple

from .eval3d import MatchConfig
from .grid import UnevenGridSpec, build_grid
from .io import json_value, write_json


@dataclass(frozen=True)
class Config:
    x_range: Tuple[float, float] = (-30.0, 30.0)
    z_range: Tuple[float, float] = (0.0, 80.0)
    n_x: int = 60
    n_z: int = 80
    tau: float = 1e-3
    gamma: float = 0.2
    # constants, not config keys: no subcommand reads them
    epsilon: ClassVar[float] = 5e-4
    m_proposals: ClassVar[int] = 100
    uneven_grid: bool = True
    uneven_projection_bins: bool = False
    visibility_tol: float = 0.1
    iou_thresholds: tuple = MatchConfig().iou_thresholds
    depth_bands: tuple = MatchConfig().depth_bands
    band_names: tuple = MatchConfig().band_names

    def __post_init__(self):
        for name in ("x_range", "z_range"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not pair[1] > pair[0]:
                raise ValueError(f"{name} must be a non-degenerate (lo, hi) pair")
            object.__setattr__(self, name, (float(pair[0]), float(pair[1])))
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError("grid resolution must be >= 1")
        if not self.tau >= 0:   # NaN fails too
            raise ValueError("tau must be non-negative, not NaN")
        if not self.visibility_tol > 0:   # NaN fails too
            raise ValueError("visibility_tol must be positive, not NaN")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "iou_thresholds", tuple(float(t) for t in self.iou_thresholds))
        object.__setattr__(self, "depth_bands",
                           tuple((float(a), float(b)) for a, b in self.depth_bands))
        object.__setattr__(self, "band_names", tuple(self.band_names))
        # delegate the cross-field checks
        self.match_config()
        self.grid()

    def grid(self) -> UnevenGridSpec:
        return build_grid(self.x_range, self.z_range, self.n_x, self.n_z,
                          uneven=self.uneven_grid)

    def match_config(self) -> MatchConfig:
        return MatchConfig(self.iou_thresholds, self.depth_bands, self.band_names)

    @classmethod
    def from_json(cls, text: str) -> "Config":
        raw = json_value(json.loads(text), dict, "config")
        # fields() leaves out the ClassVar constants: they are no keys
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            _check_like(value, defaults[key], f"config key {key!r}")
        for key in ("x_range", "z_range", "iou_thresholds", "band_names"):
            if key in raw:
                raw[key] = tuple(raw[key])
        if "depth_bands" in raw:
            for i, band in enumerate(raw["depth_bands"]):
                if len(band) != 2:
                    raise ValueError(f"config key 'depth_bands'[{i}] must be a (lo, hi) pair")
            raw["depth_bands"] = tuple(tuple(b) for b in raw["depth_bands"])
        return cls(**raw)


def _check_like(value, default, name: str) -> None:
    """Refuse a JSON value whose type differs from the default's: a list
    for a tuple, each item checked against the tuple's first item."""
    if isinstance(default, tuple):
        for i, item in enumerate(json_value(value, list, name)):
            _check_like(item, default[0], f"{name}[{i}]")
    else:
        json_value(value, type(default), name)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return Config.from_json(fh.read())


def save_config(cfg: Config, path) -> None:
    write_json(path, asdict(cfg))
