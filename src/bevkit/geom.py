"""Camera model, rigid transforms, oriented boxes, and the shared tensor type.

Coordinate convention: camera frame is x-right, y-down, z-forward, so the
pixel ``v`` axis grows with ``y``.  Pixel (0, 0) is the *center* of the
top-left pixel; a projected point is in view when its nearest pixel lies on
the image lattice.  All numerics are 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

_ORTHO_TOL = 1e-9
_MIN_DEPTH = 1e-9


def _as_float_array(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_rotation(rot: np.ndarray, name: str) -> None:
    if np.max(np.abs(rot @ rot.T - np.eye(3))) > _ORTHO_TOL:
        raise ValueError(f"{name} is not orthonormal within {_ORTHO_TOL}")
    if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{name} must have determinant 1")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters mapping camera-frame points to pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _as_float_array(self.rotation, (3, 3), "rotation")
        t = _as_float_array(self.translation, (3,), "translation")
        _check_rotation(rot, "rotation")
        rot.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -(self.rotation.T @ self.translation))

    def compose(self, other: "Pose") -> "Pose":
        """Pose equivalent to applying ``other`` first, then ``self``."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def yaw_rotation(theta: float) -> np.ndarray:
    """Right-handed rotation about the camera y (vertical) axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box in camera-frame meters.

    ``dims`` is (w, h, l): extents along the box-local x, y, z axes before
    rotation.  ``score`` is present on predictions only.
    """

    center: np.ndarray
    dims: np.ndarray
    rotation: np.ndarray
    category: int = 0
    score: Optional[float] = None

    def __post_init__(self):
        center = _as_float_array(self.center, (3,), "center")
        dims = _as_float_array(self.dims, (3,), "dims")
        rot = _as_float_array(self.rotation, (3, 3), "rotation")
        if not np.all(dims > 0):
            raise ValueError("dims must be positive")
        _check_rotation(rot, "rotation")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError("score must lie in [0, 1]")
        for arr in (center, dims, rot):
            arr.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def from_yaw(cls, center, dims, yaw: float, category: int = 0,
                 score: Optional[float] = None) -> "Box3D":
        return cls(center, dims, yaw_rotation(yaw), category, score)

    @property
    def volume(self) -> float:
        return float(np.prod(self.dims))


# Corner sign pattern, one row per corner: (-,-,-), (-,-,+), (-,+,-),
# (-,+,+), (+,-,-), (+,-,+), (+,+,-), (+,+,+) over local (x, y, z).
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def box_corners(box: Box3D) -> np.ndarray:
    """8 corners (8, 3) in the documented sign order above."""
    local = _CORNER_SIGNS * (box.dims * 0.5)
    return box.center + local @ box.rotation.T


@dataclass(frozen=True)
class FeatureMap:
    """Dense rank-4 tensor with axes (channel, depth-bin, row, col)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError(f"feature map must be rank 4, got rank {arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature map elements must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @classmethod
    def zeros(cls, shape) -> "FeatureMap":
        return cls(np.zeros(shape))


@dataclass(frozen=True)
class PointCloud:
    """Camera-frame points (x, y, z, intensity), shape (N, 4)."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud entries must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.empty((0, 4)))


class Projection(NamedTuple):
    u: float
    v: float
    z: float
    in_view: bool


def pixel_cell(u, v):
    """Nearest lattice pixel of continuous coordinates (half-up rounding)."""
    return np.floor(u + 0.5).astype(np.int64), np.floor(v + 0.5).astype(np.int64)


def project_point(p, K: CameraIntrinsics) -> Projection:
    """Project one camera-frame point to (u, v, z) pixel coordinates.

    A point behind the camera (z <= 1e-9) or whose pixel falls off the
    lattice is flagged out-of-view rather than raising: culling such
    points is a normal path.
    """
    x, y, z = np.asarray(p, dtype=np.float64)
    if z <= _MIN_DEPTH:
        return Projection(np.nan, np.nan, float(z), False)
    u = K.fx * x / z + K.cx
    v = K.fy * y / z + K.cy
    ui, vi = pixel_cell(u, v)
    in_view = bool(0 <= ui < K.width and 0 <= vi < K.height)
    return Projection(float(u), float(v), float(z), in_view)


def project_points(xyz: np.ndarray, K: CameraIntrinsics):
    """Vectorized projection: returns (u, v, z, in_view) arrays."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    z = xyz[:, 2]
    front = z > _MIN_DEPTH
    safe_z = np.where(front, z, 1.0)
    u = K.fx * xyz[:, 0] / safe_z + K.cx
    v = K.fy * xyz[:, 1] / safe_z + K.cy
    ui, vi = pixel_cell(u, v)
    in_view = front & (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
    return u, v, z, in_view


def unproject_pixel(u: float, v: float, z: float, K: CameraIntrinsics) -> np.ndarray:
    """Back-project pixel (u, v) at depth z; inverse of project_point."""
    if z <= 0:
        raise ValueError("depth must be positive")
    return np.array([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])


def transform_cloud(pc: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform to every point; intensity and order kept."""
    if len(pc) == 0:
        return pc
    moved = pose.apply(pc.xyz)
    return PointCloud(np.column_stack([moved, pc.intensity]))
