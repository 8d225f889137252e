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

from . import rows

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
    # an entry beyond 1 already rules out orthonormality, and one large
    # enough would overflow the product
    if (np.max(np.abs(rot)) > 1.0 + _ORTHO_TOL
            or np.max(np.abs(rot @ rot.T - np.eye(3))) > _ORTHO_TOL):
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
    return corners_of(box.center, box.dims, box.rotation)


def corners_of(centers: np.ndarray, dims: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Corners (..., 8, 3) of stacked boxes given as (..., 3) centres and
    dims and (..., 3, 3) rotations, in the sign order of ``box_corners``."""
    local = _CORNER_SIGNS * (dims[..., None, :] * 0.5)
    return centers[..., None, :] + local @ np.swapaxes(rotations, -1, -2)


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

    @classmethod
    def _of_checked_rows(cls, rows: np.ndarray) -> "PointCloud":
        """Wrap a fresh C-contiguous (N, 4) float64 array of rows cut from
        an already-checked cloud, skipping the finiteness re-check."""
        rows.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", rows)
        return cloud


class Projection(NamedTuple):
    u: float
    v: float
    z: float
    in_view: bool


def project_point(p, K: CameraIntrinsics) -> Projection:
    """Project one camera-frame point to (u, v, z) pixel coordinates.

    A point behind the camera (z <= 1e-9) or whose pixel falls off the
    lattice is flagged out-of-view rather than raising: culling such
    points is a normal path.
    """
    x, y, z = np.asarray(p, dtype=np.float64)
    if z <= _MIN_DEPTH:
        return Projection(np.nan, np.nan, float(z), False)
    with np.errstate(over="ignore"):   # far off axis, u or v is +-inf
        u = K.fx * x / z + K.cx
        v = K.fy * y / z + K.cy
    # the nearest lattice pixel (half-up rounding), compared as a float
    in_view = bool(0 <= np.floor(u + 0.5) < K.width and 0 <= np.floor(v + 0.5) < K.height)
    return Projection(float(u), float(v), float(z), in_view)


def _project(xyz, K: CameraIntrinsics):
    """``project_point`` of every point as (z, pixel, n_in_view): pixel
    is the index vi * width + ui of the nearest lattice pixel (ui =
    floor(u + 0.5), vi = floor(v + 0.5)) of an in-view point, and the one
    extra index width * height, the dump pixel, of every other point; the
    dump pixel is the only out-of-view marker, so a per-pixel buffer of
    width * height + 1 entries takes every point without a gather.
    Row-parallel: each block of rows writes its slice of z and pixel and
    counts its own in-view rows."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    n = xyz.shape[0]
    z = np.empty(n)
    pixel = np.empty(n, dtype=np.int64)

    def block(lo, hi):
        # one copy of the strided column serves three passes here and the
        # caller's z-buffer passes
        zs = z[lo:hi]
        np.copyto(zs, xyz[lo:hi, 2])
        # u and v are project_point's for z > 1e-9 and ignored elsewhere,
        # so they divide by z as it is; far off axis just in front of the
        # camera, u or v is +-inf and the pixel index below overflows or
        # is nan; such points are out of view
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fu, fv = K.fx * xyz[lo:hi, 0], K.fy * xyz[lo:hi, 1]
            for f, c in ((fu, K.cx), (fv, K.cy)):
                f /= zs
                f += c
                f += 0.5              # the nearest lattice pixel (half-up rounding)
                np.floor(f, out=f)    # kept as floats
            seen = zs > _MIN_DEPTH
            seen &= fu >= 0
            seen &= fu < K.width
            seen &= fv >= 0
            seen &= fv < K.height
            fv *= K.width
            fv += fu
        # only in-view indices are cast, so no non-finite value is
        ps = pixel[lo:hi]
        ps.fill(K.width * K.height)
        np.copyto(ps, fv, casting="unsafe", where=seen)
        return int(np.count_nonzero(seen))

    return z, pixel, sum(rows.run_blocks(n, block))


def unproject_pixel(u: float, v: float, z: float, K: CameraIntrinsics) -> np.ndarray:
    """Back-project pixel (u, v) at depth z; inverse of project_point."""
    if z <= 0:
        raise ValueError("depth must be positive")
    return np.array([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])


def transform_cloud(pc: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform to every point; intensity and order kept.

    Each block of rows is one affine product (x, y, z, 1) @ [[R^T], [t]]
    straight into its slice of one (N, 4) buffer, whose fourth column then
    takes the intensities back; a contiguous (rows, 4) @ (4, 4) product
    costs well under half of ``Pose.apply``'s strided (rows, 3) @ (3, 3).
    The bits stay ``Pose.apply``'s, on a BLAS that sums k in order with
    fused multiply-add (as OpenBLAS's kernels do): the rotation terms
    accumulate as before, and the last term is fma(1, t, acc) =
    fl(acc + t), the separate add of the translation.  A block whose
    intensities are all 1.0, as in every cloud ``depthmap_to_cloud``
    makes, is its own operand; any other block is copied once with its
    fourth column set to 1.  Row-parallel: each block is checked finite
    in its slice."""
    if len(pc) == 0:
        return pc
    moved = np.empty_like(pc.points)
    affine = np.zeros((4, 4))
    affine[:3, :3] = pose.rotation.T
    affine[3, :3] = pose.translation

    def block(lo, hi):
        operand, rows_out = pc.points[lo:hi], moved[lo:hi]
        intensity = operand[:, 3]
        if not (intensity == 1.0).all():
            operand = operand.copy()
            operand[:, 3] = 1.0
        np.matmul(operand, affine, out=rows_out)
        rows_out[:, 3] = intensity
        return bool(np.isfinite(rows_out).all())

    finite = all(rows.run_blocks(len(pc), block))
    # a product that overflowed fails PointCloud's own check
    return PointCloud._of_checked_rows(moved) if finite else PointCloud(moved)
