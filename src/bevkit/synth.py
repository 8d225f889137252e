"""Deterministic synthetic scenes for end-to-end desk-scale testing.

A scene bundles matched ground-truth boxes, a visibility-filtered point
cloud, and a per-pixel depth distribution, mirroring the indoor/outdoor
geometry contrast: indoor targets sit within 8 m of the camera, outdoor
targets spread out to 80 m.  Everything derives from the counter-based
generator, so identical seeds give byte-identical outputs on every
platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geom import Box3D, CameraIntrinsics, PointCloud, _project, unproject_pixel, yaw_rotation
from .grid import depth_bin_centers
from .liftsplat import DepthDistribution
from .pointpipe import visibility_filter
from .rng import CounterRng

REGIME_DEPTH = {"indoor": (0.5, 8.0), "outdoor": (5.0, 80.0)}

# The camera, the sampling and the noise of every scene
_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
_FEATURE_DOWNSAMPLE = 16   # image pixels per depth-distribution pixel, each way
_N_CATEGORIES = 4
_POINTS_PER_BOX = 256
_GROUND_POINTS = 512
_POINT_SIGMA = 0.01        # m, jitter on sampled surface points
_DEPTH_SIGMA = 1.0         # m, softness of the depth distribution


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    regime: str = "indoor"
    n_objects: int = 6
    n_depth_bins: int = 48
    bev_z_range: Tuple[float, float] = (0.0, 80.0)
    uneven_depth_bins: bool = False   # depth-bin spacing, as projection reads it
    visibility_tol: float = 0.1

    def __post_init__(self):
        if self.regime not in REGIME_DEPTH:
            raise ValueError(f"regime must be one of {sorted(REGIME_DEPTH)}")
        if self.n_objects < 1:
            raise ValueError("need at least one object")
        if self.n_depth_bins < 1:
            raise ValueError(f"need at least one depth bin, got {self.n_depth_bins}")


@dataclass(frozen=True)
class SceneBundle:
    boxes: List[Box3D]
    cloud: PointCloud
    depth_dist: DepthDistribution
    intrinsics: CameraIntrinsics
    feature_shape: Tuple[int, int]


def _sample_boxes(spec: SceneSpec, rng: CounterRng) -> List[Box3D]:
    K = _INTRINSICS
    n = spec.n_objects
    z = rng.uniform(*REGIME_DEPTH[spec.regime], n)
    u = rng.uniform(0.2 * K.width, 0.8 * K.width, n)
    v = rng.uniform(0.35 * K.height, 0.65 * K.height, n)
    lo, hi = (0.3, 1.2) if spec.regime == "indoor" else (1.0, 4.5)
    dims = rng.uniform(lo, hi, 3 * n).reshape(n, 3)
    yaws = rng.uniform(-np.pi, np.pi, n)
    cats = rng.integers(0, _N_CATEGORIES, n)
    boxes = []
    for i in range(n):
        center = unproject_pixel(u[i], v[i], z[i], K)
        boxes.append(Box3D.from_yaw(center, dims[i], yaws[i], category=int(cats[i])))
    return boxes


def _surface_points(box: Box3D, n: int, rng: CounterRng) -> np.ndarray:
    """Uniform-by-area samples on the box surface, in world coordinates."""
    w, h, l = box.dims
    areas = np.array([h * l, h * l, w * l, w * l, w * h, w * h])
    cdf = np.cumsum(areas / areas.sum())
    face = np.searchsorted(cdf, rng.uniforms(n), side="right")
    a = rng.uniforms(n) - 0.5
    b = rng.uniforms(n) - 0.5
    local = np.empty((n, 3))
    axis = face // 2          # 0: x faces, 1: y faces, 2: z faces
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    dims = np.array([w, h, l])
    for k in range(3):
        sel = axis == k
        o1, o2 = (k + 1) % 3, (k + 2) % 3
        local[sel, k] = sign[sel] * dims[k]
        local[sel, o1] = a[sel] * dims[o1]
        local[sel, o2] = b[sel] * dims[o2]
    return box.center + local @ box.rotation.T


def _ground_points(spec: SceneSpec, rng: CounterRng) -> np.ndarray:
    y_ground = 1.5 if spec.regime == "indoor" else 1.8
    z = rng.uniform(*REGIME_DEPTH[spec.regime], _GROUND_POINTS)
    frac = rng.uniform(-0.55, 0.55, _GROUND_POINTS)
    x = frac * z  # stays inside the horizontal field of view
    return np.column_stack([x, np.full_like(z, y_ground), z])


def _depth_distribution(spec: SceneSpec, cloud: PointCloud) -> DepthDistribution:
    K = _INTRINSICS
    ds = _FEATURE_DOWNSAMPLE
    h_f, w_f = K.height // ds, K.width // ds
    depth = np.full((h_f, w_f), spec.bev_z_range[1] * 0.95)
    if len(cloud):
        z, pixel, in_view = _project(cloud.xyz, K)
        vi, ui = np.divmod(pixel[in_view], K.width)
        fu = np.minimum(ui // ds, w_f - 1)
        fv = np.minimum(vi // ds, h_f - 1)
        flat = np.full(h_f * w_f, np.inf)
        np.minimum.at(flat, fv * w_f + fu, z[in_view])
        seen = np.isfinite(flat)
        depth.ravel()[seen] = flat[seen]
    centers = depth_bin_centers(spec.bev_z_range[0], spec.bev_z_range[1], spec.n_depth_bins,
                                spec.uneven_depth_bins)
    logits = -((centers[:, None, None] - depth[None]) ** 2) / (2.0 * _DEPTH_SIGMA**2)
    logits -= logits.max(axis=0, keepdims=True)
    expd = np.exp(logits)
    return DepthDistribution(expd / expd.sum(axis=0, keepdims=True))


def generate(spec: SceneSpec) -> SceneBundle:
    """Build one scene; byte-identical for identical specs."""
    rng = CounterRng(spec.seed)
    boxes = _sample_boxes(spec, rng.child(0))
    srng = rng.child(1)
    xyz = [_surface_points(box, _POINTS_PER_BOX, srng) for box in boxes]
    xyz.append(_ground_points(spec, rng.child(2)))
    pts = np.concatenate(xyz, axis=0)
    nrng = rng.child(3)
    pts = pts + _POINT_SIGMA * nrng.normals(pts.size).reshape(pts.shape)
    intensity = rng.child(4).uniforms(len(pts))
    cloud = PointCloud(np.column_stack([pts, intensity]))
    cloud = visibility_filter(cloud, _INTRINSICS, tol=spec.visibility_tol)
    ds = _FEATURE_DOWNSAMPLE
    return SceneBundle(
        boxes=boxes,
        cloud=cloud,
        depth_dist=_depth_distribution(spec, cloud),
        intrinsics=_INTRINSICS,
        feature_shape=(_INTRINSICS.height // ds, _INTRINSICS.width // ds),
    )


def perturb(boxes, sigma_center: float, sigma_dims: float, sigma_yaw: float,
            seed: int = 0) -> List[Box3D]:
    """Additive seeded Gaussian noise on box parameters.

    All sigmas zero is the exact identity (up to scores: ground-truth
    boxes without one become predictions with score 1).  Dims are floored
    at 1 cm to stay valid.
    """
    if min(sigma_center, sigma_dims, sigma_yaw) < 0:
        raise ValueError("sigmas must be non-negative")
    rng = CounterRng(seed, stream=7)
    out = []
    for box in boxes:
        center = box.center + sigma_center * rng.normals(3)
        dims = np.maximum(box.dims + sigma_dims * rng.normals(3), 0.01)
        rot = yaw_rotation(sigma_yaw * float(rng.normals(1)[0])) @ box.rotation
        score = 1.0 if box.score is None else box.score
        out.append(Box3D(center, dims, rot, category=box.category, score=score))
    return out
