"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated here from the workload seed during set-up; an
operation sees only those generated arrays.  Operations call bevkit's
public functions through ``api``, a namespace holding either the plain
functions or their traced wrappers, so the same code runs in timed and
traced runs.  Checks use the oracles in ``oracles.py`` and run outside
the timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

import oracles
from bevkit import eval3d, geom, headmath, liftsplat, pointpipe
from bevkit.config import Config
from bevkit.geom import Box3D, CameraIntrinsics, FeatureMap, PointCloud, Pose
from bevkit.headmath import ProposalAttributes
from bevkit.liftsplat import DepthDistribution
from bevkit.pointpipe import DepthMap

N_FRAMES = 4             # distinct frames a frame workload cycles through
N_DEPTH_BINS = 118
N_CHANNELS = 64
N_EVAL_IMAGES = 8        # half outdoor, half indoor
MC_PAIRS = 12            # IoU pairs checked against the Monte-Carlo oracle
MC_SAMPLES = 200_000
MC_MAX_SE = 5.0          # allowed distance from the estimate, in standard errors
SPLAT_REL_TOL = 1e-9     # BEV vs oracle, relative to the cell's sum of |w * F|
AP_TOL = 1e-12           # a perfect detector's AP may miss 1.0 by rounding

# Image cameras and the feature-map cameras of the image branch; the
# feature camera is the image camera scaled by the backbone stride.
K_OUTDOOR = CameraIntrinsics(fx=704.0, fy=704.0, cx=352.0, cy=128.0, width=704, height=256)
K_OUTDOOR_FEAT = CameraIntrinsics(fx=88.0, fy=88.0, cx=44.0, cy=16.0, width=88, height=32)
K_INDOOR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
K_INDOOR_FEAT = CameraIntrinsics(fx=31.25, fy=31.25, cx=20.0, cy=15.0, width=40, height=30)
INDOOR_STRIDE = 16
# Depth sensor to camera: a 4 cm baseline and a slight toe-in, so the
# camera sees the depth sensor's cloud from a shifted viewpoint.
_A, _B = np.radians(2.5), np.radians(1.0)
INDOOR_POSE = Pose(
    np.array([[np.cos(_A), 0.0, np.sin(_A)], [0.0, 1.0, 0.0], [-np.sin(_A), 0.0, np.cos(_A)]])
    @ np.array([[1.0, 0.0, 0.0], [0.0, np.cos(_B), -np.sin(_B)], [0.0, np.sin(_B), np.cos(_B)]]),
    np.array([0.04, 0.01, -0.02]),
)

# Workload tags keep the three input streams apart for one seed.
_TAGS = {"frame_outdoor": 1, "frame_indoor": 2, "eval_mixed": 3}


def make_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed & ((1 << 63) - 1)])


def plain_api() -> SimpleNamespace:
    """The public functions an operation calls, untraced."""
    return SimpleNamespace(
        unify_stats=pointpipe.unify_stats,
        visibility_filter=pointpipe.visibility_filter,
        pillarize=pointpipe.pillarize,
        depthmap_to_cloud=pointpipe.depthmap_to_cloud,
        occupancy_mask=pointpipe.occupancy_mask,
        image_confidence_mask=pointpipe.image_confidence_mask,
        transform_cloud=geom.transform_cloud,
        sparse_prune=liftsplat.sparse_prune,
        splat_to_bev=liftsplat.splat_to_bev,
        bev_depth_confidence=liftsplat.bev_depth_confidence,
        mic_p2i_loss=headmath.mic_p2i_loss,
        mic_i2p_loss=headmath.mic_i2p_loss,
        decode_proposals=headmath.decode_proposals,
        match_and_ap=eval3d.match_and_ap,
    )


@dataclass(frozen=True)
class Settings:
    """Operating point, read once from bevkit's Config during set-up."""

    grid: object
    tau: float
    eps: float
    tol: float
    m: int

    @classmethod
    def default(cls) -> "Settings":
        cfg = Config()
        return cls(cfg.grid(), cfg.tau, cfg.epsilon, cfg.visibility_tol, cfg.m_proposals)


# --------------------------------------------------------------------------
# Frame inputs


@dataclass
class Frame:
    K: CameraIntrinsics          # camera of the point path
    K_feat: CameraIntrinsics     # camera of the feature map
    f_i: FeatureMap
    f_d: DepthDistribution
    b_p: np.ndarray              # point-branch BEV features (stand-in for a backbone)
    attrs: ProposalAttributes
    cloud: Optional[PointCloud] = None   # outdoor: the LiDAR-like cloud
    depth: Optional[DepthMap] = None     # indoor: the depth map


def _box_rotation(yaw, pitch=0.0, roll=0.0) -> np.ndarray:
    cy_, sy_ = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    r_yaw = np.array([[cy_, 0.0, sy_], [0.0, 1.0, 0.0], [-sy_, 0.0, cy_]])
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    r_roll = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return r_roll @ r_pitch @ r_yaw


def _surface_points(rng, center, dims, rot, n) -> np.ndarray:
    """Uniform-by-area samples on all six faces of an oriented box."""
    w, h, l = dims
    areas = np.array([h * l, h * l, w * l, w * l, w * h, w * h])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    local = (rng.random((n, 3)) - 0.5) * dims
    axis = face // 2
    local[np.arange(n), axis] = np.where(face % 2 == 0, -0.5, 0.5) * dims[axis]
    return center + local @ rot.T


def _softmax_depth(logits: np.ndarray) -> DepthDistribution:
    logits = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(logits)
    return DepthDistribution(e / e.sum(axis=0, keepdims=True))


def _proposal_attrs(rng, h, w, depth) -> ProposalAttributes:
    heat = 0.1 * rng.random((h, w))
    vv, uu = np.mgrid[0:h, 0:w]
    for cu, cv, peak in zip(rng.uniform(0, w, 12), rng.uniform(0, h, 12), rng.uniform(0.5, 1.0, 12)):
        heat = np.maximum(heat, peak * np.exp(-((uu - cu) ** 2 + (vv - cv) ** 2) / 4.0))
    return ProposalAttributes(heat, rng.uniform(-0.5, 0.5, (h, w, 2)), depth)


def outdoor_frame(rng, s: Settings) -> Frame:
    """One outdoor frame: a forward LiDAR sweep of about 100k points over
    ground and sixteen cars, and a broad-depth feature map."""
    boxes = []
    for _ in range(16):
        z = rng.uniform(5.0, 70.0)
        dims = np.array([rng.uniform(1.6, 2.1), rng.uniform(1.4, 1.9), rng.uniform(3.6, 5.0)])
        center = np.array([rng.uniform(-0.5, 0.5) * z, 1.8 - dims[1] / 2, z])
        boxes.append((center, dims, _box_rotation(rng.uniform(-np.pi, np.pi))))
    obj = [_surface_points(rng, c, d, r, 2000) for c, d, r in boxes]
    n_ground = 100_000 - 2000 * len(boxes)
    rng_m = np.exp(rng.uniform(np.log(8.0), np.log(95.0), n_ground))
    az = rng.uniform(-np.radians(32), np.radians(32), n_ground)
    ground = np.column_stack([rng_m * np.sin(az), 1.8 + rng.normal(0.0, 0.02, n_ground),
                              rng_m * np.cos(az)])
    xyz = np.concatenate(obj + [ground])
    cloud = PointCloud(np.column_stack([xyz, rng.random(len(xyz))]))
    h, w = K_OUTDOOR_FEAT.height, K_OUTDOOR_FEAT.width
    f_i = FeatureMap(rng.standard_normal((N_CHANNELS, 1, h, w)))
    f_d = _softmax_depth(4.0 * rng.standard_normal((N_DEPTH_BINS, h, w)))
    b_p = rng.standard_normal((N_CHANNELS, 1, s.grid.n_z, s.grid.n_x))
    attrs = _proposal_attrs(rng, h, w, rng.uniform(5.0, 80.0, (h, w)))
    return Frame(K_OUTDOOR, K_OUTDOOR_FEAT, f_i, f_d, b_p, attrs, cloud=cloud)


def _room_depth(rng) -> np.ndarray:
    """Dense depth of a room: back wall, floor, ceiling and furniture."""
    K = K_INDOOR
    vv, uu = np.mgrid[0:K.height, 0:K.width].astype(np.float64)
    wall = rng.uniform(6.0, 7.0) + rng.uniform(-1.0, 1.0) * (uu / K.width)
    below = np.maximum(vv - K.cy, 1e-9)
    above = np.maximum(K.cy - vv, 1e-9)
    depth = np.minimum(wall, np.minimum(K.fy * 1.5 / below, K.fy * 1.3 / above))
    for _ in range(6):
        u0, v0 = rng.uniform(0, K.width - 60), rng.uniform(K.cy - 60, K.height - 60)
        du, dv = rng.uniform(40, 220), rng.uniform(40, 200)
        z0 = rng.uniform(0.8, 4.5)
        inside = (uu >= u0) & (uu < u0 + du) & (vv >= v0) & (vv < v0 + dv)
        depth = np.where(inside, np.minimum(depth, z0 + 0.002 * (uu - u0)), depth)
    depth = depth + rng.normal(0.0, 0.004, depth.shape)
    return np.clip(depth, 0.5, 8.0)


def indoor_frame(rng, s: Settings) -> Frame:
    """One indoor frame: a dense 640x480 depth map and a feature map whose
    depth distribution is peaked at the pooled per-pixel depth."""
    depth = _room_depth(rng)
    h, w = K_INDOOR_FEAT.height, K_INDOOR_FEAT.width
    pooled = depth.reshape(h, INDOOR_STRIDE, w, INDOOR_STRIDE).mean(axis=(1, 3))
    z_lo, z_hi = s.grid.z_range
    centers = z_lo + (np.arange(N_DEPTH_BINS) + 0.5) * (z_hi - z_lo) / N_DEPTH_BINS
    f_d = _softmax_depth(-((centers[:, None, None] - pooled[None]) ** 2) / (2 * 0.25 ** 2))
    f_i = FeatureMap(rng.standard_normal((N_CHANNELS, 1, h, w)))
    b_p = rng.standard_normal((N_CHANNELS, 1, s.grid.n_z, s.grid.n_x))
    attrs = _proposal_attrs(rng, h, w, pooled)
    return Frame(K_INDOOR, K_INDOOR_FEAT, f_i, f_d, b_p, attrs, depth=DepthMap(depth))


# --------------------------------------------------------------------------
# Frame operation


def frame_op(api, fr: Frame, s: Settings) -> dict:
    """One frame through the unified chain; returns every output."""
    if fr.depth is not None:
        cloud = api.depthmap_to_cloud(fr.depth, fr.K)
        cloud = api.transform_cloud(cloud, INDOOR_POSE)
    else:
        cloud = fr.cloud
    stats = api.unify_stats(cloud, fr.K, s.tol)
    visible = api.visibility_filter(cloud, fr.K, s.tol)
    pillars = api.pillarize(visible, s.grid)
    m_p = api.occupancy_mask(pillars, s.grid)
    sp = api.sparse_prune(fr.f_d, s.tau)
    splat = api.splat_to_bev(fr.f_i, sp, fr.K_feat, s.grid)
    conf = api.bev_depth_confidence(fr.f_d, fr.K_feat, s.grid)
    m_i = api.image_confidence_mask(conf, s.eps)
    p2i = api.mic_p2i_loss(fr.b_p, splat.bev, m_p)
    i2p = api.mic_i2p_loss(splat.bev, fr.b_p, m_i, m_p)
    props = api.decode_proposals(fr.attrs, fr.K_feat, m=s.m)
    return dict(cloud=cloud, stats=stats, visible=visible, pillars=pillars, m_p=m_p,
                sp=sp, splat=splat, conf=conf, m_i=m_i, p2i=p2i, i2p=i2p, props=props)


def frame_digest(out: dict) -> str:
    """Hash of every output of a frame operation, byte for byte."""
    h = hashlib.blake2b(digest_size=16)
    pt, sp, splat = out["pillars"], out["sp"], out["splat"]
    for arr in (out["cloud"].points, out["visible"].points, pt.cells, pt.counts, pt.features,
                out["m_p"], sp.pixels, sp.bins, sp.weights, splat.bev.data, out["conf"],
                out["m_i"], out["p2i"][1], out["i2p"][1]):
        h.update(np.ascontiguousarray(arr).tobytes())
    for p in out["props"]:
        h.update(p.center.tobytes())
        h.update(repr(p.confidence).encode())
    scalars = [sorted(out["stats"].items()), pt.n_assigned, pt.n_dropped, splat.in_grid,
               splat.out_of_grid, repr(out["p2i"][0]), repr(out["i2p"][0])]
    h.update(repr(scalars).encode())
    return h.hexdigest()


def check_frame(api, fr: Frame, out: dict, s: Settings) -> List[str]:
    """Output checks of one frame operation; returns failure messages."""
    fails: List[str] = []

    def need(ok, msg):
        if not ok:
            fails.append(msg)

    g = s.grid
    cloud, visible, stats, pt = out["cloud"], out["visible"], out["stats"], out["pillars"]
    # unification of the indoor depth map
    if fr.depth is not None:
        ref = oracles.depthmap_cloud(fr.depth.depths, fr.K)
        ref_xyz = ref @ INDOOR_POSE.rotation.T + INDOOR_POSE.translation
        need(len(cloud) == len(ref), "depthmap_to_cloud: point count differs from valid pixels")
        need(len(cloud) == len(ref) and np.allclose(cloud.xyz, ref_xyz, rtol=0, atol=1e-9),
             "depthmap_to_cloud/transform_cloud: points differ from the pinhole oracle")
    # visibility
    n = len(cloud)
    need(stats["input"] == n, "unify_stats: input count differs from the cloud")
    need(stats["out_of_view"] + stats["occluded"] + stats["retained"] == n,
         "unify_stats: input != out_of_view + occluded + retained")
    keep, in_view = oracles.zbuffer_survivors(cloud.xyz, fr.K, s.tol)
    need(np.array_equal(visible.points, cloud.points[keep]),
         "visibility_filter: survivors differ from the z-buffer oracle")
    need(stats["out_of_view"] == int(np.sum(~in_view)) and stats["retained"] == int(keep.sum()),
         "unify_stats: counts differ from the z-buffer oracle")
    again = api.visibility_filter(visible, fr.K, s.tol)
    need(np.array_equal(again.points, visible.points), "visibility_filter: second pass changed its input")
    # pillars and the point mask
    need(int(pt.counts.sum()) == pt.n_assigned, "pillarize: sum of counts != n_assigned")
    need(pt.n_assigned + pt.n_dropped == len(visible), "pillarize: assigned + dropped != points in")
    if len(pt):
        iz, ix = pt.cells[:, 0], pt.cells[:, 1]
        x_edges = g.x_range[0] + g.lateral_width * np.arange(g.n_x + 1)
        mx, mz = pt.features[:, 0], pt.features[:, 2]
        need(bool(np.all((mx >= x_edges[ix]) & (mx <= x_edges[ix + 1])
                         & (mz >= g.depth_edges[iz]) & (mz <= g.depth_edges[iz + 1]))),
             "pillarize: a pillar mean lies outside its cell")
    need(int(out["m_p"].sum()) == len(pt), "occupancy_mask: occupied cells != pillars")
    # projection
    probs = fr.f_d.probs
    kept = int(np.count_nonzero(probs >= s.tau))
    sp, splat = out["sp"], out["splat"]
    need(sp.kept == kept, "sparse_prune: kept entries differ from count(probs >= tau)")
    need(splat.in_grid + splat.out_of_grid == kept, "splat_to_bev: in_grid + out_of_grid != kept")
    feats = fr.f_i.data[:, 0]
    pruned = oracles.splat(feats, probs, fr.K_feat, g, s.tau)
    dense = oracles.splat(feats, probs, fr.K_feat, g, 0.0)
    bev = splat.bev.data[:, 0]
    need(pruned.in_grid == splat.in_grid, "splat_to_bev: in-grid count differs from the oracle")
    need(bool(np.all(np.abs(bev - pruned.bev) <= SPLAT_REL_TOL * pruned.mass)),
         "splat_to_bev: BEV differs from the oracle beyond tolerance")
    bound = s.tau * dense.dropped_per_cell(pruned) * np.abs(feats).max()
    need(bool(np.all(np.abs(dense.bev - bev) <= bound + SPLAT_REL_TOL * dense.mass)),
         "splat_to_bev: |dense - pruned| exceeds tau * dropped * max|F|")
    # image mask
    conf = oracles.depth_confidence(probs, fr.K_feat, g)
    need(np.array_equal(out["conf"], conf), "bev_depth_confidence: differs from the max oracle")
    need(np.array_equal(out["m_i"], conf > s.eps), "image_confidence_mask: differs from conf > eps")
    # losses
    m_p, m_i = out["m_p"], out["m_i"]
    for name, (loss, grad), target, pred, mask in (
            ("mic_p2i_loss", out["p2i"], fr.b_p, splat.bev.data, m_p),
            ("mic_i2p_loss", out["i2p"], splat.bev.data, fr.b_p, m_i & ~m_p)):
        want = oracles.masked_mean_abs(target, pred, mask)
        need(abs(loss - want) <= 1e-12 * max(1.0, abs(want)), f"{name}: loss differs from masked mean |d|")
        need(not np.any(grad[..., ~mask]), f"{name}: gradient is non-zero off the mask")
    # proposals
    props = out["props"]
    confs = [p.confidence for p in props]
    need(len(props) <= s.m, "decode_proposals: more than m proposals")
    need(all(a >= b for a, b in zip(confs, confs[1:])), "decode_proposals: not sorted by confidence")
    return fails


# --------------------------------------------------------------------------
# Eval inputs, operation and checks


@dataclass
class EvalSet:
    gts: list                    # (image id, Box3D)
    preds: list                  # (image id, Box3D with score)


_OUTDOOR_DIMS = {0: (1.8, 1.5, 4.2), 1: (0.6, 1.7, 0.6), 2: (0.7, 1.7, 1.8)}
_INDOOR_DIMS = {3: (0.5, 0.9, 0.5), 4: (1.2, 0.75, 0.8), 5: (0.9, 1.6, 0.5)}


def _scene_boxes(rng, indoor: bool, n: int) -> list:
    """``n`` boxes whose categories take turns, so that the number of
    same-category pairs, and with it the work, is the same for every seed."""
    out = []
    table = _INDOOR_DIMS if indoor else _OUTDOOR_DIMS
    cats = sorted(table)
    for i in range(n):
        cat = cats[i % len(cats)]
        dims = np.array(table[cat]) * np.exp(rng.normal(0.0, 0.1, 3))
        if indoor:
            z = rng.uniform(0.5 + dims.max(), 8.0)
            rot = _box_rotation(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.35, 0.35, 2))
            center = np.array([rng.uniform(-0.6, 0.6) * z, rng.uniform(-0.5, 1.0), z])
        else:
            z = rng.uniform(5.0, 80.0)
            rot = _box_rotation(rng.uniform(-np.pi, np.pi))
            center = np.array([rng.uniform(-0.5, 0.5) * z, 1.8 - dims[1] / 2, z])
        out.append(Box3D(center, dims, rot, category=cat))
    return out


def _small_rotation(rng, sigma: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    theta = rng.normal(0.0, sigma)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def eval_set(rng) -> EvalSet:
    """Outdoor images of yaw-only boxes at 5-80 m, indoor images of pitched
    and rolled boxes at 0.5-8 m.  Predictions perturb every ground-truth
    box but each tenth (a miss) and add two false positives per five
    ground-truth boxes."""
    gts, preds = [], []
    for img in range(N_EVAL_IMAGES):
        indoor = img >= N_EVAL_IMAGES // 2
        boxes = _scene_boxes(rng, indoor, 12 if indoor else 20)
        gts += [(img, b) for b in boxes]
        for i, b in enumerate(boxes):
            if i % 10 == 9:
                continue
            center = b.center + rng.normal(0.0, 0.06, 3) * np.linalg.norm(b.dims)
            dims = b.dims * np.exp(rng.normal(0.0, 0.08, 3))
            if indoor:
                rot = _small_rotation(rng, 0.08) @ b.rotation
            else:
                rot = _box_rotation(rng.normal(0.0, 0.08)) @ b.rotation
            preds.append((img, Box3D(center, dims, rot, b.category, float(rng.uniform(0.4, 1.0)))))
        for b in _scene_boxes(rng, indoor, len(boxes) * 2 // 5):
            preds.append((img, Box3D(b.center, b.dims, b.rotation, b.category,
                                     float(rng.uniform(0.05, 0.7)))))
    return EvalSet(gts, preds)


def eval_op(api, es: EvalSet) -> dict:
    return api.match_and_ap(es.preds, es.gts, method="exact")


def eval_digest(out: dict) -> str:
    return hashlib.blake2b(json.dumps(out, sort_keys=True).encode(), digest_size=16).hexdigest()


def eval_pairs(es: EvalSet) -> list:
    """Every same-image, same-category (prediction, ground truth) pair."""
    by_key = {}
    for img, g in es.gts:
        by_key.setdefault((img, g.category), []).append(g)
    return [(p, g) for img, p in es.preds for g in by_key.get((img, p.category), [])]


def pair_counts(es: EvalSet) -> dict:
    """Pairs, pairs with disjoint bounding spheres, and pairs with a tilted box."""
    pairs = eval_pairs(es)
    disjoint = sum(oracles.spheres_disjoint(p, g) for p, g in pairs)
    tilted = sum(oracles.is_tilted(p) or oracles.is_tilted(g) for p, g in pairs)
    return {"eval3d.iou_pairs": len(pairs), "eval3d.iou_pairs_sphere_disjoint": disjoint,
            "eval3d.iou_pairs_tilted": tilted}


def check_eval(api, es: EvalSet, out: dict, rng) -> List[str]:
    fails: List[str] = []

    def need(ok, msg):
        if not ok:
            fails.append(msg)

    aps = [v for cat in out["per_category"].values() for v in cat.values()]
    aps += list(out["ap_per_threshold"].values()) + list(out["ap_bands"].values())
    aps += [out["ap25"], out["ap50"], out["headline_ap"]]
    need(all(v is None or 0.0 <= v <= 1.0 for v in aps), "match_and_ap: an AP lies outside [0, 1]")
    need(out["n_gt"] == len(es.gts) and out["n_pred"] == len(es.preds),
         "match_and_ap: n_gt / n_pred differ from the input counts")
    # scored copies of the ground truth are a perfect detector
    copies = [(img, Box3D(b.center, b.dims, b.rotation, b.category, 1.0)) for img, b in es.gts]
    perfect = api.match_and_ap(copies, es.gts, method="exact")
    # the all-point sum adds n_gt recall steps of 1 / n_gt, so allow rounding
    need(all(abs(v - 1.0) <= AP_TOL for cat in perfect["per_category"].values()
             for v in cat.values()),
         "match_and_ap: ground-truth copies do not give AP 1.0 at every threshold")
    # a fixed sample of overlapping pairs against the Monte-Carlo volume
    pairs = [pg for pg in eval_pairs(es) if not oracles.spheres_disjoint(*pg)]
    pick = rng.choice(len(pairs), size=min(MC_PAIRS, len(pairs)), replace=False)
    for k in sorted(pick):
        p, g = pairs[k]
        iou = eval3d.iou3d(p, g, method="exact")
        inter = iou * (p.volume + g.volume) / (1.0 + iou)
        est, se = oracles.mc_intersection(p, g, MC_SAMPLES, rng)
        need(abs(inter - est) <= MC_MAX_SE * se,
             f"iou3d: intersection {inter:.6g} is {abs(inter - est) / se:.1f} standard errors "
             f"from the Monte-Carlo estimate {est:.6g}")
    return fails


@dataclass
class Workload:
    name: str
    make_inputs: Callable        # (rng, settings) -> list of inputs, one per distinct item
    op: Callable                 # (api, item, settings) -> outputs
    digest: Callable             # outputs -> str
    check: Callable              # (api, item, outputs, settings, rng) -> failure messages
    input_counts: Optional[Callable] = None   # item -> counts computed from the inputs


WORKLOADS = {
    "frame_outdoor": Workload(
        "frame_outdoor",
        lambda rng, s: [outdoor_frame(rng, s) for _ in range(N_FRAMES)],
        frame_op, frame_digest,
        lambda api, fr, out, s, rng: check_frame(api, fr, out, s)),
    "frame_indoor": Workload(
        "frame_indoor",
        lambda rng, s: [indoor_frame(rng, s) for _ in range(N_FRAMES)],
        frame_op, frame_digest,
        lambda api, fr, out, s, rng: check_frame(api, fr, out, s)),
    "eval_mixed": Workload(
        "eval_mixed",
        lambda rng, s: [eval_set(rng)],
        lambda api, es, s: eval_op(api, es), eval_digest,
        lambda api, es, out, s, rng: check_eval(api, es, out, rng),
        pair_counts),
}
