"""Oriented 3D IoU and average-precision evaluation harness.

IoU is exact: one box's polytope is clipped by the other box's six face
half-spaces (Sutherland-Hodgman on each face, cap faces rebuilt on every
cut), and the intersection volume comes from the convex hull of the
surviving vertices.  Matching is greedy in descending score with
all-point (precision envelope) PR integration, reported per category,
IoU threshold, and depth band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geom import Box3D, box_corners

_PLANE_EPS = 1e-9
_MIN_VOLUME = 1e-12
_YAW_TOL = 1e-9

# Face quads of the documented box_corners order; each tuple walks one
# face's boundary.
_FACE_QUADS = (
    (0, 1, 3, 2), (4, 5, 7, 6),  # x-, x+
    (0, 1, 5, 4), (2, 3, 7, 6),  # y-, y+
    (0, 2, 6, 4), (1, 3, 7, 5),  # z-, z+
)


def _box_halfspaces(box: Box3D):
    """Six (normal, offset) pairs; inside is normal . x <= offset."""
    out = []
    for k in range(3):
        axis = box.rotation[:, k]
        mid = float(axis @ box.center)
        half = 0.5 * box.dims[k]
        out.append((axis, mid + half))
        out.append((-axis, -mid + half))
    return out


def _clip_polygon(poly: np.ndarray, normal: np.ndarray, offset: float):
    """Clip one convex polygon against normal . x <= offset.

    Returns (clipped polygon vertex list, crossing points on the plane).
    """
    dist = poly @ normal - offset
    kept: List[np.ndarray] = []
    crossings: List[np.ndarray] = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        p_in = dist[i] <= _PLANE_EPS
        q_in = dist[j] <= _PLANE_EPS
        if p_in:
            kept.append(poly[i])
        if p_in != q_in:
            t = dist[i] / (dist[i] - dist[j])
            point = poly[i] + t * (poly[j] - poly[i])
            kept.append(point)
            crossings.append(point)
    return kept, crossings


def _unique_rows(points: List[np.ndarray]) -> np.ndarray:
    arr = np.asarray(points)
    out: List[np.ndarray] = []
    for p in arr:
        if not any(np.max(np.abs(p - q)) <= _PLANE_EPS for q in out):
            out.append(p)
    return np.asarray(out)


def _cap_face(crossings: List[np.ndarray], normal: np.ndarray) -> Optional[np.ndarray]:
    """Order the cut's crossing points into the polygon sealing the cut."""
    pts = _unique_rows(crossings)
    if len(pts) < 3:
        return None
    centroid = pts.mean(axis=0)
    # planar basis orthogonal to the cut normal
    seed = np.eye(3)[np.argmin(np.abs(normal))]
    u = np.cross(normal, seed)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    rel = pts - centroid
    order = np.argsort(np.arctan2(rel @ v, rel @ u), kind="stable")
    return pts[order]


def _intersection_volume(a: Box3D, b: Box3D) -> float:
    corners = box_corners(a)
    faces: List[np.ndarray] = [corners[list(q)] for q in _FACE_QUADS]
    for normal, offset in _box_halfspaces(b):
        new_faces: List[np.ndarray] = []
        crossings: List[np.ndarray] = []
        for face in faces:
            kept, cross = _clip_polygon(face, normal, offset)
            crossings.extend(cross)
            if len(kept) >= 3:
                new_faces.append(np.asarray(kept))
        cap = _cap_face(crossings, normal) if crossings else None
        if cap is not None:
            new_faces.append(cap)
        faces = new_faces
        if not faces:
            return 0.0
    vertices = _unique_rows([p for face in faces for p in face])
    if len(vertices) < 4:
        return 0.0
    try:
        return float(ConvexHull(vertices).volume)
    except QhullError:
        return 0.0  # flat or degenerate intersection has zero volume


def _yaw_angle(rot: np.ndarray) -> float:
    return float(np.arctan2(rot[0, 2], rot[0, 0]))


def _bev_rect(box: Box3D) -> np.ndarray:
    """Footprint corners in the (x, z) plane for the yaw-only fast path."""
    theta = _yaw_angle(box.rotation)
    c, s = np.cos(theta), np.sin(theta)
    w2, l2 = 0.5 * box.dims[0], 0.5 * box.dims[2]
    local = np.array([[-w2, -l2], [-w2, l2], [w2, l2], [w2, -l2]])
    rot2d = np.array([[c, s], [-s, c]])
    return local @ rot2d.T + np.array([box.center[0], box.center[2]])


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _clip_polygon_2d(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    # clip must wind counter-clockwise
    if _cross2(clip[1] - clip[0], clip[2] - clip[1]) < 0:
        clip = clip[::-1]
    poly = list(subject)
    for i in range(len(clip)):
        a, bp = clip[i], clip[(i + 1) % len(clip)]
        edge = bp - a
        out: List[np.ndarray] = []
        for j in range(len(poly)):
            p, q = poly[j], poly[(j + 1) % len(poly)]
            dp = _cross2(edge, p - a)
            dq = _cross2(edge, q - a)
            p_in = dp >= -_PLANE_EPS
            q_in = dq >= -_PLANE_EPS
            if p_in:
                out.append(p)
            if p_in != q_in:
                out.append(p + (dp / (dp - dq)) * (q - p))
        poly = out
        if not poly:
            return np.empty((0, 2))
    return np.asarray(poly)


def _is_pure_yaw(rot: np.ndarray) -> bool:
    """True when rot turns about the vertical (y) axis only."""
    axis = np.array([0.0, 1.0, 0.0])
    return bool(np.all(np.abs(rot[1] - axis) <= _YAW_TOL)
                and np.all(np.abs(rot[:, 1] - axis) <= _YAW_TOL))


def _yaw_intersection_volume(a: Box3D, b: Box3D) -> float:
    if not (_is_pure_yaw(a.rotation) and _is_pure_yaw(b.rotation)):
        raise ValueError("method 'yaw' needs yaw-only box rotations; "
                         "use method 'exact' for pitched or rolled boxes")
    inter2d = _clip_polygon_2d(_bev_rect(a), _bev_rect(b))
    if len(inter2d) < 3:
        return 0.0
    area = _polygon_area(inter2d)
    a_lo, a_hi = a.center[1] - 0.5 * a.dims[1], a.center[1] + 0.5 * a.dims[1]
    b_lo, b_hi = b.center[1] - 0.5 * b.dims[1], b.center[1] + 0.5 * b.dims[1]
    h = min(a_hi, b_hi) - max(a_lo, b_lo)
    return area * h if h > 0 else 0.0


def iou3d(a: Box3D, b: Box3D, method: str = "exact") -> float:
    """Intersection over union of two oriented boxes, in [0, 1].

    ``method="exact"`` handles full 3x3 rotations via polytope clipping;
    ``method="yaw"`` is a faster path for boxes whose rotations are both
    pure yaw (about the vertical axis); it raises ValueError otherwise.
    """
    vol_a, vol_b = a.volume, b.volume
    if vol_a < _MIN_VOLUME or vol_b < _MIN_VOLUME:
        raise ValueError("degenerate (near-zero volume) box")
    if method == "exact":
        inter = _intersection_volume(a, b)
    elif method == "yaw":
        inter = _yaw_intersection_volume(a, b)
    else:
        raise ValueError(f"unknown method {method!r}")
    inter = min(inter, vol_a, vol_b)
    return inter / (vol_a + vol_b - inter)


_DEFAULT_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
_DEFAULT_BANDS = ((0.0, 10.0), (10.0, 35.0), (35.0, 80.0))
_DEFAULT_BAND_NAMES = ("near", "med", "far")


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and depth bands of the AP protocol."""

    iou_thresholds: tuple = _DEFAULT_THRESHOLDS
    depth_bands: tuple = _DEFAULT_BANDS
    band_names: tuple = _DEFAULT_BAND_NAMES
    score_order: str = "descending"

    def __post_init__(self):
        if self.score_order != "descending":
            raise ValueError("matching is defined for descending score order only")
        thr = tuple(float(t) for t in self.iou_thresholds)
        if not thr or any(not (0.0 < t < 1.0) for t in thr):
            raise ValueError("iou thresholds must lie in (0, 1)")
        if any(t2 <= t1 for t1, t2 in zip(thr, thr[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        bands = tuple((float(lo), float(hi)) for lo, hi in self.depth_bands)
        for lo, hi in bands:
            if hi <= lo:
                raise ValueError("each depth band needs lo < hi")
        if any(b2[0] < b1[1] for b1, b2 in zip(bands, bands[1:])):
            raise ValueError("depth bands must be sorted and non-overlapping")
        names = tuple(str(n) for n in self.band_names)
        if len(names) != len(bands):
            raise ValueError("band_names must match depth_bands")
        object.__setattr__(self, "iou_thresholds", thr)
        object.__setattr__(self, "depth_bands", bands)
        object.__setattr__(self, "band_names", names)


def band_of(z: float, bands: Sequence[Tuple[float, float]]) -> int:
    """Band containing z; bands are [lo, hi) except the last, which also
    owns its upper edge.  Returns -1 outside every band."""
    for i, (lo, hi) in enumerate(bands):
        if lo <= z < hi:
            return i
    if bands and z == bands[-1][1]:
        return len(bands) - 1
    return -1


def _normalize(records) -> List[Tuple[int, Box3D]]:
    out = []
    for rec in records:
        if isinstance(rec, Box3D):
            out.append((0, rec))
        else:
            img, box = rec
            out.append((int(img), box))
    return out


def _ap_from_flags(tp_flags: np.ndarray, n_gt: int) -> Optional[float]:
    """All-point-interpolated AP from score-ordered TP flags."""
    if n_gt == 0:
        return None if tp_flags.size == 0 else 0.0
    tp_c = np.cumsum(tp_flags.astype(np.float64))
    fp_c = np.cumsum((~tp_flags).astype(np.float64))
    recall = tp_c / n_gt
    precision = tp_c / (tp_c + fp_c)
    mrec = np.r_[0.0, recall]
    mpre = np.r_[0.0, precision]
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


class _CategoryEval:
    """Matching state for one category across all images."""

    def __init__(self, preds, gts, method):
        # preds: list of (img, box, seq); sorted by score desc, ties by seq
        self.preds = sorted(preds, key=lambda r: (-r[1].score, r[2]))
        self.gt_by_img: Dict[int, list] = {}
        for img, box, seq in gts:
            self.gt_by_img.setdefault(img, []).append((box, seq))
        self.n_gt = len(gts)
        self._iou_cache: Dict[int, np.ndarray] = {}
        self.method = method

    def _ious(self, img: int) -> np.ndarray:
        if img not in self._iou_cache:
            rows = [r for r in self.preds if r[0] == img]
            gt_list = self.gt_by_img.get(img, [])
            mat = np.zeros((len(rows), len(gt_list)))
            for i, (_, pbox, _) in enumerate(rows):
                for j, (gbox, _) in enumerate(gt_list):
                    mat[i, j] = iou3d(pbox, gbox, method=self.method)
            self._iou_cache[img] = mat
        return self._iou_cache[img]

    def match(self, threshold: float):
        """Greedy score-descending matching at one IoU threshold.

        Returns (tp flags, matched-gt z or nan, pred z) aligned with the
        score-sorted prediction order.
        """
        row_of: Dict[int, int] = {}
        taken: Dict[int, np.ndarray] = {
            img: np.zeros(len(g), dtype=bool) for img, g in self.gt_by_img.items()
        }
        tp = np.zeros(len(self.preds), dtype=bool)
        gt_z = np.full(len(self.preds), np.nan)
        pred_z = np.array([float(r[1].center[2]) for r in self.preds])
        for i, (img, _, _) in enumerate(self.preds):
            row = row_of.get(img, 0)
            row_of[img] = row + 1
            gt_list = self.gt_by_img.get(img)
            if not gt_list:
                continue
            ious = self._ious(img)[row]
            free = ~taken[img]
            candidates = np.where(free & (ious >= threshold))[0]
            if candidates.size == 0:
                continue
            j = candidates[np.argmax(ious[candidates])]
            taken[img][j] = True
            tp[i] = True
            gt_z[i] = float(gt_list[j][0].center[2])
        return tp, gt_z, pred_z


def match_and_ap(preds, gts, cfg: Optional[MatchConfig] = None,
                 method: str = "exact") -> dict:
    """Evaluate predictions against ground truth.

    ``preds`` and ``gts`` are sequences of Box3D or (image_id, Box3D)
    pairs; every prediction must carry a score.  Returns a JSON-ready
    dict: per-category AP at each threshold, per-threshold means, AP at
    0.25 / 0.50, per-band APs, and the headline AP (mean over categories,
    then over the configured thresholds).  Categories with neither ground
    truth nor predictions are undefined (null) and excluded from means.
    """
    cfg = cfg or MatchConfig()
    gts_n = _normalize(gts)
    preds_n = _normalize(preds)
    if any(box.score is None for _, box in preds_n):
        raise ValueError("all predictions must carry a score")

    categories = sorted({b.category for _, b in gts_n} | {b.category for _, b in preds_n})
    evals = {}
    for cat in categories:
        p = [(img, box, i) for i, (img, box) in enumerate(preds_n) if box.category == cat]
        g = [(img, box, i) for i, (img, box) in enumerate(gts_n) if box.category == cat]
        evals[cat] = _CategoryEval(p, g, method)

    report_thresholds = sorted(set(cfg.iou_thresholds) | {0.25, 0.50})
    per_cat: Dict[str, Dict[str, Optional[float]]] = {str(c): {} for c in categories}
    band_aps: Dict[str, List[float]] = {name: [] for name in cfg.band_names}
    mean_at: Dict[float, Optional[float]] = {}

    for thr in report_thresholds:
        cat_aps = []
        for cat in categories:
            ev = evals[cat]
            tp, gt_z, pred_z = ev.match(thr)
            ap = _ap_from_flags(tp, ev.n_gt)
            per_cat[str(cat)][f"{thr:.2f}"] = ap
            if ap is not None:
                cat_aps.append(ap)
            if thr in cfg.iou_thresholds:
                for bi, name in enumerate(cfg.band_names):
                    band_ap = _band_ap(ev, tp, gt_z, pred_z, cfg.depth_bands, bi)
                    if band_ap is not None:
                        band_aps[name].append(band_ap)
        mean_at[thr] = float(np.mean(cat_aps)) if cat_aps else None

    headline_vals = [mean_at[t] for t in cfg.iou_thresholds if mean_at[t] is not None]
    result = {
        "per_category": per_cat,
        "ap_per_threshold": {f"{t:.2f}": mean_at[t] for t in report_thresholds},
        "ap25": mean_at.get(0.25),
        "ap50": mean_at.get(0.50),
        "ap_bands": {
            name: (float(np.mean(vals)) if vals else None)
            for name, vals in band_aps.items()
        },
        "headline_ap": float(np.mean(headline_vals)) if headline_vals else None,
        "n_gt": len(gts_n),
        "n_pred": len(preds_n),
    }
    return result


def _band_ap(ev: _CategoryEval, tp: np.ndarray, gt_z: np.ndarray,
             pred_z: np.ndarray, bands, band_index: int) -> Optional[float]:
    gt_zs = [float(box.center[2]) for img in sorted(ev.gt_by_img)
             for box, _ in ev.gt_by_img[img]]
    n_gt_band = sum(1 for z in gt_zs if band_of(z, bands) == band_index)
    follow = np.array([band_of(z, bands) if np.isfinite(z) else -1 for z in gt_z],
                      dtype=np.int64)
    own = np.array([band_of(z, bands) for z in pred_z], dtype=np.int64)
    in_band = np.where(tp, follow, own) == band_index
    return _ap_from_flags(tp[in_band], n_gt_band)
