"""Oriented 3D IoU and average-precision evaluation harness.

IoU is exact for full 3x3 rotations.  Two boxes whose bounding spheres
are disjoint cannot meet, so such pairs score 0 before any geometry runs.
Otherwise the intersection is a convex polytope whose vertices are
enumerated directly: the corners of each box that lie inside the other,
and the points where the 12 edges of each box cross the 6 face planes of
the other and lie inside it.  The intersection volume is the volume of
their convex hull.  Matching is greedy in descending score with
all-point (precision envelope) PR integration, reported per category,
IoU threshold, and depth band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geom import Box3D, box_corners

# Slack for rounding of points that lie on a face.  Every point admitted
# up to this far outside the other box inflates the hull, so it stays far
# below the IoU precision the tests ask for (1e-9).
_PLANE_EPS = 1e-12
_MIN_VOLUME = 1e-12

# The 12 edges of a box as corner-index pairs in box_corners order: two
# corners share an edge when their sign patterns differ in one axis.
_EDGES = np.array([(i, i | bit) for i in range(8) for bit in (1, 2, 4) if not i & bit])


def _local(points: np.ndarray, box: Box3D) -> np.ndarray:
    """World points expressed in the box's own frame."""
    return (points - box.center) @ box.rotation


def _inside(local: np.ndarray, box: Box3D) -> np.ndarray:
    return np.all(np.abs(local) <= 0.5 * box.dims + _PLANE_EPS, axis=-1)


def _edge_crossings(corners: np.ndarray, box: Box3D) -> np.ndarray:
    """Points where the edges between ``corners`` cross the face planes
    of ``box`` and that lie inside ``box``."""
    local = _local(corners, box)
    p, q = local[_EDGES[:, 0]], local[_EDGES[:, 1]]
    half = 0.5 * box.dims
    planes = np.concatenate([-half, half])  # x-, y-, z-, x+, y+, z+
    axis = np.tile(np.arange(3), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # (edge, plane) parameter; an edge parallel to a plane gives nan or inf
        t = (planes - p[:, axis]) / (q - p)[:, axis]
    hit = (t >= 0.0) & (t <= 1.0)
    e = np.nonzero(hit)[0]
    t = t[hit][:, None]
    keep = _inside(p[e] + t * (q[e] - p[e]), box)
    start, stop = corners[_EDGES[e, 0]], corners[_EDGES[e, 1]]
    return (start + t * (stop - start))[keep]


def _intersection_volume(a: Box3D, b: Box3D) -> float:
    """Volume of the convex hull of every vertex of the intersection
    polytope: corners of one box inside the other, and crossings of one
    box's edges with the other box's face planes."""
    ca, cb = box_corners(a), box_corners(b)
    vertices = np.concatenate([
        ca[_inside(_local(ca, b), b)],
        cb[_inside(_local(cb, a), a)],
        _edge_crossings(ca, b),
        _edge_crossings(cb, a),
    ])
    if len(vertices) < 4:
        return 0.0
    try:
        return float(ConvexHull(vertices).volume)
    except QhullError:
        return 0.0  # flat or degenerate intersection has zero volume


def _require_exact(method: str) -> None:
    # kept so that callers passing method="exact" keep working
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")


def iou3d(a: Box3D, b: Box3D, method: str = "exact") -> float:
    """Intersection over union of two oriented boxes, in [0, 1].

    Exact for full 3x3 rotations.  ``method`` accepts only ``"exact"``.
    """
    _require_exact(method)
    vol_a, vol_b = a.volume, b.volume
    if vol_a < _MIN_VOLUME or vol_b < _MIN_VOLUME:
        raise ValueError("degenerate (near-zero volume) box")
    # disjoint bounding spheres: the boxes cannot meet
    radii = 0.5 * (np.linalg.norm(a.dims) + np.linalg.norm(b.dims))
    if np.linalg.norm(a.center - b.center) > radii:
        return 0.0
    inter = min(_intersection_volume(a, b), vol_a, vol_b)
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
    precision = np.cumsum(tp_flags) / np.arange(1.0, tp_flags.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # recall rises by 1 / n_gt at each TP: sum first, divide once
    return float(np.sum(envelope[tp_flags]) / n_gt)


class _CategoryEval:
    """Matching state for one category across all images."""

    def __init__(self, preds, gts):
        # preds: list of (img, box, seq); sorted by score desc, ties by seq
        self.preds = sorted(preds, key=lambda r: (-r[1].score, r[2]))
        self.gt_by_img: Dict[int, list] = {}
        for img, box, seq in gts:
            self.gt_by_img.setdefault(img, []).append((box, seq))
        self.n_gt = len(gts)
        self._iou_cache: Dict[int, np.ndarray] = {}

    def _ious(self, img: int) -> np.ndarray:
        if img not in self._iou_cache:
            rows = [r for r in self.preds if r[0] == img]
            gt_list = self.gt_by_img.get(img, [])
            mat = np.zeros((len(rows), len(gt_list)))
            for i, (_, pbox, _) in enumerate(rows):
                for j, (gbox, _) in enumerate(gt_list):
                    mat[i, j] = iou3d(pbox, gbox)
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
    ``method`` accepts only ``"exact"``.
    """
    _require_exact(method)
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
        evals[cat] = _CategoryEval(p, g)

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
