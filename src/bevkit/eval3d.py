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

    def __post_init__(self):
        thr = tuple(float(t) for t in self.iou_thresholds)
        if not thr or any(not (0.0 < t < 1.0) for t in thr):
            raise ValueError("iou thresholds must lie in (0, 1)")
        if any(t2 <= t1 for t1, t2 in zip(thr, thr[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        bands = tuple(tuple(float(v) for v in band) for band in self.depth_bands)
        if any(len(band) != 2 or band[1] <= band[0] for band in bands):
            raise ValueError("each depth band needs a (lo, hi) pair with lo < hi")
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


class _Category:
    """One category, built once: its predictions in descending score
    (ties in input order), each with the ground truths of its image and
    their IoUs, and the depth band of every box."""

    def __init__(self, preds, gts, bands):
        # preds, gts: (image, box) pairs in input order
        order = np.argsort([-box.score for _, box in preds], kind="stable")
        preds = [preds[i] for i in order]
        gts_of: Dict[int, List[int]] = {}
        for j, (img, _) in enumerate(gts):
            gts_of.setdefault(img, []).append(j)
        self.candidates = [np.array(gts_of.get(img, []), dtype=np.int64) for img, _ in preds]
        self.ious = [np.array([iou3d(box, gts[j][1]) for j in cand])
                     for (_, box), cand in zip(preds, self.candidates)]
        self.gt_band = np.array([band_of(float(b.center[2]), bands) for _, b in gts],
                                dtype=np.int64)
        self.pred_band = np.array([band_of(float(b.center[2]), bands) for _, b in preds],
                                  dtype=np.int64)

    def match(self, threshold: float) -> np.ndarray:
        """Greedy matching in score order at one IoU threshold: the index
        of the ground truth each prediction takes, or -1 for none."""
        taken = np.zeros(self.gt_band.size, dtype=bool)
        matched = np.full(len(self.ious), -1, dtype=np.int64)
        for i, (cand, ious) in enumerate(zip(self.candidates, self.ious)):
            free = (ious >= threshold) & ~taken[cand]
            if free.any():
                j = cand[free][np.argmax(ious[free])]
                taken[j] = True
                matched[i] = j
        return matched


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
    by_cat = {
        cat: _Category([r for r in preds_n if r[1].category == cat],
                       [r for r in gts_n if r[1].category == cat], cfg.depth_bands)
        for cat in categories
    }

    report_thresholds = sorted(set(cfg.iou_thresholds) | {0.25, 0.50})
    per_cat: Dict[str, Dict[str, Optional[float]]] = {str(c): {} for c in categories}
    band_aps: Dict[str, List[float]] = {name: [] for name in cfg.band_names}
    mean_at: Dict[float, Optional[float]] = {}

    for thr in report_thresholds:
        cat_aps = []
        for cat in categories:
            c = by_cat[cat]
            matched = c.match(thr)
            tp = matched >= 0
            ap = _ap_from_flags(tp, c.gt_band.size)
            per_cat[str(cat)][f"{thr:.2f}"] = ap
            if ap is not None:
                cat_aps.append(ap)
            if thr in cfg.iou_thresholds:
                # a match counts in its ground truth's band, a miss in its own
                band = c.pred_band.copy()
                band[tp] = c.gt_band[matched[tp]]
                for b, name in enumerate(cfg.band_names):
                    band_ap = _ap_from_flags(tp[band == b], int(np.sum(c.gt_band == b)))
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

