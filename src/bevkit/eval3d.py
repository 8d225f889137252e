"""Oriented 3D IoU and average-precision evaluation harness.

IoU is exact for full 3x3 rotations, and one code path computes it for
any number of box pairs at once: ``match_and_ap`` runs it once per
category over every same-image (prediction, ground truth) pair, and
``iou3d`` is its one-pair call.  Two boxes whose bounding spheres are
disjoint cannot meet, so one array pass scores such pairs 0 before any
geometry runs.  For the pairs that remain, the intersection is a convex
polytope whose vertices are enumerated for all pairs together: the
corners of each box that lie inside the other, and the points where the
12 edges of each box cross the 6 face planes of the other and lie inside
it.  The volume follows in the same batched pass from the divergence
theorem: a third of the sum, over the 12 face planes of the two boxes, of
each plane's distance from one box's centre times the area of the
polytope's face on it, the polygon of the vertices on that plane (two
almost parallel faces, one of each box, count as one polygon and a
correction).  Matching is greedy in descending score, in one pass for every
IoU threshold, with all-point (precision envelope) PR integration,
reported per category, IoU threshold, and depth band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geom import Box3D, corners_of

# Slack for rounding of points that lie on a face: a point this close to
# a face plane lies on it.  Every point admitted up to this far outside
# the other box inflates the intersection, so it stays far below the IoU
# precision the tests ask for (1e-9); on the eval_mixed benchmark pairs
# (seeds 1-5, up to 80 m away) rounding leaves every vertex within
# 1.3e-14 of its planes.
_PLANE_EPS = 1e-12
# A face of b whose outward normal is within this angle (radians) of a face
# of a's counts together with it; below 45 degrees a face has at most one
# such partner.  Where two such faces cross, rounding can put their crease
# in slightly different places for the two faces, about 1e-13 m / angle
# apart, so counted apart they overlap: with this angle at 1e-6, pairs 20 m
# out turned by about 1e-6 rad read IoU errors up to 1e-7.
_PARALLEL = 0.1
_MIN_VOLUME = 1e-12

# The 12 edges of a box as corner-index pairs in corners_of order: two
# corners share an edge when their sign patterns differ in one axis.
_EDGES = np.array([(i, i | bit) for i in range(8) for bit in (1, 2, 4) if not i & bit])
# The axis of each face plane, in the order x-, y-, z-, x+, y+, z+, and
# the sign of its outward normal
_PLANE_AXIS = np.tile(np.arange(3), 2)
_PLANE_SIGN = np.repeat([-1.0, 1.0], 3)
# The 12 faces of a pair, a's then b's, over the 6 local coordinates of a
# vertex (in a's frame, then in b's): the coordinate normal to each face,
# the sign of its outward normal and the two coordinates that span it
_FACE_AXIS = np.concatenate([_PLANE_AXIS, 3 + _PLANE_AXIS])
_FACE_SIGN = np.tile(_PLANE_SIGN, 2)
_FACE_SPAN = 3 * (_FACE_AXIS[:, None] // 3) + (_FACE_AXIS[:, None] + [1, 2]) % 3


def _stack(boxes: Sequence[Box3D]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres (n, 3), dims (n, 3) and rotations (n, 3, 3) of ``boxes``."""
    return (np.array([b.center for b in boxes]).reshape(-1, 3),
            np.array([b.dims for b in boxes]).reshape(-1, 3),
            np.array([b.rotation for b in boxes]).reshape(-1, 3, 3))


def _norms(v: np.ndarray) -> np.ndarray:
    # row-wise v . v as a dot product, rounded as np.linalg.norm of one row
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _vertex_candidates(corners, center, rotation, dims):
    """Candidate vertices that one box of each pair, given by its
    (P, 8, 3) ``corners``, adds to its intersection with the other box:
    which corners lie inside the other box, and the (P, 72, 3) crossings
    of its edges with the other box's face planes in (edge, plane) order,
    with which of them lie on the edge and inside the other box."""
    half = 0.5 * dims[:, None, :]
    limit = half + _PLANE_EPS
    local = (corners - center[:, None, :]) @ rotation
    corner_in = np.all(np.abs(local) <= limit, axis=-1)
    p, q = local[:, _EDGES[:, 0]], local[:, _EDGES[:, 1]]
    planes = np.concatenate([-half, half], axis=-1)
    step = q - p
    # (edge, plane) parameter; an edge (almost) parallel to a plane gives
    # nan or +-inf
    t = (planes - p[:, :, _PLANE_AXIS]) / step[:, :, _PLANE_AXIS]
    cross_in = (t >= 0.0) & (t <= 1.0)
    t = t[..., None]
    point = p[:, :, None, :] + t * step[:, :, None, :]
    cross_in &= np.all(np.abs(point) <= limit[:, None], axis=-1)
    start, stop = corners[:, _EDGES[:, 0]], corners[:, _EDGES[:, 1]]
    cross = start[:, :, None, :] + t * (stop - start)[:, :, None, :]
    return corner_in, cross.reshape(len(corners), -1, 3), cross_in.reshape(len(corners), -1)


def _in_frame(offset, rotation) -> np.ndarray:
    """``offset @ rotation`` for stacks of (3,) offsets and (3, 3)
    rotations, written out per axis so that each offset's bits depend on
    it alone."""
    return (offset[..., :1] * rotation[..., 0, :] + offset[..., 1:2] * rotation[..., 1, :]
            + offset[..., 2:] * rotation[..., 2, :])


def _intersection_volumes(vertices, pair, a, b) -> np.ndarray:
    """Volume of the intersection polytope of each pair of boxes ``a[k]``,
    ``b[k]``, given its vertices: the (V, 3) ``vertices`` of all pairs,
    ``pair`` naming the pair of each.

    By the divergence theorem the volume is a third of the sum, over the 12
    face planes, of the plane's signed distance from a's centre times the
    area of the polytope's face on it.  That face is the polygon of the
    vertices within ``_PLANE_EPS`` of the plane, sorted by angle about their
    centroid in the owning box's 2-D face coordinates.

    A face B of b whose outward normal is within ``_PARALLEL`` of that of a
    face A of a, at cosine c, counts together with it: the two add
    h_A |A| + h_B |B| = h_A |A u B| + (h_B - c h_A) |B|, where A u B is the
    polygon of the vertices on either plane in A's coordinates, which see
    B shrunk by c.  The planes may coincide (outdoor boxes on one ground
    plane), and then A u B is the one face and h_B - c h_A is 0 to
    rounding; or they may cross almost flat, and then a crease that
    rounding puts in slightly different places for A and B only moves
    area between terms weighted by that small difference.  As the two
    normals nearly agree, A u B is one polygon, star-shaped about its
    centroid.

    Every sum over vertices is a ``bincount`` in vertex order, so a pair's
    bits do not depend on the other pairs."""
    (ca, da, ra), (cb, db, rb) = a, b
    n_faces = 12 * len(ca)
    half = 0.5 * np.concatenate([da, db], axis=1)
    # each vertex in a's frame, then in b's: (V, 6)
    local = _in_frame(vertices[:, None, :] - np.stack([ca, cb], axis=1)[pair],
                      np.stack([ra, rb], axis=1)[pair]).reshape(-1, 6)
    on = np.abs(local[:, _FACE_AXIS] - (_FACE_SIGN * half[:, _FACE_AXIS])[pair]) <= _PLANE_EPS
    # each face plane's signed distance from a's centre, which lies half a
    # dimension inside each face of a
    heights = half[:, _FACE_AXIS]
    heights[:, 6:] -= _PLANE_SIGN * _in_frame(ca - cb, rb)[:, _PLANE_AXIS]
    # cosine[k, i, j]: outward normal of face i of a dotted with face j of b
    cosine = (_PLANE_SIGN[:, None] * _PLANE_SIGN
              * _in_frame(ra.transpose(0, 2, 1), rb[:, None])[:, _PLANE_AXIS[:, None], _PLANE_AXIS])
    partner = cosine > np.cos(_PARALLEL)
    heights[:, 6:] -= np.sum(np.where(partner, cosine * heights[:, :6, None], 0.0), axis=1)
    on[:, :6] |= np.any(partner[pair] & on[:, None, 6:], axis=2)
    v, face = np.nonzero(on)
    group = pair[v] * 12 + face
    uv = local[v[:, None], _FACE_SPAN[face]]
    count = np.maximum(np.bincount(group, minlength=n_faces), 1)
    center = np.stack([np.bincount(group, uv[:, k], n_faces) for k in (0, 1)], axis=1)
    d = uv - (center / count[:, None])[group]
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")
    order = order[np.argsort(group[order], kind="stable")]
    d, group = d[order], group[order]
    # each vertex's successor around its face; the last one's is the first
    succ = np.arange(1, group.size + 1)
    succ[np.flatnonzero(np.diff(group, append=-1))] = np.flatnonzero(np.diff(group, prepend=-1))
    area = 0.5 * np.bincount(group, d[:, 0] * d[succ, 1] - d[succ, 0] * d[:, 1], n_faces)
    return np.sum(heights * area.reshape(-1, 12), axis=1) / 3.0


def _pair_ious(a, b) -> np.ndarray:
    """IoU of each pair of boxes ``a[k]``, ``b[k]``, where ``a`` and ``b``
    are (centres, dims, rotations) stacks of P boxes each."""
    (ca, da, ra), (cb, db, rb) = a, b
    vol_a, vol_b = np.prod(da, axis=1), np.prod(db, axis=1)
    if np.any(vol_a < _MIN_VOLUME) or np.any(vol_b < _MIN_VOLUME):
        raise ValueError("degenerate (near-zero volume) box")
    ious = np.zeros(len(ca))
    # disjoint bounding spheres: the boxes cannot meet
    radii = 0.5 * (_norms(da) + _norms(db))
    near = np.flatnonzero(~(_norms(ca - cb) > radii))
    if near.size == 0:
        return ious
    ca, da, ra, cb, db, rb = (x[near] for x in (ca, da, ra, cb, db, rb))
    corners_a, corners_b = corners_of(ca, da, ra), corners_of(cb, db, rb)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a_in_b, cross_a, cross_a_in = _vertex_candidates(corners_a, cb, rb, db)
        b_in_a, cross_b, cross_b_in = _vertex_candidates(corners_b, ca, ra, da)
    # per pair: a's corners in b, b's corners in a, a's crossings, b's crossings
    candidates = np.concatenate([corners_a, corners_b, cross_a, cross_b], axis=1)
    keep = np.concatenate([a_in_b, b_in_a, cross_a_in, cross_b_in], axis=1)
    inter = _intersection_volumes(candidates[keep], np.nonzero(keep)[0],
                                  (ca, da, ra), (cb, db, rb))
    va, vb = vol_a[near], vol_b[near]
    # a flat intersection may sum to a rounding error below zero; the
    # floor also turns -0.0 into +0.0
    inter = np.minimum(np.minimum(np.maximum(inter, 0.0), va), vb)
    ious[near] = inter / (va + vb - inter)
    return ious


def _require_exact(method: str) -> None:
    # kept so that callers passing method="exact" keep working
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")


def iou3d(a: Box3D, b: Box3D, method: str = "exact") -> float:
    """Intersection over union of two oriented boxes, in [0, 1].

    Exact for full 3x3 rotations.  ``method`` accepts only ``"exact"``.
    """
    _require_exact(method)
    return float(_pair_ious(_stack([a]), _stack([b]))[0])


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
    (ties in input order), every same-image (prediction, ground truth)
    pair with its IoU, and the depth band of every box."""

    def __init__(self, preds, gts, bands):
        # preds, gts: (image, box) pairs in input order
        order = np.argsort([-box.score for _, box in preds], kind="stable")
        preds = [preds[i] for i in order]
        pred_img = np.array([img for img, _ in preds], dtype=np.int64)
        gt_img = np.array([img for img, _ in gts], dtype=np.int64)
        # prediction-major, each prediction's ground truths in input order
        self.pair_pred, self.pair_gt = np.nonzero(pred_img[:, None] == gt_img[None, :])
        p, g = _stack([box for _, box in preds]), _stack([box for _, box in gts])
        self.ious = _pair_ious(tuple(x[self.pair_pred] for x in p),
                               tuple(x[self.pair_gt] for x in g))
        self.gt_band = np.array([band_of(float(b.center[2]), bands) for _, b in gts],
                                dtype=np.int64)
        self.pred_band = np.array([band_of(float(b.center[2]), bands) for _, b in preds],
                                  dtype=np.int64)

    def match(self, thresholds: Sequence[float]) -> np.ndarray:
        """Greedy matching in score order at every IoU threshold in one
        pass: (threshold, prediction) -> the index of the ground truth the
        prediction takes, or -1 for none.  Each prediction takes the first
        free candidate with the highest IoU at or above the threshold."""
        thr = np.asarray(thresholds, dtype=np.float64)[:, None]
        taken = np.zeros((thr.size, self.gt_band.size), dtype=bool)
        matched = np.full((thr.size, self.pred_band.size), -1, dtype=np.int64)
        rows = np.arange(thr.size)
        # a pair below every threshold can never be taken
        viable = self.ious >= thr.min()
        pred, gt, ious = self.pair_pred[viable], self.pair_gt[viable], self.ious[viable]
        starts = np.flatnonzero(np.diff(pred, prepend=-1))
        for i, cand, iou in zip(pred[starts], np.split(gt, starts[1:]),
                                np.split(ious, starts[1:])):
            free = (iou >= thr) & ~taken[:, cand]
            best = np.where(free, iou, -np.inf).argmax(axis=1)
            hit = free[rows, best]
            j = cand[best[hit]]
            taken[hit, j] = True
            matched[hit, i] = j
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

    matched_at = {cat: c.match(report_thresholds) for cat, c in by_cat.items()}
    for row, thr in enumerate(report_thresholds):
        cat_aps = []
        for cat in categories:
            c = by_cat[cat]
            matched = matched_at[cat][row]
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

