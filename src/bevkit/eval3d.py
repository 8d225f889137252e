"""Oriented 3D IoU and average-precision evaluation harness.

IoU is exact for full 3x3 rotations, and one code path computes it for
any number of box pairs at once: ``match_and_ap`` runs it once per
evaluation, over every same-image, same-category (prediction, ground
truth) pair of every category, and ``iou3d`` is its one-pair call.  Two
boxes whose bounding spheres are disjoint cannot meet, so one array pass
scores such pairs 0 before any geometry runs.  For the pairs that remain,
the intersection is a convex polytope whose vertices are enumerated for
all pairs together: the corners of each box that lie inside the other,
and the points where the 12 edges of each box cross the 6 face planes of
the other and lie inside it.  The volume follows in the same batched
pass from the divergence theorem: a third of the sum, over the 12 face
planes of the two boxes, of each plane's distance from one box's centre
times the area of the polytope's face on it, the polygon of the vertices
on that plane (two almost parallel faces, one of each box, count as one
polygon and a correction).  Matching is greedy in descending score, in
one pass for every IoU threshold and category, with all-point (precision
envelope) PR integration, reported per category, IoU threshold, and
depth band; each AP sums its own series alone.
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
    which corners lie inside the other box, and the crossings of its edges
    with the other box's face planes that lie on the edge and inside the
    other box, (K, 3) in (pair, edge, plane) order, with the pair of each.
    Only crossings that lie on their edge are tested against the other
    box, and only kept ones are interpolated, so the temporaries stay
    small."""
    half = 0.5 * dims[:, None, :]
    limit = half + _PLANE_EPS
    local = (corners - center[:, None, :]) @ rotation
    inside = np.abs(local) <= limit
    corner_in = inside[..., 0] & inside[..., 1] & inside[..., 2]
    p = local[:, _EDGES[:, 0]]
    step = local[:, _EDGES[:, 1]] - p
    # (edge, plane) parameter, planes in _PLANE_AXIS order; an edge (almost)
    # parallel to a plane gives nan or +-inf
    t = np.concatenate([(-half - p) / step, (half - p) / step], axis=-1).reshape(-1)
    # the crossings on their edge, then those inside the other box
    flat = np.flatnonzero((t >= 0.0) & (t <= 1.0))
    t, edge = np.take(t, flat), flat // 6
    pair = edge // 12
    point = (t[:, None] * np.take(step.reshape(-1, 3), edge, axis=0)
             + np.take(p.reshape(-1, 3), edge, axis=0))
    inside = np.abs(point) <= np.take(limit[:, 0], pair, axis=0)
    keep = inside[:, 0] & inside[:, 1] & inside[:, 2]
    t, edge, pair = t[keep, None], edge[keep], pair[keep]
    ends = 8 * pair[:, None] + _EDGES[edge - 12 * pair]
    start, stop = (np.take(corners.reshape(-1, 3), ends[:, k], axis=0) for k in (0, 1))
    return corner_in, start + t * (stop - start), pair


def _in_frame(offset, rotation) -> np.ndarray:
    """``offset @ rotation`` for stacks of (3,) offsets and (3, 3)
    rotations, written out per axis so that each offset's bits depend on
    it alone."""
    return (offset[..., :1] * rotation[..., 0, :] + offset[..., 1:2] * rotation[..., 1, :]
            + offset[..., 2:] * rotation[..., 2, :])


def _rows_in_frame(vertices, pair, center, rotation) -> np.ndarray:
    """Each of the (V, 3) ``vertices`` in the frame of the box of its pair,
    one row per coordinate: (3, V), each bit as ``_in_frame`` gives it."""
    # the box's centre and rotation rows at each vertex: (12, V)
    frame = np.take(np.concatenate([center, rotation.reshape(-1, 9)], axis=1).T, pair, axis=1)
    offset = vertices.T - frame[:3]
    return offset[:1] * frame[3:6] + offset[1:2] * frame[6:9] + offset[2:] * frame[9:]


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

    Every sum over vertices is a ``bincount`` in vertex order and the
    polygon order breaks ties of angle by vertex order, so a pair's bits
    depend only on the order of its own vertices, not on the other pairs
    or on how theirs interleave."""
    (ca, da, ra), (cb, db, rb) = a, b
    n_faces, n = 12 * len(ca), len(vertices)
    half = 0.5 * np.concatenate([da, db], axis=1)
    # each vertex in a's frame, then in b's, one row per coordinate: (6, V)
    local = np.concatenate([_rows_in_frame(vertices, pair, ca, ra),
                            _rows_in_frame(vertices, pair, cb, rb)])
    on = local[_FACE_AXIS]
    on -= np.take((_FACE_SIGN * half[:, _FACE_AXIS]).T, pair, axis=1)
    on = np.abs(on, out=on) <= _PLANE_EPS
    # each face plane's signed distance from a's centre, which lies half a
    # dimension inside each face of a
    heights = half[:, _FACE_AXIS]
    heights[:, 6:] -= _PLANE_SIGN * _in_frame(ca - cb, rb)[:, _PLANE_AXIS]
    # cosine[k, i, j]: outward normal of face i of a dotted with face j of b
    cosine = (_PLANE_SIGN[:, None] * _PLANE_SIGN
              * _in_frame(ra.transpose(0, 2, 1), rb[:, None])[:, _PLANE_AXIS[:, None], _PLANE_AXIS])
    partner = cosine > np.cos(_PARALLEL)
    heights[:, 6:] -= np.sum(np.where(partner, cosine * heights[:, :6, None], 0.0), axis=1)
    # a face of a takes the flag of its one partner, if it has one, and
    # else its own again
    mate = np.where(partner.any(axis=2), 6 + partner.argmax(axis=2), np.arange(6))
    on[:6] |= np.take(on, np.take(mate.T * n, pair, axis=1) + np.arange(n))
    # (vertex, face) incidences, face-major; within a face, and so within
    # each polygon, in vertex order
    v = np.flatnonzero(on)
    face = v // n
    v -= face * n
    group = np.take(pair, v) * 12 + face
    # the two face coordinates of each incidence, about the face's centroid
    x = np.take(local, np.take(_FACE_SPAN[:, 0] * n, face) + v)
    y = np.take(local, np.take(_FACE_SPAN[:, 1] * n, face) + v)
    del v, face   # the largest temporaries are per (vertex, face)
    n_on = np.bincount(group, minlength=n_faces)
    count = np.maximum(n_on, 1)
    x -= np.take(np.bincount(group, x, n_faces) / count, group)
    y -= np.take(np.bincount(group, y, n_faces) / count, group)
    order = _face_order(np.arctan2(y, x), group, n_on)
    x, y, group = np.take(x, order), np.take(y, order), np.take(group, order)
    # each vertex's successor around its face; the last one's is the first
    sizes = n_on[n_on > 0]
    ends = np.cumsum(sizes)
    succ = np.arange(1, group.size + 1)
    succ[ends - 1] = ends - sizes
    area = 0.5 * np.bincount(group, x * np.take(y, succ) - np.take(x, succ) * y, n_faces)
    return np.sum(heights * area.reshape(-1, 12), axis=1) / 3.0


def _face_order(angle, group, n_on) -> np.ndarray:
    """The order that sorts (vertex, face) incidences by ``group``, then
    ``angle``, then index: what a stable sort by angle and then a stable
    sort by group give, from quicksorts of unique int64 keys.  ``n_on``
    counts the incidences of each group.  Every key lies below n**2 for n
    incidences, so no key overflows int64 below 3e9 incidences."""
    n = angle.size
    by_angle = np.argsort(angle)
    # equal angles share a rank among the distinct angles, and index order
    # breaks their tie; by_angle is already sorted by this key except
    # inside runs of equal angles, which a stable sort mends in near
    # linear time
    angles = np.take(angle, by_angle)
    rank = np.zeros(n, dtype=np.int64)
    np.cumsum(angles[1:] != angles[:-1], out=rank[1:])
    by_angle = np.take(by_angle, np.argsort(rank * n + by_angle, kind="stable"))
    # each incidence's rank by (angle, index), under its group's rank among
    # the groups that hold any incidence
    rank[by_angle] = np.arange(n)
    group_rank = np.cumsum(n_on > 0) - 1
    return np.argsort(np.take(group_rank, group) * n + rank)


def _pair_ious(a, b, ia, ib) -> np.ndarray:
    """IoU of each pair of boxes ``a[ia[k]]``, ``b[ib[k]]``, where ``a`` and
    ``b`` are (centres, dims, rotations) stacks of boxes.  Only paired
    boxes are checked for volume."""
    (ca, da, ra), (cb, db, rb) = a, b
    # an overflow reads inf: a paired box with an infinite volume or
    # diagonal is refused, and centres that far apart are sphere-disjoint
    with np.errstate(over="ignore"):
        vol_a, vol_b = np.prod(da, axis=1)[ia], np.prod(db, axis=1)[ib]
        diag_a, diag_b = _norms(da)[ia], _norms(db)[ib]
        distance = _norms(ca[ia] - cb[ib])
        sizes = np.concatenate([vol_a + vol_b, diag_a + diag_b])
    if np.any(vol_a < _MIN_VOLUME) or np.any(vol_b < _MIN_VOLUME):
        raise ValueError("degenerate (near-zero volume) box")
    if not np.all(np.isfinite(sizes)):
        raise ValueError("box too large: its volume or diagonal overflows float64")
    ious = np.zeros(len(ia))
    # disjoint bounding spheres: the boxes cannot meet
    radii = 0.5 * (diag_a + diag_b)
    near = np.flatnonzero(~(distance > radii))
    if near.size == 0:
        return ious
    ia, ib = np.take(ia, near), np.take(ib, near)
    ca, da, ra, cb, db, rb = ca[ia], da[ia], ra[ia], cb[ib], db[ib], rb[ib]
    corners_a, corners_b = corners_of(ca, da, ra), corners_of(cb, db, rb)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a_in_b, cross_a, pair_a = _vertex_candidates(corners_a, cb, rb, db)
        b_in_a, cross_b, pair_b = _vertex_candidates(corners_b, ca, ra, da)
    # within each pair: a's corners in b, b's corners in a, a's crossings,
    # b's crossings; the volume reads only the order within a pair
    vertices = np.concatenate([corners_a[a_in_b], corners_b[b_in_a], cross_a, cross_b])
    pair = np.concatenate([np.nonzero(a_in_b)[0], np.nonzero(b_in_a)[0], pair_a, pair_b])
    inter = _intersection_volumes(vertices, pair, (ca, da, ra), (cb, db, rb))
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
    A box of near-zero volume, or one whose volume or diagonal overflows
    float64, is a ValueError.
    """
    _require_exact(method)
    return float(_pair_ious(_stack([a]), _stack([b]), [0], [0])[0])


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


def _bands_of(z: np.ndarray, bands: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Depth band of every entry of ``z``: bands are [lo, hi) except the
    last, which also owns its upper edge; -1 outside every band.  The
    bands must be sorted and non-overlapping, as ``MatchConfig`` checks."""
    if not bands:
        return np.full(z.shape, -1, dtype=np.int64)
    lo, hi = np.array(bands, dtype=np.float64).T
    # the last band starting at or below z; it holds z if z lies below its
    # end, or on the end of the last band
    i = np.searchsorted(lo, z, side="right") - 1
    inside = ((i >= 0) & (z < hi[i])) | (z == hi[-1])
    return np.where(inside, i, -1)


def _normalize(records) -> List[Tuple[int, Box3D]]:
    out = []
    for rec in records:
        if isinstance(rec, Box3D):
            out.append((0, rec))
        else:
            img, box = rec
            out.append((int(img), box))
    return out


def _aps(tp: np.ndarray, member: np.ndarray, n_gt: Sequence[int]) -> List[Optional[float]]:
    """All-point-interpolated AP of each row's series: the score-ordered
    (threshold, prediction) TP flags ``tp`` of the predictions ``member``
    marks, against the row's ``n_gt`` ground truths; a series without
    ground truth scores 0, or None if it holds no prediction either.  Each
    row sums its own envelope, so its bits are those of its series taken
    alone, whatever rows are stacked with it."""
    hits = tp & member
    # TPs over predictions of the series up to each rank, an exact ratio;
    # a rank outside the series repeats the precision of the series' last
    # rank before it (or reads 0), so the envelope at each rank of the
    # series is that of the series alone
    precision = hits.cumsum(axis=1) / np.maximum(member.cumsum(axis=1), 1)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1][hits]
    ends = np.cumsum(hits.sum(axis=1)).tolist()
    # recall rises by 1 / n_gt at each TP: sum first, divide once
    return [float(np.add.reduce(envelope[lo:hi]) / n) if n else (0.0 if any_ else None)
            for lo, hi, n, any_ in zip([0] + ends, ends, n_gt, member.any(axis=1).tolist())]


def _mean(values: Sequence[float]) -> Optional[float]:
    """``np.mean`` of a non-empty list, bit for bit: one pairwise sum and
    one division; None for an empty one."""
    if not values:
        return None
    return float(np.add.reduce(np.array(values, dtype=np.float64)) / len(values))


class _Evaluation:
    """Every box of an evaluation, built once: the predictions grouped by
    category, each category's in descending score (ties in input order),
    the ground truths grouped by category in input order, every
    same-image, same-category (prediction, ground truth) pair with its IoU
    from one ``_pair_ious`` call, the depth band of every box, and where
    each category's predictions and ground truths start."""

    def __init__(self, preds, gts, bands):
        # preds, gts: (image, box) pairs in input order
        self.categories = sorted({b.category for _, b in gts} | {b.category for _, b in preds})
        code = {c: k for k, c in enumerate(self.categories)}
        pred_cat = np.array([code[b.category] for _, b in preds], dtype=np.int64)
        gt_cat = np.array([code[b.category] for _, b in gts], dtype=np.int64)
        order = np.argsort(np.array([-b.score for _, b in preds]), kind="stable")
        order = order[np.argsort(pred_cat[order], kind="stable")]
        gt_order = np.argsort(gt_cat, kind="stable")
        pred_cat, gt_cat = pred_cat[order], gt_cat[gt_order]
        p = _stack([preds[i][1] for i in order])
        g = _stack([gts[i][1] for i in gt_order])
        # one key per (category, image); each prediction's ground truths
        # are a run of the key-sorted ground truths, in input order
        images, image_code = np.unique([img for img, _ in preds] + [img for img, _ in gts],
                                       return_inverse=True)
        pred_key = pred_cat * images.size + image_code[:len(preds)][order]
        gt_key = gt_cat * images.size + image_code[len(preds):][gt_order]
        by_key = np.argsort(gt_key, kind="stable")
        sorted_key = gt_key[by_key]
        lo = np.searchsorted(sorted_key, pred_key, side="left")
        count = np.searchsorted(sorted_key, pred_key, side="right") - lo
        # prediction-major, each prediction's ground truths in input order:
        # pair n, the k-th of a prediction whose run starts at lo, takes
        # by_key[lo + k], and k is n less the pairs of earlier predictions
        self.pair_pred = np.repeat(np.arange(len(preds)), count)
        shift = np.repeat(lo - (np.cumsum(count) - count), count)
        self.pair_gt = by_key[shift + np.arange(self.pair_pred.size)]
        self.ious = _pair_ious(p, g, self.pair_pred, self.pair_gt)
        self.pred_band = _bands_of(p[0][:, 2], bands)
        self.gt_band = _bands_of(g[0][:, 2], bands)
        cats = np.arange(len(self.categories) + 1)
        self.pred_start = np.searchsorted(pred_cat, cats)
        self.gt_start = np.searchsorted(gt_cat, cats)

    def match(self, thresholds: Sequence[float]) -> np.ndarray:
        """Greedy matching in score order at every IoU threshold in one
        pass: (threshold, prediction) -> the index of the ground truth the
        prediction takes, or -1 for none.  Each prediction takes the first
        free candidate with the highest IoU at or above the threshold.  No
        pair crosses categories, so one pass over all of them matches each
        category as a pass of its own would."""
        thr = np.asarray(thresholds, dtype=np.float64)[:, None]
        taken = np.zeros((thr.size, self.gt_band.size), dtype=bool)
        matched = np.full((thr.size, self.pred_band.size), -1, dtype=np.int64)
        rows = np.arange(thr.size)
        # a pair below every threshold can never be taken
        viable = self.ious >= thr.min()
        pred, gt, ious = self.pair_pred[viable], self.pair_gt[viable], self.ious[viable]
        # a viable pair that shares neither its prediction nor its ground
        # truth with another is matched whenever its IoU clears the
        # threshold, whatever the order; the rest go through the greedy loop
        alone = ((np.bincount(pred, minlength=matched.shape[1])[pred] == 1)
                 & (np.bincount(gt, minlength=taken.shape[1])[gt] == 1))
        matched[:, pred[alone]] = np.where(ious[alone] >= thr, gt[alone], -1)
        pred, gt, ious = pred[~alone], gt[~alone], ious[~alone]
        starts = np.flatnonzero(np.diff(pred, prepend=-1))
        ends = np.append(starts[1:], pred.size)
        for i, lo, hi in zip(pred[starts].tolist(), starts.tolist(), ends.tolist()):
            cand, iou = gt[lo:hi], ious[lo:hi]
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

    ev = _Evaluation(preds_n, gts_n, cfg.depth_bands)
    categories = ev.categories
    report_thresholds = sorted(set(cfg.iou_thresholds) | {0.25, 0.50})
    matched = ev.match(report_thresholds)
    tp = matched >= 0
    # a match counts in its ground truth's band, a miss in its own
    band = np.where(tp, np.append(ev.gt_band, -1)[matched], ev.pred_band)
    # per category: the AP at every threshold of its all-band series and
    # of each depth band's, one _aps call over the stacked series
    n_rows, n_bands = len(report_thresholds), len(cfg.band_names)
    series = np.arange(-1, n_bands)[:, None, None]
    cat_aps, cat_band_aps = [], []
    for k in range(len(categories)):
        p = slice(ev.pred_start[k], ev.pred_start[k + 1])
        gt_band = ev.gt_band[ev.gt_start[k]:ev.gt_start[k + 1]]
        n_gt = [gt_band.size] + np.bincount(gt_band + 1, minlength=n_bands + 1)[1:].tolist()
        member = (series < 0) | (band[:, p] == series)
        aps = _aps(np.tile(tp[:, p], (n_bands + 1, 1)), member.reshape(len(member) * n_rows, -1),
                   np.repeat(n_gt, n_rows).tolist())
        cat_aps.append(aps[:n_rows])
        cat_band_aps.append([aps[n_rows * (b + 1):n_rows * (b + 2)] for b in range(n_bands)])

    per_cat: Dict[str, Dict[str, Optional[float]]] = {str(c): {} for c in categories}
    band_aps: Dict[str, List[float]] = {name: [] for name in cfg.band_names}
    mean_at: Dict[float, Optional[float]] = {}
    for row, thr in enumerate(report_thresholds):
        aps = [by_threshold[row] for by_threshold in cat_aps]
        for cat, ap in zip(categories, aps):
            per_cat[str(cat)][f"{thr:.2f}"] = ap
        if thr in cfg.iou_thresholds:
            for by_band in cat_band_aps:
                for name, band_ap in zip(cfg.band_names, by_band):
                    if band_ap[row] is not None:
                        band_aps[name].append(band_ap[row])
        mean_at[thr] = _mean([ap for ap in aps if ap is not None])

    result = {
        "per_category": per_cat,
        "ap_per_threshold": {f"{t:.2f}": mean_at[t] for t in report_thresholds},
        "ap25": mean_at.get(0.25),
        "ap50": mean_at.get(0.50),
        "ap_bands": {name: _mean(vals) for name, vals in band_aps.items()},
        "headline_ap": _mean([mean_at[t] for t in cfg.iou_thresholds if mean_at[t] is not None]),
        "n_gt": len(gts_n),
        "n_pred": len(preds_n),
    }
    return result
