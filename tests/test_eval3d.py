import json
import sys
import warnings
from itertools import permutations
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

import bevkit.eval3d
from bevkit.eval3d import (MatchConfig, _aps, _bands_of, _Evaluation, _face_order, _pair_ious,
                           _stack, iou3d, match_and_ap)
from bevkit.geom import Box3D, Pose, yaw_rotation


def mc_iou3d(a: Box3D, b: Box3D, n: int, seed: int) -> float:
    """Independent Monte-Carlo oracle: sample uniformly inside box a and
    count the hits inside box b."""
    rng = np.random.default_rng(seed)
    local = (rng.uniform(size=(n, 3)) - 0.5) * a.dims
    world = local @ a.rotation.T + a.center
    rel = (world - b.center) @ b.rotation
    inside = np.all(np.abs(rel) <= b.dims / 2.0, axis=1)
    inter = a.volume * inside.mean()
    return inter / (a.volume + b.volume - inter)


def halfspace_iou3d(a: Box3D, b: Box3D) -> Optional[float]:
    """Independent oracle: qhull's intersection of the 12 face half-spaces,
    seeded at their Chebyshev centre; an empty intersection (the Chebyshev
    LP is infeasible) scores 0.  None when the intersection is too thin to
    seed qhull reliably, a flat or touching one included: the LP solver
    also reads a real wedge 1e-8 m thick as radius 0."""
    normals = np.vstack([a.rotation.T, -a.rotation.T, b.rotation.T, -b.rotation.T])
    centers = np.repeat([a.center, b.center], 6, axis=0)
    halves = 0.5 * np.concatenate([a.dims, a.dims, b.dims, b.dims])
    offsets = np.einsum("ij,ij->i", normals, centers) + halves  # n . x <= offset
    # Chebyshev centre: the deepest point, maximising r in n . x + r <= offset.
    # HiGHS' simplex can stop on an infeasible LP without a verdict (status
    # 4); its interior-point solver then decides.
    for method in ("highs", "highs-ipm"):
        res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=np.column_stack([normals, np.ones(12)]),
                      b_ub=offsets, bounds=[(None, None)] * 3 + [(0.0, None)], method=method)
        if res.status != 4:
            break
    if res.status == 2:
        return 0.0
    if res.status != 0 or res.x[3] < 1e-6:
        return None
    hs = HalfspaceIntersection(np.column_stack([normals, -offsets]), res.x[:3])
    inter = ConvexHull(hs.intersections).volume
    return inter / (a.volume + b.volume - inter)


def quaternion_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


rotations = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(quaternion_rotation)
extents = st.tuples(*[st.floats(0.2, 3.0)] * 3)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.asarray(v) / np.linalg.norm(v))


@st.composite
def rotated_pairs(draw):
    """Two fully rotated boxes, the second offset by up to 2 m per axis."""
    center = np.array(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)))
    offset = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
    a = Box3D(center, draw(extents), draw(rotations))
    b = Box3D(center + offset, draw(extents), draw(rotations))
    return a, b


def random_box(rng, z_lo=2.0, z_hi=12.0) -> Box3D:
    center = np.array([rng.uniform(-4, 4), rng.uniform(-2, 2), rng.uniform(z_lo, z_hi)])
    dims = rng.uniform(0.5, 3.0, size=3)
    yaw = rng.uniform(-np.pi, np.pi)
    return Box3D(center, dims, yaw_rotation(yaw))


def band_of(z: float, bands) -> int:
    """Oracle of the depth-band rule, one depth at a time: bands are
    [lo, hi) except the last, which also owns its upper edge; -1 outside
    every band."""
    for i, (lo, hi) in enumerate(bands):
        if lo <= z < hi:
            return i
    if bands and z == bands[-1][1]:
        return len(bands) - 1
    return -1


def greedy_reference_matched_count(ious: np.ndarray, scores, thr: float) -> int:
    """Exhaustive oracle: max number of one-to-one matches with IoU >= thr."""
    n_pred, n_gt = ious.shape
    best = 0
    gt_idx = list(range(n_gt))
    for k in range(min(n_pred, n_gt), 0, -1):
        for pred_subset in permutations(range(n_pred), k):
            for gt_subset in permutations(gt_idx, k):
                if all(ious[p, g] >= thr for p, g in zip(pred_subset, gt_subset)):
                    return k
    return best


class TestIou3d:
    def test_identical_boxes(self):
        box = Box3D([1.0, 2.0, 5.0], [2.0, 1.0, 3.0], yaw_rotation(0.6))
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_offset_unit_cubes(self):
        # oracle: overlap slab is 0.5 x 1 x 1, union 1.5
        a = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([0.5, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        assert iou3d(a, b) == pytest.approx((0.5 / 1.5), abs=1e-9)

    def test_touching_boxes(self):
        a = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([1.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        assert iou3d(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_boxes(self):
        a = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([10.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        assert iou3d(a, b) == 0.0

    def test_rotated_concentric_squares(self):
        # oracle: unit squares at 45 degrees overlap in a regular octagon
        # of area 2*(sqrt(2)-1); with unit height the IoU is 1/sqrt(2)
        a = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], yaw_rotation(np.pi / 4))
        area = 2.0 * (np.sqrt(2.0) - 1.0)
        expected = area / (2.0 - area)
        got = iou3d(a, b)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
        assert got == pytest.approx(mc_iou3d(a, b, 1_000_000, 0), abs=0.01)

    def test_contained_box(self):
        a = Box3D([0.0, 0.0, 5.0], [2.0, 2.0, 2.0], np.eye(3))
        b = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], yaw_rotation(0.3))
        assert iou3d(a, b) == pytest.approx(1.0 / 8.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs_against_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng), random_box(rng)
        b = Box3D(a.center + rng.normal(scale=1.0, size=3), b.dims, b.rotation)
        exact = iou3d(a, b)
        assert abs(exact - mc_iou3d(a, b, 200_000, seed)) < 0.02

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            b = Box3D(a.center + rng.normal(scale=1.5, size=3), b.dims, b.rotation)
            assert abs(iou3d(a, b) - iou3d(b, a)) < 1e-9

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a, b = random_box(rng), random_box(rng)
            b = Box3D(a.center + rng.normal(scale=1.0, size=3), b.dims, b.rotation)
            base = iou3d(a, b)
            pose = Pose(yaw_rotation(rng.uniform(-np.pi, np.pi)),
                        rng.normal(scale=5.0, size=3))
            a2 = Box3D(pose.apply(a.center), a.dims, pose.rotation @ a.rotation)
            b2 = Box3D(pose.apply(b.center), b.dims, pose.rotation @ b.rotation)
            assert abs(iou3d(a2, b2) - base) < 1e-9

    def test_degenerate_box_rejected(self):
        good = Box3D([0, 0, 5], [1, 1, 1], np.eye(3))
        with pytest.raises(ValueError):
            iou3d(good, Box3D([0, 0, 5], [1e-5, 1e-5, 1e-5], np.eye(3)))

    def test_tilted_copy(self):
        # a 0.4 rad tilt about x against its own yaw-only copy: the IoU is
        # about 0.585 (a 2M-sample Monte-Carlo estimate agrees), where a
        # footprint-times-height overlap would read 1.0
        upright = Box3D([0, 0, 5], [1.8, 1.5, 4.2], yaw_rotation(0.3))
        tilt = np.array([[1.0, 0.0, 0.0],
                         [0.0, np.cos(0.4), -np.sin(0.4)],
                         [0.0, np.sin(0.4), np.cos(0.4)]])
        tilted = Box3D(upright.center, upright.dims, tilt @ upright.rotation)
        assert iou3d(upright, tilted) == pytest.approx(0.585, abs=5e-3)

    def test_unknown_method_rejected(self):
        box = Box3D([0, 0, 5], [1, 1, 1], np.eye(3))
        scored = Box3D([0, 0, 5], [1, 1, 1], np.eye(3), score=1.0)
        for method in ("fast", "yaw"):
            with pytest.raises(ValueError, match="unknown method"):
                iou3d(box, box, method=method)
            with pytest.raises(ValueError, match="unknown method"):
                match_and_ap([scored], [box], method=method)


class TestIou3dFullRotations:
    """Properties over quaternion-drawn rotations, pitch and roll included."""

    @settings(deadline=None, max_examples=150)
    @given(rotated_pairs())
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        iou = iou3d(a, b)
        assert 0.0 <= iou <= 1.0
        assert abs(iou - iou3d(b, a)) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(rotated_pairs(), rotations, st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    def test_rigid_motion_invariance(self, pair, rot, shift):
        a, b = pair
        pose = Pose(rot, np.array(shift))
        moved = [Box3D(pose.apply(box.center), box.dims, rot @ box.rotation)
                 for box in (a, b)]
        assert abs(iou3d(*moved) - iou3d(a, b)) <= 1e-9

    @settings(deadline=None, max_examples=100)
    @given(rotated_pairs(), directions, st.floats(1e-6, 3.0))
    @example(pair=(Box3D([0, 0, 0], [1, 1, 2],
                         quaternion_rotation((0.0, 1.0, -0.125, -1.661666221934088e-06))),
                   Box3D([0, 0, 0], [1, 1, 1], quaternion_rotation((0.0, 1.0, -0.0625, 0.0)))),
             direction=np.array([0.0, 1.0, 0.0]), gap=1.0)   # the simplex LP gives no verdict
    def test_sphere_disjoint_pairs_score_exactly_zero(self, pair, direction, gap):
        a, b = pair
        radii = 0.5 * (np.linalg.norm(a.dims) + np.linalg.norm(b.dims))
        b = Box3D(a.center + (radii + gap) * direction, b.dims, b.rotation)
        assert iou3d(a, b) == 0.0
        assert halfspace_iou3d(a, b) == 0.0

    @settings(deadline=None, max_examples=300)
    @given(rotated_pairs())
    def test_matches_halfspace_oracle(self, pair):
        a, b = pair
        expected = halfspace_iou3d(a, b)
        assume(expected is not None)
        assert abs(iou3d(a, b) - expected) <= 1e-9


GROUND_Y = 1.8  # outdoor boxes rest on y = 1.8 (camera frame, y down)


def nearly_parallel(a, b) -> bool:
    """Whether two yaw-only boxes have vertical faces that meet at an angle
    below 1e-6 rad without being parallel."""
    turn = np.abs((a.rotation.T @ b.rotation)[0, [0, 2]])
    return bool(np.any((turn > 0.0) & (turn < 1e-6)))


@st.composite
def grounded_yaw_pairs(draw, near_parallel=False):
    """Two yaw-only boxes resting on one ground plane, as outdoors.  Near
    parallel, b's yaw is a's turned by a multiple of pi/2 and 1e-16 to
    1e-6 rad, so that vertical faces meet in slivers; otherwise the yaws
    are drawn apart and pairs nearly parallel by chance are left out."""
    def box(center, yaw):
        dims = np.array(draw(extents))
        center = np.array([center[0], GROUND_Y - 0.5 * dims[1], center[1]])
        return Box3D(center, dims, yaw_rotation(yaw))

    x, z = draw(st.floats(-5.0, 5.0)), draw(st.floats(2.0, 60.0))
    dx, dz = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    yaw = draw(st.floats(-np.pi, np.pi))
    if near_parallel:
        turn = (draw(st.integers(-2, 2)) * np.pi / 2
                + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-16.0, -6.0)))
        other = yaw + turn
    else:
        other = draw(st.floats(-np.pi, np.pi))
    a, b = box((x, z), yaw), box((x + dx, z + dz), other)
    assume(near_parallel == nearly_parallel(a, b))
    return a, b


@st.composite
def flush_pairs(draw, kinds=("contained", "overlapping", "stacked")):
    """Two boxes of one rotation, b flush with a on 1-3 axes: on each, b's
    face lies on a's face plane on the same side (b contained in a when
    ``contained``), or b is stacked on a's face and only touches it."""
    rot = draw(rotations)
    a = Box3D(np.array(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3))), draw(extents), rot)
    kind = draw(st.sampled_from(kinds))
    dims_b = np.array(draw(extents))
    if kind == "contained":
        dims_b = np.minimum(dims_b, a.dims)
    room = 0.5 * (a.dims - dims_b)   # b's offset with one face on a's
    flush = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
    side = np.array(draw(st.tuples(*[st.sampled_from((-1.0, 1.0))] * 3)))
    spread = room if kind == "contained" else 0.5 * (a.dims + dims_b)
    local = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) * spread
    for axis in flush:
        local[axis] = side[axis] * room[axis]
    if kind == "stacked":
        axis = min(flush)
        local[axis] = side[axis] * 0.5 * (a.dims[axis] + dims_b[axis])
    return a, Box3D(a.center + rot @ local, dims_b, rot)


@st.composite
def sphere_disjoint_pairs(draw):
    """A rotated pair moved apart until its bounding spheres are disjoint."""
    a, b = draw(rotated_pairs())
    radii = 0.5 * (np.linalg.norm(a.dims) + np.linalg.norm(b.dims))
    gap = draw(st.floats(1e-6, 3.0))
    return a, Box3D(a.center + (radii + gap) * draw(directions), b.dims, b.rotation)


@st.composite
def touching_pairs(draw):
    """Two boxes of one rotation that share part of a face plane."""
    rot = draw(rotations)
    a = Box3D(np.array(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3))), draw(extents), rot)
    dims_b = np.array(draw(extents))
    axis, side = draw(st.integers(0, 2)), draw(st.sampled_from((-1.0, 1.0)))
    shift = side * 0.5 * (a.dims[axis] + dims_b[axis]) * rot[:, axis]
    return a, Box3D(a.center + shift, dims_b, rot)


@st.composite
def coincident_pairs(draw):
    a, _ = draw(rotated_pairs())
    return a, Box3D(a.center, a.dims, a.rotation)


mixed_pairs = st.one_of(rotated_pairs(), sphere_disjoint_pairs(), touching_pairs(),
                        coincident_pairs())


@st.composite
def turned_flush_pairs(draw):
    """A contained or overlapping flush pair with b turned by 1e-10 to 0.1
    rad about one of its own axes (the faces across it keep sharing their
    planes) or a random axis, so that faces which shared a plane now cross
    almost flat."""
    a, b = draw(flush_pairs(("contained", "overlapping")))
    angle = 10.0 ** draw(st.floats(-10.0, -1.0))
    axis = draw(st.one_of(st.sampled_from(list(np.eye(3))), directions))
    turn = quaternion_rotation(np.r_[np.cos(angle / 2), np.sin(angle / 2) * axis])
    return a, Box3D(b.center, b.dims, b.rotation @ turn)


class TestSharedFacePlanes:
    """Pairs whose face planes coincide or almost coincide, the cases a
    face-area volume must count once: yaw-only boxes on one ground plane,
    boxes stacked flush, identical copies and contained boxes sharing 1-3
    faces, and such pairs turned slightly."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(grounded_yaw_pairs(), flush_pairs(), coincident_pairs()))
    def test_matches_halfspace_oracle(self, pair):
        a, b = pair
        expected = halfspace_iou3d(a, b)
        assume(expected is not None)
        assert abs(iou3d(a, b) - expected) <= 1e-12
        assert abs(iou3d(b, a) - expected) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(flush_pairs(("stacked",)))
    def test_stacked_pairs_score_zero(self, pair):
        # they only touch; the oracle cannot tell touching from a thin
        # overlap, so it leaves these to this test
        a, b = pair
        assert iou3d(a, b) <= 1e-12 and iou3d(b, a) <= 1e-12

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(turned_flush_pairs(), grounded_yaw_pairs(near_parallel=True)))
    @example(pair=(Box3D([0.0, 1.3, 2.0], [1.0, 1.0, 1.0], yaw_rotation(0.0)),
                   Box3D([0.0, 1.3, 2.0], [1.0, 1.0, 1.0], yaw_rotation(1e-12))))
    def test_turned_pairs_match_halfspace_oracle(self, pair):
        # the oracle cannot measure a thin overlap, so only overlaps it sees;
        # vertices admitted up to 1e-12 outside a box (qhull's too, before)
        # move such an IoU by up to about 1e-11: the example, a cube and
        # its copy yawed by 1e-12 rad, is off by 1.00009e-12
        a, b = pair
        expected = halfspace_iou3d(a, b)
        assume(expected is not None)
        assert abs(iou3d(a, b) - expected) <= 1e-10
        assert abs(iou3d(b, a) - expected) <= 1e-10

    @pytest.mark.parametrize("angle", [1e-7, 1e-4, 1e-2, 0.05])
    def test_touching_cubes_turned_slightly_meet_in_a_wedge(self, angle):
        # b turned about its own z axis pushes one edge into a: a triangular
        # prism with legs (c + s - 1) / (2c) and (c + s - 1) / (2s), height 1
        c, s = np.cos(angle), np.sin(angle)
        a = Box3D([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([1.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.array([[c, -s, 0.0], [s, c, 0.0],
                                                             [0.0, 0.0, 1.0]]))
        wedge = (0.5 * (c + s) - 0.5) ** 2 / (2.0 * s * c)
        assert abs(iou3d(a, b) - wedge / (2.0 - wedge)) <= 1e-15
        # the oracle cannot measure a wedge this thin, but must not call it empty
        assert halfspace_iou3d(a, b) != 0.0

    def test_contained_box_sharing_three_faces(self):
        a = Box3D([0.0, 0.0, 5.0], [2.0, 2.0, 2.0], yaw_rotation(0.4))
        b = Box3D(a.center + a.rotation @ [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], a.rotation)
        assert iou3d(a, b) == pytest.approx(0.125, abs=1e-15)
        assert iou3d(a, a) == 1.0


class TestPairIous:
    """The batched core against its own one-pair call, bit for bit."""

    @staticmethod
    def batch(pairs) -> np.ndarray:
        index = np.arange(len(pairs))
        return _pair_ious(_stack([a for a, _ in pairs]), _stack([b for _, b in pairs]),
                          index, index)

    @settings(deadline=None, max_examples=150)
    @given(st.lists(mixed_pairs, min_size=1, max_size=12), st.data())
    def test_batch_equals_one_pair_calls_in_any_order(self, pairs, data):
        got = self.batch(pairs)
        expected = np.array([iou3d(a, b) for a, b in pairs])
        assert got.tobytes() == expected.tobytes()
        order = data.draw(st.permutations(range(len(pairs))))
        assert self.batch([pairs[k] for k in order]).tobytes() == got[order].tobytes()
        # the b boxes stacked in another order, pairs named by index, some
        # more than once
        picks = np.array(data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=12)),
                         dtype=np.int64)
        order = data.draw(st.permutations(range(len(pairs))))
        indexed = _pair_ious(_stack([a for a, _ in pairs]), _stack([pairs[k][1] for k in order]),
                             picks, np.argsort(order)[picks])
        assert indexed.tobytes() == got[picks].tobytes()

    def test_empty_batch(self):
        assert self.batch([]).shape == (0,)

    def test_sphere_test_reads_each_pairs_own_boxes(self):
        # pair 0 overlaps only through its large b, and the b stack puts
        # pair 1's tiny b first: a radius read at the wrong index rejects it
        eye = np.eye(3)
        pairs = [(Box3D([0, 0, 0], [1, 1, 1], eye), Box3D([2.2, 0, 0], [4, 4, 4], eye)),
                 (Box3D([9, 0, 0], [1, 1, 1], eye), Box3D([9, 0, 0], [0.1, 0.1, 0.1], eye))]
        expected = np.array([iou3d(a, b) for a, b in pairs])
        assert expected[0] > 0.0
        got = _pair_ious(_stack([a for a, _ in pairs]), _stack([pairs[1][1], pairs[0][1]]),
                         [0, 1, 0], [1, 0, 1])
        assert got.tobytes() == expected[[0, 1, 0]].tobytes()


def former_face_order(angle, group) -> np.ndarray:
    """The former face order: a stable sort by angle, then a stable sort
    by group."""
    order = np.argsort(angle, kind="stable")
    return order[np.argsort(group[order], kind="stable")]


@st.composite
def face_incidences(draw):
    """Angles and groups of (vertex, face) incidences: angles drawn from a
    few exact values (0.0, -0.0, +-pi and other repeats) or at random, so
    that equal angles fall in one group and across groups, and groups
    drawn among a few or among many."""
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = rng.uniform(-np.pi, np.pi, n)
    repeats = np.array([0.0, -0.0, np.pi, -np.pi, 0.5, -2.0, np.nextafter(0.5, 1.0)])
    tied = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9, 1.0]))
    angle[tied] = rng.choice(repeats, int(tied.sum()))
    n_groups = draw(st.sampled_from([1, 3, max(n // 3, 1), 12 * n + 1]))
    return angle, rng.integers(0, n_groups, n)


class TestFaceOrder:
    """The face order from quicksorts of unique keys against the two
    stable sorts it replaced, index for index."""

    @staticmethod
    def order(angle, group) -> np.ndarray:
        return _face_order(angle, group, np.bincount(group, minlength=1))

    @settings(deadline=None, max_examples=200)
    @given(face_incidences())
    def test_equals_two_stable_sorts(self, case):
        angle, group = case
        assert np.array_equal(self.order(angle, group), former_face_order(angle, group))

    def test_no_key_overflows_past_the_group_rank_index_key(self):
        # a key (group * n + angle rank) * n + index reaches 2**63 here:
        # 2**21 incidences in 2**21 groups
        rng = np.random.default_rng(7)
        n = 2**21 + 5
        angle = rng.choice(np.linspace(-np.pi, np.pi, 1001), n)
        group = rng.integers(0, n, n)
        group[:2] = n - 1
        assert (n - 1) * n * n > 2**63
        assert np.array_equal(self.order(angle, group), former_face_order(angle, group))


def former_aps(tp, member, n_gt: int) -> list:
    """The former AP pass: every row's series against one ground-truth
    count."""
    if n_gt == 0:
        return [0.0 if any_ else None for any_ in member.any(axis=1).tolist()]
    hits = tp & member
    precision = hits.cumsum(axis=1) / np.maximum(member.cumsum(axis=1), 1)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1][hits]
    ends = np.cumsum(hits.sum(axis=1)).tolist()
    return [float(envelope[lo:hi].sum() / n_gt) for lo, hi in zip([0] + ends, ends)]


class TestStackedAps:
    """One AP pass over the stacked all/band series of a category against
    one former pass per series, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 11), st.integers(0, 60), st.integers(0, 4), st.data())
    def test_equals_one_pass_per_series(self, n_thr, n_pred, n_bands, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tp = rng.random((n_thr, n_pred)) < data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        band = rng.integers(-1, n_bands, (n_thr, n_pred))
        n_gt = data.draw(st.lists(st.integers(0, 40), min_size=n_bands + 1,
                                  max_size=n_bands + 1))
        members = [np.ones_like(tp)] + [band == b for b in range(n_bands)]
        expected = sum((former_aps(tp, m, n) for m, n in zip(members, n_gt)), [])
        got = _aps(np.tile(tp, (n_bands + 1, 1)), np.concatenate(members),
                   np.repeat(n_gt, n_thr).tolist())
        assert json.dumps(got) == json.dumps(expected)
        assert [type(v) for v in got] == [type(v) for v in expected]


class TestMatchAndAp:
    def gt(self, z=5.0, cat=0, image=0):
        return (image, Box3D([0.0, 0.0, z], [2.0, 2.0, 2.0], np.eye(3), category=cat))

    def pred(self, z=5.0, cat=0, score=1.0, image=0, offset=0.0):
        return (image, Box3D([offset, 0.0, z], [2.0, 2.0, 2.0], np.eye(3),
                             category=cat, score=score))

    def test_perfect_single_prediction(self):
        result = match_and_ap([self.pred()], [self.gt()])
        assert result["headline_ap"] == 1.0
        assert result["ap25"] == 1.0 and result["ap50"] == 1.0

    def test_perfect_detector_scores_exactly_one(self):
        # 24 boxes: summing 24 recall steps of 1/24 would give 0.9999999999999999
        gts = [self.gt(z=3.0 * k + 4.0, image=k % 5) for k in range(24)]
        preds = [(img, Box3D(b.center, b.dims, b.rotation, score=1.0)) for img, b in gts]
        result = match_and_ap(preds, gts)
        assert set(result["per_category"]["0"].values()) == {1.0}
        assert result["headline_ap"] == 1.0

    def test_fp_then_tp_gives_half(self):
        # ranked [FP (score .9), TP (score .8)] over one ground truth
        preds = [self.pred(score=0.9, offset=50.0), self.pred(score=0.8)]
        result = match_and_ap(preds, [self.gt()])
        assert result["ap50"] == pytest.approx(0.5)
        assert result["headline_ap"] == pytest.approx(0.5)

    def test_missing_category_undefined_and_excluded(self):
        result = match_and_ap([self.pred(cat=0)], [self.gt(cat=0)],
                              MatchConfig(iou_thresholds=(0.25, 0.5)))
        assert result["per_category"]["0"]["0.50"] == 1.0
        assert "1" not in result["per_category"]
        assert result["headline_ap"] == 1.0

    def test_gt_without_predictions_scores_zero(self):
        result = match_and_ap([], [self.gt()])
        assert result["headline_ap"] == 0.0

    def test_predictions_without_gt_score_zero(self):
        result = match_and_ap([self.pred(cat=3)], [self.gt(cat=0)])
        assert result["per_category"]["3"]["0.50"] == 0.0
        assert result["per_category"]["0"]["0.50"] == 0.0

    def test_score_scale_invariance(self):
        rng = np.random.default_rng(16)
        gts, preds = [], []
        for i in range(12):
            gts.append(self.gt(z=4.0 + i, image=i % 3))
            preds.append(self.pred(z=4.0 + i + rng.uniform(-0.3, 0.3),
                                   score=rng.uniform(0.2, 0.9), image=i % 3))
        base = match_and_ap(preds, gts)
        scaled_preds = [
            (img, Box3D(b.center, b.dims, b.rotation, b.category, b.score * 0.5))
            for img, b in preds]
        scaled = match_and_ap(scaled_preds, gts)
        assert base == scaled

    def test_adding_low_score_fp_never_increases_ap(self):
        rng = np.random.default_rng(17)
        gts = [self.gt(z=4.0 + i) for i in range(6)]
        preds = [self.pred(z=4.0 + i + rng.uniform(-0.4, 0.4),
                           score=rng.uniform(0.5, 1.0)) for i in range(6)]
        base = match_and_ap(preds, gts)["headline_ap"]
        with_fp = preds + [self.pred(z=60.0, score=0.01)]
        assert match_and_ap(with_fp, gts)["headline_ap"] <= base + 1e-12

    def test_adding_top_score_tp_never_decreases_ap(self):
        rng = np.random.default_rng(18)
        gts = [self.gt(z=4.0 + i) for i in range(5)] + [self.gt(z=40.0)]
        preds = [self.pred(z=4.0 + i + rng.uniform(-0.4, 0.4),
                           score=rng.uniform(0.3, 0.9)) for i in range(5)]
        base = match_and_ap(preds, gts)["headline_ap"]
        boosted = preds + [self.pred(z=40.0, score=1.0)]
        assert match_and_ap(boosted, gts)["headline_ap"] >= base - 1e-12

    def test_greedy_equals_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(19)
        thr = 0.25
        for _ in range(200):
            n_gt = int(rng.integers(1, 3))
            n_pred = int(rng.integers(1, 5 - n_gt))
            gts = [random_box(rng, 2.0, 10.0) for _ in range(n_gt)]
            preds = []
            for i in range(n_pred):
                base = gts[int(rng.integers(0, n_gt))]
                center = base.center + rng.normal(scale=0.8, size=3)
                preds.append(Box3D(center, base.dims, base.rotation,
                                   score=float(rng.uniform(0.1, 1.0))))
            ious = np.array([[iou3d(p, g) for g in gts] for p in preds])
            result = match_and_ap(preds, gts, MatchConfig(iou_thresholds=(thr,)))
            # recover matched count from the AP bookkeeping
            ev_matched = 0
            order = np.argsort([-p.score for p in preds], kind="stable")
            taken = np.zeros(n_gt, dtype=bool)
            for pi in order:
                cands = np.where(~taken & (ious[pi] >= thr))[0]
                if cands.size:
                    taken[cands[np.argmax(ious[pi][cands])]] = True
                    ev_matched += 1
            assert ev_matched == greedy_reference_matched_count(
                ious, [p.score for p in preds], thr)

    def test_prediction_without_score_rejected(self):
        with pytest.raises(ValueError):
            match_and_ap([(0, Box3D([0, 0, 5], [1, 1, 1], np.eye(3)))], [self.gt()])


class TestDegenerateBoxes:
    """A box below the volume floor fails the eval only when it is paired."""

    tiny = Box3D([0.0, 0.0, 5.0], [1e-5, 1e-5, 1e-5], np.eye(3), category=0)

    def box(self, z=5.0, cat=0, score=None):
        return Box3D([0.0, 0.0, z], [2.0, 2.0, 2.0], np.eye(3), category=cat, score=score)

    @pytest.mark.parametrize("z", [5.0, 60.0])
    def test_paired_degenerate_box_raises(self, z):
        # at z=60 the pair is sphere-disjoint: the volume check comes first
        scored = Box3D(self.tiny.center, self.tiny.dims, self.tiny.rotation, score=0.5)
        for preds, gts in (([(0, self.box(z, score=0.9))], [(0, self.tiny)]),
                           ([(0, scored)], [(0, self.box(z))])):
            with pytest.raises(ValueError) as exc:
                match_and_ap(preds, gts)
            assert str(exc.value) == "degenerate (near-zero volume) box"

    @pytest.mark.parametrize("image, cat", [(1, 0), (0, 1)])
    def test_unpaired_degenerate_box_scores_normally(self, image, cat):
        tiny = Box3D(self.tiny.center, self.tiny.dims, self.tiny.rotation, category=cat)
        regular = self.box(cat=cat)
        preds = [(0, self.box(score=0.9))]
        expected = match_and_ap(preds, [(0, self.box()), (image, regular)])
        assert match_and_ap(preds, [(0, self.box()), (image, tiny)]) == expected


class TestOverflowingBoxes:
    """A paired box whose volume or diagonal overflows float64 is refused
    with one ValueError and no warning; centres too far apart for float64
    only make a pair sphere-disjoint."""

    huge = Box3D([0.0, 0.0, 5.0], [1e110] * 3, np.eye(3))
    long = Box3D([0.0, 0.0, 5.0], [1e160, 1.0, 1.0], np.eye(3))
    message = "box too large: its volume or diagonal overflows float64"

    @pytest.mark.parametrize("box", [huge, long], ids=["volume", "diagonal"])
    def test_iou3d_refuses(self, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.message):
                iou3d(box, box)
            with pytest.raises(ValueError, match=self.message):
                iou3d(box, Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3)))

    @pytest.mark.parametrize("box", [huge, long], ids=["volume", "diagonal"])
    def test_eval_refuses_a_paired_box(self, box):
        scored = Box3D(box.center, box.dims, box.rotation, score=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.message):
                match_and_ap([scored], [box])
            # unpaired, in another image, it scores like any box
            unit = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
            one = match_and_ap([(0, Box3D(unit.center, unit.dims, unit.rotation, score=1.0))],
                               [(0, unit), (1, box)])
        assert one["per_category"]["0"]["0.50"] == 0.5

    def test_two_volumes_that_overflow_together_are_refused(self):
        side = 0.8 * np.finfo(float).max ** (1 / 3)
        box = Box3D([0.0, 0.0, 5.0], [side] * 3, np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(box.volume)
            with pytest.raises(ValueError, match=self.message):
                iou3d(box, box)

    def test_overflowing_centre_distance_is_sphere_disjoint(self):
        a = Box3D([1e300, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        b = Box3D([-1e300, 0.0, 5.0], [1.0, 1.0, 1.0], np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou3d(a, b) == 0.0


class TestAllThresholdMatcher:
    """The one-pass matcher keeps one taken row per threshold."""

    bands = MatchConfig().depth_bands

    def cube(self, x, score=None):
        return Box3D([x, 0.0, 5.0], [2.0, 2.0, 2.0], np.eye(3), score=score)

    def test_equal_ious_take_the_first_ground_truth(self):
        pred = self.cube(0.0, score=1.0)
        right, left = self.cube(0.5), self.cube(-0.5)
        assert iou3d(pred, right) == iou3d(pred, left)
        for gts in ([right, left], [left, right]):
            cat = _Evaluation([(0, pred)], [(0, g) for g in gts], self.bands)
            assert cat.match([0.1, 0.5]).tolist() == [[0], [0]]

    def test_taken_at_a_low_threshold_stays_free_at_a_high_one(self):
        # IoU 1/3 for the first prediction, 1.8/2.2 for the second
        preds = [(0, self.cube(1.0, score=0.9)), (0, self.cube(0.2, score=0.5))]
        gts = [(0, self.cube(0.0))]
        cat = _Evaluation(preds, gts, self.bands)
        assert cat.match([0.10, 0.50]).tolist() == [[0, -1], [-1, 0]]
        result = match_and_ap(preds, gts, MatchConfig(iou_thresholds=(0.10, 0.50)))
        assert result["ap_per_threshold"] == {"0.10": 1.0, "0.25": 1.0, "0.50": 0.5}


class TestDepthBands:
    def test_all_near(self):
        cfg = MatchConfig()
        gts = [(0, Box3D([3.0 * k, 0, 5.0], [1, 1, 1], np.eye(3))) for k in range(3)]
        preds = [(img, Box3D(b.center, b.dims, b.rotation, score=0.9)) for img, b in gts]
        bands = match_and_ap(preds, gts, cfg)["ap_bands"]
        assert bands == {"near": 1.0, "med": None, "far": None}

    def test_edge_goes_to_higher_band(self):
        bands = ((0.0, 10.0), (10.0, 35.0), (35.0, 80.0))
        assert band_of(10.0, bands) == 1
        assert band_of(35.0, bands) == 2
        assert band_of(80.0, bands) == 2  # final band keeps its upper edge
        assert band_of(80.5, bands) == -1

    def test_partition_covers_range(self):
        bands = ((0.0, 10.0), (10.0, 35.0), (35.0, 80.0))
        rng = np.random.default_rng(20)
        zs = np.r_[rng.uniform(0, 80, 500), [0.0, 10.0, 35.0, 80.0]]
        hits = [band_of(float(z), bands) for z in zs]
        assert all(h >= 0 for h in hits)
        # oracle: recount by interval membership
        for z, h in zip(zs, hits):
            lo, hi = bands[h]
            assert lo <= z <= hi

    def test_matched_prediction_follows_gt_band(self):
        cfg = MatchConfig(iou_thresholds=(0.5,), depth_bands=((0.0, 10.0), (10.0, 80.0)),
                          band_names=("near", "far"))
        gts = [(0, Box3D([0, 0, 9.9], [1, 1, 1], np.eye(3)))]
        # prediction center lands in the far band but matches the near gt
        preds = [(0, Box3D([0, 0, 10.2], [1, 1, 1], np.eye(3), score=1.0))]
        assert match_and_ap(preds, gts, cfg)["ap_bands"] == {"near": 1.0, "far": None}
        # unmatched (IoU 0.54 < 0.6), it follows its own center: the near
        # gt is missed and the far band holds only a false positive
        strict = MatchConfig(iou_thresholds=(0.6,), depth_bands=cfg.depth_bands,
                             band_names=cfg.band_names)
        assert match_and_ap(preds, gts, strict)["ap_bands"] == {"near": 0.0, "far": 0.0}

    def test_band_ap_perfect_predictions(self):
        cfg = MatchConfig()
        gts = [(0, Box3D([0, 0, z], [2, 2, 2], np.eye(3))) for z in (5.0, 20.0, 50.0)]
        preds = [(i, Box3D(b.center, b.dims, b.rotation, score=1.0))
                 for (i, b) in gts]
        result = match_and_ap(preds, gts, cfg)
        assert result["ap_bands"] == {"near": 1.0, "med": 1.0, "far": 1.0}


class TestMatchConfigValidation:
    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_thresholds=(0.5, 0.25))

    def test_thresholds_in_open_interval(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_thresholds=(0.0, 0.5))

    def test_bands_must_not_overlap(self):
        with pytest.raises(ValueError):
            MatchConfig(depth_bands=((0.0, 10.0), (5.0, 20.0)),
                        band_names=("a", "b"))

    def test_band_names_must_align(self):
        with pytest.raises(ValueError):
            MatchConfig(depth_bands=((0.0, 10.0),), band_names=("a", "b"))


def reference_match_and_ap(preds, gts, cfg: MatchConfig) -> dict:
    """Greedy matching per image in stable score order, written out plainly.

    A matched prediction counts in its ground truth's depth band and an
    unmatched one in its own centre's; AP sums the precision envelope at
    each true positive and divides by the ground-truth count."""
    def ap(flags, n_gt):
        if n_gt == 0:
            return None if not flags else 0.0
        precision = [sum(flags[:k + 1]) / (k + 1) for k in range(len(flags))]
        return sum(max(precision[k:]) for k, f in enumerate(flags) if f) / n_gt

    def band(box):
        return band_of(float(box.center[2]), cfg.depth_bands)

    cats = sorted({b.category for _, b in preds + gts})
    thresholds = sorted(set(cfg.iou_thresholds) | {0.25, 0.5})
    per_cat, mean_at, band_aps = {str(c): {} for c in cats}, {}, {n: [] for n in cfg.band_names}
    for thr in thresholds:
        aps = []
        for cat in cats:
            ranked = sorted([r for r in preds if r[1].category == cat], key=lambda r: -r[1].score)
            truth = [r for r in gts if r[1].category == cat]
            taken, flags, bands = set(), [], []
            for img, p in ranked:
                best, best_iou = None, thr
                for j, (g_img, g) in enumerate(truth):
                    iou = iou3d(p, g) if g_img == img and j not in taken else -1.0
                    if iou >= best_iou and (best is None or iou > best_iou):
                        best, best_iou = j, iou
                taken |= {best} - {None}
                flags.append(best is not None)
                bands.append(band(p) if best is None else band(truth[best][1]))
            per_cat[str(cat)][f"{thr:.2f}"] = a = ap(flags, len(truth))
            aps += [a] if a is not None else []
            for b, name in enumerate(cfg.band_names if thr in cfg.iou_thresholds else ()):
                a = ap([f for f, fb in zip(flags, bands) if fb == b],
                       sum(band(g) == b for _, g in truth))
                band_aps[name] += [a] if a is not None else []
        mean_at[thr] = float(np.mean(aps)) if aps else None
    headline = [mean_at[t] for t in cfg.iou_thresholds if mean_at[t] is not None]
    return {"per_category": per_cat,
            "ap_per_threshold": {f"{t:.2f}": mean_at[t] for t in thresholds},
            "ap25": mean_at[0.25], "ap50": mean_at[0.5],
            "ap_bands": {n: float(np.mean(v)) if v else None for n, v in band_aps.items()},
            "headline_ap": float(np.mean(headline)) if headline else None}


def assert_same_metrics(actual, expected):
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        for key in expected:
            assert_same_metrics(actual[key], expected[key])
    elif expected is None:
        assert actual is None
    else:
        assert actual is not None and abs(actual - expected) <= 1e-12


@st.composite
def eval_inputs(draw):
    """1-3 images and 1-3 categories of unit cubes on a coarse lattice, so
    overlaps, equal scores and band edges are common; predictions may use
    one category more than the ground truth has."""
    n_img, n_cat = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x = st.sampled_from([0.0, 0.3, 0.6, 3.0])
    z = st.sampled_from([2.0, 3.8, 4.2, 5.0, 6.2, 8.0])  # 4.2 and 5.0 lie in the gap

    def box(cat, xv, zv, score=None):
        return Box3D([xv, 0.0, zv], [1.0, 1.0, 1.0], np.eye(3), cat, score)

    gts = draw(st.lists(st.builds(lambda i, c, xv, zv: (i, box(c, xv, zv)),
                                  st.integers(0, n_img - 1), st.integers(0, n_cat - 1), x, z),
                        max_size=6))
    preds = draw(st.lists(st.builds(lambda i, c, xv, zv, s: (i, box(c, xv, zv, s)),
                                    st.integers(0, n_img - 1), st.integers(0, n_cat), x, z,
                                    st.sampled_from([0.2, 0.5, 0.5, 0.9])),
                          max_size=8))
    thresholds = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7]), min_size=1, unique=True))
    return preds, gts, tuple(sorted(thresholds))


class TestMatchingReference:
    @given(eval_inputs())
    @settings(deadline=None, max_examples=200)
    def test_matches_plain_reference(self, case):
        preds, gts, thresholds = case
        cfg = MatchConfig(iou_thresholds=thresholds, depth_bands=((0.0, 4.0), (6.0, 10.0)),
                          band_names=("near", "far"))
        result = match_and_ap(preds, gts, cfg)
        expected = reference_match_and_ap(preds, gts, cfg)
        assert_same_metrics({k: result[k] for k in expected}, expected)


def former_match_and_ap(preds, gts, cfg: Optional[MatchConfig] = None) -> dict:
    """The former per-category formulation of ``match_and_ap``: one
    ``_pair_ious`` call and one ``band_of`` call per box for each category,
    and one AP pass per (threshold, category) series and per band."""
    def ap_from_flags(tp_flags, n_gt):
        if n_gt == 0:
            return None if tp_flags.size == 0 else 0.0
        precision = np.cumsum(tp_flags) / np.arange(1.0, tp_flags.size + 1)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        return float(np.sum(envelope[tp_flags]) / n_gt)

    def category(preds, gts, bands):
        order = np.argsort([-box.score for _, box in preds], kind="stable")
        preds = [preds[i] for i in order]
        pred_img = np.array([img for img, _ in preds], dtype=np.int64)
        gt_img = np.array([img for img, _ in gts], dtype=np.int64)
        pair_pred, pair_gt = np.nonzero(pred_img[:, None] == gt_img[None, :])
        p, g = _stack([box for _, box in preds]), _stack([box for _, box in gts])
        ious = _pair_ious(p, g, pair_pred, pair_gt)
        gt_band = np.array([band_of(float(b.center[2]), bands) for _, b in gts], dtype=np.int64)
        pred_band = np.array([band_of(float(b.center[2]), bands) for _, b in preds],
                             dtype=np.int64)
        return pair_pred, pair_gt, ious, gt_band, pred_band

    def match(c, thresholds):
        pair_pred, pair_gt, ious, gt_band, pred_band = c
        thr = np.asarray(thresholds, dtype=np.float64)[:, None]
        taken = np.zeros((thr.size, gt_band.size), dtype=bool)
        matched = np.full((thr.size, pred_band.size), -1, dtype=np.int64)
        rows = np.arange(thr.size)
        viable = ious >= thr.min()
        pred, gt, ious = pair_pred[viable], pair_gt[viable], ious[viable]
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

    cfg = cfg or MatchConfig()
    gts_n = [(0, r) if isinstance(r, Box3D) else (int(r[0]), r[1]) for r in gts]
    preds_n = [(0, r) if isinstance(r, Box3D) else (int(r[0]), r[1]) for r in preds]
    categories = sorted({b.category for _, b in gts_n} | {b.category for _, b in preds_n})
    by_cat = {cat: category([r for r in preds_n if r[1].category == cat],
                            [r for r in gts_n if r[1].category == cat], cfg.depth_bands)
              for cat in categories}
    report_thresholds = sorted(set(cfg.iou_thresholds) | {0.25, 0.50})
    per_cat = {str(c): {} for c in categories}
    band_aps = {name: [] for name in cfg.band_names}
    mean_at = {}
    matched_at = {cat: match(c, report_thresholds) for cat, c in by_cat.items()}
    for row, thr in enumerate(report_thresholds):
        cat_aps = []
        for cat in categories:
            gt_band, pred_band = by_cat[cat][3:]
            matched = matched_at[cat][row]
            tp = matched >= 0
            ap = ap_from_flags(tp, gt_band.size)
            per_cat[str(cat)][f"{thr:.2f}"] = ap
            if ap is not None:
                cat_aps.append(ap)
            if thr in cfg.iou_thresholds:
                band = pred_band.copy()
                band[tp] = gt_band[matched[tp]]
                for b, name in enumerate(cfg.band_names):
                    band_ap = ap_from_flags(tp[band == b], int(np.sum(gt_band == b)))
                    if band_ap is not None:
                        band_aps[name].append(band_ap)
        mean_at[thr] = float(np.mean(cat_aps)) if cat_aps else None
    headline_vals = [mean_at[t] for t in cfg.iou_thresholds if mean_at[t] is not None]
    return {
        "per_category": per_cat,
        "ap_per_threshold": {f"{t:.2f}": mean_at[t] for t in report_thresholds},
        "ap25": mean_at.get(0.25),
        "ap50": mean_at.get(0.50),
        "ap_bands": {name: (float(np.mean(vals)) if vals else None)
                     for name, vals in band_aps.items()},
        "headline_ap": float(np.mean(headline_vals)) if headline_vals else None,
        "n_gt": len(gts_n),
        "n_pred": len(preds_n),
    }


def json_bytes(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True).encode()


@st.composite
def one_sided_inputs(draw):
    """Categories that only predictions or only ground truths use, many
    equal scores, and degenerate boxes that share no image and category
    with a box of the other list: ground truths use categories 0-2 and
    predictions 1-3, a degenerate ground truth sits in image 3 (which no
    prediction uses) and a degenerate prediction in category 3."""
    x = st.sampled_from([0.0, 0.3, 3.0])
    z = st.sampled_from([2.0, 5.0, 6.2, 30.0])

    def box(cat, xv, zv, score=None, dims=(1.0, 1.0, 1.0)):
        return Box3D([xv, 0.0, zv], dims, np.eye(3), cat, score)

    tiny = (1e-5, 1e-5, 1e-5)
    gts = draw(st.lists(st.builds(lambda i, c, xv, zv: (i, box(c, xv, zv)),
                                  st.integers(0, 2), st.integers(0, 2), x, z), max_size=8))
    gts += draw(st.lists(st.builds(lambda c, xv, zv: (3, box(c, xv, zv, dims=tiny)),
                                   st.integers(0, 2), x, z), max_size=2))
    preds = draw(st.lists(st.builds(lambda i, c, xv, zv, s: (i, box(c, xv, zv, s)),
                                    st.integers(0, 2), st.integers(1, 3), x, z,
                                    st.sampled_from([0.5, 0.5, 0.5, 0.9])), max_size=10))
    preds += draw(st.lists(st.builds(lambda i, xv, zv, s: (i, box(3, xv, zv, s, tiny)),
                                     st.integers(0, 2), x, z, st.sampled_from([0.5, 0.9])),
                           max_size=2))
    order = draw(st.permutations(range(len(preds))))
    return [preds[k] for k in order], gts


def eval_mixed_set(seed: int):
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads.eval_set(workloads.make_rng("eval_mixed", seed))


class TestFormerMatchAndAp:
    """The one-call evaluation against the former per-category one, byte
    for byte."""

    @given(eval_inputs())
    @settings(deadline=None, max_examples=200)
    def test_eval_inputs(self, case):
        preds, gts, thresholds = case
        cfg = MatchConfig(iou_thresholds=thresholds, depth_bands=((0.0, 4.0), (6.0, 10.0)),
                          band_names=("near", "far"))
        assert json_bytes(match_and_ap(preds, gts, cfg)) == json_bytes(
            former_match_and_ap(preds, gts, cfg))

    @given(one_sided_inputs())
    @settings(deadline=None, max_examples=200)
    def test_one_sided_categories_equal_scores_and_unpaired_degenerate_boxes(self, case):
        preds, gts = case
        assert json_bytes(match_and_ap(preds, gts)) == json_bytes(former_match_and_ap(preds, gts))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_eval_mixed(self, seed):
        es = eval_mixed_set(seed)
        copies = [(img, Box3D(b.center, b.dims, b.rotation, b.category, 1.0))
                  for img, b in es.gts]
        for preds in (es.preds, copies):
            assert json_bytes(match_and_ap(preds, es.gts)) == json_bytes(
                former_match_and_ap(preds, es.gts))

    def test_one_pair_ious_call_per_evaluation(self, monkeypatch):
        calls = []

        def counted(a, b, ia, ib):
            calls.append(len(ia))
            return _pair_ious(a, b, ia, ib)

        monkeypatch.setattr(bevkit.eval3d, "_pair_ious", counted)
        es = eval_mixed_set(1)
        assert len({b.category for _, b in es.gts}) > 1
        match_and_ap(es.preds, es.gts)
        assert len(calls) <= 1
        match_and_ap([], [])
        assert len(calls) <= 2


@st.composite
def sorted_bands(draw):
    """Sorted, non-overlapping bands: runs of consecutive breaks, some
    sharing an edge and some apart."""
    breaks = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8))))
    keep = draw(st.lists(st.booleans(), min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return tuple((lo, hi) for lo, hi, k in zip(breaks, breaks[1:], keep) if k)


def probe_depths(bands) -> list:
    """Each band edge and one step to either side of it, the middle of
    each band and of each gap, and depths outside every band."""
    zs = [-np.inf, np.inf, np.nan, -1e9, 1e9]
    for lo, hi in bands:
        for edge in (lo, hi):
            zs += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        zs.append(0.5 * (lo + hi))
    zs += [0.5 * (b1[1] + b2[0]) for b1, b2 in zip(bands, bands[1:])]
    return zs


class TestBandLookup:
    @given(st.one_of(st.just(MatchConfig().depth_bands), sorted_bands()),
           st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5))
    @settings(deadline=None, max_examples=300)
    def test_array_lookup_equals_band_of(self, bands, extra):
        MatchConfig(depth_bands=bands, band_names=[str(k) for k in range(len(bands))])
        zs = probe_depths(bands) + extra
        got = _bands_of(np.array(zs, dtype=np.float64), bands)
        assert got.dtype == np.int64
        assert got.tolist() == [band_of(z, bands) for z in zs]
