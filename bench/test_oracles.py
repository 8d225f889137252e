"""Tests of the benchmark's own oracles on hand-worked cases.

    PYTHONPATH=src python -m pytest -q bench/test_oracles.py
"""

import numpy as np
import pytest

import oracles
from bevkit.geom import Box3D, CameraIntrinsics
from bevkit.grid import UnevenGridSpec


def _cube(center, edge=1.0):
    return Box3D(np.asarray(center, dtype=float), np.full(3, edge), np.eye(3))


def _mc_iou(a, b, n=400_000, seed=0):
    inter, se = oracles.mc_intersection(a, b, n, np.random.default_rng(seed))
    return inter / (a.volume + b.volume - inter), se


class TestMonteCarloIoU:
    def test_identical_boxes_give_one(self):
        box = Box3D([0.3, -0.2, 5.0], [1.0, 2.0, 3.0], np.eye(3))
        iou, _ = _mc_iou(box, box)
        assert iou == 1.0

    def test_disjoint_boxes_give_zero(self):
        iou, se = _mc_iou(_cube([0, 0, 5]), _cube([0, 0, 7]))
        assert iou == 0.0
        assert se > 0.0

    def test_half_edge_shift_gives_one_third(self):
        # overlap 0.5 of a unit cube: IoU = 0.5 / (1 + 1 - 0.5) = 1/3
        a, b = _cube([0, 0, 5]), _cube([0.5, 0, 5])
        inter, se = oracles.mc_intersection(a, b, 400_000, np.random.default_rng(1))
        assert abs(inter - 0.5) <= 5 * se
        iou = inter / (2.0 - inter)
        assert iou == pytest.approx(1.0 / 3.0, abs=3e-3)


class TestZBuffer:
    def test_three_points_on_one_pixel_and_one_out_of_view(self):
        K = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=2.0, width=5, height=5)
        xyz = np.array([
            [0.0, 0.0, 4.0],    # pixel (2, 2), nearest
            [0.0, 0.0, 4.05],   # same pixel, within tol of the nearest: kept
            [0.0, 0.0, 6.0],    # same pixel, behind: occluded
            [0.0, 0.0, -1.0],   # behind the camera: out of view
        ])
        keep, in_view = oracles.zbuffer_survivors(xyz, K, tol=0.1)
        assert keep.tolist() == [True, True, False, False]
        assert in_view.tolist() == [True, True, True, False]


class TestSplat:
    def test_tau_zero_cells_by_hand(self):
        # 2 depth bins over z in [0, 4): centres 1 and 3.  One feature row,
        # two columns u = 0, 1 with cx = 0.5, fx = 1: x = (u - 0.5) * z.
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.0, width=2, height=1)
        grid = UnevenGridSpec((-2.0, 2.0), (0.0, 4.0), 2, 2, np.array([0.0, 2.0, 4.0]))
        feats = np.array([[[2.0, 5.0]]])                 # (C=1, H=1, W=2)
        probs = np.array([[[0.25, 0.5]], [[0.75, 0.5]]])  # (bins=2, H=1, W=2)
        out = oracles.splat(feats, probs, K, grid, 0.0)
        # entry (bin, u): x, z -> cell (iz, ix), contribution w * F
        #   (0, 0): x = -0.5, z = 1 -> (0, 0), 0.25 * 2 = 0.5
        #   (0, 1): x = +0.5, z = 1 -> (0, 1), 0.5 * 5 = 2.5
        #   (1, 0): x = -1.5, z = 3 -> (1, 0), 0.75 * 2 = 1.5
        #   (1, 1): x = +1.5, z = 3 -> (1, 1), 0.5 * 5 = 2.5
        assert out.bev[0].tolist() == [[0.5, 2.5], [1.5, 2.5]]
        assert out.count.tolist() == [[1, 1], [1, 1]]
        assert out.in_grid == 4

    def test_off_grid_entries_are_dropped(self):
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.0, width=2, height=1)
        grid = UnevenGridSpec((-1.0, 1.0), (0.0, 4.0), 2, 2, np.array([0.0, 2.0, 4.0]))
        feats = np.array([[[2.0, 5.0]]])
        probs = np.array([[[0.25, 0.5]], [[0.75, 0.5]]])
        out = oracles.splat(feats, probs, K, grid, 0.0)
        # at z = 3 both rays leave the lateral range |x| <= 1
        assert out.in_grid == 2
        assert out.bev[0].tolist() == [[0.5, 2.5], [0.0, 0.0]]
