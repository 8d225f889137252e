import numpy as np
import pytest

from bevkit.geom import CameraIntrinsics, PointCloud, project_point
from bevkit.grid import build_grid
from bevkit.pointpipe import (
    DepthMap,
    depthmap_to_cloud,
    image_confidence_mask,
    occupancy_mask,
    pillarize,
    unify_stats,
    unify_visible,
    visibility_filter,
)


def brute_force_visible(pc: PointCloud, K: CameraIntrinsics, tol: float):
    """Independent oracle: scan all points per pixel with the scalar API."""
    min_depth = {}
    cells = []
    for p in pc.points:
        proj = project_point(p[:3], K)
        if not proj.in_view:
            cells.append(None)
            continue
        cell = (int(np.floor(proj.u + 0.5)), int(np.floor(proj.v + 0.5)))
        cells.append(cell)
        if cell not in min_depth or proj.z < min_depth[cell]:
            min_depth[cell] = proj.z
    keep = []
    for i, cell in enumerate(cells):
        if cell is not None and pc.points[i, 2] <= min_depth[cell] + tol:
            keep.append(i)
    return keep


class TestDepthmapToCloud:
    def test_constant_depth(self, small_k):
        dm = DepthMap(np.full((8, 8), 5.0))
        cloud = depthmap_to_cloud(dm, small_k)
        assert len(cloud) == 64
        np.testing.assert_array_equal(cloud.xyz[:, 2], 5.0)
        np.testing.assert_array_equal(cloud.intensity, 1.0)

    def test_single_valid_pixel(self, default_k):
        depths = np.zeros((480, 640))
        depths[240, 420] = 10.0
        cloud = depthmap_to_cloud(DepthMap(depths), default_k)
        np.testing.assert_allclose(cloud.points, [[2.0, 0.0, 10.0, 1.0]])

    def test_all_invalid_gives_empty(self, small_k):
        dm = DepthMap(np.full((8, 8), -1.0))
        assert len(depthmap_to_cloud(dm, small_k)) == 0
        dm = DepthMap(np.full((8, 8), np.nan))
        assert len(depthmap_to_cloud(dm, small_k)) == 0

    def test_size_mismatch_raises(self, default_k):
        with pytest.raises(ValueError):
            depthmap_to_cloud(DepthMap(np.ones((4, 4))), default_k)


class TestVisibilityFilter:
    def test_occlusion_on_shared_ray(self, default_k):
        pc = PointCloud([[0.0, 0.0, 5.0, 1.0], [0.0, 0.0, 9.0, 1.0]])
        out = visibility_filter(pc, default_k, tol=0.1)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 5.0, 1.0]])

    def test_points_within_tolerance_survive(self, default_k):
        pc = PointCloud([[0.0, 0.0, 5.0, 1.0], [0.0, 0.0, 5.05, 1.0]])
        assert len(visibility_filter(pc, default_k, tol=0.1)) == 2

    def test_no_shared_pixels_keeps_in_view_subset(self, default_k):
        rng = np.random.default_rng(0)
        # spread points widely so pixels are unique; add one behind camera
        xyz = np.column_stack([
            np.linspace(-1.0, 1.0, 21),
            np.zeros(21),
            np.full(21, 4.0),
        ])
        pts = np.vstack([xyz, [[0.0, 0.0, -5.0]]])
        pc = PointCloud(np.column_stack([pts, rng.uniform(size=22)]))
        out = visibility_filter(pc, default_k, tol=0.1)
        np.testing.assert_array_equal(out.points, pc.points[:21])

    def test_wall_before_cube_matches_oracle(self, default_k):
        rng = np.random.default_rng(1)
        n = 400
        wall = np.column_stack([
            rng.uniform(-0.8, 0.8, n), rng.uniform(-0.6, 0.6, n), np.full(n, 4.0)])
        cube = np.column_stack([
            rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n),
            rng.uniform(6.0, 7.0, n)])
        pc = PointCloud(np.column_stack([np.vstack([wall, cube]), np.ones(2 * n)]))
        out = visibility_filter(pc, default_k, tol=0.1)
        expected = brute_force_visible(pc, default_k, 0.1)
        np.testing.assert_array_equal(out.points, pc.points[expected])

    def test_idempotent_on_random_clouds(self, default_k):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = np.column_stack([
                rng.uniform(-2, 2, 300), rng.uniform(-1.5, 1.5, 300),
                rng.uniform(0.5, 20.0, 300), rng.uniform(size=300)])
            once = visibility_filter(PointCloud(pts), default_k, tol=0.1)
            twice = visibility_filter(once, default_k, tol=0.1)
            np.testing.assert_array_equal(once.points, twice.points)

    def test_survivors_project_in_view(self, default_k):
        rng = np.random.default_rng(3)
        pts = np.column_stack([
            rng.uniform(-5, 5, 500), rng.uniform(-5, 5, 500),
            rng.uniform(-10, 30.0, 500), rng.uniform(size=500)])
        out = visibility_filter(PointCloud(pts), default_k, tol=0.1)
        assert len(out) <= 500
        for p in out.points:
            proj = project_point(p[:3], default_k)
            assert proj.in_view and proj.z > 0

    def test_tolerance_must_be_positive(self, default_k):
        with pytest.raises(ValueError):
            visibility_filter(PointCloud.empty(), default_k, tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
    @pytest.mark.parametrize("entry", [visibility_filter, unify_stats, unify_visible])
    def test_every_entry_point_checks_tolerance(self, default_k, entry, tol):
        # the check lives in the shared z-buffer pass: a negative tolerance
        # must not report every in-view point as occluded
        for pc in (PointCloud.empty(), PointCloud([[0.0, 0.0, 5.0, 1.0]])):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                entry(pc, default_k, tol)

    def test_empty_cloud(self, default_k):
        assert len(visibility_filter(PointCloud.empty(), default_k)) == 0

    def test_stats_add_up(self, default_k):
        rng = np.random.default_rng(4)
        pts = np.column_stack([
            rng.uniform(-5, 5, 1000), rng.uniform(-5, 5, 1000),
            rng.uniform(-10, 30.0, 1000), rng.uniform(size=1000)])
        stats = unify_stats(PointCloud(pts), default_k, 0.1)
        assert stats["input"] == 1000
        assert stats["out_of_view"] + stats["occluded"] + stats["retained"] == 1000
        retained = visibility_filter(PointCloud(pts), default_k, 0.1)
        assert stats["retained"] == len(retained)

    def test_untouched_cells_are_inf(self, default_k):
        # the z-buffer starts every pixel at +inf: a lone point at any
        # depth, however far beyond tol, is the minimum of its own pixel
        for z in (0.05, 5.0, 500.0, 1e6):
            pc = PointCloud([[0.0, 0.0, z, 1.0]])
            assert len(visibility_filter(pc, default_k, tol=0.1)) == 1
            assert unify_stats(pc, default_k, 0.1)["retained"] == 1

    def test_unify_visible_is_filter_plus_stats(self, default_k):
        rng = np.random.default_rng(5)
        pc = PointCloud(np.column_stack([
            rng.uniform(-5, 5, 800), rng.uniform(-5, 5, 800),
            rng.uniform(-10, 30.0, 800), rng.uniform(size=800)]))
        retained, stats = unify_visible(pc, default_k, 0.1)
        assert retained.points.tobytes() == visibility_filter(pc, default_k, 0.1).points.tobytes()
        assert stats == unify_stats(pc, default_k, 0.1)
        empty, empty_stats = unify_visible(PointCloud.empty(), default_k, 0.1)
        assert len(empty) == 0 and empty_stats == unify_stats(empty, default_k, 0.1)
        with pytest.raises(ValueError):
            unify_visible(pc, default_k, 0.0)


class TestPillarize:
    def test_empty_cloud(self):
        g = build_grid((-1, 1), (0, 8), 2, 4)
        pt = pillarize(PointCloud.empty(), g)
        assert len(pt) == 0 and pt.n_assigned == 0 and pt.n_dropped == 0

    def test_point_at_cell_center_has_zero_offsets(self):
        g = build_grid((-1.0, 1.0), (0.0, 8.0), 2, 4, uneven=False)
        # cell (i_x=1, i_z=2): center x = 0.5, z = 5.0
        pt = pillarize(PointCloud([[0.5, 0.3, 5.0, 0.8]]), g)
        assert len(pt) == 1
        np.testing.assert_array_equal(pt.cells, [[2, 1]])
        np.testing.assert_allclose(pt.features[0], [0.5, 0.3, 5.0, 0.8, 0.0, 0.0])

    def test_two_points_hand_average(self):
        # oracle: hand averaging in a 1 m uniform toy grid
        g = build_grid((0.0, 1.0), (0.0, 1.0), 1, 1, uneven=False)
        pc = PointCloud([[0.2, 0.0, 0.3, 1.0], [0.4, 0.0, 0.5, 0.0]])
        pt = pillarize(pc, g)
        assert len(pt) == 1 and pt.counts[0] == 2
        mean_x, _, mean_z, mean_i, dx, dz = pt.features[0]
        assert mean_x == pytest.approx(0.3)
        assert mean_z == pytest.approx(0.4)
        assert mean_i == pytest.approx(0.5)
        assert dx == pytest.approx(0.3 - 0.5)
        assert dz == pytest.approx(0.4 - 0.5)

    def test_assigned_plus_dropped_is_input(self):
        rng = np.random.default_rng(5)
        g = build_grid((-2.0, 2.0), (0.0, 10.0), 4, 5)
        pts = np.column_stack([
            rng.uniform(-4, 4, 500), rng.normal(size=500),
            rng.uniform(-2, 14, 500), rng.uniform(size=500)])
        pt = pillarize(PointCloud(pts), g)
        assert pt.n_assigned + pt.n_dropped == 500
        assert pt.counts.sum() == pt.n_assigned


class TestOccupancyMask:
    def test_empty(self):
        g = build_grid((-1, 1), (0, 8), 2, 4)
        assert not occupancy_mask(pillarize(PointCloud.empty(), g), g).any()

    def test_single_pillar(self):
        g = build_grid((-2.0, 2.0), (0.0, 8.0), 8, 8, uneven=False)
        # lateral bin of x=1.75 is 7, depth bin of z=3.5 is 3
        mask = occupancy_mask(pillarize(PointCloud([[1.75, 0, 3.5, 1.0]]), g), g)
        assert mask.sum() == 1 and mask[3, 7]

    def test_cardinality_matches_recount_oracle(self, cell_oracle):
        rng = np.random.default_rng(6)
        g = build_grid((-2.0, 2.0), (0.0, 10.0), 5, 6)
        pts = np.column_stack([
            rng.uniform(-2, 2, 300), rng.normal(size=300),
            rng.uniform(0, 10, 300), rng.uniform(size=300)])
        pc = PointCloud(pts)
        mask = occupancy_mask(pillarize(pc, g), g)
        # oracle: distinct occupied cells via the scalar bisect lookup
        occupied = {cell_oracle.cell(x, z, g) for x, z in zip(pts[:, 0], pts[:, 2])} - {-1}
        assert mask.sum() == len(occupied)

    def test_union_monotonicity(self):
        rng = np.random.default_rng(7)
        g = build_grid((-2.0, 2.0), (0.0, 10.0), 5, 6)

        def cloud(n, seed):
            r = np.random.default_rng(seed)
            return PointCloud(np.column_stack([
                r.uniform(-2, 2, n), r.normal(size=n), r.uniform(0, 10, n),
                r.uniform(size=n)]))

        a, b = cloud(50, 1), cloud(70, 2)
        union = PointCloud(np.vstack([a.points, b.points]))
        m_a = occupancy_mask(pillarize(a, g), g)
        m_b = occupancy_mask(pillarize(b, g), g)
        m_u = occupancy_mask(pillarize(union, g), g)
        np.testing.assert_array_equal(m_a | m_b, m_u)


class TestImageConfidenceMask:
    def test_zero_eps_all_positive(self):
        conf = np.full((3, 4), 0.1)
        assert image_confidence_mask(conf, 0.0).all()

    def test_boundary_is_strict(self):
        conf = np.array([[5e-4, 5.1e-4], [4.9e-4, 0.0]])
        mask = image_confidence_mask(conf, 5e-4)
        np.testing.assert_array_equal(mask, [[False, True], [False, False]])

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(8)
        conf = rng.uniform(0, 1e-3, size=(6, 7))
        eps = 5e-4
        mask = image_confidence_mask(conf, eps)
        for i in range(6):
            for j in range(7):
                assert mask[i, j] == (conf[i, j] > eps)

    def test_negative_eps_raises(self):
        with pytest.raises(ValueError):
            image_confidence_mask(np.zeros((2, 2)), -1e-9)
