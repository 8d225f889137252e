import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.geom import CameraIntrinsics, PointCloud, Pose, project_point, transform_cloud
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


# The 8x8 camera of the ``small_k`` fixture: fx = fy = 8, cx = cy = 4.
SMALL_K = CameraIntrinsics(fx=8.0, fy=8.0, cx=4.0, cy=4.0, width=8, height=8)
# Pixel coordinates on and off the 8x8 lattice: half-pixel borders (k + 0.5,
# -0.5, W - 0.5), centres, and one pixel past either side, whose linear
# index vi * W + ui would alias a real pixel without the dump pixel.
LATTICE = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.5, 4.0, 6.5, 7.0, 7.5, 8.0, 8.5]
# Depths that share a pixel within tol (1.0, 1.0625, 1.1) and beyond it.
DEPTHS = [0.25, 1.0, 1.0625, 1.1, 2.0, 4.0]
BEHIND = [-1.0, -0.0, 0.0, 1e-9, float(np.nextafter(1e-9, 0)), float(np.nextafter(1e-9, 1)), 2e-9]


def _lattice_point(u, v, z, intensity):
    # unprojected with the pinhole model; dyadic depths project back exactly
    return [(u - SMALL_K.cx) * z / SMALL_K.fx, (v - SMALL_K.cy) * z / SMALL_K.fy, z, intensity]


intensities = st.sampled_from([0.0, -0.0, 0.25, 1.0])
cloud_rows = st.one_of(
    st.builds(_lattice_point, st.sampled_from(LATTICE), st.sampled_from(LATTICE),
              st.sampled_from(DEPTHS), intensities),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from(BEHIND),
              intensities).map(list),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.0, 10.0),
              intensities).map(list),
)


def oracle_counts(pc: PointCloud, K: CameraIntrinsics, keep) -> dict:
    n = len(pc)
    n_out = sum(not project_point(p[:3], K).in_view for p in pc.points)
    return {"input": n, "out_of_view": n_out, "occluded": n - n_out - len(keep),
            "retained": len(keep)}


class TestUnifyVisibleOracle:
    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(cloud_rows, max_size=60), tol=st.sampled_from([0.1, 0.0625, 1.0]))
    def test_matches_per_point_oracle(self, rows, tol):
        pc = PointCloud(np.array(rows, dtype=np.float64).reshape(-1, 4))
        keep = brute_force_visible(pc, SMALL_K, tol)
        retained, stats = unify_visible(pc, SMALL_K, tol)
        assert retained.points.tobytes() == pc.points[keep].tobytes()
        assert stats == oracle_counts(pc, SMALL_K, keep)

    def test_off_image_point_does_not_occlude_an_aliased_pixel(self):
        # ui = -1 on row 3 has linear index 3 * 8 - 1, pixel (7, 2)'s
        near_off_image = _lattice_point(-1.0, 3.0, 0.25, 1.0)
        far_in_view = _lattice_point(7.0, 2.0, 4.0, 1.0)
        pc = PointCloud([near_off_image, far_in_view])
        retained, stats = unify_visible(pc, SMALL_K, 0.1)
        assert retained.points.tobytes() == pc.points[1:].tobytes()
        assert stats == {"input": 2, "out_of_view": 1, "occluded": 0, "retained": 1}


def former_depthmap_to_cloud(dm: DepthMap, K: CameraIntrinsics) -> np.ndarray:
    """The column_stack formulation this module used before."""
    valid = np.isfinite(dm.depths) & (dm.depths > 0)
    vv, uu = np.nonzero(valid)
    z = dm.depths[vv, uu]
    x = (uu - K.cx) * z / K.fx
    y = (vv - K.cy) * z / K.fy
    return np.column_stack([x, y, z, np.ones(z.size)])


def flatnonzero_depthmap_to_cloud(dm: DepthMap, K: CameraIntrinsics) -> np.ndarray:
    """The flat-index formulation this module used before: valid pixel
    indices split by an int64 divmod, each column written in place."""
    flat = np.flatnonzero(np.isfinite(dm.depths) & (dm.depths > 0))
    vv, uu = np.divmod(flat, dm.width)
    z = dm.depths.ravel()[flat]
    points = np.empty((flat.size, 4))
    points[:, 0] = (uu - K.cx) * z / K.fx
    points[:, 1] = (vv - K.cy) * z / K.fy
    points[:, 2] = z
    points[:, 3] = 1.0
    return points


def former_transform_cloud(pc: PointCloud, pose: Pose) -> np.ndarray:
    """The column_stack formulation geom used before."""
    if len(pc) == 0:
        return pc.points
    return np.column_stack([pose.apply(pc.xyz), pc.intensity])


def _rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _assert_fresh_read_only(out: np.ndarray, source: np.ndarray):
    assert out.flags.c_contiguous and not out.flags.writeable
    assert not np.shares_memory(out, source)


invalid_pixels = st.sampled_from([np.nan, 0.0, -0.0, -1.0, np.inf, -np.inf])
valid_pixels = st.floats(1e-3, 100.0)
depth_pixels = st.one_of(invalid_pixels, valid_pixels)
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
translations = st.tuples(*[st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0]))] * 3)


class TestFormerFormulations:
    @settings(deadline=None, max_examples=100)
    @given(h=st.integers(1, 9), w=st.integers(1, 9), data=st.data(),
           f=st.tuples(st.floats(0.5, 1000.0), st.floats(0.5, 1000.0)),
           pixels=st.sampled_from([depth_pixels, valid_pixels, invalid_pixels]))
    def test_depthmap_to_cloud_bits(self, h, w, data, f, pixels):
        # mixed, all-valid and all-invalid maps
        depths = np.array(data.draw(st.lists(pixels, min_size=h * w, max_size=h * w)))
        cx = data.draw(st.floats(0.0, w, exclude_max=True))
        cy = data.draw(st.floats(0.0, h, exclude_max=True))
        K = CameraIntrinsics(f[0], f[1], cx, cy, w, h)
        dm = DepthMap(depths.reshape(h, w))
        cloud = depthmap_to_cloud(dm, K)
        assert cloud.points.tobytes() == former_depthmap_to_cloud(dm, K).tobytes()
        assert cloud.points.tobytes() == flatnonzero_depthmap_to_cloud(dm, K).tobytes()
        _assert_fresh_read_only(cloud.points, dm.depths)

    @settings(deadline=None, max_examples=150)
    @given(q=quaternions, t=translations, identity=st.booleans(),
           rows=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                                   st.floats(-1e3, 1e3), intensities), max_size=40))
    def test_transform_cloud_bits(self, q, t, identity, rows):
        pose = Pose.identity() if identity else Pose(_rotation(q), np.array(t))
        pc = PointCloud(np.array(rows, dtype=np.float64).reshape(-1, 4))
        moved = transform_cloud(pc, pose)
        assert moved.points.tobytes() == former_transform_cloud(pc, pose).tobytes()
        _assert_fresh_read_only(moved.points, pc.points)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
    def test_transform_cloud_bits_on_random_poses(self, n):
        # a single row takes numpy's vector-matrix path, which sums in its
        # own order: a product that adds t inside it differs there
        rng = np.random.default_rng(n)
        for _ in range(50):
            pose = Pose(_rotation(rng.normal(size=4)), rng.normal(size=3) * 10.0)
            pc = PointCloud(rng.normal(size=(n, 4)) * 10.0)
            moved = transform_cloud(pc, pose)
            assert moved.points.tobytes() == former_transform_cloud(pc, pose).tobytes()

    def test_indoor_scale_bits(self, default_k):
        rng = np.random.default_rng(9)
        depths = rng.uniform(0.5, 8.0, (480, 640))
        depths[rng.uniform(size=depths.shape) < 0.05] = np.nan
        depths[rng.uniform(size=depths.shape) < 0.05] = 0.0
        dm = DepthMap(depths)
        cloud = depthmap_to_cloud(dm, default_k)
        assert cloud.points.tobytes() == former_depthmap_to_cloud(dm, default_k).tobytes()
        assert cloud.points.tobytes() == flatnonzero_depthmap_to_cloud(dm, default_k).tobytes()
        full = DepthMap(np.nan_to_num(depths, nan=1.0) + 0.5)    # every pixel valid
        assert (depthmap_to_cloud(full, default_k).points.tobytes()
                == flatnonzero_depthmap_to_cloud(full, default_k).tobytes())
        pose = Pose(_rotation(rng.normal(size=4)), rng.normal(size=3))
        moved = transform_cloud(cloud, pose)
        assert moved.points.tobytes() == former_transform_cloud(cloud, pose).tobytes()


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

    def test_far_off_axis_point_in_front_of_the_camera_casts_nothing(self, default_k):
        # x / z overflows to inf: out of view, with no overflow or cast warning
        pc = PointCloud([[1e300, 0.0, 1e-8, 1.0], [0.0, 0.0, 5.0, 1.0]])
        keep = brute_force_visible(pc, default_k, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            retained, stats = unify_visible(pc, default_k, 0.1)
        assert keep == [1]
        assert retained.points.tobytes() == pc.points[1:].tobytes()
        assert stats == {"input": 2, "out_of_view": 1, "occluded": 0, "retained": 1}


class TestVisibilityFilter:
    def test_occlusion_on_shared_ray(self, default_k):
        pc = PointCloud([[0.0, 0.0, 5.0, 1.0], [0.0, 0.0, 9.0, 1.0]])
        out = visibility_filter(pc, default_k, tol=0.1)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 5.0, 1.0]])

    def test_tolerance_is_added_to_the_minimum_depth(self, default_k):
        # 0.3 + 0.1 == 0.4 in float64 while 0.4 - 0.1 > 0.3: a point at
        # the minimum plus tol survives, as the per-point oracle has it
        pc = PointCloud([[0.0, 0.0, 0.3, 1.0], [0.0, 0.0, 0.4, 1.0]])
        assert brute_force_visible(pc, default_k, 0.1) == [0, 1]
        assert len(visibility_filter(pc, default_k, tol=0.1)) == 2

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

    def test_survivors_are_a_fresh_read_only_cloud(self, default_k):
        # cut from a checked cloud, they skip the public constructor's
        # finiteness check and come out as it would build them
        rng = np.random.default_rng(6)
        pc = PointCloud(np.column_stack([rng.uniform(-5, 5, (300, 2)),
                                         rng.uniform(1, 9, 300), rng.uniform(size=300)]))
        for cloud, tol in ((pc, 0.1), (pc, 1e-9), (PointCloud.empty(), 0.1)):
            retained = unify_visible(cloud, default_k, tol)[0]
            assert type(retained) is PointCloud
            assert retained.points.dtype == np.float64 and retained.points.shape[1:] == (4,)
            _assert_fresh_read_only(retained.points, cloud.points)
            assert retained.points.tobytes() == PointCloud(retained.points).points.tobytes()

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


def sequential_pillars(pc: PointCloud, g, cell_oracle):
    """Oracle: per cell, Python float sums of its points in input order."""
    sums, n_dropped = {}, 0
    for row in pc.points.tolist():
        cell = cell_oracle.cell(row[0], row[2], g)
        if cell < 0:
            n_dropped += 1
            continue
        acc = sums.setdefault(cell, [0, 0.0, 0.0, 0.0, 0.0])
        acc[0] += 1
        for k in range(4):
            acc[k + 1] += row[k]
    return sums, n_dropped


class TestPillarizeOracle:
    @settings(deadline=None, max_examples=150)
    @given(n_x=st.integers(1, 5), n_z=st.integers(1, 6), uneven=st.booleans(), data=st.data())
    def test_sums_follow_input_order(self, cell_oracle, n_x, n_z, uneven, data):
        g = build_grid((-2.0, 2.0), (0.5, 8.0), n_x, n_z, uneven)
        x_edges = (g.x_range[0] + np.arange(n_x + 1) * g.lateral_width).tolist()
        # on-grid values, cell edges and off-grid values, interleaved
        xs = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(x_edges))
        zs = st.one_of(st.floats(-1.0, 10.0), st.sampled_from(g.depth_edges.tolist()))
        values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
        rows = data.draw(st.lists(st.tuples(xs, values, zs, values), max_size=80))
        pc = PointCloud(np.array(rows, dtype=np.float64).reshape(-1, 4))
        pt = pillarize(pc, g)
        sums, n_dropped = sequential_pillars(pc, g, cell_oracle)
        cells = sorted(sums)
        assert pt.cells.tolist() == [list(divmod(c, n_x)) for c in cells]
        assert pt.counts.tolist() == [sums[c][0] for c in cells]
        means = np.array([[s / sums[c][0] for s in sums[c][1:]] for c in cells]).reshape(-1, 4)
        assert pt.features[:, :4].tobytes() == means.tobytes()
        i_z, i_x = np.divmod(np.array(cells, dtype=np.int64), n_x)
        center_x = g.x_range[0] + (i_x + 0.5) * g.lateral_width
        center_z = 0.5 * (g.depth_edges[i_z] + g.depth_edges[i_z + 1])
        assert pt.features[:, 4].tobytes() == (means[:, 0] - center_x).tobytes()
        assert pt.features[:, 5].tobytes() == (means[:, 2] - center_z).tobytes()
        assert (pt.n_assigned, pt.n_dropped) == (len(pc) - n_dropped, n_dropped)
        assert pt.n_assigned + pt.n_dropped == len(pc)


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

    def test_nan_eps_raises(self):
        # conf > NaN is false everywhere: a NaN threshold would mask nothing
        with pytest.raises(ValueError, match="eps must be non-negative, not NaN"):
            image_confidence_mask(np.ones((2, 2)), float("nan"))
