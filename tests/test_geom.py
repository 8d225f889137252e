import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.geom import (
    Box3D,
    CameraIntrinsics,
    FeatureMap,
    PointCloud,
    Pose,
    _project,
    box_corners,
    project_point,
    transform_cloud,
    unproject_pixel,
    yaw_rotation,
)


def former_project(xyz, K: CameraIntrinsics):
    """The form ``_project`` had before, which returned (u, v, z, pixel,
    in_view): z <= 1e-9 swapped for 1 before the divide, u and v kept next
    to their rounded copies."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    z = xyz[:, 2]
    front = z > 1e-9
    safe_z = np.where(front, z, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = K.fx * xyz[:, 0] / safe_z + K.cx
        v = K.fy * xyz[:, 1] / safe_z + K.cy
        fu = np.floor(u + 0.5)
        fv = np.floor(v + 0.5)
        in_view = (fu >= 0) & (fu < K.width) & (fv >= 0) & (fv < K.height) & front
        fv = fv * K.width + fu
    pixel = np.full(z.shape, K.width * K.height, dtype=np.int64)
    np.copyto(pixel, fv, casting="unsafe", where=in_view)
    return u, v, z, pixel, in_view


def assert_former(got, want):
    """``_project``'s (z, pixel, n_in_view) against ``former_project``'s
    outputs: z and pixel byte for byte, and the count of its in-view mask."""
    z, pixel, n_in_view = got
    _, _, z_want, pixel_want, in_view = want
    assert [z.tobytes(), pixel.tobytes()] == [z_want.tobytes(), pixel_want.tobytes()]
    assert n_in_view == int(in_view.sum())


# A 16 x 12 camera whose lattice borders are reached at z = 1 by x in
# [-1.03, 1.03] and y in [-0.76, 0.76].
PROBE_K = CameraIntrinsics(fx=8.0, fy=8.0, cx=7.5, cy=5.5, width=16, height=12)
MIN_DEPTHS = [1e-9, float(np.nextafter(1e-9, 0)), float(np.nextafter(1e-9, 1)), 0.0, -0.0,
              -1.0]
coords = st.one_of(st.floats(-1.2, 1.2), st.sampled_from([1e300, -1e300, 1e-300]),
                   st.sampled_from([np.inf, -np.inf, np.nan]),
                   # pixel borders at z = 1: u + 0.5 lands on an integer
                   st.integers(-1, 16).map(lambda k: (k - 8.0) / 8.0))
depths = st.one_of(st.sampled_from(MIN_DEPTHS + [1.0, np.inf, np.nan]), st.floats(1e-12, 1e3))


class TestFormerProject:
    """``_project`` against its former form, byte for byte."""

    @settings(deadline=None, max_examples=300)
    @given(rows=st.lists(st.tuples(coords, coords, depths), max_size=40))
    def test_matches_the_former_form(self, rows):
        xyz = np.array(rows, dtype=np.float64).reshape(-1, 3)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = former_project(xyz, PROBE_K)
        got = _project(xyz, PROBE_K)
        assert_former(got, want)

    def test_pixel_borders_off_a_dyadic_principal_point(self):
        # with such a cx, (a + cx) + 0.5 and a + (cx + 0.5) round to
        # different sides of some pixel borders: the former order holds
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=15.547039609916075, cy=5.547039609916075,
                             width=32, height=12)
        x = np.arange(-1, K.width + 1) - 0.5 - K.cx
        x = (x[:, None] + np.arange(-4, 5) * np.spacing(np.abs(x))[:, None]).ravel()
        y = x + (K.cx - K.cy)
        xyz = np.column_stack([np.concatenate([x, np.zeros_like(y)]),
                               np.concatenate([np.zeros_like(x), y]), np.ones(2 * x.size)])
        want = former_project(xyz, K)
        got = _project(xyz, K)
        assert_former(got, want)

    def test_strided_columns_of_a_cloud(self, default_k):
        rng = np.random.default_rng(3)
        points = np.column_stack([rng.uniform(-8, 8, (5000, 2)), rng.uniform(-1, 9, 5000),
                                  np.ones(5000)])
        want = former_project(points[:, :3], default_k)
        got = _project(points[:, :3], default_k)
        assert_former(got, want)


class TestProjection:
    def test_principal_point_ray(self, default_k):
        u, v, z, ok = project_point((0.0, 0.0, 5.0), default_k)
        assert (u, v, z, ok) == (320.0, 240.0, 5.0, True)

    def test_hand_arithmetic_example(self, default_k):
        # oracle: u = fx * x / z + cx computed by hand
        expected_u = 500.0 * 2.0 / 10.0 + 320.0
        u, v, z, ok = project_point((2.0, 0.0, 10.0), default_k)
        assert ok
        assert u == expected_u == 420.0
        assert (v, z) == (240.0, 10.0)

    def test_behind_camera_is_out_of_view(self, default_k):
        assert not project_point((0.0, 0.0, -1.0), default_k).in_view
        assert not project_point((0.0, 0.0, 0.0), default_k).in_view
        assert not project_point((0.0, 0.0, 1e-12), default_k).in_view

    def test_off_image_is_out_of_view(self, default_k):
        assert not project_point((100.0, 0.0, 1.0), default_k).in_view

    def test_vectorized_matches_scalar(self, default_k):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(100, 3))
        # u and v are checked through the pixel index they round to
        z, pixel, n_in_view = _project(pts, default_k)
        w, h = default_k.width, default_k.height
        n_seen = 0
        for i in range(len(pts)):
            s = project_point(pts[i], default_k)
            assert z[i] == s.z
            if s.in_view:
                n_seen += 1
                assert pixel[i] == np.floor(s.v + 0.5) * w + np.floor(s.u + 0.5)
            else:
                assert pixel[i] == w * h
        assert n_in_view == n_seen and 0 < n_seen < len(pts)


class TestUnprojection:
    def test_principal_point(self, default_k):
        np.testing.assert_array_equal(
            unproject_pixel(320.0, 240.0, 7.0, default_k), [0.0, 0.0, 7.0])

    def test_inverse_of_projection_example(self, default_k):
        # oracle: inverse of the hand-arithmetic projection case
        np.testing.assert_allclose(
            unproject_pixel(420.0, 240.0, 10.0, default_k), [2.0, 0.0, 10.0])

    def test_round_trip_specific(self, default_k):
        p = unproject_pixel(100.5, 77.25, 3.2, default_k)
        u, v, z, ok = project_point(p, default_k)
        assert ok
        np.testing.assert_allclose([u, v, z], [100.5, 77.25, 3.2], atol=1e-9)

    def test_nonpositive_depth_raises(self, default_k):
        with pytest.raises(ValueError):
            unproject_pixel(10.0, 10.0, 0.0, default_k)
        with pytest.raises(ValueError):
            unproject_pixel(10.0, 10.0, -3.0, default_k)

    @settings(deadline=None)
    @given(
        u=st.floats(0.0, 639.0), v=st.floats(0.0, 479.0),
        z=st.floats(1e-3, 1e4),
    )
    def test_round_trip_property(self, u, v, z):
        K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        proj = project_point(unproject_pixel(u, v, z, K), K)
        assert abs(proj.u - u) < 1e-9
        assert abs(proj.v - v) < 1e-9
        assert abs(proj.z - z) < 1e-9


class TestBoxCorners:
    def test_unit_cube(self):
        box = Box3D(np.zeros(3), np.ones(3), np.eye(3))
        corners = box_corners(box)
        expected = {(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)
                    for sz in (-0.5, 0.5)}
        assert {tuple(c) for c in corners} == expected

    def test_translation_equivariance(self):
        base = Box3D(np.zeros(3), (2.0, 1.0, 3.0), yaw_rotation(0.3))
        moved = Box3D(np.array([1.0, 2.0, 3.0]), base.dims, base.rotation)
        np.testing.assert_allclose(
            box_corners(moved), box_corners(base) + np.array([1.0, 2.0, 3.0]))

    def test_quarter_yaw_swaps_extents(self):
        # oracle: rotate the local offsets by an explicitly constructed
        # 90-degree matrix; the corner set equals the axis-aligned
        # (4, 1, 2) box's corner set
        box = Box3D(np.zeros(3), (2.0, 1.0, 4.0), yaw_rotation(np.pi / 2))
        got = {tuple(np.round(c, 9)) for c in box_corners(box)}
        aligned = Box3D(np.zeros(3), (4.0, 1.0, 2.0), np.eye(3))
        expected = {tuple(np.round(c, 9)) for c in box_corners(aligned)}
        assert got == expected

    def test_pairwise_distances_pose_invariant(self):
        rng = np.random.default_rng(1)
        box = Box3D(rng.normal(size=3), rng.uniform(0.5, 3.0, 3), yaw_rotation(0.7))
        corners = box_corners(box)
        pose = Pose(yaw_rotation(1.1), np.array([4.0, -2.0, 9.0]))
        moved = Box3D(pose.apply(box.center), box.dims,
                      pose.rotation @ box.rotation)
        moved_corners = box_corners(moved)

        def pdist(c):
            return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)

        np.testing.assert_allclose(pdist(corners), pdist(moved_corners), atol=1e-9)


class TestTransformCloud:
    def test_identity(self):
        pc = PointCloud([[1.0, 2.0, 3.0, 0.5]])
        out = transform_cloud(pc, Pose.identity())
        np.testing.assert_array_equal(out.points, pc.points)

    def test_translation(self):
        pc = PointCloud([[0.0, 0.0, 0.0, 1.0]])
        out = transform_cloud(pc, Pose(np.eye(3), [0.0, 0.0, 10.0]))
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 10.0, 1.0]])

    def test_compose_with_inverse_returns_original(self):
        rng = np.random.default_rng(2)
        pc = PointCloud(np.column_stack([rng.normal(size=(50, 3)), rng.uniform(size=50)]))
        pose = Pose(yaw_rotation(0.9), rng.normal(size=3))
        back = transform_cloud(transform_cloud(pc, pose), pose.inverse())
        np.testing.assert_allclose(back.points, pc.points, atol=1e-9)

    def test_rigid_motion_preserves_structure(self):
        rng = np.random.default_rng(3)
        pc = PointCloud(np.column_stack([rng.normal(size=(40, 3)), rng.uniform(size=40)]))
        pose = Pose(yaw_rotation(-0.4), [1.0, 2.0, 3.0])
        out = transform_cloud(pc, pose)
        assert len(out) == len(pc)
        np.testing.assert_array_equal(out.intensity, pc.intensity)
        d_in = np.linalg.norm(pc.xyz[:, None] - pc.xyz[None], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None], axis=-1)
        np.testing.assert_allclose(d_in, d_out, atol=1e-9)


class TestValidation:
    def test_intrinsics_invariants(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 500.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            CameraIntrinsics(500.0, 500.0, 640.0, 240.0, 640, 480)

    def test_pose_requires_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            # reflection: orthogonal but det = -1
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_box_invariants(self):
        with pytest.raises(ValueError):
            Box3D(np.zeros(3), (1.0, 0.0, 1.0), np.eye(3))
        with pytest.raises(ValueError):
            Box3D(np.zeros(3), np.ones(3), np.eye(3), score=1.5)

    def test_feature_map_must_be_finite_rank4(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            FeatureMap(np.full((1, 1, 1, 1), np.nan))

    def test_point_cloud_must_be_finite(self):
        with pytest.raises(ValueError):
            PointCloud([[np.inf, 0.0, 0.0, 0.0]])
        assert len(PointCloud.empty()) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_cloud_rejects_every_non_finite_entry(self, bad):
        # the public constructor checks; only rows cut from a checked
        # cloud skip the check
        for column in range(4):
            row = [0.0, 0.0, 1.0, 1.0]
            row[column] = bad
            with pytest.raises(ValueError, match="must be finite"):
                PointCloud([[0.0, 0.0, 2.0, 1.0], row])
