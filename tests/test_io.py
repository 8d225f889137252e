import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bevkit import io as bio
from bevkit.geom import Box3D, FeatureMap, PointCloud, Pose, yaw_rotation

def quaternion_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def boxes_with_images(draw):
    """A box with or without a score, and an image id or None (not written)."""
    box = Box3D(
        draw(st.tuples(*[st.floats(-1e6, 1e6)] * 3)),
        draw(st.tuples(*[st.floats(1e-6, 1e3)] * 3)),
        quaternion_rotation(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda q: np.linalg.norm(q) > 0.1))),
        category=draw(st.integers(0, 1000)),
        score=draw(st.none() | st.floats(0.0, 1.0)),
    )
    return draw(st.none() | st.integers(0, 10**9)), box


class TestMmpc:
    def test_round_trip(self, tmp_path):
        pts = np.array([[1.5, -2.25, 3.0, 0.5], [0.0, 0.0, 10.0, 1.0]])
        path = tmp_path / "cloud.mmpc"
        bio.write_mmpc(path, PointCloud(pts))
        out = bio.read_mmpc(path)
        # all values above are float32-representable, so exact
        np.testing.assert_array_equal(out.points, pts)

    def test_wire_layout(self, tmp_path):
        path = tmp_path / "one.mmpc"
        bio.write_mmpc(path, PointCloud([[1.0, 2.0, 3.0, 0.25]]))
        raw = path.read_bytes()
        assert raw[:4] == b"MMPC"
        assert struct.unpack("<I", raw[4:8]) == (1,)
        assert np.frombuffer(raw[8:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 0.25]

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.mmpc"
        bio.write_mmpc(path, PointCloud.empty())
        assert len(bio.read_mmpc(path)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mmpc"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            bio.read_mmpc(path)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(*[st.floats(width=32, allow_nan=False, allow_infinity=False)] * 4),
                    max_size=20))
    def test_round_trip_is_exact_for_float32_points(self, tmp_path_factory, pts):
        path = tmp_path_factory.mktemp("mmpc") / "cloud.mmpc"
        points = np.array(pts, dtype=np.float64).reshape(-1, 4)
        bio.write_mmpc(path, PointCloud(points))
        assert bio.read_mmpc(path).points.tobytes() == points.tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.mmpc"
        path.write_bytes(b"MMPC" + struct.pack("<I", 2) + b"\x00" * 16)
        with pytest.raises(ValueError, match="bytes"):
            bio.read_mmpc(path)


class TestTnsr:
    def test_round_trip_exact(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        path = tmp_path / "t.tnsr"
        bio.write_tnsr(path, data)
        out = bio.read_tnsr(path)
        np.testing.assert_array_equal(out.data, data)

    @settings(deadline=None, max_examples=100)
    @given(arrays(np.float64, array_shapes(min_dims=4, max_dims=4, min_side=0, max_side=4),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_is_exact_for_any_rank4_shape(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("tnsr") / "t.tnsr"
        bio.write_tnsr(path, data)
        out = bio.read_tnsr(path).data
        assert out.shape == data.shape and out.tobytes() == data.tobytes()

    def test_header_is_single_json_line(self, tmp_path):
        path = tmp_path / "t.tnsr"
        bio.write_tnsr(path, np.zeros((1, 2, 3, 4)))
        header, _, payload = path.read_bytes().partition(b"\n")
        assert header == b'{"shape":[1,2,3,4]}'
        assert len(payload) == 8 * 24

    def test_feature_map_accepted(self, tmp_path):
        fm = FeatureMap(np.ones((1, 1, 2, 2)))
        path = tmp_path / "fm.tnsr"
        bio.write_tnsr(path, fm)
        np.testing.assert_array_equal(bio.read_tnsr(path).data, fm.data)

    def test_rank_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            bio.write_tnsr(tmp_path / "x.tnsr", np.zeros((2, 2)))

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b'{"shape":[1,1,1,2]}\n' + b"\x00" * 8)
        with pytest.raises(ValueError, match="payload"):
            bio.read_tnsr(path)

    def test_negative_dimension_rejected_before_payload(self, tmp_path):
        path = tmp_path / "neg.tnsr"
        path.write_bytes(b'{"shape":[1,1,-2,256]}\n')
        with pytest.raises(ValueError) as exc:
            bio.read_tnsr(path)
        assert str(exc.value) == ("TNSR shape must not have negative dimensions, "
                                  "got (1, 1, -2, 256)")


class TestBoxesJsonl:
    def test_round_trip_with_and_without_score(self, tmp_path):
        gt = Box3D([1.0, 2.0, 3.0], [1.0, 1.0, 2.0], yaw_rotation(0.5), category=3)
        pred = Box3D([0.0, 0.0, 9.0], [2.0, 1.0, 4.0], np.eye(3), category=1, score=0.75)
        path = tmp_path / "boxes.jsonl"
        bio.write_boxes_jsonl(path, [gt, (7, pred)])
        out = bio.read_boxes_jsonl(path)
        assert [img for img, _ in out] == [0, 7]
        got_gt, got_pred = out[0][1], out[1][1]
        assert got_gt.score is None and got_pred.score == 0.75
        np.testing.assert_allclose(got_gt.rotation, gt.rotation)
        np.testing.assert_array_equal(got_pred.center, pred.center)
        assert (got_gt.category, got_pred.category) == (3, 1)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(boxes_with_images(), max_size=5))
    def test_round_trip_is_exact(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("boxes") / "boxes.jsonl"
        bio.write_boxes_jsonl(path, [box if img is None else (img, box) for img, box in records])
        out = bio.read_boxes_jsonl(path)
        assert len(out) == len(records)
        for (img, box), (got_img, got) in zip(records, out):
            assert got_img == (0 if img is None else img)
            for field in ("center", "dims", "rotation"):
                assert getattr(got, field).tobytes() == getattr(box, field).tobytes()
            assert (got.category, got.score) == (box.category, box.score)

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "one.jsonl"
        bio.write_boxes_jsonl(path, [Box3D([0, 0, 1], [1, 1, 1], np.eye(3))])
        rec = json.loads(path.read_text().strip())
        assert set(rec) == {"center", "dims", "R", "category"}
        assert len(rec["R"]) == 9

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"center":[0,0,1],"dims":[1,1,1]}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            bio.read_boxes_jsonl(path)


class TestCameraFiles:
    def test_intrinsics_round_trip(self, tmp_path, default_k):
        path = tmp_path / "k.json"
        bio.write_intrinsics(path, default_k)
        assert bio.read_intrinsics(path) == default_k

    def test_pose_round_trip(self, tmp_path):
        pose = Pose(yaw_rotation(0.3), [1.0, -2.0, 3.0])
        path = tmp_path / "pose.json"
        bio.write_pose(path, pose)
        out = bio.read_pose(path)
        np.testing.assert_array_equal(out.rotation, pose.rotation)
        np.testing.assert_array_equal(out.translation, pose.translation)
