import io
import json
import struct
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bevkit import cli
from bevkit import io as bio
from bevkit import rows
from bevkit.cli import _build_parser, main
from bevkit.config import Config, load_config, save_config
from bevkit.geom import Box3D, CameraIntrinsics, PointCloud, Pose, yaw_rotation
from bevkit.liftsplat import DepthDistribution, sparse_prune, splat_to_bev
from bevkit.synth import SceneSpec, generate, perturb


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "3", "--regime", "indoor",
                 "--out-dir", str(out)]) == 0
    return out


# a value that drops its key from a file
DROP = object()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --out-dir is required
        assert exc.value.code == 1

    def test_data_error_returns_two(self, capsys, tmp_path, default_k):
        # the MMPC magic routes the file to the MMPC reader, which finds it short
        bad = tmp_path / "short.mmpc"
        bad.write_bytes(b"MMPC" + struct.pack("<I", 2) + b"\x00" * 16)
        k = tmp_path / "k.json"
        bio.write_intrinsics(k, default_k)
        out = tmp_path / "o.mmpc"
        code, _, err = run(capsys, "unify", "--in", str(bad), "--intrinsics", str(k),
                           "--out", str(out))
        assert code == 2
        assert err.strip().splitlines() == ["bevkit: MMPC payload is 16 bytes, expected 32"]
        assert not out.exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
         "bevkit: out of memory: Unable to allocate 745. GiB for an array with shape "
         "(100000000000,)"),
        (MemoryError(), "bevkit: out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_returns_two(self, capsys, monkeypatch, tmp_path, error, line):
        # raised in place of a subcommand: no test allocates a huge array
        def grid(args, cfg):
            raise error

        monkeypatch.setattr(cli, "_cmd_grid", grid)
        code, stdout, err = run(capsys, "grid", "--out", str(tmp_path / "grid.json"))
        assert code == 2 and stdout == ""
        assert err.splitlines() == [line]

    def test_invalid_value_returns_two(self, capsys, tmp_path, default_k):
        k = tmp_path / "k.json"
        bio.write_intrinsics(k, default_k)
        cloud = tmp_path / "c.mmpc"
        bio.write_mmpc(cloud, PointCloud([[0, 0, 5, 1]]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"visibility_tol": -1.0}))
        code = main(["--config", str(cfg), "unify", "--in", str(cloud), "--intrinsics", str(k),
                     "--out", str(tmp_path / "o.mmpc")])
        assert code == 2

    @pytest.mark.parametrize("command, flag", [
        ("grid", ["--even"]),
        ("grid", ["--x-min", "-10"]),
        ("grid", ["--x-max", "10"]),
        ("grid", ["--z-min", "0"]),
        ("grid", ["--z-max", "8"]),
        ("grid", ["--n-x", "4"]),
        ("grid", ["--n-z", "4"]),
        ("project", ["--tau", "0"]),
        ("project", ["--uneven-bins"]),
        ("project", ["--grid", "grid.json"]),
        ("bench", ["--grid", "grid.json"]),
        ("bench", ["--timing"]),
        ("unify", ["--tol", "0.3"]),
        ("unify", ["--kind", "mmpc"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_flags_are_usage_errors(self, capsys, tmp_path, command, flag):
        # each setting now comes from --config alone; argparse refuses the
        # flag before any input file is opened
        out = tmp_path / "out"
        argv = {
            "grid": ["grid"],
            "project": ["project", "--fi", "fi.tnsr", "--fd", "fd.tnsr", "--intrinsics", "k.json"],
            "bench": ["bench"],
            "unify": ["unify", "--in", "cloud.mmpc", "--intrinsics", "k.json"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)] + flag)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, key, change", [
        ("config", "'tau'", {"tau": "abc"}),
        ("config", "'x_range'", {"x_range": 5}),
        ("config", "x_range", {"x_range": [1, 2, 3]}),
        ("config", "'n_x'", {"n_x": 60.5}),
        ("config", "'n_x'", {"n_x": True}),
        ("boxes", "image", {"image": None}),
        ("boxes", "category", {"category": [1]}),
        ("intrinsics", "width", {"width": None}),
        ("intrinsics", "top level", [1]),
        ("calign", "spaces", {"spaces": [1]}),
        ("pose", "bad.json: bad pose", {"R": [1]}),
        ("calign", "spaces keys must be integer dataset ids, got 'x'", {"spaces": {"x": [1]}}),
        # a missing key, named with the file
        ("daln", "bad.json: missing key 'confidence'", {"confidence": DROP}),
        ("calign", "bad.json: missing key 'losses'", {"losses": DROP}),
        ("intrinsics", "bad.json: missing key 'height'", {"height": DROP}),
        ("pose", "bad.json: missing key 't'", {"t": DROP}),
        ("config", "config key 'depth_bands'[1] must be a (lo, hi) pair",
         {"depth_bands": [[0, 10], [10, 20, 30]]}),
        ("boxes", "bad.json:1: bad box record: missing key 'center'", {"center": DROP}),
        ("boxes", "bad.json:1: bad box record: missing key 'dims'", {"dims": DROP}),
        ("boxes", "bad.json:1: bad box record: missing key 'R'", {"R": DROP}),
    ])
    def test_malformed_json_is_a_data_error(self, capsys, tmp_path, scene_dir, case, key,
                                            change):
        # one key of a valid file gets a wrong-typed value or is dropped
        # (a list replaces the file)
        valid = {
            "config": {},
            "boxes": json.loads((scene_dir / "boxes.jsonl").read_text().splitlines()[0]),
            "intrinsics": json.loads((scene_dir / "intrinsics.json").read_text()),
            "calign": {"spaces": {"0": [1]}, "background": 0, "losses": [1.0],
                       "predicted": [1], "labels": [0], "dataset": 0},
            "pose": {"R": np.eye(3).ravel().tolist(), "t": [0.0, 0.0, 0.0]},
            "daln": {"x": [1.0, 2.0, 3.0], "alphas": [1.0], "betas": [0.0], "confidence": [1.0]},
        }[case]
        bad, out, pred = tmp_path / "bad.json", tmp_path / "out", tmp_path / "pred.jsonl"
        if isinstance(change, dict):
            change = {k: v for k, v in {**valid, **change}.items() if v is not DROP}
        bad.write_text(json.dumps(change))
        bio.write_boxes_jsonl(pred, [Box3D(b.center, b.dims, b.rotation, b.category, 0.5)
                                     for _, b in bio.read_boxes_jsonl(scene_dir / "boxes.jsonl")])
        argv = {
            "config": ["--config", str(bad), "grid", "--out", str(out)],
            "boxes": ["eval", "--gt", str(bad), "--pred", str(pred), "--out", str(out)],
            "intrinsics": ["unify", "--in", str(scene_dir / "cloud.mmpc"),
                           "--intrinsics", str(bad), "--out", str(out)],
            "calign": ["losses", "calign", "--input", str(bad), "--out", str(out)],
            "daln": ["losses", "daln", "--input", str(bad), "--out", str(out)],
            "pose": ["unify", "--in", str(scene_dir / "cloud.mmpc"), "--intrinsics",
                     str(scene_dir / "intrinsics.json"), "--pose", str(bad), "--out", str(out)],
        }[case]
        code, _, err = run(capsys, *argv)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bevkit: ")
        assert key in lines[0]
        assert not out.exists()


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    bio.write_intrinsics(root / "k.json", CameraIntrinsics(8.0, 8.0, 4.0, 4.0, 8, 8))
    return root


def assert_one_line_data_error(root, payload: bytes) -> list:
    """``payload`` as `unify`'s input (MMPC, or TNSR without the MMPC magic)
    and as `project`'s image features: exit 2, one `bevkit:` line, no output.
    Returns the two messages."""
    bad, out = root / "bad", root / "out"
    bad.write_bytes(payload)
    k = str(root / "k.json")
    messages = []
    for argv in (["unify", "--in", str(bad), "--intrinsics", k],
                 ["project", "--fi", str(bad), "--fd", str(bad), "--intrinsics", k]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bevkit: "), lines
        assert stdout.getvalue() == "" and not out.exists()
        messages.append(lines[0])
    return messages


def tnsr_bytes(data) -> bytes:
    header = json.dumps({"shape": list(data.shape)}, separators=(",", ":")).encode()
    return header + b"\n" + np.ascontiguousarray(data, dtype="<f8").tobytes()


def mmpc_bytes(points) -> bytes:
    return b"MMPC" + struct.pack("<I", len(points)) + np.asarray(points, "<f4").tobytes()


finite_tensors = arrays(np.float64, array_shapes(min_dims=4, max_dims=4, min_side=1, max_side=3),
                        elements=st.floats(-1e3, 1e3))
float32_points = arrays(np.float32, st.tuples(st.integers(0, 6), st.just(4)),
                        elements=st.floats(-1e3, 1e3, width=32))
not_finite = st.sampled_from([np.nan, np.inf, -np.inf])


class TestMalformedFiles:
    """Properties: every malformed TNSR or MMPC input is one data error."""

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(finite_tensors.map(tnsr_bytes), float32_points.map(mmpc_bytes)),
           st.data())
    def test_truncated_file(self, malformed_dir, payload, data):
        cut = data.draw(st.integers(0, len(payload) - 1))
        assert_one_line_data_error(malformed_dir, payload[:cut])

    @settings(deadline=None, max_examples=60)
    @given(finite_tensors, not_finite, st.data())
    def test_non_finite_tnsr_value(self, malformed_dir, tensor, value, data):
        tensor.flat[data.draw(st.integers(0, tensor.size - 1))] = value
        assert_one_line_data_error(malformed_dir, tnsr_bytes(tensor))

    @settings(deadline=None, max_examples=60)
    @given(float32_points.filter(len), not_finite, st.data())
    def test_non_finite_mmpc_value(self, malformed_dir, points, value, data):
        points.flat[data.draw(st.integers(0, points.size - 1))] = value
        assert_one_line_data_error(malformed_dir, mmpc_bytes(points))

    @pytest.mark.parametrize("bits", [0x7F800001, 0xFF800001, 0x7FC00000, 0x7F800000],
                             ids=["signalling-nan", "negative-signalling-nan", "quiet-nan",
                                  "inf"])
    def test_non_finite_mmpc_bits(self, malformed_dir, bits):
        # widening a signalling NaN to float64 raises numpy's invalid-cast
        # warning, which would print two lines ahead of the data error
        points = np.ones((3, 4), dtype="<f4")
        points.view("<u4")[1, 1] = bits
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_one_line_data_error(malformed_dir, mmpc_bytes(points))
        assert caught == []

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(
        st.lists(st.integers(0, 3), max_size=6).filter(lambda s: len(s) != 4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(lambda s: min(s) < 0),
        st.lists(st.one_of(st.integers(1, 3), st.floats(), st.booleans(), st.none(),
                           st.text(max_size=2)), min_size=4, max_size=4).filter(
            lambda s: not all(type(v) is int for v in s)),
        st.none(), st.integers(), st.text(max_size=3),
    ).map(lambda shape: {"shape": shape}) | st.just({}) | st.lists(st.integers(1, 3)),
        st.binary(max_size=64))
    def test_mis_shaped_tnsr_header(self, malformed_dir, header, payload):
        assert_one_line_data_error(malformed_dir, json.dumps(header).encode() + b"\n" + payload)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4), st.integers(0, 3),
           st.integers(2**60, 2**80), st.binary(max_size=16))
    def test_oversized_tnsr_axis_is_named(self, malformed_dir, shape, axis, size, payload):
        shape[axis] = size
        messages = assert_one_line_data_error(
            malformed_dir, json.dumps({"shape": shape}).encode() + b"\n" + payload)
        assert all(m.startswith(f"bevkit: TNSR header: axis {axis} ") for m in messages)

    @settings(deadline=None, max_examples=60)
    @given(float32_points, st.integers(0, 2**32 - 1))
    def test_mmpc_count_mismatch(self, malformed_dir, points, count):
        assume(count != len(points))
        payload = mmpc_bytes(points)
        assert_one_line_data_error(malformed_dir,
                                   payload[:4] + struct.pack("<I", count) + payload[8:])


class TestGrid:
    def test_print_edges_defaults(self, capsys):
        code, out, _ = run(capsys, "grid", "--print-edges")
        assert code == 0
        edges = [float(line) for line in out.strip().splitlines()]
        assert len(edges) == 81
        assert edges[0] == 0.0 and edges[-1] == 80.0

    def test_grid_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        code, _, _ = run(capsys, "grid", "--out", str(path))
        assert code == 0
        from bevkit.grid import UnevenGridSpec

        g = UnevenGridSpec.from_json(path.read_text())
        assert g.n_x == 60 and g.n_z == 80

    def test_even_flag(self, capsys, tmp_path):
        # the config's uneven_grid switch, with the depth range and count beside it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"uneven_grid": False, "n_z": 4, "z_range": [0, 8]}))
        path = tmp_path / "grid.json"
        assert main(["--config", str(cfg), "grid", "--out", str(path)]) == 0
        from bevkit.grid import UnevenGridSpec

        g = UnevenGridSpec.from_json(path.read_text())
        np.testing.assert_allclose(g.depth_edges, [0, 2, 4, 6, 8])


class TestSynthAndUnify:
    def test_synth_writes_expected_files(self, scene_dir):
        for name in ("cloud.mmpc", "depth.tnsr", "boxes.jsonl", "intrinsics.json"):
            assert (scene_dir / name).exists()

    def test_synth_honours_config(self, tmp_path):
        # the depth bins span the config's z_range; the cloud keeps points
        # within the config's visibility_tol of the nearest one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_range": [0, 40], "visibility_tol": 5.0}))
        argv = ["synth", "--seed", "3", "--regime", "outdoor", "--out-dir"]
        out, default, ref = tmp_path / "out", tmp_path / "default", tmp_path / "ref"
        assert main(["--config", str(cfg)] + argv + [str(out)]) == 0
        assert main(argv + [str(default)]) == 0
        bundle = generate(SceneSpec(seed=3, regime="outdoor", bev_z_range=(0.0, 40.0),
                                    visibility_tol=5.0))
        ref.mkdir()
        bio.write_tnsr(ref / "depth.tnsr", bundle.depth_dist.probs[None])
        bio.write_mmpc(ref / "cloud.mmpc", bundle.cloud)
        for name in ("depth.tnsr", "cloud.mmpc"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()
            assert (out / name).read_bytes() != (default / name).read_bytes()

    def test_synth_honours_uneven_projection_bins(self, tmp_path):
        # the depth distribution is laid over the bins project reads
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"uneven_projection_bins": True}))
        argv = ["synth", "--seed", "3", "--regime", "outdoor", "--out-dir"]
        out, default = tmp_path / "out", tmp_path / "default"
        assert main(["--config", str(cfg)] + argv + [str(out)]) == 0
        assert main(argv + [str(default)]) == 0
        bundle = generate(SceneSpec(seed=3, regime="outdoor", uneven_depth_bins=True))
        ref = tmp_path / "ref.tnsr"
        bio.write_tnsr(ref, bundle.depth_dist.probs[None])
        assert (out / "depth.tnsr").read_bytes() == ref.read_bytes()
        assert (out / "depth.tnsr").read_bytes() != (default / "depth.tnsr").read_bytes()

    def test_synth_refuses_zero_depth_bins(self, capsys, tmp_path):
        out = tmp_path / "scene"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused before any edge is computed
            code, stdout, err = run(capsys, "synth", "--depth-bins", "0", "--out-dir", str(out))
        assert code == 2
        assert err.splitlines() == ["bevkit: need at least one depth bin, got 0"]
        assert stdout == "" and not out.exists()

    def test_unify_accepts_synth_cloud(self, capsys, scene_dir, tmp_path):
        out = tmp_path / "visible.mmpc"
        stats = tmp_path / "stats.json"
        code, msg, _ = run(capsys, "unify", "--in", str(scene_dir / "cloud.mmpc"),
                           "--intrinsics", str(scene_dir / "intrinsics.json"),
                           "--out", str(out), "--stats", str(stats))
        assert code == 0
        s = json.loads(stats.read_text())
        assert s["input"] == s["retained"] + s["out_of_view"] + s["occluded"]
        assert len(bio.read_mmpc(out)) == s["retained"]

    def test_unify_cloud_beyond_float32_is_a_data_error(self, capsys, scene_dir, tmp_path):
        # the pose moves every point to z ~ 1e300, still in view, which no
        # float32 MMPC record holds: it once printed numpy's overflow
        # warning and wrote inf
        bio.write_pose(tmp_path / "pose.json", Pose(np.eye(3), [0.0, 0.0, 1e300]))
        out = tmp_path / "visible.mmpc"
        capsys.readouterr()     # synth's summary
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, msg, err = run(capsys, "unify", "--in", str(scene_dir / "cloud.mmpc"),
                                 "--intrinsics", str(scene_dir / "intrinsics.json"),
                                 "--pose", str(tmp_path / "pose.json"), "--out", str(out))
        assert caught == [] and code == 2 and msg == ""
        assert err == "bevkit: point cloud entries must fit MMPC's float32 range\n"
        assert not out.exists()

    def test_unify_depthmap_input(self, capsys, tmp_path, default_k):
        k = tmp_path / "k.json"
        bio.write_intrinsics(k, default_k)
        depth = np.zeros((1, 1, 480, 640))
        depth[0, 0, 240, 420] = 10.0
        dm = tmp_path / "depth.tnsr"
        bio.write_tnsr(dm, depth)
        out = tmp_path / "cloud.mmpc"
        code, _, _ = run(capsys, "unify", "--in", str(dm),
                         "--intrinsics", str(k), "--out", str(out))
        assert code == 0
        cloud = bio.read_mmpc(out)
        np.testing.assert_allclose(cloud.points, [[2.0, 0.0, 10.0, 1.0]])


class TestProject:
    def test_project_synth_scene(self, capsys, scene_dir, tmp_path):
        fi = tmp_path / "fi.tnsr"
        depth = bio.read_tnsr(scene_dir / "depth.tnsr")
        h, w = depth.shape[2], depth.shape[3]
        bio.write_tnsr(fi, np.ones((2, 1, h, w)))
        out = tmp_path / "bev.tnsr"
        stats = tmp_path / "stats.json"
        code, _, _ = run(capsys, "project", "--fi", str(fi),
                         "--fd", str(scene_dir / "depth.tnsr"),
                         "--intrinsics", str(scene_dir / "intrinsics.json"),
                         "--out", str(out), "--stats", str(stats))
        assert code == 0
        bev = bio.read_tnsr(out)
        assert bev.shape == (2, 1, 80, 60)
        s = json.loads(stats.read_text())
        assert s["kept"] + round(s["removal_ratio"] * s["total"]) == s["total"]


# the flags each kind reads; each kind's handler reads no other
LOSSES_READS = {
    "daln": {"--input": "x", "--check-init": None, "--seed": "1", "--out": "o"},
    "calign": {"--input": "x", "--out": "o"},
    "mic-p2i": {"--point": "x", "--image": "x", "--mask-p": "x", "--grad-out": "o",
                "--grad-check": None},
    "mic-i2p": {"--point": "x", "--image": "x", "--mask-p": "x", "--mask-i": "x",
                "--grad-out": "o", "--grad-check": None},
}
# the mode of daln that reads each of its optional flags
DALN_MODE_OF = {"--seed": ["--check-init"], "--out": ["--input", "in.json"]}
LOSSES_VALID = {
    "daln": ["--check-init"],
    "calign": ["--input", "in.json"],
    "mic-p2i": ["--point", "bp", "--image", "bi", "--mask-p", "mp"],
    "mic-i2p": ["--point", "bp", "--image", "bi", "--mask-p", "mp", "--mask-i", "mi"],
}


class TestLosses:
    def test_daln_check_init(self, capsys):
        code, out, _ = run(capsys, "losses", "daln", "--check-init")
        assert code == 0
        value = float(out.strip().rsplit(" ", 1)[-1])
        assert value < 1e-12

    def test_daln_eval(self, capsys, tmp_path):
        payload = {"x": [1.0, 2.0, 3.0], "alphas": [1.0], "betas": [0.0],
                   "confidence": [1.0]}
        path = tmp_path / "daln.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "losses", "daln", "--input", str(path))
        assert code == 0
        got = json.loads(out)["output"]
        np.testing.assert_allclose(got, [-1.224745, 0.0, 1.224745], atol=1e-6)

    CALIGN = {"losses": [1.0, 1.0], "predicted": [5, 2], "labels": [99, 99],
              "spaces": {"0": [1, 2, 3]}, "background": 99, "dataset": 0}

    def test_calign(self, capsys, tmp_path):
        # the background-labelled entry predicting class 5, outside the
        # dataset's label space, is scaled by gamma: 0.2 by default
        path = tmp_path / "calign.json"
        path.write_text(json.dumps(self.CALIGN))
        code, out, _ = run(capsys, "losses", "calign", "--input", str(path))
        assert code == 0
        assert float(out.split()[-1]) == pytest.approx(0.2 + 1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5}))
        code, out, _ = run(capsys, "--config", str(cfg), "losses", "calign", "--input", str(path))
        assert code == 0
        assert float(out.split()[-1]) == pytest.approx(0.5 + 1.0)

    def test_calign_gamma_key_is_refused(self, capsys, tmp_path):
        # gamma is read from --config alone, so an input carrying it cannot score
        path, out = tmp_path / "calign.json", tmp_path / "out.json"
        path.write_text(json.dumps({**self.CALIGN, "gamma": 0.2}))
        code, stdout, err = run(capsys, "losses", "calign", "--input", str(path),
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.strip().splitlines() == [
            f"bevkit: {path}: key 'gamma' is not read here; set gamma in the --config file"]
        assert not out.exists()

    def test_mic_p2i_with_grad_check(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        point = rng.normal(size=(1, 1, 4, 4))
        image = point + rng.choice([-1.0, 1.0], size=(1, 1, 4, 4)) * 0.5
        mask = (rng.uniform(size=(1, 1, 4, 4)) < 0.6).astype(float)
        for name, data in (("bp", point), ("bi", image), ("mp", mask)):
            bio.write_tnsr(tmp_path / f"{name}.tnsr", data)
        grad_path = tmp_path / "grad.tnsr"
        code, out, _ = run(capsys, "losses", "mic-p2i",
                           "--point", str(tmp_path / "bp.tnsr"),
                           "--image", str(tmp_path / "bi.tnsr"),
                           "--mask-p", str(tmp_path / "mp.tnsr"),
                           "--grad-out", str(grad_path), "--grad-check")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("loss ")
        err = float(lines[1].rsplit(" ", 1)[-1])
        assert err < 1e-6
        grad = bio.read_tnsr(grad_path)
        assert grad.shape == (1, 1, 4, 4)

    def test_mic_i2p(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.normal(size=(1, 1, 3, 3))
        point = image + 0.5
        m_i = np.ones((1, 1, 3, 3))
        m_p = np.zeros((1, 1, 3, 3))
        for name, data in (("bi", image), ("bp", point), ("mi", m_i), ("mp", m_p)):
            bio.write_tnsr(tmp_path / f"{name}.tnsr", data)
        code, out, _ = run(capsys, "losses", "mic-i2p",
                           "--image", str(tmp_path / "bi.tnsr"),
                           "--point", str(tmp_path / "bp.tnsr"),
                           "--mask-i", str(tmp_path / "mi.tnsr"),
                           "--mask-p", str(tmp_path / "mp.tnsr"))
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(0.5)

    def test_mic_requires_tensor_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["losses", "mic-p2i"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag) for kind in LOSSES_READS
        for flag in sorted(set().union(*LOSSES_READS.values()) - LOSSES_READS[kind].keys())
    ])
    def test_kind_refuses_flags_it_does_not_read(self, capsys, tmp_path, monkeypatch, kind,
                                                 flag):
        monkeypatch.chdir(tmp_path)
        value = {f: v for reads in LOSSES_READS.values() for f, v in reads.items()}[flag]
        extra = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(["losses", kind] + LOSSES_VALID[kind] + extra)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: bevkit ")
        assert f"unrecognized arguments: {' '.join(extra)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag) for kind, reads in LOSSES_READS.items() for flag in reads
    ])
    def test_kind_accepts_flags_it_reads(self, kind, flag):
        value = LOSSES_READS[kind][flag]
        extra = [flag] if value is None else [flag, value]
        # a repeated flag overrides; daln reads --out in its --input mode
        base = DALN_MODE_OF.get(flag, []) if kind == "daln" else LOSSES_VALID[kind]
        args = _build_parser().parse_args(["losses", kind] + base + extra)
        assert args.kind == kind

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode in (["--input", "in.json"], ["--check-init"])
        for flag in ("--seed", "--out") if DALN_MODE_OF[flag] != mode
    ])
    def test_daln_mode_refuses_flags_it_does_not_read(self, capsys, tmp_path, monkeypatch,
                                                      mode, flag):
        monkeypatch.chdir(tmp_path)
        extra = [flag, LOSSES_READS["daln"][flag]]
        with pytest.raises(SystemExit) as exc:
            main(["losses", "daln"] + mode + extra)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: bevkit losses daln ")
        assert err.strip().splitlines()[-1] == (
            f"bevkit losses daln: error: argument {flag}: not allowed with argument {mode[0]}")
        assert list(tmp_path.iterdir()) == []

    REFUSED = [
        (["daln", "--input", "x", "--check-init"],
         "argument --check-init: not allowed with argument --input"),
        (["daln", "--seed", "1"], "one of the arguments --input --check-init is required"),
        (["calign"], "the following arguments are required: --input"),
        (["calign", "--out", "o"], "the following arguments are required: --input"),
        (["mic-i2p", "--point", "x", "--image", "x", "--mask-p", "x"],
         "the following arguments are required: --mask-i"),
    ]

    @pytest.mark.parametrize("argv, message",
                             [pytest.param(a, m, id=" ".join(a)) for a, m in REFUSED])
    def test_kind_requires_its_inputs(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["losses"] + argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bevkit losses {argv[0]} ")
        assert err.strip().splitlines()[-1] == f"bevkit losses {argv[0]}: error: {message}"


class TestEval:
    def test_perfect_predictions(self, capsys, tmp_path):
        bundle = generate(SceneSpec(seed=11, regime="indoor"))
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        bio.write_boxes_jsonl(gt_path, bundle.boxes)
        bio.write_boxes_jsonl(pred_path, perturb(bundle.boxes, 0, 0, 0))
        out = tmp_path / "metrics.json"
        code, msg, _ = run(capsys, "eval", "--gt", str(gt_path),
                           "--pred", str(pred_path), "--out", str(out))
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["headline_ap"] == 1.0
        assert metrics["ap25"] == 1.0 and metrics["ap50"] == 1.0
        assert "headline AP: 1.0000" in msg

    def test_degenerate_box_is_a_data_error(self, capsys, tmp_path):
        bio.write_boxes_jsonl(tmp_path / "gt.jsonl", [Box3D([0, 0, 5], [1e-5] * 3, np.eye(3))])
        bio.write_boxes_jsonl(tmp_path / "pred.jsonl",
                              [Box3D([0, 0, 5], [2, 2, 2], np.eye(3), score=0.9)])
        out = tmp_path / "metrics.json"
        code, _, err = run(capsys, "eval", "--gt", str(tmp_path / "gt.jsonl"),
                           "--pred", str(tmp_path / "pred.jsonl"), "--out", str(out))
        assert code == 2
        assert err.splitlines() == ["bevkit: degenerate (near-zero volume) box"]
        assert not out.exists()

    @pytest.mark.parametrize("side", [1e110, 1e200])
    def test_overflowing_box_is_a_data_error(self, capsys, tmp_path, side):
        # its volume, and at 1e200 its diagonal, overflows float64
        bio.write_boxes_jsonl(tmp_path / "gt.jsonl", [Box3D([0, 0, 5], [2, 2, 2], np.eye(3))])
        bio.write_boxes_jsonl(tmp_path / "pred.jsonl",
                              [Box3D([0, 0, 5], [side] * 3, np.eye(3), score=0.9)])
        out = tmp_path / "metrics.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "eval", "--gt", str(tmp_path / "gt.jsonl"),
                               "--pred", str(tmp_path / "pred.jsonl"), "--out", str(out))
        assert caught == []
        assert code == 2
        assert err.splitlines() == [
            "bevkit: box too large: its volume or diagonal overflows float64"]
        assert not out.exists()

    def test_custom_eval_config(self, capsys, tmp_path):
        gt = [Box3D([0, 0, 5], [2, 2, 2], np.eye(3))]
        bio.write_boxes_jsonl(tmp_path / "gt.jsonl", gt)
        bio.write_boxes_jsonl(
            tmp_path / "pred.jsonl",
            [Box3D([0, 0, 5], [2, 2, 2], np.eye(3), score=1.0)])
        cfg = {"iou_thresholds": [0.1, 0.3], "depth_bands": [[0, 40], [40, 80]],
               "band_names": ["close", "distant"]}
        (tmp_path / "eval.json").write_text(json.dumps(cfg))
        out = tmp_path / "metrics.json"
        code, _, _ = run(capsys, "--config", str(tmp_path / "eval.json"),
                         "eval", "--gt", str(tmp_path / "gt.jsonl"),
                         "--pred", str(tmp_path / "pred.jsonl"), "--out", str(out))
        assert code == 0
        metrics = json.loads(out.read_text())
        assert set(metrics["ap_bands"]) == {"close", "distant"}

    def test_cfg_flag_is_gone(self, capsys, tmp_path):
        bio.write_boxes_jsonl(tmp_path / "gt.jsonl", [Box3D([0, 0, 5], [2, 2, 2], np.eye(3))])
        (tmp_path / "eval.json").write_text(json.dumps({"iou_thresholds": [0.5]}))
        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(tmp_path / "gt.jsonl"), "--pred", str(tmp_path / "gt.jsonl"),
                  "--cfg", str(tmp_path / "eval.json"), "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --cfg" in capsys.readouterr().err
        assert not out.exists()

    def test_method_flag_is_gone(self, capsys, tmp_path):
        tilt = np.array([[1.0, 0.0, 0.0],
                         [0.0, np.cos(0.4), -np.sin(0.4)],
                         [0.0, np.sin(0.4), np.cos(0.4)]])
        bio.write_boxes_jsonl(tmp_path / "gt.jsonl", [Box3D([0, 0, 5], [1.8, 1.5, 4.2], tilt)])
        bio.write_boxes_jsonl(tmp_path / "pred.jsonl",
                              [Box3D([0, 0, 5], [1.8, 1.5, 4.2], np.eye(3), score=0.9)])
        out = tmp_path / "metrics.json"
        argv = ["eval", "--gt", str(tmp_path / "gt.jsonl"),
                "--pred", str(tmp_path / "pred.jsonl"), "--out", str(out)]
        for method in ("yaw", "exact"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--method", method])
            assert exc.value.code == 1
            assert f"unrecognized arguments: --method {method}" in capsys.readouterr().err
            assert not out.exists()
        # the tilted pair overlaps with IoU 0.585: matched up to 0.55, missed at 0.6
        (tmp_path / "eval.json").write_text(json.dumps(
            {"iou_thresholds": [0.55, 0.6], "depth_bands": [[0, 80]], "band_names": ["all"]}))
        code, _, _ = run(capsys, "--config", str(tmp_path / "eval.json"), *argv)
        assert code == 0
        assert json.loads(out.read_text())["ap_per_threshold"] == {
            "0.25": 1.0, "0.50": 1.0, "0.55": 1.0, "0.60": 0.0}


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """Acceptance criterion 10's eval inputs: the boxes of `synth --seed 5
    --regime outdoor --n-objects 5` and their perturbed predictions."""
    root = tmp_path_factory.mktemp("eval")
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "5", "--regime", "outdoor", "--n-objects", "5",
                     "--out-dir", str(root)]) == 0
    boxes = [b for _, b in bio.read_boxes_jsonl(root / "boxes.jsonl")]
    bio.write_boxes_jsonl(root / "preds.jsonl", perturb(boxes, 0.2, 0.0, 0.0, seed=5))
    return root


ARRAY_KEYS = ("center", "dims", "R")
BAD_VALUES = st.sampled_from(["x", None, True, [], {}, float("nan"), float("inf"),
                              -float("inf"), 1e300, -1e300])


@st.composite
def box_mutations(draw, records):
    """One mutation of one of ``records`` (parsed box JSONL lines): a key
    dropped, a field or one array entry replaced by a bad value, an array
    reshaped, a bool or float category, a rotation that is not orthonormal,
    or the file cut inside the record.  Returns the file text and the key
    dropped, if any."""
    records = [json.loads(json.dumps(r)) for r in records]
    i = draw(st.integers(0, len(records) - 1))
    rec = records[i]
    kind = draw(st.sampled_from(["drop", "field", "entry", "shape", "category", "rotation",
                                 "truncate"]))
    dropped = None
    if kind == "drop":
        dropped = draw(st.sampled_from(sorted(rec)))
        del rec[dropped]
    elif kind == "field":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(BAD_VALUES)
    elif kind == "entry":
        values = rec[draw(st.sampled_from(ARRAY_KEYS))]
        values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUES)
    elif kind == "shape":
        key = draw(st.sampled_from(ARRAY_KEYS))
        values = rec[key]
        rec[key] = draw(st.sampled_from([values[:-1], values + [1.0], [values], values[0],
                                         [values[:1], values[1:]], []]))
    elif kind == "category":
        rec["category"] = draw(st.sampled_from([True, False, 1.0, 0.5, 1e300]))
    elif kind == "rotation":
        rot = np.array(rec["R"]).reshape(3, 3)
        bent = draw(st.sampled_from([1.1 * rot, 0.5 * rot, -rot, rot[[1, 0, 2]],
                                     rot + 1e-6, 1e300 * rot]))
        rec["R"] = bent.ravel().tolist()
    lines = [json.dumps(r) for r in records]
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        start = sum(len(line) + 1 for line in lines[:i])
        text = text[:start + draw(st.integers(0, len(lines[i]) - 1))]
    return text, dropped


class TestEvalReadersUnderMutation:
    """Property: `eval` on mutated predictions either succeeds silently or
    fails with exactly one `bevkit:` line, exit 2 and no output file."""

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_one_line_or_success(self, eval_files, data):
        records = [json.loads(line) for line in
                   (eval_files / "preds.jsonl").read_text().splitlines()]
        text, dropped = data.draw(box_mutations(records))
        pred, out = eval_files / "mutated.jsonl", eval_files / "metrics.json"
        pred.write_text(text)
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(["eval", "--gt", str(eval_files / "boxes.jsonl"),
                             "--pred", str(pred), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert stderr.getvalue() == "" and out.exists()
            return
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bevkit: "), lines
        assert stdout.getvalue() == "" and not out.exists()
        if dropped in ARRAY_KEYS:
            assert lines[0].endswith(f"bad box record: missing key {dropped!r}")


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """`unify`'s and `project`'s inputs, from `synth --seed 3 --regime
    indoor`: its cloud, depth distribution and intrinsics, and beside them
    a depth map of the distribution's most likely bin (in bin units) with
    the feature camera's intrinsics, image features, a pose and a config
    of the defaults."""
    root = tmp_path_factory.mktemp("readers")
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "3", "--regime", "indoor", "--out-dir", str(root)]) == 0
    probs = bio.read_tnsr(root / "depth.tnsr").data
    bio.write_tnsr(root / "depthmap.tnsr", 1.0 + probs.argmax(axis=1)[:, None])
    K = bio.read_intrinsics(root / "intrinsics.json")
    h, w = probs.shape[2:]
    bio.write_intrinsics(root / "feature_k.json", CameraIntrinsics(
        K.fx * w / K.width, K.fy * h / K.height, K.cx * w / K.width, K.cy * h / K.height, w, h))
    bio.write_tnsr(root / "fi.tnsr", np.random.default_rng(3).normal(size=(2, 1, h, w)))
    bio.write_pose(root / "pose.json", Pose(yaw_rotation(0.1), [0.2, -0.1, 0.3]))
    save_config(Config(), root / "cfg.json")
    return root


# each command's input files, by flag; --config is one of every command's
READER_COMMANDS = {
    "unify-cloud": {"--in": "cloud.mmpc", "--intrinsics": "intrinsics.json",
                    "--pose": "pose.json"},
    "unify-depthmap": {"--in": "depthmap.tnsr", "--intrinsics": "feature_k.json",
                       "--pose": "pose.json"},
    "project": {"--fi": "fi.tnsr", "--fd": "depth.tnsr", "--intrinsics": "intrinsics.json"},
}
BAD_FLOAT32 = st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -3e38, 0.0, -0.0, 1e-45])
BAD_FLOAT64 = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0, 5e-324])


def mutate_binary(draw, payload: bytes, mmpc: bool) -> bytes:
    """One mutation of an MMPC or TNSR file: cut short, one byte or one
    value overwritten, the MMPC count or the TNSR shape changed, or bytes
    appended."""
    kind = draw(st.sampled_from(["truncate", "byte", "value", "header", "append"]))
    start = 8 if mmpc else payload.index(b"\n") + 1
    width = 4 if mmpc else 8
    if kind == "truncate":
        return payload[:draw(st.integers(0, len(payload) - 1))]
    if kind == "byte":
        at = draw(st.integers(0, len(payload) - 1))
        return payload[:at] + bytes([draw(st.integers(0, 255))]) + payload[at + 1:]
    if kind == "value":
        at = start + width * draw(st.integers(0, (len(payload) - start) // width - 1))
        value = np.array(draw(BAD_FLOAT32 if mmpc else BAD_FLOAT64), "<f4" if mmpc else "<f8")
        return payload[:at] + value.tobytes() + payload[at + width:]
    if kind == "append":
        return payload + draw(st.binary(min_size=1, max_size=24))
    if mmpc:
        return payload[:4] + struct.pack("<I", draw(st.integers(0, 2**32 - 1))) + payload[8:]
    shape = json.loads(payload[:start])["shape"]
    axis = draw(st.integers(0, 3))
    shape[axis] = draw(st.sampled_from([0, -1, shape[axis] - 1, shape[axis] + 1, 2 * shape[axis],
                                        "x", None, 1.5, True]))
    if draw(st.booleans()):
        shape = shape[::-1]
    return json.dumps({"shape": shape}).encode() + b"\n" + payload[start:]


def mutate_json(draw, text: str) -> str:
    """One mutation of a JSON object file: a key dropped or added, a field
    or one list entry replaced by a bad value, a number scaled, a list
    reshaped, another top-level value, or the file cut short."""
    kind = draw(st.sampled_from(["drop", "add", "field", "entry", "scale", "shape", "top",
                                 "truncate"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "top":
        return json.dumps(draw(st.sampled_from([[], 1, "x", None, [json.loads(text)]])))
    d = json.loads(text)
    key = draw(st.sampled_from(sorted(d)))
    lists = sorted(k for k, v in d.items() if isinstance(v, list) and v)
    if kind == "drop":
        del d[key]
    elif kind == "add":
        d[draw(st.sampled_from(["extra", "R", "t", "fx", "width", "tau", "n_x"]))] = 1
    elif kind == "field":
        d[key] = draw(BAD_VALUES)
    elif kind == "entry" and lists:
        values = d[draw(st.sampled_from(lists))]
        values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUES)
    elif kind == "scale" and isinstance(d[key], (int, float)) and not isinstance(d[key], bool):
        # integers stay small: an image size is allocated
        d[key] = (draw(st.sampled_from([0, -1, 1, d[key] - 1, d[key] + 1]))
                  if isinstance(d[key], int) else
                  d[key] * draw(st.sampled_from([-1.0, 0.0, 1e-300, 0.5, 2.0, 1e300])))
    elif kind == "shape" and lists:
        k = draw(st.sampled_from(lists))
        values = d[k]
        d[k] = draw(st.sampled_from([values[:-1], values + [1.0], [values], values[0], []]))
    return json.dumps(d)


class TestUnifyProjectReadersUnderMutation:
    """Property: `unify` (MMPC or depth-map TNSR, intrinsics, pose) and
    `project` (both TNSRs, intrinsics), under a --config file, on one
    mutated input either succeed silently or fail with exactly one
    `bevkit:` line, exit 2 and no output file."""

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(READER_COMMANDS)), st.data())
    def test_one_line_or_success(self, reader_files, command, data):
        inputs = {**READER_COMMANDS[command], "--config": "cfg.json"}
        flag = data.draw(st.sampled_from(sorted(inputs)))
        name = inputs[flag]
        payload = (reader_files / name).read_bytes()
        if name.endswith(".json"):
            mutated = mutate_json(data.draw, payload.decode()).encode()
        else:
            mutated = mutate_binary(data.draw, payload, name.endswith(".mmpc"))
        (reader_files / "mutated").write_bytes(mutated)
        paths = {f: str(reader_files / ("mutated" if f == flag else n)) for f, n in inputs.items()}
        out, stats = reader_files / "out", reader_files / "stats.json"
        out.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        argv = ["--config", paths.pop("--config"), command.split("-")[0]]
        argv += [a for f, p in paths.items() for a in (f, p)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv + ["--out", str(out), "--stats", str(stats)])
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert stderr.getvalue() == "" and out.exists() and stats.exists()
            return
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bevkit: "), lines
        assert stdout.getvalue() == "" and not out.exists() and not stats.exists()


class TestBenchDeterminism:
    def test_identical_invocations_identical_csv(self, capsys, tmp_path):
        args = ["bench", "--tau", "0", "--tau", "1e-3", "--seed", "7",
                "--hf", "8", "--wf", "8", "--cd", "12", "--ci", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "tau,kept_ratio,checksum"

    def test_thread_count_does_not_change_output(self, tmp_path):
        base = ["bench", "--tau", "1e-3", "--seed", "9", "--hf", "8",
                "--wf", "8", "--cd", "12", "--ci", "4"]
        one, four = tmp_path / "one.csv", tmp_path / "four.csv"
        assert main(["--threads", "1"] + base + ["--out", str(one)]) == 0
        assert main(["--threads", "4"] + base + ["--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_config_uneven_projection_bins_moves_the_checksum(self, capsys, tmp_path):
        args = ["bench", "--tau", "0", "--hf", "8", "--wf", "8", "--cd", "12", "--ci", "4"]
        checksums = {}
        for uneven in (True, False, None):
            out = tmp_path / f"{uneven}.csv"
            cfg = tmp_path / f"{uneven}.json"
            cfg.write_text(json.dumps({} if uneven is None else {"uneven_projection_bins": uneven}))
            assert main(["--config", str(cfg)] + args + ["--out", str(out)]) == 0
            checksums[uneven] = out.read_text().splitlines()[1].rsplit(",", 1)[1]
        # the default config splats with even bins
        assert checksums[False] == checksums[None] == "cdbaf4d2a31bba95"
        assert checksums[True] != checksums[False]

    @pytest.mark.parametrize("flag", ["--hf", "--wf", "--cd", "--ci"])
    def test_zero_size_is_named(self, capsys, tmp_path, flag):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "bench", flag, "0", "--out", str(out))
        assert code == 2
        assert err.strip().splitlines() == [f"bevkit: {flag} must be a positive size, got 0"]
        assert not out.exists()

    def test_nan_tau_is_a_data_error(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, stdout, err = run(capsys, "bench", "--tau", "1e-3", "--tau", "nan",
                                "--out", str(out))
        assert code == 2
        assert err.splitlines() == ["bevkit: tau must be non-negative, not NaN"]
        assert stdout == "" and not out.exists()

    def test_backend_flag_is_gone(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--tau", "1e-2", "--backend", "numpy", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err
        assert not out.exists()


class TestThreadsEnv:
    def test_nothing_written_outside_out_paths(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        outdir = tmp_path / "out"
        workdir.mkdir()
        outdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["grid", "--out", str(outdir / "grid.json")]) == 0
        assert main(["synth", "--seed", "1", "--out-dir", str(outdir / "scene")]) == 0
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_thread_count_below_one_is_a_usage_error(self, capsys, tmp_path, n):
        out = tmp_path / "grid.json"
        code, stdout, err = run(capsys, "--threads", n, "grid", "--out", str(out))
        assert code == 1
        assert err.splitlines() == [f"bevkit: error: --threads must be >= 1, got {n}"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv, want", [
        (["--threads", "1000000"], "cores"), (["--threads", "1"], 1), ([], "cores")])
    def test_thread_count_is_capped_at_the_available_cores(self, monkeypatch, argv, want):
        # the count main hands the pool, recorded in place of starting it
        counts = []
        monkeypatch.setattr(rows, "worker_count", lambda n: counts.append(n) or nullcontext())
        assert main([*argv, "grid"]) == 0
        assert counts == [rows.available_cores() if want == "cores" else want]


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = Config(tau=5e-3, n_x=30, uneven_grid=False)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_match_reference_operating_point(self):
        cfg = Config()
        assert cfg.x_range == (-30.0, 30.0)
        assert cfg.z_range == (0.0, 80.0)
        assert (cfg.n_x, cfg.n_z) == (60, 80)
        assert cfg.tau == 1e-3
        assert cfg.gamma == 0.2
        assert cfg.epsilon == 5e-4
        assert cfg.m_proposals == 100

    @pytest.mark.parametrize("text", ['{"z_range": [0, Infinity]}',
                                      '{"x_range": [-Infinity, 30]}'])
    @pytest.mark.parametrize("argv", [["grid"], ["eval", "--gt", "gt.jsonl", "--pred", "p.jsonl"]],
                             ids=lambda v: v[0])
    def test_infinite_grid_range_is_a_data_error(self, capsys, tmp_path, text, argv):
        # refused as the config is read, also by a subcommand that builds no grid
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no inf * 0 on the way
            code, stdout, err = run(capsys, "--config", str(cfg), *argv, "--out", str(out))
        assert code == 2
        assert err.splitlines() == ["bevkit: x_range, z_range and depth_edges must be finite"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("key", ["x_range", "z_range"])
    def test_grid_range_whose_span_overflows_is_a_data_error(self, capsys, tmp_path, key):
        # finite ends, but hi - lo is inf: no column of infinite width
        cfg, out = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(json.dumps({key: [-1e308, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no overflow warning on the way
            code, stdout, err = run(capsys, "--config", str(cfg), "grid", "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"bevkit: {key} must have lo < hi and a finite span hi - lo"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("key, message", [
        ("tau", "tau must be non-negative, not NaN"),
        # a class constant, no config key
        ("epsilon", "unknown config keys: ['epsilon']")], ids=["tau", "epsilon"])
    def test_nan_threshold_is_a_data_error(self, capsys, tmp_path, key, message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(f'{{"{key}": NaN}}')
        code, stdout, err = run(capsys, "--config", str(cfg), "grid", "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"bevkit: {message}"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("key, value", [("epsilon", 5e-4), ("m_proposals", 100)])
    def test_constants_are_no_config_keys(self, capsys, tmp_path, key, value):
        # even at their own values: no subcommand reads them
        cfg, out = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(json.dumps({key: value}))
        code, stdout, err = run(capsys, "--config", str(cfg), "grid", "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"bevkit: unknown config keys: [{key!r}]"]
        assert stdout == "" and not out.exists()
        assert getattr(Config(), key) == value

    @pytest.mark.parametrize("value", ["NaN", "0.0", "-1.0"])
    def test_non_positive_visibility_tol_is_a_data_error(self, capsys, tmp_path, value):
        # refused as the config is read, also by a subcommand that never culls
        cfg, out = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(f'{{"visibility_tol": {value}}}')
        code, stdout, err = run(capsys, "--config", str(cfg), "grid", "--out", str(out))
        assert code == 2
        assert err.splitlines() == ["bevkit: visibility_tol must be positive, not NaN"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("key", ["x_range", "z_range"])
    def test_grid_range_with_subnormal_span_is_valid(self, capsys, tmp_path, key):
        cfg, out = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(json.dumps({key: [0.0, 1e-310]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no overflow in the slot scale
            code, _, err = run(capsys, "--config", str(cfg), "grid", "--out", str(out))
        assert code == 0 and err == ""
        assert json.loads(out.read_text())[key] == [0.0, 1e-310]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"no_such_option": 1}')
        with pytest.raises(ValueError):
            load_config(path)

    def test_config_even_grid_has_uniform_edges(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(Config(uneven_grid=False), path)
        code, out, _ = run(capsys, "--config", str(path), "grid", "--print-edges")
        assert code == 0
        assert [float(e) for e in out.split()] == [float(z) for z in range(81)]
        code, out, _ = run(capsys, "grid", "--print-edges")
        assert [float(e) for e in out.split()] != [float(z) for z in range(81)]

    def test_config_uneven_projection_bins_differs_from_default(self, capsys, scene_dir,
                                                                 tmp_path):
        depth = bio.read_tnsr(scene_dir / "depth.tnsr")
        fi = tmp_path / "fi.tnsr"
        bio.write_tnsr(fi, np.ones((2, 1, depth.shape[2], depth.shape[3])))
        argv = ["project", "--fi", str(fi), "--fd", str(scene_dir / "depth.tnsr"),
                "--intrinsics", str(scene_dir / "intrinsics.json")]
        outs = {}
        for uneven in (True, False):
            path, outs[uneven] = tmp_path / f"cfg{uneven}.json", tmp_path / f"bev{uneven}.tnsr"
            save_config(Config(tau=0.0, uneven_projection_bins=uneven), path)
            assert main(["--config", str(path)] + argv + ["--out", str(outs[uneven])]) == 0
        assert outs[True].read_bytes() != outs[False].read_bytes()
        # the file is the library splat at the config's tau and bin spacing
        sp = sparse_prune(DepthDistribution(depth.data[0]), 0.0)
        expected = splat_to_bev(bio.read_tnsr(fi), sp,
                                bio.read_intrinsics(scene_dir / "intrinsics.json"),
                                Config().grid(), uneven_bins=True).bev.data
        np.testing.assert_array_equal(bio.read_tnsr(outs[True]).data, expected)

    def test_cli_accepts_config_file(self, capsys, tmp_path):
        cfg = Config(n_z=4, z_range=(0.0, 8.0))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        code, out, _ = run(capsys, "--config", str(path), "grid", "--print-edges")
        assert code == 0
        assert len(out.strip().splitlines()) == 5
