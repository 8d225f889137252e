import json

import numpy as np
import pytest

from bevkit import io as bio
from bevkit.cli import main
from bevkit.config import Config, load_config, save_config
from bevkit.geom import Box3D
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

    def test_data_error_returns_two(self, capsys, tmp_path):
        bad = tmp_path / "nope.mmpc"
        bad.write_bytes(b"JUNK")
        k = tmp_path / "k.json"
        code = main(["unify", "--in", str(bad), "--kind", "mmpc",
                     "--intrinsics", str(k), "--out", str(tmp_path / "o.mmpc")])
        assert code == 2

    def test_invalid_value_returns_two(self, capsys, tmp_path, default_k):
        k = tmp_path / "k.json"
        bio.write_intrinsics(k, default_k)
        cloud = tmp_path / "c.mmpc"
        from bevkit.geom import PointCloud

        bio.write_mmpc(cloud, PointCloud([[0, 0, 5, 1]]))
        code = main(["unify", "--in", str(cloud), "--intrinsics", str(k),
                     "--tol", "-1", "--out", str(tmp_path / "o.mmpc")])
        assert code == 2

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
    ])
    def test_malformed_json_is_a_data_error(self, capsys, tmp_path, scene_dir, case, key,
                                            change):
        # one key of a valid file gets a wrong-typed value (a list replaces the file)
        valid = {
            "config": {},
            "boxes": json.loads((scene_dir / "boxes.jsonl").read_text().splitlines()[0]),
            "intrinsics": json.loads((scene_dir / "intrinsics.json").read_text()),
            "calign": {"spaces": {"0": [1]}, "background": 0, "losses": [1.0],
                       "predicted": [1], "labels": [0], "dataset": 0},
            "pose": {"R": np.eye(3).ravel().tolist(), "t": [0.0, 0.0, 0.0]},
        }[case]
        bad, out, pred = tmp_path / "bad.json", tmp_path / "out", tmp_path / "pred.jsonl"
        bad.write_text(json.dumps({**valid, **change} if isinstance(change, dict) else change))
        bio.write_boxes_jsonl(pred, [Box3D(b.center, b.dims, b.rotation, b.category, 0.5)
                                     for _, b in bio.read_boxes_jsonl(scene_dir / "boxes.jsonl")])
        argv = {
            "config": ["--config", str(bad), "grid", "--out", str(out)],
            "boxes": ["eval", "--gt", str(bad), "--pred", str(pred), "--out", str(out)],
            "intrinsics": ["unify", "--in", str(scene_dir / "cloud.mmpc"),
                           "--intrinsics", str(bad), "--out", str(out)],
            "calign": ["losses", "calign", "--input", str(bad), "--out", str(out)],
            "pose": ["unify", "--in", str(scene_dir / "cloud.mmpc"), "--intrinsics",
                     str(scene_dir / "intrinsics.json"), "--pose", str(bad), "--out", str(out)],
        }[case]
        code, _, err = run(capsys, *argv)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bevkit: ")
        assert key in lines[0]
        assert not out.exists()


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
        path = tmp_path / "grid.json"
        run(capsys, "grid", "--even", "--n-z", "4", "--z-min", "0",
            "--z-max", "8", "--out", str(path))
        from bevkit.grid import UnevenGridSpec

        g = UnevenGridSpec.from_json(path.read_text())
        np.testing.assert_allclose(g.depth_edges, [0, 2, 4, 6, 8])


class TestSynthAndUnify:
    def test_synth_writes_expected_files(self, scene_dir):
        for name in ("cloud.mmpc", "depth.tnsr", "boxes.jsonl", "intrinsics.json"):
            assert (scene_dir / name).exists()

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

    def test_calign(self, capsys, tmp_path):
        payload = {
            "losses": [1.0, 1.0], "predicted": [5, 2], "labels": [99, 99],
            "spaces": {"0": [1, 2, 3]}, "background": 99, "gamma": 0.2,
            "dataset": 0,
        }
        path = tmp_path / "calign.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "losses", "calign", "--input", str(path))
        assert code == 0
        assert float(out.split()[-1]) == pytest.approx(0.2 + 1.0)

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


class TestBenchDeterminism:
    def test_identical_invocations_identical_csv(self, capsys, tmp_path):
        args = ["bench", "--tau", "0", "--tau", "1e-3", "--seed", "7",
                "--hf", "8", "--wf", "8", "--cd", "12", "--ci", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "tau,kept_ratio,wall_ms,checksum"

    def test_thread_count_does_not_change_output(self, tmp_path):
        base = ["bench", "--tau", "1e-3", "--seed", "9", "--hf", "8",
                "--wf", "8", "--cd", "12", "--ci", "4"]
        one, four = tmp_path / "one.csv", tmp_path / "four.csv"
        assert main(["--threads", "1"] + base + ["--out", str(one)]) == 0
        assert main(["--threads", "4"] + base + ["--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    @pytest.mark.parametrize("flag", ["--hf", "--wf", "--cd"])
    def test_zero_size_is_named(self, capsys, tmp_path, flag):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "bench", flag, "0", "--out", str(out))
        assert code == 2
        assert err.strip().splitlines() == [f"bevkit: {flag} must be a positive size, got 0"]
        assert not out.exists()

    def test_backend_flag_is_gone(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--tau", "1e-2", "--backend", "numpy", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err
        assert not out.exists()


class TestThreadsEnv:
    def test_env_fallback_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEVKIT_THREADS", "2")
        base = ["bench", "--tau", "1e-3", "--seed", "4", "--hf", "8",
                "--wf", "8", "--cd", "8", "--ci", "2"]
        via_env = tmp_path / "env.csv"
        via_flag = tmp_path / "flag.csv"
        assert main(base + ["--out", str(via_env)]) == 0
        monkeypatch.delenv("BEVKIT_THREADS")
        assert main(["--threads", "2"] + base + ["--out", str(via_flag)]) == 0
        assert via_env.read_bytes() == via_flag.read_bytes()

    def test_non_integer_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BEVKIT_THREADS", "abc")
        code, out, err = run(capsys, "grid")
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            "bevkit: error: BEVKIT_THREADS: invalid int value: 'abc'"]

    def test_nothing_written_outside_out_paths(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        outdir = tmp_path / "out"
        workdir.mkdir()
        outdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["grid", "--out", str(outdir / "grid.json")]) == 0
        assert main(["synth", "--seed", "1", "--out-dir", str(outdir / "scene")]) == 0
        assert list(workdir.iterdir()) == []


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = Config(tau=5e-3, n_x=30, uneven_grid=False)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_match_reference_operating_point(self):
        cfg = Config()
        assert cfg.x_range == (-30.0, 30.0)
        assert cfg.y_range == (-40.0, 40.0)
        assert cfg.z_range == (0.0, 80.0)
        assert (cfg.n_x, cfg.n_z) == (60, 80)
        assert cfg.tau == 1e-3
        assert cfg.gamma == 0.2
        assert cfg.epsilon == 5e-4
        assert cfg.m_proposals == 100 and cfg.n_queries == 100

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"no_such_option": 1}')
        with pytest.raises(ValueError):
            load_config(path)

    def test_config_even_grid_matches_even_flag(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(Config(uneven_grid=False), path)
        via_cfg, via_flag = tmp_path / "cfg_grid.json", tmp_path / "flag_grid.json"
        assert main(["--config", str(path), "grid", "--out", str(via_cfg)]) == 0
        assert main(["grid", "--even", "--out", str(via_flag)]) == 0
        assert via_cfg.read_bytes() == via_flag.read_bytes()

    def test_config_uneven_projection_bins_matches_flag(self, capsys, scene_dir, tmp_path):
        depth = bio.read_tnsr(scene_dir / "depth.tnsr")
        fi = tmp_path / "fi.tnsr"
        bio.write_tnsr(fi, np.ones((2, 1, depth.shape[2], depth.shape[3])))
        path = tmp_path / "cfg.json"
        save_config(Config(uneven_projection_bins=True), path)
        argv = ["project", "--fi", str(fi), "--fd", str(scene_dir / "depth.tnsr"),
                "--intrinsics", str(scene_dir / "intrinsics.json"), "--tau", "0"]
        outs = {name: tmp_path / f"{name}.tnsr" for name in ("cfg", "flag", "even")}
        assert main(["--config", str(path)] + argv + ["--out", str(outs["cfg"])]) == 0
        assert main(argv + ["--uneven-bins", "--out", str(outs["flag"])]) == 0
        assert main(argv + ["--out", str(outs["even"])]) == 0
        assert outs["cfg"].read_bytes() == outs["flag"].read_bytes()
        assert outs["cfg"].read_bytes() != outs["even"].read_bytes()

    def test_cli_accepts_config_file(self, capsys, tmp_path):
        cfg = Config(n_z=4, z_range=(0.0, 8.0))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        code, out, _ = run(capsys, "--config", str(path), "grid", "--print-edges")
        assert code == 0
        assert len(out.strip().splitlines()) == 5
