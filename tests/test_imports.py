"""What a fresh interpreter loads: ``import bevkit`` and the subcommands that
run no sparse product load no scipy; the two products load scipy.sparse at
their first call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bevkit import io as bio
from bevkit.cli import main
from bevkit.synth import SceneSpec, generate, perturb

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("call", [
    "bevkit.pillarize(PointCloud(np.zeros((1, 4))), g)",
    "bevkit.splat_to_bev(FeatureMap(np.ones((1, 1, 1, 1))), "
    "bevkit.sparse_prune(bevkit.DepthDistribution(np.ones((1, 1, 1))), 0.0), "
    "bevkit.CameraIntrinsics(1.0, 1.0, 0.5, 0.5, 1, 1), g)",
], ids=["pillarize", "splat_to_bev"])
def test_import_loads_no_scipy_until_a_sparse_product(call):
    # qhull is only the tests' oracle, and scipy.sparse waits for its first use
    code = (f"import sys, numpy as np, bevkit\n"
            f"from bevkit.geom import FeatureMap, PointCloud\n"
            f"print({_LOADED})\n"
            f"g = bevkit.build_grid((-1.0, 1.0), (0.0, 2.0), 1, 1)\n"
            f"{call}\n"
            f"print('scipy.sparse' in sys.modules)\n")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "True"]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("no_scipy")
    assert main(["synth", "--seed", "3", "--out-dir", str(root / "scene")]) == 0
    boxes = generate(SceneSpec(seed=3)).boxes
    bio.write_boxes_jsonl(root / "gt.jsonl", boxes)
    bio.write_boxes_jsonl(root / "pred.jsonl", perturb(boxes, 0.05, 0.02, 0.01, seed=1))
    return root


@pytest.mark.parametrize("argv", [
    ["grid", "--print-edges"],
    ["synth", "--seed", "1", "--out-dir", "{root}/synth"],
    ["unify", "--in", "{root}/scene/cloud.mmpc",
     "--intrinsics", "{root}/scene/intrinsics.json", "--out", "{root}/unified.mmpc"],
    ["losses", "daln", "--check-init"],
    ["eval", "--gt", "{root}/gt.jsonl", "--pred", "{root}/pred.jsonl",
     "--out", "{root}/metrics.json"],
], ids=lambda argv: argv[0])
def test_subcommand_runs_without_scipy(scene, argv):
    # a None entry makes every import of scipy or a submodule raise ImportError
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from bevkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = run_python(code, *(a.format(root=scene) for a in argv))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
