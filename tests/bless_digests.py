"""Golden digests of bevkit's reproducible outputs, the data of the drift gate.

    PYTHONPATH=src python tests/bless_digests.py

recomputes every digest, rewrites ``tests/golden_digests.json`` and prints
which digests moved.  ``tests/test_digests.py`` recomputes the same digests
in tier-1 and fails on any difference.  The digests cover:

- the sha256 of every file that acceptance criterion 10's CLI run
  (``_run_all_subcommands`` in ``tests/test_acceptance.py``) writes;
- ``bench/workloads.py``'s ``frame_digest``/``eval_digest`` of every input
  of ``frame_outdoor``, ``frame_indoor`` and ``eval_mixed`` at seeds 1-3;
- the sha256 of the float64 bytes of ``iou3d`` over every
  ``eval_mixed`` pair (``workloads.eval_pairs``, in pair order) at seeds
  1-3, since the metrics see an IoU only where it crosses a threshold;
- the sha256 of the float64 bytes of ``iou3d`` of every ``eval_mixed``
  ground truth against a copy shifted along its own x axis by a tenth of
  its x extent, at seeds 1-3: such pairs share four face planes and have
  duplicate vertices, and their IoU lies below 1, so the order that the
  face polygons give tied vertices reaches the bits;
- the sha256 of the float64 bytes of ``geom.transform_cloud`` of every
  ``frame_outdoor`` cloud at seeds 1-3, under ``INDOOR_POSE`` and under a
  yaw pose with a -0.0 translation component: these clouds carry random
  intensities, where ``frame_indoor``'s depth-map clouds carry only 1.0;
- the sha256 of ``synth.generate``'s cloud, depth probabilities, boxes and
  intrinsics for seeds 1-3 in both regimes, and for one spec that sets the
  depth bins (count, range and uneven spacing).

Re-blessing declares an output change: CHANGES.md must name the outputs
that moved and the largest difference measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden_digests.json"
SEEDS = (1, 2, 3)

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
for _dir in (TESTS, ROOT / "bench"):
    if str(_dir) not in sys.path:
        sys.path.append(str(_dir))


def cli_digests(root: Path) -> dict:
    """sha256 of every acceptance-10 output file, written under ``root``."""
    from test_acceptance import _run_all_subcommands

    with contextlib.redirect_stdout(io.StringIO()):   # the CLI's human summaries
        files = _run_all_subcommands(root, "1")
    return {f"cli/{name}": hashlib.sha256(data).hexdigest() for name, data in files.items()}


def workload_digests() -> dict:
    """The benchmark's own digest of every input's output, seeds 1-3."""
    import workloads as wl

    api, settings = wl.plain_api(), wl.Settings.default()
    out = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in SEEDS:
            items = workload.make_inputs(wl.make_rng(name, seed), settings)
            for i, item in enumerate(items):
                out[f"{name}/seed{seed}/{i}"] = workload.digest(workload.op(api, item, settings))
    return out


def iou_digests() -> dict:
    """sha256 of the IoU bits of every ``eval_mixed`` pair and of every
    ground truth against its shifted copy, seeds 1-3."""
    import numpy as np
    import workloads as wl

    from bevkit.eval3d import iou3d

    out = {}
    for seed in SEEDS:
        (es,) = wl.WORKLOADS["eval_mixed"].make_inputs(wl.make_rng("eval_mixed", seed),
                                                       wl.Settings.default())
        ious = np.array([iou3d(p, g) for p, g in wl.eval_pairs(es)], dtype=np.float64)
        out[f"eval_mixed/seed{seed}/ious"] = hashlib.sha256(ious.tobytes()).hexdigest()
        shifted = np.array([iou3d(g, shifted_copy(g)) for _, g in es.gts], dtype=np.float64)
        out[f"eval_mixed/seed{seed}/shifted_ious"] = hashlib.sha256(shifted.tobytes()).hexdigest()
    return out


def shifted_copy(box):
    """``box`` moved along its own x axis by a tenth of its x extent."""
    from bevkit.geom import Box3D

    return Box3D(box.center + 0.1 * box.dims[0] * box.rotation[:, 0], box.dims, box.rotation,
                 box.category)


def transform_digests() -> dict:
    """sha256 of ``transform_cloud`` of every ``frame_outdoor`` cloud under
    two poses, seeds 1-3."""
    import numpy as np
    import workloads as wl

    from bevkit.geom import Pose, transform_cloud, yaw_rotation

    poses = {"indoor_pose": wl.INDOOR_POSE,
             "negzero_pose": Pose(yaw_rotation(0.3), np.array([0.5, -0.0, -1.25]))}
    out = {}
    for seed in SEEDS:
        frames = wl.WORKLOADS["frame_outdoor"].make_inputs(wl.make_rng("frame_outdoor", seed),
                                                          wl.Settings.default())
        for i, fr in enumerate(frames):
            for name, pose in poses.items():
                data = transform_cloud(fr.cloud, pose).points.tobytes()
                out[f"transform_cloud/seed{seed}/{i}/{name}"] = hashlib.sha256(data).hexdigest()
    return out


def synth_digests() -> dict:
    """sha256 of every array of a synthetic scene, per spec."""
    import numpy as np

    from bevkit.synth import SceneSpec, generate

    specs = {f"{regime}/seed{seed}": SceneSpec(seed=seed, regime=regime)
             for regime in ("indoor", "outdoor") for seed in SEEDS}
    specs["outdoor/bins"] = SceneSpec(seed=1, regime="outdoor", n_depth_bins=20,
                                      bev_z_range=(0.0, 40.0), uneven_depth_bins=True)
    out = {}
    for name, spec in specs.items():
        bundle = generate(spec)
        K = bundle.intrinsics
        arrays = {
            "cloud": bundle.cloud.points,
            "depth": bundle.depth_dist.probs,
            "boxes": np.array([np.concatenate([b.center, b.dims, b.rotation.ravel(),
                                               [b.category]]) for b in bundle.boxes]),
            "intrinsics": np.array([K.fx, K.fy, K.cx, K.cy, K.width, K.height,
                                    *bundle.feature_shape], dtype=np.float64),
        }
        for key, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
            out[f"synth/{name}/{key}"] = hashlib.sha256(data).hexdigest()
    return out


def compute_digests(root: Path) -> dict:
    return dict(sorted({**cli_digests(root), **workload_digests(), **iou_digests(),
                        **transform_digests(), **synth_digests()}.items()))


def moves(old: dict, new: dict) -> list:
    """One line per digest that moved, appeared or disappeared."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"removed  {key}")
        elif key not in old:
            lines.append(f"added    {key}")
        elif old[key] != new[key]:
            lines.append(f"moved    {key}")
    return lines


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    changed = moves(old, new)
    print("\n".join(changed) if changed else "no digest moved")
    print(f"{len(new)} digests written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
