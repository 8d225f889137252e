"""Single entry point: grid / project / bench / unify / losses / eval / synth.

The operating point (grid ranges and cell counts, uneven grid edges, prune
threshold tau, projection-bin spacing, visibility tolerance, gamma, eval
thresholds and bands) comes from the --config file alone, or from the
built-in defaults; no subcommand flag overrides it.

Exit codes: 0 success, 1 usage error, 2 data or validation error.  All
randomness is seeded, nothing is timed, every kernel is single-threaded
numpy with a fixed accumulation order, and JSON/CSV floats use shortest
round-trip repr, so identical invocations write byte-identical files.
--threads is accepted and has no effect.  Human summaries go to stdout,
machine output to the --out/--out-dir paths, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as bio
from .config import Config, load_config
from .eval3d import match_and_ap
from .geom import transform_cloud
from .headmath import (
    DalnParams,
    LabelSpace,
    class_alignment_loss,
    daln,
    finite_difference_grad,
    layer_norm,
    mic_i2p_loss,
    mic_p2i_loss,
)
from .liftsplat import DepthDistribution, bench_projection, sparse_prune, splat_to_bev
from .pointpipe import DepthMap, depthmap_to_cloud, unify_visible
from .rng import CounterRng
from .synth import SceneSpec, generate

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    ``conflicts`` pairs (a, b) of option dests refuse b when a is given:
    an option one mode of a subcommand does not read."""

    def __init__(self, *args, conflicts=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._conflicts = conflicts

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        flag = {a.dest: a.option_strings[0] for a in self._actions if a.option_strings}
        for a, b in self._conflicts:
            if getattr(namespace, a) not in (None, False) and getattr(namespace, b) is not None:
                self.error(f"argument {flag[b]}: not allowed with argument {flag[a]}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_dump(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_grid(args, cfg: Config) -> int:
    g = cfg.grid()
    if args.print_edges:
        for edge in g.depth_edges:
            print(repr(float(edge)))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(g.to_json())
            fh.write("\n")
    if not args.print_edges:
        print(f"grid: {g.n_x} x {g.n_z} cells, depth edges "
              f"{g.depth_edges[0]:g}..{g.depth_edges[-1]:g}")
    return 0


def _cmd_project(args, cfg: Config) -> int:
    f_i = bio.read_tnsr(args.fi)
    f_d_t = bio.read_tnsr(args.fd)
    if f_d_t.shape[0] != 1:
        raise ValueError("depth distribution tensor must have shape (1, C_d, H, W)")
    f_d = DepthDistribution(f_d_t.data[0])
    K = bio.read_intrinsics(args.intrinsics)
    sp = sparse_prune(f_d, cfg.tau)
    result = splat_to_bev(f_i, sp, K, cfg.grid(), reduce=args.reduce,
                          uneven_bins=cfg.uneven_projection_bins)
    bio.write_tnsr(args.out, result.bev)
    if args.stats:
        _json_dump(args.stats, {
            "tau": sp.tau,
            "total": sp.total,
            "kept": sp.kept,
            "removal_ratio": sp.removal_ratio,
            "in_grid": result.in_grid,
            "out_of_grid": result.out_of_grid,
        })
    print(f"projected {sp.kept}/{sp.total} entries "
          f"(removal {sp.removal_ratio:.1%}), {result.out_of_grid} off-grid")
    return 0


def _cmd_bench(args, cfg: Config) -> int:
    for flag in ("hf", "wf", "cd", "ci"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be a positive size, got {getattr(args, flag)}")
    taus = args.tau if args.tau else [0.0, 1e-3, 1e-2, 1e-1]
    K = bio.read_intrinsics(args.intrinsics) if args.intrinsics else _bench_intrinsics(args)
    rows = bench_projection(K, cfg.grid(), taus, seed=args.seed, c_i=args.ci, c_d=args.cd,
                            h_f=args.hf, w_f=args.wf, uneven_bins=cfg.uneven_projection_bins)
    lines = ["tau,kept_ratio,checksum"]
    for row in rows:
        lines.append(f"{row['tau']!r},{row['kept_ratio']!r},{row['checksum']}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    for row in rows:
        print(f"tau={row['tau']:<8g} kept={row['kept_ratio']:8.4f}")
    return 0


def _bench_intrinsics(args):
    from .geom import CameraIntrinsics

    # principal point centered on the synthetic feature plane
    return CameraIntrinsics(fx=float(args.wf), fy=float(args.wf),
                            cx=args.wf / 2.0, cy=args.hf / 2.0,
                            width=args.wf, height=args.hf)


def _is_mmpc(path: str) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == bio.MMPC_MAGIC


def _cmd_unify(args, cfg: Config) -> int:
    K = bio.read_intrinsics(args.intrinsics)
    if _is_mmpc(args.infile):
        cloud = bio.read_mmpc(args.infile)
    else:
        tensor = bio.read_tnsr(args.infile)
        if tensor.shape[:2] != (1, 1):
            raise ValueError("depth map tensor must have shape (1, 1, H, W)")
        cloud = depthmap_to_cloud(DepthMap(tensor.data[0, 0]), K)
    if args.pose:
        cloud = transform_cloud(cloud, bio.read_pose(args.pose))
    retained, stats = unify_visible(cloud, K, cfg.visibility_tol)
    bio.write_mmpc(args.out, retained)
    if args.stats:
        _json_dump(args.stats, stats)
    print(f"retained {stats['retained']}/{stats['input']} points "
          f"({stats['out_of_view']} out of view, {stats['occluded']} occluded)")
    return 0


def _read_mask(path) -> np.ndarray:
    t = bio.read_tnsr(path)
    if t.shape[:2] != (1, 1):
        raise ValueError("mask tensor must have shape (1, 1, n_z, n_x)")
    return t.data[0, 0] != 0.0


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    rel = np.where(denom > 1e-12, err / np.maximum(denom, 1e-300), err)
    return float(rel.max()) if rel.size else 0.0


def _losses_daln(args, cfg: Config) -> int:
    if args.check_init:
        rng = CounterRng(args.seed or 0)
        worst = 0.0
        for _ in range(200):
            c = int(rng.integers(2, 17, 1)[0])
            d = int(rng.integers(1, 9, 1)[0])
            x = rng.normals(c) * 10.0
            conf = rng.uniforms(d) + 1e-6
            conf = conf / conf.sum()
            out = daln(x, DalnParams.init(d), conf)
            ref, _, _ = layer_norm(x)
            worst = max(worst, float(np.max(np.abs(out - ref))))
        print(f"max |daln - layer_norm| at init: {worst:.3e}")
        return 0
    d = bio.read_json_object(args.input)
    alphas, betas, x, confidence = (bio.json_array(d[k], k)
                                    for k in ("alphas", "betas", "x", "confidence"))
    out = daln(x, DalnParams(alphas, betas), confidence)
    if args.out:
        _json_dump(args.out, {"output": out.tolist()})
    print(json.dumps({"output": out.tolist()}))
    return 0


def _dataset_id(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"spaces keys must be integer dataset ids, got {key!r}") from None


def _losses_calign(args, cfg: Config) -> int:
    d = bio.read_json_object(args.input)
    if "gamma" in d:
        raise ValueError(f"{args.input}: key 'gamma' is not read here; "
                         "set gamma in the --config file")
    space = LabelSpace(
        {_dataset_id(k): frozenset(bio.json_value(c, int, f"spaces[{k!r}]")
                                   for c in bio.json_value(v, list, f"spaces[{k!r}]"))
         for k, v in bio.json_value(d["spaces"], dict, "spaces").items()},
        background=bio.json_value(d["background"], int, "background"),
        gamma=cfg.gamma,
    )
    scaled = class_alignment_loss(
        bio.json_array(d["losses"], "losses"), bio.json_array(d["predicted"], "predicted", int),
        bio.json_array(d["labels"], "labels", int), space,
        bio.json_value(d["dataset"], int, "dataset"))
    if args.out:
        _json_dump(args.out, {"scaled": scaled.tolist(), "total": float(scaled.sum())})
    print(f"loss {float(scaled.sum())!r}")
    return 0


def _losses_mic(args, cfg: Config) -> int:
    mask_p = _read_mask(args.mask_p)
    if args.kind == "mic-p2i":
        target = bio.read_tnsr(args.point).data
        pred = bio.read_tnsr(args.image).data
        loss, grad = mic_p2i_loss(target, pred, mask_p)
        loss_fn = lambda p: mic_p2i_loss(target, p, mask_p)[0]
    else:
        mask_i = _read_mask(args.mask_i)
        target = bio.read_tnsr(args.image).data
        pred = bio.read_tnsr(args.point).data
        loss, grad = mic_i2p_loss(target, pred, mask_i, mask_p)
        loss_fn = lambda p: mic_i2p_loss(target, p, mask_i, mask_p)[0]
    print(f"loss {loss!r}")
    if args.grad_out:
        bio.write_tnsr(args.grad_out, grad)
    if args.grad_check:
        numeric = finite_difference_grad(loss_fn, pred, step=1e-5)
        print(f"max relative gradient error: {_max_rel_error(grad, numeric):.3e}")
    return 0


def _cmd_eval(args, cfg: Config) -> int:
    gts = bio.read_boxes_jsonl(args.gt)
    preds = bio.read_boxes_jsonl(args.pred)
    metrics = match_and_ap(preds, gts, cfg.match_config())
    _json_dump(args.out, metrics)
    headline = metrics["headline_ap"]
    print(f"headline AP: {'undefined' if headline is None else f'{headline:.4f}'}"
          f" ({metrics['n_pred']} predictions vs {metrics['n_gt']} ground truths)")
    return 0


def _cmd_synth(args, cfg: Config) -> int:
    spec = SceneSpec(seed=args.seed, regime=args.regime, n_objects=args.n_objects,
                     n_depth_bins=args.depth_bins, bev_z_range=cfg.z_range,
                     uneven_depth_bins=cfg.uneven_projection_bins,
                     visibility_tol=cfg.visibility_tol)
    bundle = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bio.write_mmpc(out / "cloud.mmpc", bundle.cloud)
    bio.write_tnsr(out / "depth.tnsr", bundle.depth_dist.probs[None])
    bio.write_boxes_jsonl(out / "boxes.jsonl", bundle.boxes)
    bio.write_intrinsics(out / "intrinsics.json", bundle.intrinsics)
    print(f"scene seed={args.seed} regime={args.regime}: "
          f"{len(bundle.boxes)} boxes, {len(bundle.cloud)} visible points")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bevkit", description=__doc__)
    parser.add_argument("--config", help="JSON config: the operating point of every "
                        "subcommand (keys not given keep the built-in defaults)")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; every kernel runs single-threaded")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="build a BEV grid and print/serialize its edges")
    p.add_argument("--print-edges", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("project", help="lift, prune, and splat image features to BEV")
    p.add_argument("--fi", required=True, help="image features TNSR (C, 1, H, W)")
    p.add_argument("--fd", required=True, help="depth distribution TNSR (1, C_d, H, W)")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--reduce", choices=("sum", "mean"), default="sum")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("bench", help="kept ratio of the pruned projection per threshold")
    p.add_argument("--tau", type=float, action="append")
    p.add_argument("--hf", type=int, default=32)
    p.add_argument("--wf", type=int, default=32)
    p.add_argument("--cd", type=int, default=64)
    p.add_argument("--ci", type=int, default=32)
    p.add_argument("--intrinsics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("unify", help="convert depth input to a visible point cloud")
    p.add_argument("--in", dest="infile", required=True,
                   help="input file: MMPC cloud (told by its magic) or depth-map TNSR")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", help="rigid transform into the camera frame (JSON)")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.set_defaults(fn=_cmd_unify)

    p = sub.add_parser("losses", help="evaluate head losses from TNSR/JSON inputs")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("daln", help="depth-aware layer norm of a JSON input",
                         conflicts=(("input", "seed"), ("check_init", "out")))
    source = k.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="JSON input: alphas, betas, x, confidence")
    source.add_argument("--check-init", action="store_true",
                        help="report max deviation from plain layer norm at init")
    k.add_argument("--seed", type=int, help="seed of --check-init's draws (default 0)")
    k.add_argument("--out", help="write the --input output JSON here")
    k.set_defaults(fn=_losses_daln)
    k = kinds.add_parser("calign", help="class-alignment loss of a JSON input")
    k.add_argument("--input", required=True, help="JSON input: spaces, background, losses, "
                   "predicted, labels, dataset")
    k.add_argument("--out", help="write the scaled losses and their total JSON here")
    k.set_defaults(fn=_losses_calign)
    for kind in ("mic-p2i", "mic-i2p"):
        k = kinds.add_parser(kind, help=f"{kind} guidance loss of BEV TNSRs")
        k.add_argument("--point", required=True, help="point-branch BEV TNSR")
        k.add_argument("--image", required=True, help="image-branch BEV TNSR")
        k.add_argument("--mask-p", required=True, help="point-occupancy mask TNSR")
        if kind == "mic-i2p":
            k.add_argument("--mask-i", required=True, help="image-confidence mask TNSR")
        k.add_argument("--grad-out", help="write the analytic gradient TNSR here")
        k.add_argument("--grad-check", action="store_true",
                       help="compare against central finite differences")
        k.set_defaults(fn=_losses_mic)

    p = sub.add_parser("eval", help="3D IoU average-precision evaluation; thresholds "
                       "and depth bands come from --config")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("synth", help="generate a deterministic synthetic scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", choices=("indoor", "outdoor"), default="indoor")
    p.add_argument("--n-objects", type=int, default=6)
    p.add_argument("--depth-bins", type=int, default=48)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = Config()
    try:
        if args.config:
            cfg = load_config(args.config)
        return args.fn(args, cfg)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bevkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
