"""Single entry point: grid / project / bench / unify / losses / eval / synth.

Exit codes: 0 success, 1 usage error, 2 data or validation error.  All
randomness is seeded, timing is opt-in, every kernel is single-threaded
numpy with a fixed accumulation order, and JSON/CSV floats use shortest
round-trip repr, so identical invocations write byte-identical files.
--threads / BEVKIT_THREADS are accepted and have no effect.  Human
summaries go to stdout, machine output to the --out/--out-dir paths,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as bio
from .config import Config, load_config
from .eval3d import match_and_ap
from .geom import transform_cloud
from .grid import UnevenGridSpec, build_grid
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

THREADS_ENV = "BEVKIT_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_dump(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_grid(args, cfg: Config) -> UnevenGridSpec:
    if getattr(args, "grid", None):
        with open(args.grid, "r", encoding="utf-8") as fh:
            return UnevenGridSpec.from_json(fh.read())
    return cfg.grid()


def _cmd_grid(args, cfg: Config) -> int:
    g = build_grid(
        (args.x_min if args.x_min is not None else cfg.x_range[0],
         args.x_max if args.x_max is not None else cfg.x_range[1]),
        (args.z_min if args.z_min is not None else cfg.z_range[0],
         args.z_max if args.z_max is not None else cfg.z_range[1]),
        args.n_x if args.n_x is not None else cfg.n_x,
        args.n_z if args.n_z is not None else cfg.n_z,
        uneven=cfg.uneven_grid and not args.even,
    )
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
    g = _load_grid(args, cfg)
    tau = cfg.tau if args.tau is None else args.tau
    sp = sparse_prune(f_d, tau)
    result = splat_to_bev(f_i, sp, K, g, reduce=args.reduce,
                          uneven_bins=args.uneven_bins or cfg.uneven_projection_bins)
    bio.write_tnsr(args.out, result.bev)
    if args.stats:
        _json_dump(args.stats, {
            "tau": tau,
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
    for flag in ("hf", "wf", "cd"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be a positive size, got {getattr(args, flag)}")
    taus = args.tau if args.tau else [0.0, 1e-3, 1e-2, 1e-1]
    g = _load_grid(args, cfg)
    K = bio.read_intrinsics(args.intrinsics) if args.intrinsics else _bench_intrinsics(args)
    rows = bench_projection(K, g, taus, seed=args.seed, c_i=args.ci, c_d=args.cd,
                            h_f=args.hf, w_f=args.wf, timing=args.timing)
    lines = ["tau,kept_ratio,wall_ms,checksum"]
    for row in rows:
        lines.append(f"{row['tau']!r},{row['kept_ratio']!r},{row['wall_ms']!r},{row['checksum']}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    for row in rows:
        stamp = f" {row['wall_ms']:8.2f} ms" if args.timing else ""
        print(f"tau={row['tau']:<8g} kept={row['kept_ratio']:8.4f}{stamp}")
    return 0


def _bench_intrinsics(args):
    from .geom import CameraIntrinsics

    # principal point centered on the synthetic feature plane
    return CameraIntrinsics(fx=float(args.wf), fy=float(args.wf),
                            cx=args.wf / 2.0, cy=args.hf / 2.0,
                            width=args.wf, height=args.hf)


def _detect_kind(path: str) -> str:
    with open(path, "rb") as fh:
        head = fh.read(4)
    return "mmpc" if head == bio.MMPC_MAGIC else "depthmap"


def _cmd_unify(args, cfg: Config) -> int:
    K = bio.read_intrinsics(args.intrinsics)
    kind = args.kind if args.kind != "auto" else _detect_kind(args.infile)
    if kind == "mmpc":
        cloud = bio.read_mmpc(args.infile)
    else:
        tensor = bio.read_tnsr(args.infile)
        if tensor.shape[:2] != (1, 1):
            raise ValueError("depth map tensor must have shape (1, 1, H, W)")
        cloud = depthmap_to_cloud(DepthMap(tensor.data[0, 0]), K)
    if args.pose:
        cloud = transform_cloud(cloud, bio.read_pose(args.pose))
    tol = args.tol if args.tol is not None else cfg.visibility_tol
    retained, stats = unify_visible(cloud, K, tol)
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


def _cmd_losses(args, cfg: Config) -> int:
    if args.kind == "daln":
        return _losses_daln(args)
    if args.kind == "calign":
        return _losses_calign(args, cfg)
    return _losses_mic(args)


def _losses_daln(args) -> int:
    if args.check_init:
        rng = CounterRng(args.seed)
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


def _losses_calign(args, cfg: Config) -> int:
    d = bio.read_json_object(args.input)
    space = LabelSpace(
        {int(k): frozenset(bio.json_value(c, int, f"spaces[{k!r}]")
                           for c in bio.json_value(v, list, f"spaces[{k!r}]"))
         for k, v in bio.json_value(d["spaces"], dict, "spaces").items()},
        background=bio.json_value(d["background"], int, "background"),
        gamma=bio.json_value(d.get("gamma", cfg.gamma), float, "gamma"),
    )
    scaled = class_alignment_loss(
        bio.json_array(d["losses"], "losses"), bio.json_array(d["predicted"], "predicted", int),
        bio.json_array(d["labels"], "labels", int), space,
        bio.json_value(d["dataset"], int, "dataset"))
    if args.out:
        _json_dump(args.out, {"scaled": scaled.tolist(), "total": float(scaled.sum())})
    print(f"loss {float(scaled.sum())!r}")
    return 0


def _losses_mic(args) -> int:
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
                     n_depth_bins=args.depth_bins)
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
    parser.add_argument("--config", help="JSON config overriding the built-in defaults")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"accepted and ignored (fallback: ${THREADS_ENV}); "
                             "every kernel runs single-threaded")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="build a BEV grid and print/serialize its edges")
    p.add_argument("--print-edges", action="store_true")
    p.add_argument("--even", action="store_true", help="uniform depth bins instead of uneven")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--z-min", type=float)
    p.add_argument("--z-max", type=float)
    p.add_argument("--n-x", type=int)
    p.add_argument("--n-z", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("project", help="lift, prune, and splat image features to BEV")
    p.add_argument("--fi", required=True, help="image features TNSR (C, 1, H, W)")
    p.add_argument("--fd", required=True, help="depth distribution TNSR (1, C_d, H, W)")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--grid", help="grid JSON (default: config grid)")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--reduce", choices=("sum", "mean"), default="sum")
    p.add_argument("--uneven-bins", action="store_true",
                   help="uneven projection depth bins")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("bench", help="benchmark pruned projection over thresholds")
    p.add_argument("--tau", type=float, action="append")
    p.add_argument("--hf", type=int, default=32)
    p.add_argument("--wf", type=int, default=32)
    p.add_argument("--cd", type=int, default=64)
    p.add_argument("--ci", type=int, default=32)
    p.add_argument("--grid", help="grid JSON (default: config grid)")
    p.add_argument("--intrinsics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true",
                   help="measure wall time into the CSV (output no longer reproducible)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("unify", help="convert depth input to a visible point cloud")
    p.add_argument("--in", dest="infile", required=True,
                   help="input file: MMPC cloud or depth-map TNSR")
    p.add_argument("--kind", choices=("auto", "mmpc", "depthmap"), default="auto")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", help="rigid transform into the camera frame (JSON)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.set_defaults(fn=_cmd_unify)

    p = sub.add_parser("losses", help="evaluate head losses from TNSR/JSON inputs")
    p.add_argument("kind", choices=("daln", "calign", "mic-p2i", "mic-i2p"))
    p.add_argument("--input", help="JSON input (daln, calign)")
    p.add_argument("--point", help="point-branch BEV TNSR (mic)")
    p.add_argument("--image", help="image-branch BEV TNSR (mic)")
    p.add_argument("--mask-p", help="point-occupancy mask TNSR (mic)")
    p.add_argument("--mask-i", help="image-confidence mask TNSR (mic-i2p)")
    p.add_argument("--grad-out", help="write the analytic gradient TNSR here")
    p.add_argument("--grad-check", action="store_true",
                   help="compare against central finite differences")
    p.add_argument("--check-init", action="store_true",
                   help="daln: report max deviation from plain layer norm at init")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_losses)

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


def _validate_losses_args(parser: _Parser, args) -> None:
    if args.kind in ("daln", "calign"):
        if not args.input and not (args.kind == "daln" and args.check_init):
            parser.error(f"losses {args.kind} requires --input")
    else:
        missing = [f for f in ("point", "image", "mask_p") if not getattr(args, f)]
        if args.kind == "mic-i2p" and not args.mask_i:
            missing.append("mask_i")
        if missing:
            parser.error(
                f"losses {args.kind} requires --" + ", --".join(m.replace('_', '-') for m in missing)
            )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "losses":
        _validate_losses_args(parser, args)
    if args.threads is None:
        # validated like the flag, then ignored
        raw = os.environ.get(THREADS_ENV, "1") or "1"
        try:
            int(raw)
        except ValueError:
            print(f"bevkit: error: {THREADS_ENV}: invalid int value: {raw!r}", file=sys.stderr)
            return 1
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
