"""Per-layer metrics of a traced run: which spans and counts make each one.

Times are the median over traced operations of the per-operation sum of
the named spans (self time, or inclusive where marked).  Counts are read
at the call boundaries on the first traced operation of each distinct
input and averaged over the inputs, so they repeat exactly run to run.
Every metric is reported on every workload; a layer that the workload
does not run reads 0.
"""

from __future__ import annotations

import statistics

from tracing import Tracer

# metric -> (span names, inclusive?)
LAYER_MS = {
    "liftsplat.splat_to_bev.ms": (("liftsplat.splat_to_bev",), False),
    "liftsplat.bev_depth_confidence.ms": (("liftsplat.bev_depth_confidence",), False),
    "liftsplat.sparse_prune.ms": (("liftsplat.sparse_prune",), False),
    "pointpipe.unify_stats.ms": (("pointpipe.unify_stats",), False),
    "pointpipe.visibility_filter.ms": (("pointpipe.visibility_filter",), False),
    "pointpipe.pillarize.ms": (("pointpipe.pillarize",), False),
    "pointpipe.depthmap_to_cloud.ms": (("pointpipe.depthmap_to_cloud",), False),
    "geom.transform_cloud.ms": (("geom.transform_cloud",), False),
    "pointpipe.masks.ms": (("pointpipe.occupancy_mask", "pointpipe.image_confidence_mask"), False),
    "headmath.mic_losses.ms": (("headmath.mic_p2i_loss", "headmath.mic_i2p_loss"), False),
    "headmath.decode_proposals.ms": (("headmath.decode_proposals",), False),
    "eval3d.match_and_ap.ms": (("eval3d.match_and_ap",), True),
    "eval3d.iou3d.ms": (("eval3d.iou3d",), True),
    "eval3d.match_self.ms": (("eval3d.match_and_ap",), False),
}

COUNTS = (
    "liftsplat.entries_total", "liftsplat.entries_kept", "liftsplat.entries_off_grid",
    "pointpipe.points_in", "pointpipe.points_out_of_view", "pointpipe.points_occluded",
    "pointpipe.points_retained", "pointpipe.points_off_grid", "pointpipe.pillars",
    "headmath.mask_cells_p2i", "headmath.mask_cells_i2p", "eval3d.iou3d.calls",
    "eval3d.iou_pairs", "eval3d.iou_pairs_sphere_disjoint", "eval3d.iou_pairs_tilted",
)

# api attribute -> counts read from (result, positional args)
COUNTERS = {
    "sparse_prune": lambda sp, a: {"liftsplat.entries_total": sp.total,
                                   "liftsplat.entries_kept": sp.kept},
    "splat_to_bev": lambda r, a: {"liftsplat.entries_off_grid": r.out_of_grid},
    "unify_stats": lambda st, a: {"pointpipe.points_in": st["input"],
                                  "pointpipe.points_out_of_view": st["out_of_view"],
                                  "pointpipe.points_occluded": st["occluded"],
                                  "pointpipe.points_retained": st["retained"]},
    "pillarize": lambda pt, a: {"pointpipe.points_off_grid": pt.n_dropped,
                                "pointpipe.pillars": len(pt)},
    "mic_p2i_loss": lambda r, a: {"headmath.mask_cells_p2i": int(a[2].sum())},
    "mic_i2p_loss": lambda r, a: {"headmath.mask_cells_i2p": int((a[2] & ~a[3]).sum())},
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer: Tracer, item_of_op: dict, items, wl) -> dict:
    times, counts = tracer.per_op()
    ops = sorted(item_of_op)
    out = {}
    for metric, (names, inclusive) in LAYER_MS.items():
        k = 0 if inclusive else 1
        per_op = [sum(times[op].get(n, (0.0, 0.0, 0))[k] for n in names) for op in ops]
        out[metric] = _metric(1e3 * statistics.median(per_op) if per_op else 0.0, "ms")
    # counts of the first traced operation of each distinct input
    first = {}
    for op in ops:
        first.setdefault(item_of_op[op], op)
    per_item = []
    for index, op in sorted(first.items()):
        c = {name: 0 for name in COUNTS}
        c.update({k: int(v) for k, v in counts.get(op, {}).items()})
        c["eval3d.iou3d.calls"] = times[op].get("eval3d.iou3d", (0, 0, 0))[2]
        if wl.input_counts is not None:
            c.update(wl.input_counts(items[index]))
        per_item.append(c)
    for name in COUNTS:
        out[name] = _metric(statistics.fmean(c[name] for c in per_item), "count")
    total = sum(c["liftsplat.entries_total"] for c in per_item)
    kept = sum(c["liftsplat.entries_kept"] for c in per_item)
    out["liftsplat.kept_ratio"] = _metric(kept / total if total else 0.0, "ratio")
    return out
