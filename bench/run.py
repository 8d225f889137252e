"""Benchmark of bevkit's unified BEV chain: one closed-loop client, one process.

    python3 bench/run.py --workload frame_outdoor --seed 1 --seconds 30 --trace 0

Workloads: frame_outdoor, frame_indoor (one frame through the unified
chain per operation) and eval_mixed (one exact AP3D evaluation).  Set-up
generates every input from the seed and warms up; the timed loop then
runs whole cycles of the workload's distinct inputs until ``--seconds``
have passed.  Every output is checked, outside the timed region.  The
last stdout line is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the closed loop is one client, and a second BLAS thread
# would share the host's two cores with noisy neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc moves its mmap threshold as large blocks are freed, so the peak RSS
# of one input set landed at 172 or 198 MiB depending on allocation
# history.  Fixed thresholds make the peak track live memory; glibc reads
# them only at start-up, hence the re-exec.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}
if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUP_PROBES = 2         # extra cold set-ups, each in a fresh process
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("frame_outdoor", "frame_indoor", "eval_mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up and warm up only, print the set-up seconds and exit")
    return p.parse_args(argv)


def _import_program():
    if not (ROOT / "src" / "bevkit" / "__init__.py").is_file():
        print(f"run.py: bevkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports bevkit)
    return workloads


def set_up(wl_mod, workload: str, seed: int):
    """Generate the inputs and warm up; returns (workload, settings,
    inputs, reference digest of each input's output)."""
    wl = wl_mod.WORKLOADS[workload]
    settings = wl_mod.Settings.default()
    items = wl.make_inputs(wl_mod.make_rng(workload, seed), settings)
    api = wl_mod.plain_api()
    digests = [wl.digest(wl.op(api, item, settings)) for item in items]
    return wl, settings, items, digests


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


class Loop:
    """Closed loop over whole cycles of the inputs, one op at a time."""

    def __init__(self, wl, settings, items, digests):
        self.wl, self.settings, self.items, self.digests = wl, settings, items, digests
        self.attempted = 0
        self.failed = 0
        self.drifted = 0
        self.errors = []

    def run_op(self, api, index, span=nullcontext):
        """One timed operation; returns its wall seconds, or None if it failed.

        ``span()`` is entered around the operation alone, not its digest.
        """
        self.attempted += 1
        item = self.items[index]
        t0 = time.perf_counter()
        try:
            with span():
                out = self.wl.op(api, item, self.settings)
        except Exception:  # a failed operation is counted, and the loop goes on
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
            return None
        dt = time.perf_counter() - t0
        if self.wl.digest(out) != self.digests[index]:
            self.drifted += 1
        return dt

    def check(self, api, seed, wl_mod):
        """Run every distinct input once more, untimed, and check its outputs."""
        rng = wl_mod.make_rng(self.wl.name, seed ^ 0x5EED)
        fails = []
        for index, item in enumerate(self.items):
            out = self.wl.op(api, item, self.settings)
            if self.wl.digest(out) != self.digests[index]:
                fails.append(f"input {index}: output differs from its first run")
            fails += [f"input {index}: {m}" for m in self.wl.check(api, item, out, self.settings, rng)]
        if self.drifted:
            fails.append(f"{self.drifted} timed operations gave outputs that differ from the first run")
        return fails


def timed_run(loop, api, seconds):
    times = []
    start = time.perf_counter()
    while True:
        for index in range(len(loop.items)):
            dt = loop.run_op(api, index)
            if dt is not None:
                times.append(dt)
        if time.perf_counter() - start >= seconds:
            return times


def _probe_setups(args):
    """Set-up seconds of fresh processes, each from its first statement."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, wl_mod, loop, setup_s):
    api = wl_mod.plain_api()
    times = timed_run(loop, api, args.seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = loop.check(api, args.seed, wl_mod)
    setups = [setup_s] + _probe_setups(args)
    metrics = {
        "ops_per_s": _metric(len(times) / sum(times) if times else 0.0, "1/s"),
        "op_ms_p50": _metric(_median_ms(times), "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mib": _metric(peak_mib, "MiB"),
    }
    n = len(times)
    summary = f"{args.workload} seed={args.seed}: {n} ops, p50 {_median_ms(times):.2f} ms"
    if n >= 40:
        q = 1.0 - 10.0 / n      # the highest quantile with ten samples beyond it
        tail = 1e3 * sorted(times)[int(q * n) - 1]
        summary += f", p{100 * q:.3g} {tail:.2f} ms"
    summary += f"; set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    print(summary, file=sys.stderr)
    return metrics, fails, {"op_s": times, "setup_s": setups}


def traced(args, wl_mod, loop):
    """Alternate traced and untraced cycles; report per-layer metrics."""
    import layers
    from bevkit import eval3d
    from tracing import Tracer

    tracer = Tracer()
    plain = wl_mod.plain_api()
    api_t = tracer.wrap_api(plain, layers.COUNTERS)
    iou3d = eval3d.iou3d
    iou3d_t = tracer.wrap(iou3d)
    op_times = {True: [], False: []}
    item_of_op = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        on = cycle % 2 == 0
        for index in range(len(loop.items)):
            if on:
                op_id = len(item_of_op)
                item_of_op[op_id] = index
                eval3d.iou3d = iou3d_t
                try:
                    dt = loop.run_op(api_t, index, lambda: tracer.operation(op_id))
                finally:
                    eval3d.iou3d = iou3d
            else:
                dt = loop.run_op(plain, index)
            if dt is not None:
                op_times[on].append(dt)
        cycle += 1
        if cycle % 2 == 0 and time.perf_counter() - start >= args.seconds:
            break
    fails = loop.check(plain, args.seed, wl_mod)
    metrics = layers.per_layer_metrics(tracer, item_of_op, loop.items, loop.wl)
    overhead = _median_ms(op_times[True]) - _median_ms(op_times[False])
    metrics["trace.overhead_ms"] = _metric(overhead, "ms")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "clock": "perf_counter s"})
    return metrics, fails, {"op_s_traced": op_times[True], "op_s_untraced": op_times[False]}


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 1
    wl_mod = _import_program()
    wl, settings, items, digests = set_up(wl_mod, args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    loop = Loop(wl, settings, items, digests)
    if args.trace:
        metrics, fails, extra = traced(args, wl_mod, loop)
    else:
        metrics, fails, extra = untraced(args, wl_mod, loop, setup_s)
    for err in loop.errors:
        print(err, file=sys.stderr)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not fails, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, failures=fails, **extra), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
