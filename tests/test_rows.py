"""Row-parallel point kernels: the blocks, their errors, their helper
threads, and every split kernel byte-identical at 1, 2 and 3 workers.

The kernel properties draw their row counts around the helper thresholds
(MIN_ROWS * k +- 1 and odd primes near them) and around whole blocks, and
their inputs from a seed, with the rows a kernel treats apart (behind the
camera, off the image lattice, off the grid, NaN and inf) mixed in.
"""

import hashlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit import rows
from bevkit.geom import CameraIntrinsics, PointCloud, Pose, _project, transform_cloud
from bevkit.grid import _cells_of, build_grid, cells_of
from bevkit.io import write_intrinsics, write_tnsr
from bevkit.pointpipe import DepthMap, _visibility_mask, depthmap_to_cloud, unify_visible
from test_geom import former_project
from test_grid import former_cells_of
from test_imports import run_python
from test_pointpipe import _rotation, former_depthmap_to_cloud

M, B = rows.MIN_ROWS, rows.BLOCK_ROWS
WORKER_COUNTS = (1, 2, 3)
# one, two, three and four threads' worth of rows, one either side
THRESHOLD_COUNTS = [M * k + d for k in (1, 2, 3, 4) for d in (-1, 1)]
ODD_PRIMES = [131071, 131101, 196597, 196613, 262127, 262133]
# across whole blocks near the two- and three-thread thresholds
BLOCK_COUNTS = [k * M + j * B + d for k in (2, 3) for j in (1, 2) for d in (-1, 0, 1)]
row_counts = st.sampled_from(THRESHOLD_COUNTS + ODD_PRIMES + BLOCK_COUNTS)
K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
GRID = build_grid((-30.0, 30.0), (0.0, 80.0), 60, 80)


def at_each_worker_count(kernel, *args):
    """The kernel's outputs as bytes (a count or a dict of counts as it
    is) at 1, 2 and 3 workers, after checking that all three are equal."""
    outs = []
    for n in WORKER_COUNTS:
        with rows.worker_count(n):
            out = kernel(*args)
        outs.append([a if isinstance(a, (int, dict)) else np.asarray(a).tobytes()
                     for a in (out if isinstance(out, tuple) else (out,))])
    assert outs[1] == outs[0] and outs[2] == outs[0]
    return outs[0]


def camera_points(rng, n, special_share):
    """n rows of (x, y, z, intensity) in front of K, some shifted behind
    the camera or off the image lattice, and about a quarter stacked on
    a few pixels so that the z-buffer occludes."""
    z = rng.uniform(0.5, 8.0, n)
    xyz = np.column_stack([rng.uniform(-0.6, 0.6, n) * z, rng.uniform(-0.45, 0.45, n) * z, z])
    stacked = rng.uniform(size=n) < 0.25
    rays = rng.uniform(-0.5, 0.5, (8, 2))
    xyz[stacked, :2] = rays[rng.integers(0, 8, stacked.sum())] * xyz[stacked, 2:]
    special = np.flatnonzero(rng.uniform(size=n) < special_share)
    kind = rng.integers(0, 3, special.size)
    xyz[special[kind == 0], 2] *= -1.0                      # behind the camera
    xyz[special[kind == 1], 2] = rng.choice([0.0, 1e-9, 1e-12], (kind == 1).sum())
    xyz[special[kind == 2], 0] *= 3.0                       # off the lattice
    return np.column_stack([xyz, rng.uniform(size=n)])


class TestBlocks:
    @settings(deadline=None, max_examples=300)
    @given(n=st.one_of(st.integers(0, 10 * M), row_counts),
           workers=st.sampled_from(WORKER_COUNTS), quantum=st.sampled_from([1, 640, 1021, 4096]))
    def test_blocks_tile_the_rows(self, n, workers, quantum):
        with rows.worker_count(workers):
            blocks = rows.run_blocks(n, lambda lo, hi: (lo, hi), quantum)
        # contiguous from 0 to n, none empty, every boundary but n on the quantum
        assert [0] + [hi for _, hi in blocks] == [lo for lo, _ in blocks] + [n]
        assert all(hi > lo and lo % quantum == 0 for lo, hi in blocks)
        step = max(quantum, B // quantum * quantum)
        if n >= step:
            assert all(step <= hi - lo < 2 * step for lo, hi in blocks)
        else:
            assert len(blocks) == (n > 0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_come_in_block_order(self, workers):
        for n in THRESHOLD_COUNTS:
            with rows.worker_count(workers):
                assert rows.run_blocks(n, lambda lo, hi: lo) == [i * B for i in range(n // B)]

    def test_thresholds(self):
        for n, workers, threads in [(2 * M - 1, 2, 1), (2 * M + 1, 2, 2), (3 * M + 1, 3, 3),
                                    (3 * M + 1, 2, 2),
                                    (100_000, 2, 1)]:   # an outdoor cloud stays serial
            # the first blocks wait for each other, which only as many
            # threads running at once can do
            barrier, seen = threading.Barrier(threads, timeout=10), set()

            def block(lo, hi):
                if lo < threads * B:
                    barrier.wait()
                seen.add(threading.get_ident())

            with rows.worker_count(workers):
                rows.run_blocks(n, block)
            assert len(seen) == threads and (threads > 1 or seen == {threading.get_ident()})


class TestRunBlocks:
    def test_every_row_once_in_whole_blocks(self):
        seen = []
        with rows.worker_count(3):
            rows.run_blocks(3 * M + 12345, lambda lo, hi: seen.append((lo, hi)))
        seen.sort()
        assert seen[0][0] == 0 and seen[-1][1] == 3 * M + 12345
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
        # whole blocks, the last one also taking the remainder
        assert all(B <= hi - lo < 2 * B for lo, hi in seen)

    def test_serial_below_the_threshold_runs_on_the_caller(self):
        threads = set()
        with rows.worker_count(3):
            rows.run_blocks(2 * M - 1, lambda lo, hi: threads.add(threading.get_ident()))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_an_error_surfaces_after_every_started_block_has_finished(self, failing):
        n = 3 * M + 1
        starts = list(range(0, n - B + 1, B))
        failing_lo = starts[0] if failing == "first" else starts[-1]
        started, finished = [], []

        def block(lo, hi):
            started.append(lo)
            if lo == failing_lo:
                raise KeyError(lo)
            time.sleep(0.02)
            finished.append(lo)

        with rows.worker_count(3), pytest.raises(KeyError) as err:
            rows.run_blocks(n, block)
        assert err.value.args == (failing_lo,)
        n_started = len(started)
        assert sorted(finished) == sorted(set(started) - {failing_lo})
        if failing == "last":      # taken last, so after every other block
            assert sorted(started) == starts
        time.sleep(0.1)
        assert len(started) == n_started     # no block starts after the return

    def test_more_workers_than_cores_under_fast_switching(self):
        # every block runs once and every output row is written once, also
        # when threads trade the interpreter lock after each bytecode or so
        n, workers = 8 * M + 3, rows.available_cores() + 6
        rng = np.random.default_rng(6)
        x, z = rng.uniform(-40.0, 90.0, (2, n))
        with rows.worker_count(1):
            want = cells_of(x, z, GRID).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with rows.worker_count(workers):
                for _ in range(3):
                    seen = []
                    rows.run_blocks(n, lambda lo, hi: seen.append((lo, hi)))
                    assert sum(hi - lo for lo, hi in seen) == n and len(set(seen)) == len(seen)
                    assert cells_of(x, z, GRID).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_block_that_calls_a_split_kernel_finishes(self, workers):
        # every block, on the caller and on a helper, splits a kernel of
        # its own: were it to wait on helpers it cannot have, it would
        # hang, so it runs in a forked child, which the timeout ends
        n = 3 * M + 1
        with rows.worker_count(1):
            want = cells_of(*nested_columns(n), GRID).tobytes()
        assert in_forked_child(_child_nested_split, workers, n) == want

    @pytest.mark.parametrize("failing", [False, True], ids=["returns", "raises"])
    def test_no_helper_outlives_the_call(self, failing):
        # the caller's blocks fail at once while the helpers' blocks are
        # still sleeping, so only a join on the error path waits for them
        caller, ran_on = threading.get_ident(), set()
        before = set(threading.enumerate())

        def block(lo, hi):
            ran_on.add(threading.get_ident())
            if failing and threading.get_ident() == caller:
                raise KeyError(lo)
            time.sleep(0.05)

        with rows.worker_count(3):
            if failing:
                with pytest.raises(KeyError):
                    rows.run_blocks(3 * M + 1, block)
            else:
                rows.run_blocks(3 * M + 1, block)
        assert len(ran_on) > 1 and set(threading.enumerate()) == before

    def test_worker_count_is_restored(self):
        before = rows._workers
        with pytest.raises(ZeroDivisionError):
            with rows.worker_count(3):
                1 / 0
        assert rows._workers == before
        with pytest.raises(ValueError):
            with rows.worker_count(0):
                pass


class TestWorkerCount:
    def test_cli_starts_threads_only_above_one(self, tmp_path):
        # a 640x480 depth frame: 307200 points, enough rows to split
        write_tnsr(tmp_path / "depth.tnsr",
                   np.random.default_rng(4).uniform(0.5, 8.0, (1, 1, K.height, K.width)))
        write_intrinsics(tmp_path / "k.json", K)
        # no helper is alive once main returns, so the child counts the
        # threads it starts, and the threads alive at the end
        code = ("import sys, threading\n"
                "starts, start = [], threading.Thread.start\n"
                "threading.Thread.start = lambda t: (starts.append(t), start(t))[1]\n"
                "from bevkit.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(len(starts), threading.active_count())\n"
                "sys.exit(code)\n")
        started, outputs = {}, {}
        for threads in (["--threads", "1"], ["--threads", "2"], []):
            name = threads[-1] if threads else "default"
            out = run_python(code, *threads, "unify", "--in", str(tmp_path / "depth.tnsr"),
                             "--intrinsics", str(tmp_path / "k.json"),
                             "--out", str(tmp_path / f"{name}.mmpc"))
            assert out.returncode == 0, out.stderr
            started[name], alive = map(int, out.stdout.splitlines()[-1].split())
            assert alive == 1
            outputs[name] = (tmp_path / f"{name}.mmpc").read_bytes()
        assert started["1"] == 0
        if rows.available_cores() > 1:
            assert started["2"] >= 1 and started["default"] >= 1
        assert outputs["2"] == outputs["1"] and outputs["default"] == outputs["1"]


def in_forked_child(target, *args, timeout=30):
    """What ``target(conn, *args)`` sends from a forked child, or None if
    it sends nothing within the timeout; a child still running is killed."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(sender,) + args)
    child.start()
    sender.close()
    try:
        got = receiver.recv() if receiver.poll(timeout) else None
        child.join(timeout=timeout)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert got is None or child.exitcode == 0
    return got


def nested_columns(n):
    return np.random.default_rng(8).uniform(-40.0, 90.0, (2, n))


def _child_nested_split(conn, workers, n):
    x, z = nested_columns(n)
    with rows.worker_count(workers):
        cells = rows.run_blocks(3 * M, lambda lo, hi: cells_of(x, z, GRID).tobytes())
    assert len(set(cells)) == 1 and len(cells) == 3 * M // B
    conn.send(cells[0])
    conn.close()


def _child_digest(conn, pc, pose):
    conn.send(hashlib.sha256(transform_cloud(pc, pose).points.tobytes()).hexdigest())
    conn.close()


def test_forked_child_runs_split_kernels():
    rng = np.random.default_rng(5)
    pc = PointCloud(rng.normal(size=(3 * M + 7, 4)))
    pose = Pose(_rotation(rng.normal(size=4)), rng.normal(size=3))
    with rows.worker_count(2):
        want = hashlib.sha256(transform_cloud(pc, pose).points.tobytes()).hexdigest()
        assert in_forked_child(_child_digest, pc, pose) == want


class TestSplitKernels:
    """Each split kernel at 1, 2 and 3 workers, and against its serial
    former form."""

    @settings(deadline=None, max_examples=12)
    @given(n=row_counts, seed=st.integers(0, 2**32 - 1),
           special_share=st.sampled_from([0.0, 0.01, 0.3]))
    def test_project(self, n, seed, special_share):
        xyz = camera_points(np.random.default_rng(seed), n, special_share)[:, :3]
        xyz[:: max(1, n // 7), :] = [np.inf, np.nan, 1.0]     # project_point's odd rows
        z, pixel, n_in_view = at_each_worker_count(_project, xyz, K)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _, _, *want, in_view = former_project(xyz, K)
        assert [z, pixel] == [a.tobytes() for a in want]
        assert n_in_view == in_view.sum()

    @settings(deadline=None, max_examples=12)
    @given(n=row_counts, seed=st.integers(0, 2**32 - 1),
           special_share=st.sampled_from([0.0, 0.01, 0.3]))
    def test_visibility(self, n, seed, special_share):
        pc = PointCloud(camera_points(np.random.default_rng(seed), n, special_share))
        survive, counts = at_each_worker_count(_visibility_mask, pc, K, 0.1)
        kept = at_each_worker_count(lambda: unify_visible(pc, K, 0.1)[0].points)
        want = np.frombuffer(survive, dtype=bool)
        assert kept[0] == np.compress(want, pc.points, axis=0).tobytes()
        n_seen, n_kept = int(former_project(pc.xyz, K)[4].sum()), int(want.sum())
        assert counts == {"input": n, "out_of_view": n - n_seen,
                          "occluded": n_seen - n_kept, "retained": n_kept}

    @settings(deadline=None, max_examples=12)
    @given(h=st.sampled_from([205, 206, 307, 308, 409, 410]), w=st.sampled_from([640, 641, 1021]),
           seed=st.integers(0, 2**32 - 1),
           invalid_share=st.sampled_from([0.0, 0.001, 0.3]))
    def test_depthmap_to_cloud(self, h, w, seed, invalid_share):
        rng = np.random.default_rng(seed)
        depths = rng.uniform(0.5, 8.0, (h, w))
        bad = rng.uniform(size=depths.shape) < invalid_share
        depths[bad] = rng.choice([np.nan, 0.0, -1.0, np.inf, -np.inf], bad.sum())
        cam = CameraIntrinsics(fx=500.0, fy=480.0, cx=w / 2 - 0.25, cy=h / 2, width=w, height=h)
        dm = DepthMap(depths)
        (points,) = at_each_worker_count(lambda: depthmap_to_cloud(dm, cam).points)
        assert points == former_depthmap_to_cloud(dm, cam).tobytes()

    @settings(deadline=None, max_examples=12)
    @given(n=row_counts, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e6]),
           intensity=st.sampled_from(["random", "unit", "unit but one"]))
    def test_transform_cloud_is_pose_apply(self, n, seed, scale, intensity):
        # a block of unit intensities is its own affine operand and any
        # other block is copied: with one row off 1.0, both kinds of block
        # meet, on the caller and on helpers
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 4)) * scale
        if intensity != "random":
            points[:, 3] = 1.0
        if intensity == "unit but one":
            points[rng.integers(n), 3] = 0.5
        pc = PointCloud(points)
        pose = Pose(_rotation(rng.normal(size=4)), rng.normal(size=3) * scale)
        (points,) = at_each_worker_count(lambda: transform_cloud(pc, pose).points)
        assert points == np.column_stack([pose.apply(pc.xyz), pc.intensity]).tobytes()

    @settings(deadline=None, max_examples=12)
    @given(n=row_counts, seed=st.integers(0, 2**32 - 1),
           special_share=st.sampled_from([0.0, 0.01, 0.3]))
    def test_cells_of(self, n, seed, special_share):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-40.0, 90.0, (n, 4))     # a share off the grid on each axis
        special = np.flatnonzero(rng.uniform(size=n) < special_share)
        points[special, rng.choice([0, 2], special.size)] = rng.choice(
            [np.nan, np.inf, -np.inf, 30.0, 80.0, -30.0, 0.0], special.size)
        x, z = points[:, 0], points[:, 2]
        (cells,) = at_each_worker_count(cells_of, x, z, GRID)
        with np.errstate(over="ignore"):
            assert cells == former_cells_of(x, z, GRID).tobytes()

    def test_cells_of_with_a_dump_cell(self, cell_oracle):
        # pillarize's form: off-grid and non-finite rows take the cell
        # n_cells, marked in the split blocks; cells_of keeps OUT_OF_RANGE
        n = 3 * M + 1     # on two threads at 2 workers, three at 3
        rng = np.random.default_rng(n)
        x, z = rng.uniform(-40.0, 90.0, (2, n))     # a share off the grid on each axis
        special = np.flatnonzero(rng.uniform(size=n) < 0.05)
        column = rng.choice([0, 1], special.size)
        values = rng.choice([np.nan, np.inf, -np.inf, 30.0, 80.0, -30.0, 0.0], special.size)
        x[special[column == 0]], z[special[column == 1]] = (values[column == 0],
                                                           values[column == 1])
        (cells,) = at_each_worker_count(_cells_of, x, z, GRID, GRID.n_cells)
        (plain,) = at_each_worker_count(cells_of, x, z, GRID)
        want = np.array([cell_oracle.cell(a, b, GRID) for a, b in zip(x.tolist(), z.tolist())])
        assert np.isnan(x).any() and np.isnan(z).any() and (want < 0).any()
        assert plain == want.tobytes()
        want[want < 0] = GRID.n_cells
        assert cells == want.tobytes()

    def test_cells_of_refuses_columns_of_two_shapes(self):
        with pytest.raises(ValueError, match="one shape"):
            cells_of(0.0, np.zeros(3), GRID)
