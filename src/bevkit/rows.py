"""Row-parallel point kernels: the rows [0, n) of one call split into
contiguous parts, one per worker thread.

The point kernels (unprojection, rigid transform, projection, the
visibility survivor test and row compress, BEV cell lookup) are chains of
elementwise numpy passes, and numpy releases the interpreter lock inside
each pass.  ``run_blocks(n, block)`` runs ``block(lo, hi)`` over the rows
in blocks: the calling thread takes the first part's blocks and a
persistent pool the other parts', and it returns, or re-raises an error,
only after every part has finished.  An elementwise pass gives each row
the same bits on any split, so every output is independent of the worker
count; accumulations whose order is their bits (the z-buffer's
``minimum.at``, the pillar sums, the splat, the evaluation) stay serial.

A block writes into arrays its kernel allocated once, through ``out=``
or slice assignment, and allocates only block-sized temporaries: a
temporary allocated in a worker thread comes from that thread's own
malloc arena, whose freed memory stays resident.

The worker count is process-wide, like the kernels that read it: by
default the cores this process may run on, else what ``worker_count``
sets.  A call from a pool thread (a block's, or a task's submitted to
the pool) runs serially: the parts it queued would wait behind the very
thread that waits for them, forever with one pool thread.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

# A call splits only when each part gets at least MIN_ROWS rows: a 100k
# point cloud stays on one core, where two parts of 50k rows measured
# slower than one, and a 307k point depth frame takes two.
MIN_ROWS = 1 << 16
# Part boundaries fall on multiples of QUANTUM rows, so each part but the
# last holds whole blocks of any BLAS row blocking up to that size.
QUANTUM = 1 << 12
# A part runs its rows in blocks of BLOCK_ROWS, so that the few arrays a
# chain of passes over one block allocates stay in cache and are small.
BLOCK_ROWS = 1 << 14


def available_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # a platform without CPU affinity
        return os.cpu_count() or 1


class _Pool:
    """The worker count and its lazily started threads, one per part
    after the first."""

    def __init__(self):
        self.workers = available_cores()
        self.forget_threads()

    def forget_threads(self) -> None:
        self.lock = threading.Lock()
        self.executor, self.threads = None, 0

    def executor_for(self, workers: int):
        # imported on first use: import bevkit loads no thread machinery
        from concurrent.futures import ThreadPoolExecutor

        with self.lock:
            if self.threads != workers - 1:
                if self.executor is not None:
                    self.executor.shutdown(wait=True)
                self.executor = ThreadPoolExecutor(workers - 1,
                                                   thread_name_prefix="bevkit-rows",
                                                   initializer=_mark_pool_thread)
                self.threads = workers - 1
            return self.executor


_ON_POOL = threading.local()


def _mark_pool_thread() -> None:
    _ON_POOL.thread = True


_POOL = _Pool()
# the parent's threads do not exist in a forked child, and a pool that
# believes they do would queue parts that no thread runs
os.register_at_fork(after_in_child=_POOL.forget_threads)


@contextmanager
def worker_count(n: int):
    """Run the kernels inside the with-statement on exactly ``n`` workers
    (1 starts no thread), then restore the previous count."""
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    before, _POOL.workers = _POOL.workers, n
    try:
        yield
    finally:
        _POOL.workers = before


def part_bounds(n: int, workers: int, quantum: int = QUANTUM) -> list:
    """(lo, hi) of each part of [0, n): as many parts as workers, but none
    under MIN_ROWS rows, and every inner boundary a multiple of quantum;
    what rounding leaves over falls to the first part, the caller's, and
    the last."""
    parts = workers
    while parts > 1 and n // parts // quantum * quantum < MIN_ROWS:
        parts -= 1
    size = n // parts // quantum * quantum
    top = n // quantum * quantum
    cuts = [0] + [top - (parts - i) * size for i in range(1, parts)] + [n]
    return list(zip(cuts[:-1], cuts[1:]))


def run_blocks(n: int, block, quantum: int = QUANTUM) -> None:
    """``block(lo, hi)`` over [0, n) in consecutive blocks of BLOCK_ROWS
    rows (rounded to quantum; a part's last block up to twice that), each
    part's blocks in order on one thread; every boundary but n a multiple
    of quantum.  Returns once every part has finished, re-raising the
    caller's error or else the first worker's.  On a pool thread the rows
    are one part."""
    n_workers = _POOL.workers
    step = max(quantum, BLOCK_ROWS // quantum * quantum)

    def part(lo, hi):
        # a part's last block also takes the rows short of a whole one, so
        # that no block is a sliver: a one-row product takes another BLAS
        # path, with other bits
        cuts = [lo + i * step for i in range(max(1, (hi - lo) // step))] + [hi]
        for b, e in zip(cuts[:-1], cuts[1:]):
            if e > b:
                block(b, e)

    bounds = part_bounds(n, n_workers, quantum)
    if len(bounds) == 1 or getattr(_ON_POOL, "thread", False):
        part(0, n)
        return
    executor = _POOL.executor_for(n_workers)
    futures = [executor.submit(part, lo, hi) for lo, hi in bounds[1:]]
    try:
        part(*bounds[0])
    finally:
        for f in futures:
            f.exception()     # waits, and raises nothing
    for f in futures:
        f.result()
