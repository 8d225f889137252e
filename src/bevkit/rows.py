"""Row-parallel point kernels: the rows [0, n) of one call cut into fixed
blocks, which the calling thread and helper threads started for the call
take from one queue.

The point kernels (unprojection, rigid transform, projection, the
visibility survivor test and row compress, BEV cell lookup) are chains of
elementwise numpy passes, and numpy releases the interpreter lock inside
each pass.  ``run_blocks(n, block)`` runs ``block(lo, hi)`` over
consecutive blocks of the rows and returns the blocks' results in block
order.  The blocks depend only on n and the kernel's quantum, never on
the worker count, so an elementwise pass gives each row the bits of the
serial run; accumulations whose order is their bits (the z-buffer's
``minimum.at``, the pillar sums, the splat, the evaluation) stay serial.

A block writes into arrays its kernel allocated once, through ``out=``
or slice assignment, and allocates only block-sized temporaries: a
temporary allocated in a helper thread comes from that thread's own
malloc arena, whose freed memory stays resident.

The worker count is process-wide, like the kernels that read it: by
default the cores this process may run on, else what ``worker_count``
sets.  There is no pool: a call starts its own helpers and joins every
one before it returns or raises, so no helper outlives its call, a call
from any thread (a block's included) waits only on helpers of its own,
and a forked child inherits no helper.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

# A call starts a helper for each MIN_ROWS rows past the first MIN_ROWS:
# a 100k point cloud stays on one core, where two threads on 50k rows
# each measured slower than one, and a 307k point depth frame takes up
# to four threads.
MIN_ROWS = 1 << 16
# Rows run in blocks of BLOCK_ROWS, so that the few arrays a chain of
# passes over one block allocates stay in cache and are small.
BLOCK_ROWS = 1 << 14


def available_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # a platform without CPU affinity
        return os.cpu_count() or 1


_workers = available_cores()


@contextmanager
def worker_count(n: int):
    """Run the kernels inside the with-statement on exactly ``n`` workers
    (1 starts no thread), then restore the previous count."""
    global _workers
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    before, _workers = _workers, n
    try:
        yield
    finally:
        _workers = before


def run_blocks(n: int, block, quantum: int = 1) -> list:
    """``[block(lo, hi), ...]`` over [0, n) in consecutive blocks of
    BLOCK_ROWS rows rounded down to a multiple of quantum, the last block
    up to twice that; every boundary but n a multiple of quantum.  The
    caller and ``min(workers, n // MIN_ROWS) - 1`` helper threads run the
    blocks.  Returns once every helper has finished, re-raising the
    caller's error or else the first helper's."""
    step = max(quantum, BLOCK_ROWS // quantum * quantum)
    # the last block also takes the rows short of a whole one, so that no
    # block is a sliver: a one-row product takes another BLAS path, with
    # other bits
    starts = range(0, n, step)[:max(1, n // step)]
    bounds = list(zip(starts, [*starts[1:], n]))
    helpers = min(_workers, n // MIN_ROWS) - 1
    if helpers < 1:
        return [block(lo, hi) for lo, hi in bounds]
    # imported on first use: import bevkit loads no queue
    import queue

    todo, results, errors = queue.SimpleQueue(), [None] * len(bounds), []
    for i in range(len(bounds)):
        todo.put(i)

    def drain():
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            results[i] = block(*bounds[i])

    def helper():
        try:
            drain()
        except BaseException as err:
            errors.append(err)

    threads = []
    try:
        for _ in range(helpers):
            t = threading.Thread(target=helper, name="bevkit-rows")
            t.start()
            threads.append(t)
        drain()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results
