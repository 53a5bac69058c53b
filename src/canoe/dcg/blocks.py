"""Row blocks: a batch's rows cut into contiguous blocks, one per usable CPU.

A computation whose every output row depends only on the same input rows
gives bitwise the same result in any row blocking, and numpy releases the
interpreter lock inside its gemms and array loops, so blocks on different
threads overlap. dcg.transformer_layer runs its row-wise work this way, and
so does CanoeModel.location_probs, whose blocks run their layer nodes as
one block each.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

__all__ = ["MIN_BLOCK_ROWS", "run_row_blocks"]

# No block has fewer rows: on a 2-CPU x86_64 machine a 64-row ranking batch
# of the default model took 3.3 ms as one block and 3.6 ms as two.
MIN_BLOCK_ROWS = 64
# concurrent.futures is imported at the first split, not at every start
_pool = None  # a ThreadPoolExecutor, created at the first split
_pool_lock = threading.Lock()
_state = threading.local()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_cuts(n_rows: int) -> list[int]:
    """Bounds of contiguous row blocks: one block per usable CPU, none under
    MIN_BLOCK_ROWS rows, and one block on a thread already running a row
    block (a worker waiting on its own pool would wait forever)."""
    n_blocks = 1
    if not getattr(_state, "in_block", False):
        n_blocks = max(1, min(_usable_cpus(), n_rows // MIN_BLOCK_ROWS))
    return [i * n_rows // n_blocks for i in range(n_blocks + 1)]


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(_usable_cpus() - 1, 1),
                                       thread_name_prefix="canoe-rows")
        return _pool


def _in_block(block: Callable, lo: int, hi: int):
    _state.in_block = True
    try:
        return block(lo, hi)
    finally:
        _state.in_block = False


def run_row_blocks(n_rows: int, block: Callable[[int, int], object]) -> list:
    """[block(lo, hi) for each row block of _row_cuts(n_rows)], in row
    order. The first block runs on this thread and the others on a pool of
    worker threads; every block has finished before this returns or raises,
    and an exception of any block is raised then. One block runs as a plain
    call, and starts no pool."""
    cuts = _row_cuts(n_rows)
    if len(cuts) == 2:
        return [block(0, n_rows)]
    from concurrent.futures import wait
    futures = [_get_pool().submit(_in_block, block, lo, hi)
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = _in_block(block, cuts[0], cuts[1])
    finally:
        wait(futures)  # no block outlives the call, even on an error
    return [first] + [f.result() for f in futures]
