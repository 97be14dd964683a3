"""``engine="sharded"``: the ``processes`` engine with owner placement.

Each :class:`~repro.op2.set.OpSet` is cut into ``num_workers`` contiguous
*owned* ranges (:class:`ShardPartition`), and every chunk is pinned to the
worker owning its start index -- an owner chunk to the worker owning the
start of its target range.  That is OP2's owner-compute placement; the data
layout is exactly the ``processes`` one (one shared arena, one segment per
dat and map), so the two engines share a coherence contract and differ only
in which worker runs a chunk.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Optional

import numpy as np

from repro.op2.par_loop import LoopChunk
from repro.runtime.process_pool import ProcessChunkEngine

__all__ = ["ShardPartition", "ShardedChunkEngine"]


class ShardPartition:
    """Contiguous equal cuts of each set across ``num_shards`` workers."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._cuts: dict[int, list[int]] = {}

    def cuts(self, set_id: int, size: int) -> list[int]:
        """The ``num_shards + 1`` cut offsets partitioning ``[0, size)``."""
        cached = self._cuts.get(set_id)
        if cached is None:
            cached = np.linspace(0, size, self.num_shards + 1).astype(np.int64).tolist()
            self._cuts[set_id] = cached
        return cached

    def shard_of(self, set_id: int, size: int, index: int) -> int:
        """The shard owning element ``index`` of the set."""
        # bisect, not np.searchsorted: NumPy drops the GIL there, and the
        # submitting thread then queues for it behind the RPC stub threads.
        shard = bisect_right(self.cuts(set_id, size), index) - 1
        return min(max(shard, 0), self.num_shards - 1)


class ShardedChunkEngine(ProcessChunkEngine):
    """``engine="sharded"``: the ``processes`` engine, chunks pinned by owner."""

    @cached_property
    def partition(self) -> ShardPartition:
        """The per-set cuts chunks are placed by."""
        return ShardPartition(self.num_workers)

    def _worker_for(self, task: LoopChunk) -> Optional[int]:
        if task.owner is None:
            placed = task.loop.iterset
        else:  # on the worker owning the start of its target range
            placed = task.loop.owner_plan(task.owner[0]).target_set
        return self.partition.shard_of(placed.set_id, placed.size, task.start)
