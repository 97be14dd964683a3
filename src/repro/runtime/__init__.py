"""The asynchronous substrate under the OP2 contexts.

One runtime, the one the engines run on:

* futures and promises (:mod:`repro.runtime.future`) -- what
  ``op_par_loop`` returns (``HandleFuture``, Figs. 8-9 of the paper),
* the chunk-task pool (:mod:`repro.runtime.pool_executor`) behind the
  ``threads`` engine, the shared-memory worker pool
  (:mod:`repro.runtime.process_pool`) behind ``processes``, and its owner
  placement behind ``sharded`` (:mod:`repro.runtime.sharding`),
* ready-queue policies and the paper's Table I execution-policy descriptors
  (:mod:`repro.runtime.policies`),
* chunk-size policies including the paper's ``persistent_auto_chunk_size``
  (:mod:`repro.runtime.chunking`),
* the prefetching iterator ``make_prefetcher_context``
  (:mod:`repro.runtime.prefetching`), and
* interpreter turns (:mod:`repro.runtime.turns`): a service's inline
  requests run one at a time, shortest expected first, yielding between
  loops.

Execution is real (OS threads and processes); the *modelled* numbers for the
paper's figures come from the machine model in :mod:`repro.sim`.
"""

from repro.runtime.future import (
    Future,
    HandleFuture,
    Promise,
    SharedFuture,
    make_exceptional_future,
    make_ready_future,
)
from repro.runtime.pool_executor import PoolExecutor
from repro.runtime.process_pool import ProcessChunkEngine, ProcessPool
from repro.runtime.policies import (
    ExecutionPolicy,
    FifoQueue,
    ReadyQueuePolicy,
    WeightedRoundRobin,
    execution_policy_table,
    par,
    par_task,
    par_vec,
    seq,
    seq_task,
)
from repro.runtime.chunking import (
    AutoChunkSize,
    ChunkSizePolicy,
    DynamicChunkSize,
    GuidedChunkSize,
    PersistentAutoChunkSize,
    PersistentChunkRegistry,
    StaticChunkSize,
)
from repro.runtime.prefetching import PrefetcherContext, make_prefetcher_context

__all__ = [
    "Future",
    "HandleFuture",
    "Promise",
    "SharedFuture",
    "PoolExecutor",
    "ProcessPool",
    "ProcessChunkEngine",
    "make_ready_future",
    "make_exceptional_future",
    "ExecutionPolicy",
    "seq",
    "par",
    "par_vec",
    "seq_task",
    "par_task",
    "execution_policy_table",
    "ReadyQueuePolicy",
    "FifoQueue",
    "WeightedRoundRobin",
    "ChunkSizePolicy",
    "StaticChunkSize",
    "AutoChunkSize",
    "GuidedChunkSize",
    "DynamicChunkSize",
    "PersistentAutoChunkSize",
    "PersistentChunkRegistry",
    "PrefetcherContext",
    "make_prefetcher_context",
]
