"""The built-in execution engines, self-registered on import.

* ``simulate`` -- an :class:`InlineEngine` with ``deferred=False``: loop
  numerics execute eagerly in the parent and only the chunk DAG is modelled.
  Contexts never submit to it, but the registration keeps the name a
  first-class engine (capability negotiation, uniform errors, reports).
* ``threads`` -- the dependency-gated OS-thread pool
  (:class:`~repro.runtime.pool_executor.PoolExecutor`).
* ``processes`` -- the shared-memory multiprocess chunk engine
  (:class:`~repro.runtime.process_pool.ProcessChunkEngine`): no shared
  address space, kernel dispatch by registered name, no in-engine global
  writes.
* ``sharded`` -- the distributed-memory variant of ``processes``
  (:class:`~repro.runtime.sharding.ShardedChunkEngine`): each set is
  partitioned into per-worker owned shards, every dat gets one segment per
  shard, and only the interval-exact halo runs a chunk is missing travel
  between address spaces, batched into the chunk RPCs.  Advertises
  ``partitioned_dats``, so contexts sync the parent's home view at drain
  points.
* ``compiled`` -- the same thread pool advertising ``compiled_kernels``:
  the loop pipeline lowers each kernel through the translator (capture →
  parse → IR → emit) and submits compiled slab functions instead of
  interpreted prepare closures, falling back per kernel when lowering
  fails.  With numba importable the slabs run ``njit(nogil=True)`` and
  genuinely overlap; otherwise they run as exec'd NumPy modules.

:class:`InlineEngine` doubles as the reference implementation of the engine
protocol for third parties: subclass (or copy) it, adjust the advertised
:class:`~repro.engines.base.EngineCapabilities`, and register the class with
:func:`~repro.engines.register_engine`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable, Optional

from repro.engines.base import EngineCapabilities, ExecutionEngine, RunConfig
from repro.engines.registry import register_engine
from repro.errors import RuntimeStateError
from repro.runtime.pool_executor import PoolExecutor
from repro.runtime.process_pool import ProcessChunkEngine

__all__ = [
    "InlineEngine",
    "SIMULATE_CAPABILITIES",
    "THREADS_CAPABILITIES",
    "PROCESSES_CAPABILITIES",
    "COMPILED_CAPABILITIES",
    "SHARDED_CAPABILITIES",
]

#: eager parent execution; only the DAG is modelled, so no strict edges
SIMULATE_CAPABILITIES = EngineCapabilities(deferred=False)

#: one interpreter, OS threads: closures work, globals live in-process
THREADS_CAPABILITIES = PoolExecutor.capabilities

#: worker processes on shared-memory segments
PROCESSES_CAPABILITIES = ProcessChunkEngine.capabilities

#: the thread pool, asking the pipeline for lowered slab kernels
COMPILED_CAPABILITIES = dataclasses.replace(THREADS_CAPABILITIES, compiled_kernels=True)

#: per-shard dat partitions with interval-exact halo exchange
SHARDED_CAPABILITIES = dataclasses.replace(PROCESSES_CAPABILITIES, partitioned_dats=True)


class InlineEngine:
    """Run every task immediately at submission, in submission order.

    Dependencies are trivially satisfied -- by the time a task is submitted,
    every id handed out earlier has already completed -- so the engine is the
    minimal correct implementation of the protocol: deterministic, identical
    to sequential chunked execution, and useful both as the ``simulate``
    registration and as a template for custom engines.
    """

    capabilities = SIMULATE_CAPABILITIES

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config
        self.trace_events: Optional[list[tuple[str, int]]] = None
        self._ids = itertools.count()
        self._shutdown = False
        #: number of tasks executed through the engine (tests observe this)
        self.executed = 0

    @property
    def num_workers(self) -> int:
        """Inline execution has exactly the submitting thread."""
        return 1

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self._shutdown

    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        """Run ``fn`` now (its deps already completed); return its id."""
        if self._shutdown:
            raise RuntimeStateError("inline engine has been shut down")
        list(deps)  # ids of already-completed tasks: nothing to wait for
        fn()
        self.executed += 1
        return next(self._ids)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Nothing is ever outstanding."""

    def cancel_pending(self) -> None:
        """Nothing is ever pending."""

    def shutdown(self, wait: bool = True) -> None:
        """Mark the engine closed (contexts re-create engines after finish)."""
        self._shutdown = True


def _make_simulate(config: RunConfig) -> ExecutionEngine:
    return InlineEngine(config)


def _make_threads(config: RunConfig) -> ExecutionEngine:
    return PoolExecutor(config.num_threads, name="hpx-chunk-pool", trace=True)


def _make_processes(config: RunConfig) -> ExecutionEngine:
    return ProcessChunkEngine(
        config.num_threads,
        name="hpx-chunk-procs",
        trace=True,
    )


def _make_compiled(config: RunConfig) -> ExecutionEngine:
    engine = PoolExecutor(config.num_threads, name="hpx-slab-pool", trace=True)
    engine.capabilities = COMPILED_CAPABILITIES
    return engine


def _make_sharded(config: RunConfig) -> ExecutionEngine:
    from repro.runtime.sharding import ShardedChunkEngine
    from repro.session import Session

    # The halo directory shares the session's interval algebra with the
    # dependency tracker: both ask about the same summary objects.
    return ShardedChunkEngine(
        config.num_threads,
        name="hpx-chunk-shards",
        trace=True,
        algebra=Session.current().interval_algebra,
    )


register_engine("simulate", _make_simulate, capabilities=SIMULATE_CAPABILITIES, overwrite=True)
register_engine("threads", _make_threads, capabilities=THREADS_CAPABILITIES, overwrite=True)
register_engine("processes", _make_processes, capabilities=PROCESSES_CAPABILITIES, overwrite=True)
register_engine("compiled", _make_compiled, capabilities=COMPILED_CAPABILITIES, overwrite=True)
register_engine("sharded", _make_sharded, capabilities=SHARDED_CAPABILITIES, overwrite=True)
