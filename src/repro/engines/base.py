"""The execution-engine seam: protocol, capabilities and the typed run config.

The paper's portability argument is that OP2's parallel loops stay backend
agnostic when dispatch is routed through a runtime *executor* concept (HPX
dataflow executors) rather than baked-in backends.  :class:`ExecutionEngine`
is that seam for this reproduction: any object speaking the protocol below
can carry the chunk DAG -- the built-in thread pool and shared-memory process
engines do, and so can third-party substrates registered through
:func:`repro.engines.register_engine` without touching a single ``repro``
module.

Contexts never ask *which* engine is active; they ask what it *can do*.
:class:`EngineCapabilities` is that capability record: the HPX context
derives its chunking and strict-commit tracker edges, its global-write parent
fallback and its drain points from it, and the OpenMP baseline rejects
engines by capability (it needs a shared address space) instead of by name.

:class:`RunConfig` is the typed, frozen description of one run -- engine
name, worker count, chunking policy, prefetch settings -- that contexts are
built from (``hpx_context(config=RunConfig(...))``) and engine factories
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.chunking import ChunkSizePolicy

__all__ = ["EngineCapabilities", "ExecutionEngine", "RunConfig"]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an execution engine can (and must) do.

    Contexts branch on these flags -- never on engine names -- so a new
    substrate plugs in by describing itself truthfully:

    * ``deferred``: chunks really run on the engine, each committing its own
      effects, so the dependency tracker adds the strict-commit edges
      (program-order increment accumulation, reader ordering against
      displaced writer layers, same-loop WAW) that keep results
      bit-identical to serial.  ``False`` means the engine models a run
      whose numerics execute eagerly in the parent (the ``simulate``
      engine); contexts then never submit anything.
    * ``shared_address_space``: workers see the parent's live arrays, so
      closure submission works and in-place scatters need no marshalling.
      The OpenMP baseline requires this (its defining property is the
      shared-memory barrier per loop).
    * ``needs_kernel_registry``: work must be dispatched by registered
      kernel *name* (closures cannot reach the workers); the engine's
      ``submit`` then ships each :class:`~repro.op2.par_loop.LoopChunk` task
      by name instead of calling it.
    * ``supports_global_write``: loops writing a non-reduction global
      (``OP_WRITE``/``OP_RW`` on ``op_arg_gbl``) can execute on the engine.
      When ``False`` the context drains the engine and runs such loops
      inline in the parent, which owns the live global value.
    * ``compiled_kernels``: the engine wants loops lowered through the
      kernel pipeline (capture → parse → IR → emit) and dispatched as
      compiled slab functions; loops (or kernels) the pipeline cannot lower
      fall back to the interpreted prepare path per loop.

    Every engine keeps one coherent storage per dat: once a drain completed,
    the parent's ``dat.data`` shows every committed chunk.
    """

    deferred: bool = True
    shared_address_space: bool = True
    needs_kernel_registry: bool = False
    supports_global_write: bool = True
    compiled_kernels: bool = False

    def describe(self) -> dict[str, bool]:
        """The capability record as a plain dict (used in backend reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@runtime_checkable
class ExecutionEngine(Protocol):
    """The substrate protocol every execution engine implements.

    The dependency semantics are the :class:`~repro.runtime.pool_executor.
    PoolExecutor` contract: ``submit`` returns a task id, ``deps`` are ids of
    tasks that must complete first, the first task failure poisons the engine
    (skipped tasks fire ``on_skip``), and ``wait_all`` drains and re-raises.

    Every chunk of a loop is one task: a callable
    :class:`~repro.op2.par_loop.LoopChunk` that runs the chunk and commits
    its own effects.  An engine with ``needs_kernel_registry=True`` ships it
    to a worker by kernel name instead of calling it.
    """

    #: capability record contexts negotiate against
    capabilities: EngineCapabilities

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        ...

    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        """Submit a plain task gated on ``deps``; returns its id."""
        ...

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until everything submitted completed; re-raise failures."""
        ...

    def cancel_pending(self) -> None:
        """Poison the engine: unstarted tasks are skipped."""
        ...

    def shutdown(self, wait: bool = True) -> None:
        """Stop the engine (draining first when ``wait`` is true)."""
        ...


@dataclass(frozen=True)
class RunConfig:
    """Typed description of one execution run.

    Build one explicitly and pass ``hpx_context(config=RunConfig(...))`` (or
    use keywords -- the contexts assemble the same object from them).  Frozen
    so a config can be shared, hashed and ``dataclasses.replace``-swept by
    benchmarks.
    """

    #: registered engine name ("simulate", "threads", "processes", ...)
    engine: str = "simulate"
    #: worker threads/processes of the engine (and of the simulated machine)
    num_threads: int = 16
    #: chunk-size policy name or instance ("auto" / "persistent_auto")
    chunking: Union[str, "ChunkSizePolicy"] = "auto"
    #: enable the prefetching-iterator cost model
    prefetch: bool = False
    #: prefetch distance factor (``None`` = library default)
    prefetch_distance_factor: Optional[int] = None
    #: chunk-granular loop interleaving (the paper's Figs. 10-11)
    interleave: bool = True
    #: exact interval-set chunk summaries (``False`` = [min, max] hulls)
    interval_sets: bool = True
    #: futurized dataflow scheduling in the simulator (``False`` = barriers)
    async_tasking: bool = True
    #: prefer vectorized kernels where the loop provides them
    prefer_vectorized: bool = True

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (sugar over ``dataclasses.replace``)."""
        import dataclasses

        return dataclasses.replace(self, **changes)
