"""Typed artifacts of the loop-lowering pipeline.

Every ``op_par_loop`` invocation flows through the same four stages
(:mod:`repro.core.pipeline`), and each stage produces exactly one of the
artifacts below:

``lower``
    :class:`LoweredLoop` -- the validated loop bound to its kernel profile
    and split into :class:`ChunkRange` s by the active chunk-size policy
    (:mod:`repro.runtime.chunking`) or, for the fork/join policy, by the
    colouring plan.
``analyze``
    :class:`AnalyzedLoop` -- one :class:`AnalyzedChunk` per chunk: its
    simulated task id, its chunk-granular dependency edges from the
    :class:`~repro.core.interleaving.DependencyTracker`, its modelled cost,
    and the per-``(dat, access)`` :class:`~repro.op2.intervals.IntervalSet`
    summaries the edges were derived from.
``schedule``
    :class:`ChunkSchedule` -- engine-ready task specs
    (:class:`ChunkTaskSpec`) with merge-chain and barrier structure, plus the
    :class:`ReductionPlan` describing global-reduction drain points and the
    global-WRITE parent-eager fallback, all derived from the engine's
    :class:`~repro.engines.EngineCapabilities`.
``submit``
    the loop's :class:`~repro.runtime.future.SharedFuture` (dataflow policy)
    or ``None`` (fork/join and serial policies), after the schedule ran on
    the engine or eagerly in the parent.

The artifacts are plain dataclasses so observers (autotuners, prefetchers,
tests) can inspect a stage's output without re-deriving it; every hook
receives a :class:`StageEvent` wrapping the artifact together with the
stage's wall-clock duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.access import AccessMode
    from repro.op2.intervals import IntervalSet
    from repro.op2.par_loop import ParLoop
    from repro.sim.cost import ChunkCost, KernelProfile

__all__ = [
    "ChunkRange",
    "LoweredLoop",
    "AnalyzedChunk",
    "AnalyzedLoop",
    "ChunkTaskSpec",
    "ReductionPlan",
    "ChunkSchedule",
    "LoopRecord",
    "StageEvent",
    "StageObserver",
    "PIPELINE_STAGES",
]

#: the stage names, in pipeline order
PIPELINE_STAGES = ("lower", "analyze", "schedule", "submit")


@dataclass(frozen=True)
class ChunkRange:
    """One contiguous iteration range ``[start, stop)`` of a lowered loop.

    ``color`` groups chunks that may run concurrently under the fork/join
    policy (blocks of one colour never write the same indirect element);
    the dataflow policy puts every chunk in colour ``0`` and lets the
    dependency tracker decide concurrency instead.
    """

    index: int
    start: int
    stop: int
    color: int = 0

    @property
    def size(self) -> int:
        """Number of iterations of the chunk."""
        return self.stop - self.start


@dataclass
class LoweredLoop:
    """Stage-1 artifact: a loop split into chunk ranges, ready for analysis."""

    loop: "ParLoop"
    #: program-order sequence number of the loop
    phase: int
    profile: "KernelProfile"
    chunks: list[ChunkRange]
    #: number of colour groups (1 unless the fork/join policy coloured)
    num_colors: int = 1

    @property
    def name(self) -> str:
        """The loop's name."""
        return self.loop.name

    @property
    def iterations(self) -> int:
        """Size of the loop's iteration set."""
        return self.loop.iterset.size

    @property
    def chunk_sizes(self) -> list[int]:
        """Sizes of the chunk ranges, in chunk order."""
        return [chunk.size for chunk in self.chunks]


@dataclass
class AnalyzedChunk:
    """Stage-2 artifact for one chunk: task id, dependency edges, cost."""

    chunk: ChunkRange
    #: id of the chunk's task in the simulated task graph
    task_id: int
    #: simulated task ids this chunk must wait for (tracker edges)
    deps: list[int]
    #: modelled execution cost of the chunk (``None`` without a cost model)
    cost: Optional["ChunkCost"] = None
    #: per-``(dat_id, access)`` interval-set summaries the edges came from
    #: (``None`` when the policy does not track dependencies)
    access_groups: Optional[list[tuple[int, "AccessMode", "IntervalSet"]]] = None
    #: simulated fork/join phase the chunk's task was filed under
    sim_phase: int = 0


@dataclass
class AnalyzedLoop:
    """Stage-2 artifact: every chunk analyzed against the dependency history."""

    lowered: LoweredLoop
    chunks: list[AnalyzedChunk]

    @property
    def loop(self) -> "ParLoop":
        """The underlying loop."""
        return self.lowered.loop

    @property
    def task_ids(self) -> list[int]:
        """Simulated task ids, in chunk order."""
        return [chunk.task_id for chunk in self.chunks]

    @property
    def dependency_count(self) -> int:
        """Total number of dependency edges across the loop's chunks."""
        return sum(len(chunk.deps) for chunk in self.chunks)


@dataclass(frozen=True)
class ChunkTaskSpec:
    """Stage-3 artifact for one chunk: how it is handed to the engine.

    ``chain_start`` opens a fresh merge chain (the dataflow policy chains all
    merges of a loop; the fork/join policy restarts the chain per colour so
    each colour is its own fork/join phase).  ``barrier_after`` drains the
    engine after the chunk's submission -- the implicit barrier closing a
    fork/join colour.
    """

    chunk_index: int
    start: int
    stop: int
    #: simulated task id of the chunk (key into the pool-id mapping)
    sim_id: int
    #: simulated task ids of the chunks this one waits for
    sim_deps: tuple[int, ...]
    chain_start: bool = False
    barrier_after: bool = False


@dataclass(frozen=True)
class ReductionPlan:
    """Stage-3 artifact: global-argument handling, derived from capabilities.

    ``drain_before`` / ``drain_after`` are the engine drain points around a
    loop touching globals, which are invisible to the dependency tracker: a
    reduction drains *after* (the application reads the target as soon as
    ``op_par_loop`` returns) and drains *before* only when a loop submitted
    since the last drain uses the same global buffer (``global_buffers``
    holds the identities compared) or for the fallback below.  ``parent_eager``
    routes the whole loop around the engine: the engine's workers could not
    observe the parent's live global value (``supports_global_write=False``),
    so the loop executes eagerly inside the drained window.
    """

    has_global_reduction: bool = False
    has_global_write: bool = False
    drain_before: bool = False
    drain_after: bool = False
    parent_eager: bool = False
    #: ``id`` of the array owning the memory of each global argument
    global_buffers: tuple[int, ...] = ()


@dataclass
class ChunkSchedule:
    """Stage-3 artifact: the loop as an engine-ready submission plan."""

    analyzed: AnalyzedLoop
    tasks: list[ChunkTaskSpec]
    reduction: ReductionPlan
    #: how the numerics run: "deferred" (engine tasks) or "eager" (parent)
    submission: str = "deferred"

    @property
    def loop(self) -> "ParLoop":
        """The underlying loop."""
        return self.analyzed.loop


@dataclass
class LoopRecord:
    """Book-keeping about one executed loop (used in reports and tests)."""

    name: str
    phase: int
    iterations: int
    chunk_sizes: list[int]
    task_ids: list[int]
    dependency_count: int
    #: how the numerics ran: "deferred" (engine tasks), "eager" (the whole
    #: pipeline, then the parent: non-deferred engines, the global-WRITE
    #: fallback) or "inline" (the grain gate: serial reference path, no
    #: stages, no chunks)
    submission: str = "deferred"

    @property
    def num_chunks(self) -> int:
        """Number of chunk tasks the loop produced."""
        return len(self.chunk_sizes)


@dataclass(frozen=True)
class StageEvent:
    """What a pipeline observer receives after each stage of each loop."""

    #: one of :data:`PIPELINE_STAGES`
    stage: str
    #: name of the loop flowing through the pipeline
    loop_name: str
    #: program-order sequence number of the loop
    phase: int
    #: the stage's artifact (see the module docstring for the mapping)
    artifact: Any
    #: wall-clock duration of the stage, in seconds
    seconds: float = 0.0
    #: free-form extras (policies may annotate events)
    extra: dict[str, Any] = field(default_factory=dict)


#: observer signature: called synchronously after each stage completes
StageObserver = Callable[[StageEvent], None]
