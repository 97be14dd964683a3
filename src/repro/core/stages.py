"""Typed artifacts of the loop-lowering pipeline.

Every ``op_par_loop`` invocation flows through the same four stages
(:mod:`repro.core.pipeline`), and each stage produces exactly one of the
artifacts below:

``lower``
    :class:`LoweredLoop` -- the validated loop bound to its kernel profile
    and split into :class:`ChunkRange` s by the active chunk-size policy
    (:mod:`repro.runtime.chunking`) -- row ranges, owner chunks or one
    chunk, as the loop's writes allow -- or, for the fork/join policy, by
    the colouring plan.
``analyze``
    :class:`AnalyzedLoop` -- one :class:`AnalyzedChunk` per chunk: its
    simulated task id, its chunk-granular dependency edges from the
    :class:`~repro.core.interleaving.DependencyTracker`, its modelled cost,
    and the per-``(dat, access)`` :class:`~repro.op2.intervals.IntervalSet`
    summaries the edges were derived from.
``schedule``
    :class:`ChunkSchedule` -- engine-ready task specs
    (:class:`ChunkTaskSpec`, one engine task per chunk) with barriers, plus the
    :class:`ReductionPlan` describing global-reduction drain points, and
    the submission -- engine tasks, or the parent when the engine defers
    nothing or cannot host a WRITE/RW global -- all derived from the
    engine's :class:`~repro.engines.EngineCapabilities`.
``submit``
    the loop's :class:`~repro.runtime.future.SharedFuture` (dataflow policy)
    or ``None`` (fork/join policy), after the schedule ran on the engine or
    in the parent.

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

    An *owner chunk* (``parts > 0``) is chunk ``index`` of ``parts`` of
    :meth:`~repro.op2.par_loop.ParLoop.owner_plan`: ``[start, stop)`` is the
    target range it owns and ``rows`` the number of iterations it runs.
    """

    index: int
    start: int
    stop: int
    color: int = 0
    parts: int = 0
    rows: int = 0

    @property
    def size(self) -> int:
        """Number of iterations of the chunk."""
        return self.rows if self.parts else self.stop - self.start

    @property
    def owner(self) -> Optional[tuple[int, int]]:
        """``(parts, index)`` of an owner chunk, ``None`` for a row range."""
        return (self.parts, self.index) if self.parts else None


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
    #: how the chunks cut the loop: "rows", "owner" or "single"
    #: (:meth:`~repro.op2.par_loop.ParLoop.chunk_shape`)
    chunking: str = "rows"
    #: why a "single" loop is one chunk
    chunking_reason: Optional[str] = None

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

    A chunk is one engine task that commits its own effects.
    ``barrier_after`` drains the engine after the chunk's submission -- the
    implicit barrier closing a fork/join colour.
    """

    chunk_index: int
    start: int
    stop: int
    #: simulated task id of the chunk (key into the pool-id mapping)
    sim_id: int
    #: simulated task ids of the chunks this one waits for
    sim_deps: tuple[int, ...]
    barrier_after: bool = False
    #: ``(parts, k)`` of an owner chunk, ``None`` for the rows [start, stop)
    owner: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class ReductionPlan:
    """Stage-3 artifact: global-argument handling, derived from capabilities.

    ``drain_before`` / ``drain_after`` are the engine drain points around a
    loop touching globals, which are invisible to the dependency tracker: a
    reduction drains *after* (the application reads the target as soon as
    ``op_par_loop`` returns) and drains *before* only when a loop submitted
    since the last drain uses the same global buffer (``global_buffers``
    holds the identities compared) or before a loop with a WRITE/RW global
    the engine cannot host (``supports_global_write=False``): its workers
    could not observe the parent's live value, so the loop runs inline
    inside the drained window.
    """

    has_global_reduction: bool = False
    drain_before: bool = False
    drain_after: bool = False
    #: ``id`` of the array owning the memory of each global argument
    global_buffers: tuple[int, ...] = ()


@dataclass
class ChunkSchedule:
    """Stage-3 artifact: the loop as an engine-ready submission plan."""

    analyzed: AnalyzedLoop
    tasks: list[ChunkTaskSpec]
    reduction: ReductionPlan
    #: how the numerics run: "deferred" (engine tasks), "inline" (the
    #: pipeline's whole-set route) or "eager" (the policy's parent order)
    submission: str = "deferred"
    #: why an "inline" loop is inline (:mod:`repro.core.grain` names them)
    reason: Optional[str] = None

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
    #: how the numerics ran: "deferred" (engine tasks), "inline" (the whole
    #: set on the submitting thread) or "eager" (the fork/join policy's
    #: colour-by-colour parent execution on an engine that defers nothing)
    submission: str = "deferred"
    #: why an "inline" loop took the route: "serial", "gate" (both without
    #: stages or chunks), "model" or "global_write"
    reason: Optional[str] = None
    #: :attr:`LoweredLoop.chunking` and its reason (``None`` when not lowered)
    chunking: Optional[str] = None
    chunking_reason: Optional[str] = None

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
