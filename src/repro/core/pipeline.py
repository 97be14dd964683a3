"""The shared loop-lowering pipeline: plan → analyze → schedule → submit.

Every execution context lowers ``op_par_loop`` invocations through one
:class:`LoopPipeline`.  The pipeline owns the logic the three historical
lowering paths (the HPX dataflow runner, the OpenMP colour fork/join, the
serial reference) each re-implemented: chunking, dependency-tracker wiring,
the global-WRITE parent-eager fallback, reduction drain points, engine
lifecycle, wall-clock accounting and :class:`~repro.core.stages.LoopRecord` /
report assembly.  What *differs* between the paths is expressed as a
:class:`SchedulePolicy`:

* :class:`DataflowSchedulePolicy` -- the paper's design: chunk-size policies
  from :mod:`repro.runtime.chunking`, chunk-granular tracker edges, one merge
  chain per loop, futures as loop results, DATAFLOW simulation.
* :class:`ColorForkJoinSchedulePolicy` -- the OpenMP-style baseline:
  lowering by colouring plan, no tracker (colours are the concurrency
  structure), merge chains and barriers per colour, BARRIER simulation.
  Colouring is *a schedule policy*, not a separate code path.
* :class:`EagerSerialSchedulePolicy` -- the serial reference: one chunk,
  eager execution, nothing simulated.

Stages and artifacts (see :mod:`repro.core.stages`)::

    ParLoop --lower--> LoweredLoop --analyze--> AnalyzedLoop
            --schedule--> ChunkSchedule --submit--> SharedFuture | None

In front of the stages sits the *grain gate* (:mod:`repro.core.grain`): a
deferring dataflow context runs its loops inline -- serial reference path,
no stages, no engine -- until the first loop whose measured inline time is
worth tasks, and takes the staged path from that loop on.

Hook points
-----------
Each stage is observable: :meth:`LoopPipeline.add_observer` registers a
callable receiving a :class:`~repro.core.stages.StageEvent` (the stage's
artifact plus its wall-clock duration) synchronously after the stage
completes.  This is the attachment point for autotuners (watch ``lower`` /
``submit`` durations, adapt the chunk policy), prefetchers (the ``analyze``
artifact enumerates every chunk's gather intervals) and future engines --
none of which need to touch a context class.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.core import grain
from repro.core.interleaving import DependencyTracker
from repro.core.optimizer import OptimizationConfig
from repro.core.persistent_chunking import ChunkPlanner
from repro.core.prefetch_integration import build_prefetch_spec
from repro.core.stages import (
    PIPELINE_STAGES,
    AnalyzedChunk,
    AnalyzedLoop,
    ChunkRange,
    ChunkSchedule,
    ChunkTaskSpec,
    LoopRecord,
    LoweredLoop,
    ReductionPlan,
    StageEvent,
    StageObserver,
)
from repro.engines import (
    EngineCapabilities,
    ExecutionEngine,
    RunConfig,
    engine_capabilities,
    make_engine,
)
from repro.errors import OP2BackendError, TranslatorError
from repro.op2.access import AccessMode
from repro.op2.context import BackendReport
from repro.op2.dat import OpDat
from repro.op2.par_loop import ParLoop
from repro.op2.plan import op_plan_get
from repro.runtime.future import HandleFuture, Promise, SharedFuture, make_ready_future
from repro.session import Session
from repro.sim.cost import ChunkCost, KernelCostModel, PrefetchSpec
from repro.sim.machine import Machine
from repro.sim.scheduler_sim import (
    OmpSchedule,
    ScheduleMode,
    ScheduleResult,
    TaskGraph,
    simulate_schedule,
)

__all__ = [
    "SchedulePolicy",
    "DataflowSchedulePolicy",
    "ColorForkJoinSchedulePolicy",
    "EagerSerialSchedulePolicy",
    "LoopPipeline",
    "build_dataflow_pipeline",
    "build_forkjoin_pipeline",
    "build_serial_pipeline",
]


#: clock of the grain gate's loop-cost samples: CPU time of the executing
#: thread.  A wall clock also counts waiting for the GIL or for a core, and a
#: dispatcher thread next to a busy tenant measured a 0.5 ms loop at 26 ms
#: twice in a row -- a wrong "heavy" that sticks, since a deferred loop is
#: never measured inline again.
_cpu_clock = time.thread_time

#: kernel fingerprints whose lowering failure has already been warned about
#: (process-wide: the fallback is per kernel *content*, not per pipeline)
_lowering_warned: set[str] = set()


def _global_buffer_ids(loop: ParLoop) -> tuple[int, ...]:
    """Identity of the memory behind each global argument of ``loop``.

    Two views of one array share their ultimate ``.base``, so they clash.
    """
    ids = []
    for arg in loop.args:
        if arg.is_global:
            buffer: Any = arg.gbl_data
            while getattr(buffer, "base", None) is not None:
                buffer = buffer.base
            ids.append(id(buffer))
    return tuple(ids)


# ---------------------------------------------------------------------------
# Schedule policies
# ---------------------------------------------------------------------------
class SchedulePolicy:
    """How a pipeline lowers, orders and times loops.

    A policy contributes the *shape* of the run -- how iteration ranges are
    chunked, which dependency edges exist, where merge chains break and
    barriers sit, and how the accumulated task graph is simulated.  The
    pipeline contributes everything else (engine negotiation, drain points,
    the global-WRITE fallback, submission, records, reports), so all three
    built-in policies -- and any future one -- share that machinery.
    """

    #: short policy name (reports, stage events)
    name: str = "policy"
    #: whether loops may defer onto a deferred-capable engine
    defers: bool = True
    #: whether the pipeline contributes timing tasks to a simulated graph
    models_timing: bool = True
    #: whether :meth:`LoopPipeline.run` returns the loop's output future
    returns_future: bool = False
    #: reported worker count is 1 regardless of the run config (serial)
    single_worker: bool = False
    #: whether modelled chunk costs include task-spawn overhead
    spawn_overhead: bool = True
    #: whether deferral waits for the grain gate (loops start inline)
    grain_gated: bool = False
    #: whether :meth:`execute_eager` is the whole-set serial reference run
    #: (its wall time is then a sample of the loop's inline cost)
    eager_is_whole_set: bool = True

    def validate_capabilities(
        self, engine_name: str, capabilities: EngineCapabilities
    ) -> None:
        """Reject engines the policy cannot host (default: accept all)."""

    # -- lower -------------------------------------------------------------------
    def lower(self, loop: ParLoop, phase: int, pipeline: "LoopPipeline") -> LoweredLoop:
        """Split ``loop`` into chunk ranges; policies override."""
        raise NotImplementedError

    # -- analyze -----------------------------------------------------------------
    def chunk_dependencies(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> list[int]:
        """Simulated task ids the chunk waits for (default: none)."""
        return []

    def record_chunk(
        self,
        pipeline: "LoopPipeline",
        lowered: LoweredLoop,
        chunk: ChunkRange,
        task_id: int,
    ) -> None:
        """Record a chunk in the dependency history (default: nothing)."""

    def access_groups(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> Optional[list]:
        """Per-(dat, access) interval summaries of the chunk (default: none)."""
        return None

    def prefetch_spec(self) -> Optional[PrefetchSpec]:
        """Prefetcher configuration folded into chunk costs (default: off)."""
        return None

    def chunk_cost(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> ChunkCost:
        """Modelled cost of one chunk task."""
        assert pipeline.cost_model is not None
        total = max(lowered.iterations, 1)
        return pipeline.cost_model.chunk_cost(
            lowered.profile,
            chunk.size,
            prefetch=self.prefetch_spec(),
            chunk_index=chunk.index,
            position=(chunk.start / total, chunk.stop / total),
            spawn_overhead=self.spawn_overhead,
        )

    def sim_phase(self, lowered: LoweredLoop, chunk: ChunkRange) -> int:
        """Simulated phase of a chunk's task (default: the loop's phase)."""
        return lowered.phase

    # -- schedule ----------------------------------------------------------------
    def chain_start(self, lowered: LoweredLoop, position: int) -> bool:
        """Whether the chunk at ``position`` opens a fresh merge chain."""
        return position == 0

    def barrier_after(self, lowered: LoweredLoop, position: int) -> bool:
        """Whether the engine drains after the chunk at ``position``."""
        return False

    # -- submit ------------------------------------------------------------------
    def execute_eager(
        self, loop: ParLoop, lowered: LoweredLoop, prefer_vectorized: bool
    ) -> None:
        """Run the loop numerically in the parent (non-deferred path)."""
        loop.execute_all(prefer_vectorized=prefer_vectorized)

    # -- finish ------------------------------------------------------------------
    def simulate(
        self, task_graph: TaskGraph, machine: Machine, num_threads: int
    ) -> Optional[ScheduleResult]:
        """Simulate the accumulated task graph (default: nothing to simulate)."""
        return None

    def report_details(self, pipeline: "LoopPipeline") -> dict[str, Any]:
        """Policy-specific entries of the backend report's ``details``."""
        return {}


class DataflowSchedulePolicy(SchedulePolicy):
    """The paper's lowering: chunk policies + tracker edges + futures."""

    name = "dataflow"
    returns_future = True
    grain_gated = True

    def __init__(
        self,
        *,
        tracker: DependencyTracker,
        planner: ChunkPlanner,
        optimization: OptimizationConfig,
    ) -> None:
        self.tracker = tracker
        self.planner = planner
        self.optimization = optimization
        self._prefetch_spec: Optional[PrefetchSpec] = (
            build_prefetch_spec(True, optimization.prefetch_distance_factor)
            if optimization.prefetching
            else None
        )

    def prefetch_spec(self) -> Optional[PrefetchSpec]:
        return self._prefetch_spec

    def lower(self, loop: ParLoop, phase: int, pipeline: "LoopPipeline") -> LoweredLoop:
        profile = loop.kernel_profile()
        sizes = self.planner.plan_chunks(
            loop, profile=profile, prefetch=self._prefetch_spec
        )
        chunks: list[ChunkRange] = []
        start = 0
        for index, size in enumerate(sizes):
            chunks.append(ChunkRange(index=index, start=start, stop=start + size))
            start += size
        return LoweredLoop(loop=loop, phase=phase, profile=profile, chunks=chunks)

    def chunk_dependencies(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> list[int]:
        return self.tracker.chunk_dependencies(
            lowered.loop, chunk.start, chunk.stop, loop_seq=lowered.phase
        )

    def record_chunk(
        self,
        pipeline: "LoopPipeline",
        lowered: LoweredLoop,
        chunk: ChunkRange,
        task_id: int,
    ) -> None:
        self.tracker.record_chunk(
            lowered.loop, lowered.phase, chunk.start, chunk.stop, task_id
        )

    def access_groups(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> Optional[list]:
        return self.tracker.access_groups(lowered.loop, chunk.start, chunk.stop)

    def simulate(
        self, task_graph: TaskGraph, machine: Machine, num_threads: int
    ) -> Optional[ScheduleResult]:
        mode = (
            ScheduleMode.DATAFLOW
            if self.optimization.async_tasking
            else ScheduleMode.BARRIER
        )
        return simulate_schedule(task_graph, machine, num_threads, mode)

    def report_details(self, pipeline: "LoopPipeline") -> dict[str, Any]:
        details: dict[str, Any] = {
            "config": self.optimization.describe(),
            "chunking": "persistent_auto" if self.planner.is_persistent else "auto",
            "total_chunks": pipeline.total_chunks(),
            "total_dependencies": pipeline.total_dependencies(),
            "dependency_mode": self.tracker.mode,
            "dependency_edges_by_loop": pipeline.dependency_edges_by_loop(),
            "tracked_dats": self.tracker.tracked_dats(),
        }
        # Engines without a shared address space hold dats in an arena of
        # shared segments; surface its shape when one exists.
        arena = getattr(pipeline.executor, "arena", None)
        if arena is not None:
            details["workers"] = pipeline.executor.num_workers
            details["shared_dats"] = len(arena.dat_ids())
        return details


class ColorForkJoinSchedulePolicy(SchedulePolicy):
    """OpenMP-style lowering: colouring plan, per-colour fork/join barriers.

    Blocks of one colour never write the same indirect element, so their
    compute parts run concurrently; each colour's merges are chained in block
    order (results identical to sequential colour-by-colour execution) and
    the drain closing each colour is the implicit OpenMP barrier.  Every
    colour is its own simulated fork/join phase, later timed in ``BARRIER``
    mode -- colouring is a *schedule policy* here, not a separate code path.
    """

    name = "color-fork-join"
    spawn_overhead = False
    eager_is_whole_set = False

    def __init__(
        self,
        *,
        block_size: int = 256,
        omp_schedule: Union[OmpSchedule, str] = OmpSchedule.STATIC,
    ) -> None:
        self.block_size = block_size
        self.omp_schedule = (
            OmpSchedule(omp_schedule) if isinstance(omp_schedule, str) else omp_schedule
        )
        self._next_phase = 0
        self._phase_base = 0

    def validate_capabilities(
        self, engine_name: str, capabilities: EngineCapabilities
    ) -> None:
        # The fork/join baseline negotiates by capability, not by engine
        # name: its defining property is the shared-address-space barrier
        # per loop, and it hands the engine block *closures* -- so engines
        # whose workers live in other address spaces, or that only accept
        # by-name kernel dispatch, can never host it.
        if capabilities.shared_address_space and not capabilities.needs_kernel_registry:
            return
        reasons = []
        if not capabilities.shared_address_space:
            reasons.append("shared_address_space=False")
        if capabilities.needs_kernel_registry:
            reasons.append("needs_kernel_registry=True")
        raise OP2BackendError(
            f"engine {engine_name!r} is not usable by the OpenMP "
            f"baseline: the fork/join design needs a shared address space "
            f"and closure submission (the engine advertises "
            f"{', '.join(reasons)})"
        )

    def lower(self, loop: ParLoop, phase: int, pipeline: "LoopPipeline") -> LoweredLoop:
        plan = op_plan_get(loop.name, loop.iterset, self.block_size, loop.args)
        if plan.ncolors > 1:
            color_blocks: list[Sequence[int]] = [
                plan.blocks_of_color(c) for c in range(plan.ncolors)
            ]
        else:
            color_blocks = [list(range(plan.nblocks))]
        chunks: list[ChunkRange] = []
        for color, blocks in enumerate(color_blocks):
            for block in blocks:
                start, stop = plan.block_range(int(block))
                chunks.append(
                    ChunkRange(index=int(block), start=start, stop=stop, color=color)
                )
        # Every colour is its own simulated fork/join phase.
        self._phase_base = self._next_phase
        self._next_phase += len(color_blocks)
        return LoweredLoop(
            loop=loop,
            phase=phase,
            profile=loop.kernel_profile(),
            chunks=chunks,
            num_colors=len(color_blocks),
        )

    def sim_phase(self, lowered: LoweredLoop, chunk: ChunkRange) -> int:
        return self._phase_base + chunk.color

    def chain_start(self, lowered: LoweredLoop, position: int) -> bool:
        return (
            position == 0
            or lowered.chunks[position].color != lowered.chunks[position - 1].color
        )

    def barrier_after(self, lowered: LoweredLoop, position: int) -> bool:
        # The implicit barrier closing the parallel region of each colour.
        return (
            position == len(lowered.chunks) - 1
            or lowered.chunks[position + 1].color != lowered.chunks[position].color
        )

    def execute_eager(
        self, loop: ParLoop, lowered: LoweredLoop, prefer_vectorized: bool
    ) -> None:
        # Colour-by-colour block execution is what makes indirect increments
        # race-free in the real OpenMP code; honour the same order here.
        for chunk in lowered.chunks:
            loop.execute_block(
                chunk.start, chunk.stop, prefer_vectorized=prefer_vectorized
            )
        loop._mark_outputs_modified()

    def simulate(
        self, task_graph: TaskGraph, machine: Machine, num_threads: int
    ) -> Optional[ScheduleResult]:
        return simulate_schedule(
            task_graph,
            machine,
            num_threads,
            ScheduleMode.BARRIER,
            omp_schedule=self.omp_schedule,
        )

    def report_details(self, pipeline: "LoopPipeline") -> dict[str, Any]:
        return {
            "block_size": self.block_size,
            "omp_schedule": self.omp_schedule.value,
            "loops": [record.name for record in pipeline.records],
        }


class EagerSerialSchedulePolicy(SchedulePolicy):
    """The serial reference: one chunk, eager execution, nothing simulated."""

    name = "serial"
    defers = False
    models_timing = False
    single_worker = True

    def lower(self, loop: ParLoop, phase: int, pipeline: "LoopPipeline") -> LoweredLoop:
        size = loop.iterset.size
        chunks = [ChunkRange(index=0, start=0, stop=size)] if size else []
        return LoweredLoop(loop=loop, phase=phase, profile=None, chunks=chunks)

    def report_details(self, pipeline: "LoopPipeline") -> dict[str, Any]:
        return {"loops": [record.name for record in pipeline.records]}


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------
class LoopPipeline:
    """Lowers every loop through plan → analyze → schedule → submit.

    One pipeline instance backs one execution context; all shared lowering
    logic lives here, parameterised by a :class:`SchedulePolicy` and the
    :class:`~repro.engines.EngineCapabilities` of the configured engine.
    """

    def __init__(
        self,
        *,
        run_config: RunConfig,
        policy: SchedulePolicy,
        machine: Optional[Machine] = None,
        cost_model: Optional[KernelCostModel] = None,
        task_graph: Optional[TaskGraph] = None,
        prefer_vectorized: Optional[bool] = None,
        session: Optional[Session] = None,
    ) -> None:
        self.run_config = run_config
        #: owning session: engines are *borrowed* from its warm pool and only
        #: drained at finish() (the session shuts them down at close()).
        #: ``None`` keeps the historical lifecycle -- the pipeline owns a
        #: private engine and shuts it down itself.
        self.session = session
        #: capability record of the configured engine; resolving it here
        #: gives unknown engine names the uniform registry error at
        #: construction time, before any work is accepted
        self.capabilities = engine_capabilities(run_config.engine)
        policy.validate_capabilities(run_config.engine, self.capabilities)
        self.policy = policy
        self.machine = machine
        if cost_model is None and machine is not None and policy.models_timing:
            cost_model = KernelCostModel(machine)
        self.cost_model = cost_model
        if task_graph is None and policy.models_timing:
            task_graph = TaskGraph()
        self.task_graph = task_graph
        self.num_threads = run_config.num_threads
        self.prefer_vectorized = (
            run_config.prefer_vectorized
            if prefer_vectorized is None
            else prefer_vectorized
        )
        #: per-loop book-keeping records, in program order
        self.records: list[LoopRecord] = []
        #: simulated task id -> (compute task id, merge task id) of the chunks
        #: submitted since the last drain, engine mode only
        self.pool_chunk_ids: dict[int, tuple[int, int]] = {}
        self.loop_count = 0
        self.wall_seconds = 0.0
        self._wall_start: Optional[float] = None
        self._executor: Optional[ExecutionEngine] = None
        self._schedule_result: Optional[ScheduleResult] = None
        self._observers: list[tuple[StageObserver, Optional[frozenset[str]]]] = []
        #: grain gate of a deferring context (``None``: every loop is staged)
        self.grain: Optional[grain.GrainGate] = (
            grain.GrainGate()
            if policy.grain_gated and policy.defers and self.capabilities.deferred
            else None
        )
        #: ids of the global buffers loops submitted since the last drain use
        #: (globals are invisible to the tracker; a reduction into one of
        #: them must wait for those loops)
        self._globals_in_flight: set[int] = set()

    # -- hook points -------------------------------------------------------------
    def add_observer(
        self, observer: StageObserver, *, stages: Optional[Iterable[str]] = None
    ) -> StageObserver:
        """Register ``observer`` for stage events; returns it for chaining.

        ``stages`` restricts delivery to a subset of
        :data:`~repro.core.stages.PIPELINE_STAGES`; ``None`` delivers every
        stage.  Observers run synchronously on the submitting thread, so an
        autotuner may mutate policy knobs between loops.
        """
        stage_set: Optional[frozenset[str]] = None
        if stages is not None:
            stage_set = frozenset(stages)
            unknown = stage_set - set(PIPELINE_STAGES)
            if unknown:
                raise OP2BackendError(
                    f"unknown pipeline stage(s) {sorted(unknown)}; "
                    f"stages are {PIPELINE_STAGES}"
                )
        self._observers.append((observer, stage_set))
        return observer

    def remove_observer(self, observer: StageObserver) -> None:
        """Remove every registration of ``observer`` (unknown ones are ignored)."""
        self._observers = [
            entry for entry in self._observers if entry[0] is not observer
        ]

    def _staged(
        self, stage: str, loop: ParLoop, phase: int, fn: Callable[[], Any]
    ) -> Any:
        started = time.perf_counter()
        artifact = fn()
        if self._observers:
            event = StageEvent(
                stage=stage,
                loop_name=loop.name,
                phase=phase,
                artifact=artifact,
                seconds=time.perf_counter() - started,
            )
            for observer, stage_set in self._observers:
                if stage_set is None or stage in stage_set:
                    observer(event)
        return artifact

    # -- main entry point --------------------------------------------------------
    def run(self, loop: ParLoop) -> Optional[SharedFuture[OpDat]]:
        """Lower one loop through all four stages; returns its output future
        (``None`` under policies that do not produce futures)."""
        if self._wall_start is None:
            self._wall_start = time.perf_counter()
        phase = self.loop_count
        if self.grain is not None and self.grain.admit_inline(
            loop, phase, self._owner_session().loop_costs, self.prefer_vectorized
        ):
            result = self._run_inline(loop, phase)
        else:
            result = self._run_staged(loop, phase)
        self.loop_count += 1
        return result

    def _run_staged(self, loop: ParLoop, phase: int) -> Optional[SharedFuture[OpDat]]:
        lowered = self._staged("lower", loop, phase, lambda: self.policy.lower(loop, phase, self))
        analyzed = self._staged("analyze", loop, phase, lambda: self._analyze(lowered))
        schedule = self._staged("schedule", loop, phase, lambda: self._schedule(analyzed))
        result = self._staged("submit", loop, phase, lambda: self._submit(schedule))
        self.records.append(
            LoopRecord(
                name=loop.name,
                phase=phase,
                iterations=loop.iterset.size,
                chunk_sizes=lowered.chunk_sizes,
                task_ids=analyzed.task_ids,
                dependency_count=analyzed.dependency_count,
                submission=schedule.submission,
            )
        )
        self._schedule_result = None  # invalidate any previous simulation
        return result

    # -- the grain gate's inline path ----------------------------------------------
    def _owner_session(self) -> Session:
        return self.session if self.session is not None else Session.current()

    def _run_sampled(self, loop: ParLoop, execute: Callable[[], None]) -> None:
        """Run a whole-set inline execution, timing it while the session's
        cost table still wants samples of this loop (a settled loop pays one
        dictionary lookup, not two clock reads and a locked update)."""
        costs = self._owner_session().loop_costs
        key = grain.cost_key(loop, self.prefer_vectorized)
        if not costs.wants(key):
            execute()
            return
        started = _cpu_clock()
        execute()
        costs.record(key, _cpu_clock() - started)

    def _run_inline(self, loop: ParLoop, phase: int) -> Optional[SharedFuture[OpDat]]:
        """Gate-inline loop: the serial reference path on the submitting thread.

        Nothing is pending while the gate is ``INLINE`` (it never reopens), so
        the loop needs no drain, no tracker record and no engine; its effects
        are complete when this returns and the future is ready.
        """
        self._run_sampled(
            loop, lambda: loop.execute_all(prefer_vectorized=self.prefer_vectorized)
        )
        self.records.append(
            LoopRecord(
                name=loop.name,
                phase=phase,
                iterations=loop.iterset.size,
                chunk_sizes=[],
                task_ids=[],
                dependency_count=0,
                submission="inline",
            )
        )
        return self._ready_result(loop)

    def _ready_result(self, loop: ParLoop) -> Optional[SharedFuture[OpDat]]:
        """What a loop that already ran to completion in the parent returns."""
        if not self.policy.returns_future:
            return None
        return make_ready_future(loop.output_dat()).share()  # type: ignore[arg-type]

    # -- stage 2: analyze --------------------------------------------------------
    def _analyze(self, lowered: LoweredLoop) -> AnalyzedLoop:
        """One simulated task per chunk, with policy-provided dependencies.

        Chunks are analyzed strictly in order: each chunk's dependencies are
        computed against the history *including* its predecessors in the same
        loop (same-layer WAW/WAR edges), exactly as the historical runner
        interleaved ``chunk_dependencies`` / ``record_chunk``.
        """
        chunks: list[AnalyzedChunk] = []
        for chunk in lowered.chunks:
            deps = self.policy.chunk_dependencies(self, lowered, chunk)
            cost: Optional[ChunkCost] = None
            task_id = -1
            sim_phase = lowered.phase
            if self.task_graph is not None:
                cost = self.policy.chunk_cost(self, lowered, chunk)
                sim_phase = self.policy.sim_phase(lowered, chunk)
                task_id = self.task_graph.add(
                    name=f"{lowered.name}#{chunk.index}",
                    loop_name=lowered.name,
                    phase=sim_phase,
                    chunk_index=chunk.index,
                    cost=cost,
                    deps=deps,
                )
            self.policy.record_chunk(self, lowered, chunk, task_id)
            chunks.append(
                AnalyzedChunk(
                    chunk=chunk,
                    task_id=task_id,
                    deps=list(deps),
                    cost=cost,
                    access_groups=self.policy.access_groups(self, lowered, chunk),
                    sim_phase=sim_phase,
                )
            )
        return AnalyzedLoop(lowered=lowered, chunks=chunks)

    # -- stage 3: schedule -------------------------------------------------------
    def _schedule(self, analyzed: AnalyzedLoop) -> ChunkSchedule:
        """Derive the submission plan purely from the engine's capabilities."""
        loop = analyzed.loop
        capabilities = self.capabilities
        deferred = capabilities.deferred and self.policy.defers
        has_reduction = loop.has_global_reduction
        has_global_write = any(
            arg.is_global and arg.access in (AccessMode.WRITE, AccessMode.RW)
            for arg in loop.args
        )
        # The engine cannot host a kernel with a WRITE/RW global (its workers
        # never observe the parent's live value): the loop then runs eagerly
        # in the parent inside a drained window; its dats are already shared,
        # so workers see its effects.
        parent_fallback = (
            deferred and has_global_write and not capabilities.supports_global_write
        )
        # Globals are invisible to the dependency tracker, so a reduction is
        # a synchronisation point: the application reads the target right
        # after op_par_loop returns (drain after), and a loop submitted since
        # the last drain may still be *reading* the same buffer -- no WAR
        # edges exist for globals -- in which case the reduction must wait
        # for it (drain before).  With no such loop in flight the reduction
        # submits behind its tracker edges like any other loop.
        global_buffers = _global_buffer_ids(loop) if deferred else ()
        global_clash = has_reduction and not self._globals_in_flight.isdisjoint(
            global_buffers
        )
        reduction = ReductionPlan(
            has_global_reduction=has_reduction,
            has_global_write=has_global_write,
            drain_before=deferred and (global_clash or parent_fallback),
            drain_after=deferred and has_reduction and not parent_fallback,
            parent_eager=not deferred or parent_fallback,
            global_buffers=global_buffers,
        )
        tasks: list[ChunkTaskSpec] = []
        if not reduction.parent_eager:
            lowered = analyzed.lowered
            for position, chunk in enumerate(analyzed.chunks):
                tasks.append(
                    ChunkTaskSpec(
                        chunk_index=chunk.chunk.index,
                        start=chunk.chunk.start,
                        stop=chunk.chunk.stop,
                        sim_id=chunk.task_id,
                        sim_deps=tuple(chunk.deps),
                        chain_start=self.policy.chain_start(lowered, position),
                        barrier_after=self.policy.barrier_after(lowered, position),
                    )
                )
        return ChunkSchedule(
            analyzed=analyzed,
            tasks=tasks,
            reduction=reduction,
            submission="eager" if reduction.parent_eager else "deferred",
        )

    # -- stage 4: submit ---------------------------------------------------------
    def _submit(self, schedule: ChunkSchedule) -> Optional[SharedFuture[OpDat]]:
        """Run the schedule: engine tasks, or eagerly in the (drained) parent."""
        loop = schedule.loop
        capabilities = self.capabilities
        engine: Optional[ExecutionEngine] = None
        if capabilities.deferred and self.policy.defers:
            engine = self._ensure_engine()
        if schedule.reduction.drain_before:
            assert engine is not None
            self._drain(engine)

        if schedule.submission == "eager":
            if engine is not None and capabilities.partitioned_dats:
                # The eager loop runs on the parent's home views; a
                # partitioned engine must land every worker-fresh run there
                # first (the preceding drain only completed the tasks).
                engine.sync_parent_dats()
            lowered = schedule.analyzed.lowered

            def execute() -> None:
                self.policy.execute_eager(loop, lowered, self.prefer_vectorized)

            if self.policy.eager_is_whole_set:
                self._run_sampled(loop, execute)
            else:
                execute()
            return self._ready_result(loop)

        assert engine is not None
        slab_artifact = None
        if capabilities.compiled_kernels and not capabilities.needs_kernel_registry:
            slab_artifact = self._resolve_slab(loop)
        last_merge_id: Optional[int] = None
        for spec in schedule.tasks:
            if spec.chain_start:
                last_merge_id = None
            # Dependents must observe a producer chunk's *committed* effects,
            # so DAG edges target the producer's merge task.
            pool_deps = [
                self.pool_chunk_ids[dep][1]
                for dep in spec.sim_deps
                if dep in self.pool_chunk_ids
            ]
            if capabilities.needs_kernel_registry:
                # By-name kernel dispatch: closures cannot cross the worker
                # boundary, so the engine receives the loop itself.
                compute_id, merge_id = engine.submit_loop_chunk(
                    loop, spec.start, spec.stop, deps=pool_deps, after=last_merge_id
                )
            else:
                compute_id, merge_id = engine.submit_chunk(
                    self._make_prepare(loop, spec.start, spec.stop, slab_artifact),
                    deps=pool_deps,
                    after=last_merge_id,
                )
            self.pool_chunk_ids[spec.sim_id] = (compute_id, merge_id)
            last_merge_id = merge_id
            if spec.barrier_after:
                self._drain(engine)
        loop._mark_outputs_modified()
        self._globals_in_flight.update(schedule.reduction.global_buffers)
        if schedule.reduction.drain_after:
            self._drain(engine)
        if not self.policy.returns_future:
            return None
        return self._deferred_future(loop.output_dat(), last_merge_id)

    def _make_prepare(
        self, loop: ParLoop, start: int, stop: int, slab_artifact: Any = None
    ) -> Callable[[], Callable[[], None]]:
        prefer_vectorized = self.prefer_vectorized

        def prepare() -> Callable[[], None]:
            # A slab privatises WRITE/RW scatters exactly like the vectorised
            # path, so blocks with duplicate scatter targets take the same
            # per-chunk elemental fallback (see ParLoop._scatter_conflicts).
            if (
                slab_artifact is not None
                and start < stop
                and not loop._scatter_conflicts(start, stop)
            ):
                from repro.translator.slab import make_slab_prepare

                return make_slab_prepare(loop, slab_artifact, start, stop)
            return loop.prepare_block(start, stop, prefer_vectorized=prefer_vectorized)

        return prepare

    def _resolve_slab(self, loop: ParLoop) -> Any:
        """The loop's compiled slab artifact, or ``None`` for the interpreted path.

        Loops with a non-reduction global write stay interpreted silently --
        privatising them is semantically impossible (the kernel must observe
        prior iterations), mirroring :meth:`ParLoop.prepare_block`.  Kernels
        the translator cannot lower fall back with one warning per kernel
        content; artifacts are cached on the owning session keyed on
        ``(fingerprint, slab signature)``.
        """
        from repro.translator.slab import slab_signature

        if any(
            arg.is_global and arg.access in (AccessMode.WRITE, AccessMode.RW)
            for arg in loop.args
        ):
            return None
        kernel = loop.kernel
        try:
            signature = slab_signature(loop)
            return self._owner_session().kernel_artifact(
                (kernel.fingerprint, signature), lambda: kernel.lowered(signature)
            )
        except TranslatorError as exc:
            fingerprint = kernel.fingerprint
            if fingerprint not in _lowering_warned:
                _lowering_warned.add(fingerprint)
                warnings.warn(
                    f"kernel {kernel.name!r} could not be lowered to a compiled "
                    f"slab ({exc}); falling back to the interpreted path",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None

    def _deferred_future(
        self, output: Optional[OpDat], last_merge_id: Optional[int]
    ) -> SharedFuture[OpDat]:
        promise: Promise[OpDat] = Promise()
        future = HandleFuture.from_promise(output, promise)  # type: ignore[arg-type]
        if last_merge_id is None:  # empty iteration set: nothing to wait for
            promise.set_value(output)  # type: ignore[arg-type]
            return future
        assert self._executor is not None
        # If the pool is poisoned before the finalizer runs, break the
        # promise instead: consumers blocked in get()/wait() must wake with
        # an error, not hang forever.
        self._executor.submit(
            lambda: promise.set_value(output),  # type: ignore[arg-type]
            deps=[last_merge_id],
            on_skip=promise.break_promise,
        )
        return future

    # -- engine lifecycle --------------------------------------------------------
    def _drain(self, engine: ExecutionEngine) -> None:
        """Wait for everything submitted, then forget the completed ids.

        Every recorded chunk has completed, and ``_submit`` skips dependencies
        it has no id for, so a long time-stepping context holds the ids of
        the chunks between two drains, not of every step it ever ran.
        """
        engine.wait_all()
        self.pool_chunk_ids.clear()
        self._globals_in_flight.clear()

    def _ensure_engine(self) -> ExecutionEngine:
        if self.session is not None:
            engine = self.session.engine(self.run_config)
            if engine is not self._executor:
                # Borrowed engine (first acquisition, or the pool replaced a
                # shut-down one): any ids recorded against the previous
                # executor belong to a drained run -- drop the stale ids.
                self.pool_chunk_ids.clear()
                self._executor = engine
            return engine
        if self._executor is None or self._executor.is_shutdown:
            if self._executor is not None:
                # Fresh engine after abort() (finish() already forgot them):
                # earlier chunks completed or were cancelled, so edges to them
                # are moot -- drop the stale ids.
                self.pool_chunk_ids.clear()
            self._executor = make_engine(self.run_config)
        return self._executor

    @property
    def executor(self) -> Optional[ExecutionEngine]:
        """The engine of the current run (``None`` before any deferred loop)."""
        return self._executor

    def abort(self) -> None:
        """Cancel unstarted chunk tasks and stop the engine (deferred engines).

        A session-borrowed engine is *not* stopped: it is poisoned
        (``cancel_pending``, so unstarted tasks are skipped) and then drained,
        which clears the poison -- the warm pool stays reusable for the
        session's next chain.  Owned engines are shut down, as before.
        """
        if self._executor is not None and not self._executor.is_shutdown:
            if self.session is not None:
                self._executor.cancel_pending()
                try:
                    self._executor.wait_all()
                except Exception:
                    # The drain re-raises the cancellation (or whatever task
                    # failure caused the abort); the context is already
                    # unwinding with the application's exception.
                    pass
                if self.capabilities.partitioned_dats:
                    try:
                        self._executor.sync_parent_dats()
                    except Exception:
                        # Best effort: an aborted run's values are
                        # unspecified, but whatever committed should be
                        # visible on the parent's home views.
                        pass
            else:
                self._executor.shutdown(wait=False)
        self._stop_clock()

    def finish(self) -> None:
        """Drain the engine and simulate the accumulated task graph.

        A session-borrowed engine is drained (``wait_all``) but left running
        -- its threads/processes stay warm until ``Session.close()``.  Owned
        engines are shut down, the historical per-chain lifecycle.
        """
        if self._executor is not None and not self._executor.is_shutdown:
            if self.session is not None:
                self._drain(self._executor)
                if self.capabilities.partitioned_dats:
                    # The application reads dats on the parent after the
                    # chain: land every worker-fresh run in the home views.
                    self._executor.sync_parent_dats()
            else:
                self._executor.shutdown(wait=True)
                self.pool_chunk_ids.clear()
        self._stop_clock()
        if self.task_graph is None or len(self.task_graph) == 0:
            return
        assert self.machine is not None
        self._schedule_result = self.policy.simulate(
            self.task_graph, self.machine, self.num_threads
        )

    def _stop_clock(self) -> None:
        if self._wall_start is not None:
            self.wall_seconds += time.perf_counter() - self._wall_start
            self._wall_start = None

    # -- statistics --------------------------------------------------------------
    @property
    def schedule_result(self) -> Optional[ScheduleResult]:
        """The simulated schedule of the run (``None`` before finish)."""
        return self._schedule_result

    def total_chunks(self) -> int:
        """Total number of chunk tasks generated so far."""
        return sum(record.num_chunks for record in self.records)

    def total_dependencies(self) -> int:
        """Total number of chunk-level dependency edges generated so far."""
        return sum(record.dependency_count for record in self.records)

    def dependency_edges_by_loop(self) -> dict[str, int]:
        """Dependency-edge totals aggregated per loop name.

        The per-loop breakdown is what the renumbered-mesh benchmarks report:
        it shows exactly which loops the interval-set tracker relieves of
        false edges relative to ``[min, max]`` mode.
        """
        edges: dict[str, int] = {}
        for record in self.records:
            edges[record.name] = edges.get(record.name, 0) + record.dependency_count
        return edges

    # -- reporting ---------------------------------------------------------------
    def build_report(self, backend_name: str) -> BackendReport:
        """Assemble the run report shared by every context."""
        if self._schedule_result is None:
            self.finish()
        details: dict[str, Any] = {
            "execution": self.run_config.engine,
            "engine": self.run_config.engine,
            "engine_capabilities": self.capabilities.describe(),
        }
        details.update(self.policy.report_details(self))
        if self.grain is not None:
            details["grain"] = self.grain.describe()
        if self.session is not None:
            # Per-tenant observability: cache hit rates, live engine keys and
            # arena counts of the session this pipeline borrowed engines from.
            details["session"] = self.session.stats()
        return BackendReport(
            backend=backend_name,
            num_threads=1 if self.policy.single_worker else self.num_threads,
            loops_executed=self.loop_count,
            schedule=self._schedule_result,
            wall_seconds=self.wall_seconds,
            details=details,
        )


# ---------------------------------------------------------------------------
# Pipeline factories (the contexts are thin adapters over these)
# ---------------------------------------------------------------------------
def build_dataflow_pipeline(
    run_config: RunConfig,
    machine: Machine,
    optimization: OptimizationConfig,
    *,
    session: Optional[Session] = None,
) -> LoopPipeline:
    """Pipeline for the HPX-style dataflow context."""
    capabilities = engine_capabilities(run_config.engine)
    cost_model = KernelCostModel(machine)
    # Engines whose chunk effects commit asynchronously advertise
    # strict_commit_order: the tracker then adds the extra edges
    # (program-order increment accumulation, reader ordering against
    # displaced writer layers) that keep results deterministic and
    # serial-matching.
    owner = session if session is not None else Session.current()
    tracker = DependencyTracker(
        chunk_granularity=optimization.interleaving,
        interval_sets=run_config.interval_sets,
        strict_commit_order=capabilities.strict_commit_order,
        algebra=owner.interval_algebra,
    )
    planner = ChunkPlanner(
        cost_model, run_config.num_threads, policy=run_config.chunking
    )
    policy = DataflowSchedulePolicy(
        tracker=tracker, planner=planner, optimization=optimization
    )
    return LoopPipeline(
        run_config=run_config,
        policy=policy,
        machine=machine,
        cost_model=cost_model,
        session=session,
    )


def build_forkjoin_pipeline(
    run_config: RunConfig,
    machine: Machine,
    *,
    block_size: int = 256,
    omp_schedule: Union[OmpSchedule, str] = OmpSchedule.STATIC,
    session: Optional[Session] = None,
) -> LoopPipeline:
    """Pipeline for the OpenMP-style fork/join baseline context."""
    policy = ColorForkJoinSchedulePolicy(block_size=block_size, omp_schedule=omp_schedule)
    return LoopPipeline(
        run_config=run_config, policy=policy, machine=machine, session=session
    )


def build_serial_pipeline(
    run_config: RunConfig,
    *,
    prefer_vectorized: Optional[bool] = None,
    session: Optional[Session] = None,
) -> LoopPipeline:
    """Pipeline for the serial reference context."""
    return LoopPipeline(
        run_config=run_config,
        policy=EagerSerialSchedulePolicy(),
        prefer_vectorized=prefer_vectorized,
        session=session,
    )
