"""The shared loop-lowering pipeline: plan → analyze → schedule → submit.

Every execution context lowers ``op_par_loop`` invocations through one
:class:`LoopPipeline`.  The pipeline owns what the historical lowering paths
(the HPX dataflow runner, the OpenMP colour fork/join, the serial reference)
each re-implemented: chunking, dependency-tracker wiring, reduction drain
points, engine lifecycle, wall-clock accounting and
:class:`~repro.core.stages.LoopRecord` / report assembly.  What *differs*
between them is a :class:`~repro.core.policies.SchedulePolicy`
(:mod:`repro.core.policies`); the serial reference has none.

Stages and artifacts (see :mod:`repro.core.stages`)::

    ParLoop --lower--> LoweredLoop --analyze--> AnalyzedLoop
            --schedule--> ChunkSchedule --submit--> SharedFuture | None

Every loop that runs whole in the parent takes one route, *inline*: the
whole set on the submitting thread, timed into the session's ``loop_costs``
until the loop shape settles, its result a ready future.  Its reasons
(:mod:`repro.core.grain`): ``serial`` (the serial reference's gate is pinned
INLINE) and ``gate`` (a deferring context's gate is still INLINE) skip the
stages; ``model`` (an engine that defers nothing) runs them for the modelled
DAG first; ``global_write`` (a WRITE/RW global the engine cannot host)
drains and syncs the parent's dats first.

Inside a service request the pipeline holds the request's interpreter turn
(:mod:`repro.runtime.turns`) around inline loops the gate measured short,
may yield it after every loop, and leaves it when the gate flips.

Each stage is observable: :meth:`LoopPipeline.add_observer` registers a
callable receiving a :class:`~repro.core.stages.StageEvent` (the stage's
artifact plus its wall-clock duration) synchronously after the stage
completes -- the attachment point for autotuners, prefetchers (the
``analyze`` artifact enumerates every chunk's gather intervals) and future
engines, none of which need to touch a context class.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Iterable, Optional

from repro.core import grain
from repro.core.interleaving import DependencyTracker
from repro.core.optimizer import OptimizationConfig
from repro.core.persistent_chunking import ChunkPlanner
from repro.core.policies import ColorForkJoinSchedulePolicy, DataflowSchedulePolicy, SchedulePolicy
from repro.core.stages import (
    PIPELINE_STAGES,
    AnalyzedChunk,
    AnalyzedLoop,
    ChunkSchedule,
    ChunkTaskSpec,
    LoopRecord,
    LoweredLoop,
    ReductionPlan,
    StageEvent,
    StageObserver,
)
from repro.engines import ExecutionEngine, RunConfig, engine_capabilities, make_engine
from repro.errors import OP2BackendError
from repro.op2.context import BackendReport
from repro.op2.dat import OpDat
from repro.op2.par_loop import LoopChunk, ParLoop, Partials
from repro.runtime import turns
from repro.runtime.future import HandleFuture, Promise, SharedFuture
from repro.session import LoopCostTable, Session
from repro.sim.cost import ChunkCost, KernelCostModel
from repro.sim.machine import Machine
from repro.sim.scheduler_sim import ScheduleResult, TaskGraph

__all__ = [
    "SchedulePolicy",
    "DataflowSchedulePolicy",
    "ColorForkJoinSchedulePolicy",
    "LoopPipeline",
    "build_dataflow_pipeline",
]


#: clock of the grain gate's loop-cost samples: CPU time of the executing
#: thread.  A wall clock also counts waiting for the GIL or for a core, and a
#: dispatcher thread next to a busy tenant measured a 0.5 ms loop at 26 ms
#: twice in a row -- a wrong "heavy" that sticks, since a deferred loop is
#: never measured inline again.
_cpu_clock = time.thread_time

#: a loop's cost sample: the session's table, the loop's key, its entry
_Sample = tuple[LoopCostTable, tuple, Optional[tuple[float, int]]]


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
# The pipeline
# ---------------------------------------------------------------------------
class LoopPipeline:
    """Lowers every loop through plan → analyze → schedule → submit.

    One pipeline instance backs one execution context; all shared lowering
    logic lives here, parameterised by a :class:`SchedulePolicy` and the
    :class:`~repro.engines.EngineCapabilities` of the configured engine.
    ``policy=None`` is the serial reference: one worker, no futures, nothing
    modelled, and every loop on the inline route.
    """

    def __init__(
        self,
        *,
        run_config: RunConfig,
        policy: Optional[SchedulePolicy],
        machine: Optional[Machine] = None,
        cost_model: Optional[KernelCostModel] = None,
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
        if policy is not None:
            policy.validate_capabilities(run_config.engine, self.capabilities)
        self.policy = policy
        self.machine = machine
        if cost_model is None and machine is not None and policy is not None:
            cost_model = KernelCostModel(machine)
        self.cost_model = cost_model
        self.task_graph = TaskGraph() if policy is not None else None
        self.num_threads = run_config.num_threads
        self.prefer_vectorized = (
            run_config.prefer_vectorized
            if prefer_vectorized is None
            else prefer_vectorized
        )
        #: per-loop book-keeping records, in program order
        self.records: list[LoopRecord] = []
        #: simulated task id -> engine task id of the chunks submitted since
        #: the last drain, engine mode only
        self.pool_chunk_ids: dict[int, int] = {}
        self.loop_count = 0
        self.wall_seconds = 0.0
        self._wall_start: Optional[float] = None
        self._executor: Optional[ExecutionEngine] = None
        self._schedule_result: Optional[ScheduleResult] = None
        self._observers: list[tuple[StageObserver, Optional[frozenset[str]]]] = []
        #: grain gate: pinned INLINE for the serial reference, real for a
        #: deferring dataflow context, ``None`` (every loop staged) otherwise
        self.grain: Optional[grain.GrainGate] = None
        if policy is None:
            self.grain = grain.GrainGate(pinned=True)
        elif policy.grain_gated and self.capabilities.deferred:
            self.grain = grain.GrainGate()
        self._returns_future = policy is not None and policy.returns_future
        #: ids of the global buffers loops submitted since the last drain use
        #: (globals are invisible to the tracker; a reduction into one of
        #: them must wait for those loops)
        self._globals_in_flight: set[int] = set()
        #: the interpreter turn of the service request running this pipeline
        self._turn: Optional[turns.Turn] = turns.current.turn

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
        """Run one loop: inline while the grain gate says so, else through
        all four stages; returns its output future (``None`` without a
        policy that produces futures)."""
        if self._wall_start is None:
            self._wall_start = time.perf_counter()
        phase = self.loop_count
        gate = self.grain
        sample = None
        if gate is not None and gate.state == grain.INLINE:
            sample = self._cost_sample(loop)
        if sample is not None and gate.admit_inline(loop, phase, sample[2]):  # type: ignore[union-attr]
            if self._turn is not None:  # waiters never wait out an unmeasured loop
                self._turn.enter(grain.measured_short(loop, phase, sample[2]))
            self._run_inline(loop, sample)
            self.records.append(
                LoopRecord(loop.name, phase, loop.iterset.size, [], [], 0,
                           submission=grain.INLINE, reason=gate.reason)  # type: ignore[union-attr]
            )
            result = self._ready_result(loop)
        else:
            if gate is not None and self._turn is not None:
                # the gate flipped: this request's loops go to the engine
                self._turn.leave()
                self._turn = None
            result = self._run_staged(loop, phase)
        self.loop_count += 1
        if self._turn is not None:
            self._turn.checkpoint()
        return result

    def _run_staged(self, loop: ParLoop, phase: int) -> Optional[SharedFuture[OpDat]]:
        assert self.policy is not None
        policy = self.policy
        lowered = self._staged("lower", loop, phase, lambda: policy.lower(loop, phase, self))
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
                reason=schedule.reason,
                chunking=lowered.chunking,
                chunking_reason=lowered.chunking_reason,
            )
        )
        self._schedule_result = None  # invalidate any previous simulation
        return result

    # -- the inline route ----------------------------------------------------------
    def _cost_sample(self, loop: ParLoop) -> _Sample:
        """The cost table, ``loop``'s key in it and its entry: one lookup
        serves the gate's decision and the sampling."""
        costs = (self.session if self.session is not None else Session.current()).loop_costs
        key = grain.cost_key(loop, self.prefer_vectorized)
        return costs, key, costs.lookup(key)

    def _run_inline(self, loop: ParLoop, sample: _Sample) -> None:
        """The whole set on this thread, timed while the session's cost table
        still wants samples of it (a settled loop pays the one lookup).

        Nothing of this pipeline is pending when a loop runs inline -- the
        gate's ``INLINE`` precedes any deferral, the other reasons drain or
        never defer -- so its effects are complete when this returns.
        """
        costs, key, cost = sample
        if cost is not None and cost[1] >= costs.SETTLED_SAMPLES:
            loop.execute_all(prefer_vectorized=self.prefer_vectorized)
            return
        started = _cpu_clock()
        loop.execute_all(prefer_vectorized=self.prefer_vectorized)
        costs.record(key, _cpu_clock() - started)

    def _ready_result(self, loop: ParLoop) -> Optional[SharedFuture[OpDat]]:
        """What a loop that already ran to completion in the parent returns."""
        if not self._returns_future:
            return None
        return SharedFuture.ready(loop.output_dat())  # type: ignore[arg-type]

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
        assert self.policy is not None
        loop = analyzed.loop
        capabilities = self.capabilities
        deferred = capabilities.deferred
        has_reduction = loop.has_global_reduction
        # The engine cannot host a kernel with a WRITE/RW global (its workers
        # never observe the parent's live value): the loop then runs inline
        # in the parent inside a drained window; its dats are already shared,
        # so workers see its effects.
        parent_fallback = (
            deferred and loop.has_global_write and not capabilities.supports_global_write
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
            drain_before=deferred and (global_clash or parent_fallback),
            drain_after=deferred and has_reduction and not parent_fallback,
            global_buffers=global_buffers,
        )
        if deferred and not parent_fallback:
            submission, reason = "deferred", None
        else:
            submission = self.policy.parent_submission
            reason = None
            if submission == grain.INLINE:
                reason = grain.GLOBAL_WRITE if parent_fallback else grain.MODEL
        tasks: list[ChunkTaskSpec] = []
        if submission == "deferred":
            lowered = analyzed.lowered
            for position, chunk in enumerate(analyzed.chunks):
                tasks.append(
                    ChunkTaskSpec(
                        chunk_index=chunk.chunk.index,
                        start=chunk.chunk.start,
                        stop=chunk.chunk.stop,
                        sim_id=chunk.task_id,
                        sim_deps=tuple(chunk.deps),
                        barrier_after=self.policy.barrier_after(lowered, position),
                        owner=chunk.chunk.owner,
                    )
                )
        return ChunkSchedule(
            analyzed=analyzed,
            tasks=tasks,
            reduction=reduction,
            submission=submission,
            reason=reason,
        )

    # -- stage 4: submit ---------------------------------------------------------
    def _submit(self, schedule: ChunkSchedule) -> Optional[SharedFuture[OpDat]]:
        """Run the schedule: engine tasks, or in the (drained) parent."""
        loop = schedule.loop
        capabilities = self.capabilities
        engine: Optional[ExecutionEngine] = None
        if capabilities.deferred:
            engine = self._ensure_engine()
        if schedule.reduction.drain_before:
            assert engine is not None
            self._drain(engine)

        if schedule.submission != "deferred":
            if schedule.submission == grain.INLINE:
                self._run_inline(loop, self._cost_sample(loop))
            else:
                assert self.policy is not None
                self.policy.execute_eager(
                    loop, schedule.analyzed.lowered, self.prefer_vectorized
                )
            return self._ready_result(loop)

        assert engine is not None
        slab_artifact = None
        if capabilities.compiled_kernels and not capabilities.needs_kernel_registry:
            from repro.translator.slab import resolve_slab

            slab_artifact = resolve_slab(
                loop, self.session if self.session is not None else Session.current()
            )
        # One task per chunk: each commits its own effects (the lowering
        # only cuts chunks that never write the same element, the tracker
        # orders the rest) and leaves its reduction partials here.
        partials: list[Optional[Partials]] = [None] * len(schedule.tasks)
        task_ids: list[int] = []
        for position, spec in enumerate(schedule.tasks):
            # Dependents must observe a producer chunk's committed effects,
            # which its one task leaves behind.
            pool_deps = [
                self.pool_chunk_ids[dep]
                for dep in spec.sim_deps
                if dep in self.pool_chunk_ids
            ]
            task = LoopChunk(
                loop,
                spec.start,
                spec.stop,
                spec.owner,
                partials,
                position,
                self.prefer_vectorized,
                self._slab_run(loop, spec, slab_artifact),
            )
            task_id = engine.submit(task, deps=pool_deps)
            self.pool_chunk_ids[spec.sim_id] = task_id
            task_ids.append(task_id)
            if spec.barrier_after:
                self._drain(engine)
        loop._mark_outputs_modified()
        self._globals_in_flight.update(schedule.reduction.global_buffers)
        future = self._finalize(engine, loop, task_ids, partials)
        if schedule.reduction.drain_after:
            self._drain(engine)
        return future

    @staticmethod
    def _slab_run(
        loop: ParLoop, spec: ChunkTaskSpec, slab_artifact: Any
    ) -> Optional[Callable[[], Partials]]:
        """The compiled slab for a row-range chunk, when there is one.

        A slab privatises WRITE/RW scatters exactly like the vectorised path,
        so blocks with duplicate scatter targets take the same per-chunk
        elemental fallback (see ``ParLoop._scatter_conflicts``).
        """
        if (
            slab_artifact is None
            or spec.owner is not None
            or spec.start == spec.stop
            or loop._scatter_conflicts(spec.start, spec.stop)
        ):
            return None
        from repro.translator.slab import run_slab

        return partial(run_slab, loop, slab_artifact, spec.start, spec.stop)

    def _finalize(
        self,
        engine: ExecutionEngine,
        loop: ParLoop,
        task_ids: list[int],
        partials: list[Optional[Partials]],
    ) -> Optional[SharedFuture[OpDat]]:
        """The loop's finalizer task, behind all of its chunks: folds the
        reduction partials into the globals in chunk order, then fulfils the
        loop's future (``None`` without a policy that produces futures)."""
        output = loop.output_dat()
        promise: Optional[Promise[OpDat]] = None
        future: Optional[SharedFuture[OpDat]] = None
        if self._returns_future:
            promise = Promise()
            future = HandleFuture.from_promise(output, promise)  # type: ignore[arg-type]
        if not loop.has_global_reduction and promise is None:
            return None
        if not task_ids:  # empty iteration set: nothing to wait for
            if promise is not None:
                promise.set_value(output)  # type: ignore[arg-type]
            return future

        def finalize() -> None:
            for chunk_partials in partials:
                if chunk_partials is not None:
                    loop.fold_partials(chunk_partials)
            if promise is not None:
                promise.set_value(output)  # type: ignore[arg-type]

        # If the engine is poisoned before the finalizer runs, break the
        # promise instead: consumers blocked in get()/wait() must wake with
        # an error, not hang forever.
        engine.submit(
            finalize,
            deps=task_ids,
            on_skip=None if promise is None else promise.break_promise,
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
            else:
                self._executor.shutdown(wait=True)
                self.pool_chunk_ids.clear()
        self._stop_clock()
        if self.task_graph is None or len(self.task_graph) == 0:
            return
        assert self.machine is not None and self.policy is not None
        self._schedule_result = self.policy.simulate(
            self.task_graph, self.machine, self.num_threads
        )

    def _stop_clock(self) -> None:
        if self._wall_start is not None:
            self.wall_seconds += time.perf_counter() - self._wall_start
            self._wall_start = None

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
        if self.policy is not None:
            details.update(self.policy.report_details(self))
        else:
            details["loops"] = [record.name for record in self.records]
        if self.grain is not None:
            details["grain"] = self.grain.describe(self.records)
        if self.session is not None:
            # Per-tenant observability: cache hit rates, live engine keys and
            # arena counts of the session this pipeline borrowed engines from.
            details["session"] = self.session.stats()
        return BackendReport(
            backend=backend_name,
            num_threads=1 if self.policy is None else self.num_threads,
            loops_executed=self.loop_count,
            schedule=self._schedule_result,
            wall_seconds=self.wall_seconds,
            details=details,
        )


# ---------------------------------------------------------------------------
# The dataflow context's pipeline (the contexts are thin adapters over these)
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
    # On an engine that really defers, chunks commit their own effects as
    # they finish: the tracker then adds the extra edges (program-order
    # increment accumulation, reader ordering against displaced writer
    # layers, same-loop WAW) that keep results deterministic and
    # bit-identical to serial.
    owner = session if session is not None else Session.current()
    tracker = DependencyTracker(
        chunk_granularity=optimization.interleaving,
        interval_sets=run_config.interval_sets,
        strict_commit_order=capabilities.deferred,
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

