"""Schedule policies: the *shape* of a run of the loop pipeline.

* :class:`DataflowSchedulePolicy` -- the paper's design: chunk-size policies
  from :mod:`repro.runtime.chunking`, owner chunks for indirect increments,
  chunk-granular tracker edges, futures as loop results, DATAFLOW
  simulation.
* :class:`ColorForkJoinSchedulePolicy` -- the OpenMP-style baseline:
  lowering by colouring plan, no tracker (colours are the concurrency
  structure), a barrier per colour, BARRIER simulation.
  Colouring is *a schedule policy*, not a separate code path.

The serial reference has none (:class:`~repro.core.pipeline.LoopPipeline`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.interleaving import DependencyTracker
from repro.core.persistent_chunking import ChunkPlanner
from repro.core.prefetch_integration import build_prefetch_spec
from repro.core.stages import ChunkRange, LoweredLoop
from repro.engines import EngineCapabilities, RunConfig
from repro.errors import OP2BackendError
from repro.op2.par_loop import ParLoop
from repro.op2.plan import op_plan_get
from repro.sim.cost import ChunkCost, PrefetchSpec
from repro.sim.machine import Machine
from repro.sim.scheduler_sim import (
    OmpSchedule,
    ScheduleMode,
    ScheduleResult,
    TaskGraph,
    simulate_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - the pipeline imports this module
    from repro.core.pipeline import LoopPipeline

__all__ = ["SchedulePolicy", "DataflowSchedulePolicy", "ColorForkJoinSchedulePolicy"]


class SchedulePolicy:
    """How a pipeline lowers, orders and times loops.

    A policy contributes the *shape* of the run -- how iteration ranges are
    chunked, which dependency edges exist, where barriers sit, and how the
    accumulated task graph is simulated.  The
    pipeline contributes everything else (engine negotiation, drain points,
    the global-WRITE fallback, submission, records, reports), so both
    built-in policies -- and any future one -- share that machinery.
    """

    #: short policy name (reports, stage events)
    name: str = "policy"
    #: whether :meth:`LoopPipeline.run` returns the loop's output future
    returns_future: bool = False
    #: whether modelled chunk costs include task-spawn overhead
    spawn_overhead: bool = True
    #: whether deferral waits for the grain gate (loops start inline)
    grain_gated: bool = False
    #: how a loop that is not deferred runs in the parent: ``"inline"`` (the
    #: pipeline's whole-set route) or ``"eager"`` (the policy's own
    #: ``execute_eager(loop, lowered, prefer_vectorized)``)
    parent_submission: str = "inline"

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
        if chunk.parts:  # an owner chunk spans its share of the targets
            position = (chunk.index / chunk.parts, (chunk.index + 1) / chunk.parts)
        else:
            total = max(lowered.iterations, 1)
            position = (chunk.start / total, chunk.stop / total)
        return pipeline.cost_model.chunk_cost(
            lowered.profile,
            chunk.size,
            prefetch=self.prefetch_spec(),
            chunk_index=chunk.index,
            position=position,
            spawn_overhead=self.spawn_overhead,
        )

    def sim_phase(self, lowered: LoweredLoop, chunk: ChunkRange) -> int:
        """Simulated phase of a chunk's task (default: the loop's phase)."""
        return lowered.phase

    # -- schedule ----------------------------------------------------------------
    def barrier_after(self, lowered: LoweredLoop, position: int) -> bool:
        """Whether the engine drains after the chunk at ``position``."""
        return False

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
    """The paper's lowering: chunk policies + tracker edges + futures.

    On an engine that really defers, every chunk is one task that commits
    its own effects, so the lowering only cuts chunks that never write the
    same element (:meth:`~repro.op2.par_loop.ParLoop.chunk_shape`): row
    ranges; for a loop that only increments through a map, *owner chunks*
    -- the planner's K chunks each own a contiguous range of the targets and
    run every row touching it, so cut rows run twice (OP2's redundant halo
    execution); and one chunk where neither is possible.  The tracker
    orders the rest.  A modelling engine keeps the row ranges.
    """

    name = "dataflow"
    returns_future = True
    grain_gated = True

    def __init__(
        self,
        *,
        tracker: DependencyTracker,
        planner: ChunkPlanner,
        run_config: RunConfig,
    ) -> None:
        distance = run_config.prefetch_distance_factor  # None: the library default
        if distance is not None and distance <= 0:
            raise OP2BackendError("prefetch_distance_factor must be positive")
        if run_config.prefetch and not run_config.async_tasking:
            # The paper's prefetcher is specifically the combination of
            # thread-based prefetching *with* asynchronous task execution.
            raise OP2BackendError("prefetching requires async_tasking")
        self.tracker = tracker
        self.planner = planner
        self.run_config = run_config
        self._prefetch_spec: Optional[PrefetchSpec] = (
            build_prefetch_spec(True, distance) if run_config.prefetch else None
        )

    def prefetch_spec(self) -> Optional[PrefetchSpec]:
        return self._prefetch_spec

    def lower(self, loop: ParLoop, phase: int, pipeline: "LoopPipeline") -> LoweredLoop:
        profile = loop.kernel_profile()
        sizes = self.planner.plan_chunks(
            loop, profile=profile, prefetch=self._prefetch_spec
        )
        chunking, reason = "rows", None
        if pipeline.capabilities.deferred and len(sizes) > 1:
            chunking, reason = loop.chunk_shape(pipeline.prefer_vectorized)
        chunks: list[ChunkRange] = []
        if chunking == "owner":
            plan = loop.owner_plan(len(sizes))
            for k, rows in enumerate(plan.rows):
                lo, hi = plan.bounds[k : k + 2]
                chunks.append(ChunkRange(k, lo, hi, parts=plan.parts, rows=rows.size))
        elif chunking == "single":
            chunks.append(ChunkRange(index=0, start=0, stop=loop.iterset.size))
        else:
            start = 0
            for index, size in enumerate(sizes):
                chunks.append(ChunkRange(index=index, start=start, stop=start + size))
                start += size
        return LoweredLoop(loop, phase, profile, chunks, chunking=chunking, chunking_reason=reason)

    def chunk_dependencies(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> list[int]:
        return self.tracker.chunk_dependencies(
            lowered.loop, chunk.start, chunk.stop, loop_seq=lowered.phase, owner=chunk.owner
        )

    def record_chunk(
        self,
        pipeline: "LoopPipeline",
        lowered: LoweredLoop,
        chunk: ChunkRange,
        task_id: int,
    ) -> None:
        self.tracker.record_chunk(
            lowered.loop, lowered.phase, chunk.start, chunk.stop, task_id, owner=chunk.owner
        )

    def access_groups(
        self, pipeline: "LoopPipeline", lowered: LoweredLoop, chunk: ChunkRange
    ) -> Optional[list]:
        return self.tracker.access_groups(
            lowered.loop, chunk.start, chunk.stop, owner=chunk.owner
        )

    def describe(self) -> str:
        """Which of the paper's techniques the run switches on, as the short
        label benchmark tables use (e.g. ``dataflow+interleave+auto-chunks``)."""
        config = self.run_config
        parts = [
            "dataflow" if config.async_tasking else "no-dataflow",
            "interleave" if config.interleave else "loop-granular",
            "persistent-chunks" if self.planner.is_persistent else "auto-chunks",
        ]
        if self._prefetch_spec is not None:
            parts.append(f"prefetch(d={self._prefetch_spec.distance_factor})")
        return "+".join(parts)

    def simulate(
        self, task_graph: TaskGraph, machine: Machine, num_threads: int
    ) -> Optional[ScheduleResult]:
        mode = (
            ScheduleMode.DATAFLOW
            if self.run_config.async_tasking
            else ScheduleMode.BARRIER
        )
        return simulate_schedule(task_graph, machine, num_threads, mode)

    def report_details(self, pipeline: "LoopPipeline") -> dict[str, Any]:
        records = pipeline.records
        edges: dict[str, int] = {}
        for record in records:
            edges[record.name] = edges.get(record.name, 0) + record.dependency_count
        details: dict[str, Any] = {
            "config": self.describe(),
            "chunking": "persistent_auto" if self.planner.is_persistent else "auto",
            "total_chunks": sum(record.num_chunks for record in records),
            "total_dependencies": sum(record.dependency_count for record in records),
            "dependency_mode": self.tracker.mode,
            # which loops the interval-set tracker relieves of false edges
            "dependency_edges_by_loop": edges,
            "tracked_dats": self.tracker.tracked_dats(),
            "owner": _owner_details(records),
        }
        # Engines without a shared address space hold dats in an arena of
        # shared segments; surface its shape when one exists.
        arena = getattr(pipeline.executor, "arena", None)
        if arena is not None:
            details["workers"] = pipeline.executor.num_workers
            details["shared_dats"] = len(arena.dat_ids())
        return details


def _owner_details(records: Sequence[Any]) -> dict[str, dict[str, Any]]:
    """Per lowered loop (the latest record of each name): its chunk count,
    the rows its chunks run against its iteration set (owner chunks run cut
    rows twice), and whether it is one chunk and why."""
    details: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.chunking is None:
            continue
        rows = sum(record.chunk_sizes)
        details[record.name] = {
            "chunking": record.chunking,
            "chunks": record.num_chunks,
            "rows": rows,
            "iterations": record.iterations,
            "redundancy": rows / record.iterations if record.iterations else 1.0,
            "one_chunk": record.chunking == "single",
            "reason": record.chunking_reason,
        }
    return details


class ColorForkJoinSchedulePolicy(SchedulePolicy):
    """OpenMP-style lowering: colouring plan, per-colour fork/join barriers.

    Blocks of one colour never write the same indirect element, so they run
    -- and commit -- concurrently, and the drain closing each colour is the
    implicit OpenMP barrier.  Every
    colour is its own simulated fork/join phase, later timed in ``BARRIER``
    mode -- colouring is a *schedule policy* here, not a separate code path.
    """

    name = "color-fork-join"
    spawn_overhead = False
    # colour by colour, never the whole set at once
    parent_submission = "eager"
    #: block size handed to the colouring planner
    block_size = 256
    #: the modelled ``omp schedule(...)`` clause
    omp_schedule = OmpSchedule.STATIC

    def __init__(self) -> None:
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

    def barrier_after(self, lowered: LoweredLoop, position: int) -> bool:
        # The implicit barrier closing the parallel region of each colour --
        # or of each block, when a WRITE/RW global must observe every prior
        # iteration.
        return (
            lowered.loop.has_global_write
            or position == len(lowered.chunks) - 1
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
