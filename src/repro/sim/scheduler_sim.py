"""Simulated scheduling of chunk-task graphs onto the machine model.

Two scheduling modes are provided, matching the two code generators the
paper compares:

``ScheduleMode.BARRIER``
    OpenMP-style fork/join: tasks are grouped into *phases* (one phase per
    ``op_par_loop``); every phase opens a parallel region, distributes its
    chunks over the workers and closes with a global barrier.  No task of
    phase *k+1* may start before every task of phase *k* has finished.

``ScheduleMode.DATAFLOW``
    HPX-style execution: tasks carry explicit dependencies (chunk-level
    futures); a task becomes ready the moment its dependencies complete and
    is dispatched to the first idle worker.  There are no barriers; loops
    interleave exactly as far as the dependency DAG allows.

Both modes share the same per-chunk costs, the same SMT placement and the
same memory-contention factor, so measured differences are attributable to
scheduling alone.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.cost import ChunkCost
from repro.sim.events import EventQueue
from repro.sim.machine import Machine, WorkerSlot
from repro.sim.trace import ExecutionTrace, TaskRecord

__all__ = [
    "ScheduleMode",
    "SimTask",
    "TaskGraph",
    "ScheduleResult",
    "simulate_schedule",
]


class ScheduleMode(enum.Enum):
    """How the task graph is mapped onto workers."""

    BARRIER = "barrier"
    DATAFLOW = "dataflow"


class OmpSchedule(enum.Enum):
    """Intra-phase chunk distribution used by BARRIER mode."""

    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class SimTask:
    """One schedulable chunk of work.

    Attributes
    ----------
    task_id:
        Unique, dense id (assigned by :class:`TaskGraph.add`).
    name:
        Human-readable label (usually ``f"{loop_name}#{chunk_index}"``).
    loop_name:
        Name of the ``op_par_loop`` the chunk belongs to.
    phase:
        Index of the loop invocation in program order; BARRIER mode inserts a
        global barrier between consecutive phases.
    chunk_index:
        Chunk number within its loop.
    cost:
        Full-speed, uncontended cost of the chunk.
    deps:
        Task ids that must finish before this task may start (DATAFLOW mode).
    """

    name: str
    loop_name: str
    phase: int
    chunk_index: int
    cost: ChunkCost
    deps: tuple[int, ...] = ()
    task_id: int = -1


class TaskGraph:
    """A DAG of :class:`SimTask` chunks in program order."""

    def __init__(self) -> None:
        self.tasks: list[SimTask] = []

    def __len__(self) -> int:
        return len(self.tasks)

    def add(
        self,
        name: str,
        loop_name: str,
        phase: int,
        chunk_index: int,
        cost: ChunkCost,
        deps: Iterable[int] = (),
    ) -> int:
        """Add a task; returns its id."""
        task_id = len(self.tasks)
        deps_tuple = tuple(sorted(set(int(d) for d in deps)))
        for dep in deps_tuple:
            if dep < 0 or dep >= task_id:
                raise SimulationError(
                    f"task {name!r} depends on unknown/forward task id {dep}"
                )
        task = SimTask(
            name=name,
            loop_name=loop_name,
            phase=phase,
            chunk_index=chunk_index,
            cost=cost,
            deps=deps_tuple,
            task_id=task_id,
        )
        self.tasks.append(task)
        return task_id

    def phases(self) -> list[int]:
        """Sorted phase indices present in the graph."""
        return sorted({t.phase for t in self.tasks})

    def tasks_in_phase(self, phase: int) -> list[SimTask]:
        """Tasks of one phase, in chunk order."""
        return sorted(
            (t for t in self.tasks if t.phase == phase), key=lambda t: t.chunk_index
        )

    def total_work_seconds(self) -> float:
        """Sum of full-speed task durations (lower bound of 1-thread runtime)."""
        return sum(t.cost.total_seconds for t in self.tasks)

    def total_bytes(self) -> float:
        """Total bytes moved by all tasks."""
        return sum(t.cost.bytes_moved for t in self.tasks)

    def total_edges(self) -> int:
        """Total number of dependency edges in the DAG."""
        return sum(len(t.deps) for t in self.tasks)

    def critical_path_seconds(self) -> float:
        """Length of the longest dependency chain (lower bound of any schedule)."""
        longest: list[float] = [0.0] * len(self.tasks)
        for task in self.tasks:  # tasks are stored in topological (program) order
            dep_finish = max((longest[d] for d in task.deps), default=0.0)
            longest[task.task_id] = dep_finish + task.cost.total_seconds
        return max(longest, default=0.0)

    def upward_ranks(self) -> list[float]:
        """HEFT-style upward rank (longest path *from* each task to a sink)."""
        ranks = [0.0] * len(self.tasks)
        dependents: list[list[int]] = [[] for _ in self.tasks]
        for task in self.tasks:
            for dep in task.deps:
                dependents[dep].append(task.task_id)
        for task in reversed(self.tasks):
            downstream = max((ranks[d] for d in dependents[task.task_id]), default=0.0)
            ranks[task.task_id] = task.cost.total_seconds + downstream
        return ranks

    def validate(self) -> None:
        """Check graph invariants (ids dense and deps backwards-only)."""
        for index, task in enumerate(self.tasks):
            if task.task_id != index:
                raise SimulationError("task ids must be dense and in insertion order")
            for dep in task.deps:
                if dep >= index:
                    raise SimulationError(
                        f"task {task.name!r} has forward dependency {dep}"
                    )


@dataclass
class ScheduleResult:
    """Outcome of simulating a task graph."""

    mode: ScheduleMode
    num_threads: int
    makespan_seconds: float
    trace: ExecutionTrace
    total_bytes: float
    total_work_seconds: float
    critical_path_seconds: float
    contention_factor: float
    phase_end_times: dict[int, float] = field(default_factory=dict)
    #: number of dependency edges in the scheduled DAG (0 in BARRIER mode
    #: graphs, whose ordering lives in the phase structure instead)
    dependency_edges: int = 0

    @property
    def achieved_bandwidth_gbs(self) -> float:
        """Total traffic divided by makespan, in GB/s."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_bytes / self.makespan_seconds / 1e9


def _estimate_contention(
    graph: TaskGraph, machine: Machine, num_threads: int
) -> float:
    """One global memory-contention factor for the run.

    The per-thread streaming demand is estimated from the graph's aggregate
    bytes and aggregate uncontended runtime; the machine then reports how far
    that demand exceeds the DRAM bandwidth when ``num_threads`` stream
    simultaneously.
    """
    total_seconds = graph.total_work_seconds()
    if total_seconds <= 0:
        return 1.0
    per_thread_bw = graph.total_bytes() / total_seconds  # bytes/s of one thread
    return machine.memory_contention_factor(num_threads, per_thread_bw)


def _task_duration(
    task: SimTask, slot: WorkerSlot, contention: float
) -> float:
    """Duration of ``task`` on ``slot`` under the given contention factor."""
    return task.cost.scaled_duration(speed_factor=slot.speed_factor, contention=contention)


def _simulate_barrier(
    graph: TaskGraph,
    machine: Machine,
    slots: Sequence[WorkerSlot],
    contention: float,
    omp_schedule: OmpSchedule,
) -> tuple[ExecutionTrace, dict[int, float]]:
    """Fork/join simulation with a global barrier after every phase."""
    num_threads = len(slots)
    trace = ExecutionTrace(num_threads)
    clock = 0.0
    phase_end_times: dict[int, float] = {}

    for phase in graph.phases():
        tasks = graph.tasks_in_phase(phase)
        fork = machine.fork_join_overhead_s(num_threads)
        trace.add_fork_join_time(fork)
        phase_start = clock + fork
        worker_time = [phase_start] * num_threads

        if omp_schedule is OmpSchedule.STATIC:
            # Contiguous block distribution, like OpenMP schedule(static).
            for index, task in enumerate(tasks):
                worker_id = index * num_threads // max(len(tasks), 1)
                worker_id = min(worker_id, num_threads - 1)
                slot = slots[worker_id]
                start = worker_time[worker_id]
                end = start + _task_duration(task, slot, contention)
                worker_time[worker_id] = end
                trace.add(
                    TaskRecord(
                        task_id=task.task_id,
                        name=task.name,
                        loop_name=task.loop_name,
                        phase=phase,
                        chunk_index=task.chunk_index,
                        worker_id=worker_id,
                        core_id=slot.core_id,
                        start=start,
                        end=end,
                        bytes_moved=task.cost.bytes_moved,
                    )
                )
        else:
            # Dynamic self-scheduling: next chunk goes to the earliest-free worker.
            heap = [(phase_start, w) for w in range(num_threads)]
            heapq.heapify(heap)
            for task in tasks:
                free_time, worker_id = heapq.heappop(heap)
                slot = slots[worker_id]
                end = free_time + _task_duration(task, slot, contention)
                worker_time[worker_id] = end
                heapq.heappush(heap, (end, worker_id))
                trace.add(
                    TaskRecord(
                        task_id=task.task_id,
                        name=task.name,
                        loop_name=task.loop_name,
                        phase=phase,
                        chunk_index=task.chunk_index,
                        worker_id=worker_id,
                        core_id=slot.core_id,
                        start=free_time,
                        end=end,
                        bytes_moved=task.cost.bytes_moved,
                    )
                )

        phase_compute_end = max(worker_time) if tasks else phase_start
        barrier = machine.barrier_overhead_s(num_threads)
        trace.add_barrier_time(barrier)
        clock = phase_compute_end + barrier
        phase_end_times[phase] = clock

    return trace, phase_end_times


def _simulate_dataflow(
    graph: TaskGraph,
    machine: Machine,
    slots: Sequence[WorkerSlot],
    contention: float,
) -> tuple[ExecutionTrace, dict[int, float]]:
    """Event-driven list scheduling of the dependency DAG (no barriers)."""
    num_threads = len(slots)
    trace = ExecutionTrace(num_threads)
    events = EventQueue()
    ranks = graph.upward_ranks()

    remaining_deps = [len(t.deps) for t in graph.tasks]
    dependents: list[list[int]] = [[] for _ in graph.tasks]
    for task in graph.tasks:
        for dep in task.deps:
            dependents[dep].append(task.task_id)

    # Ready tasks ordered by descending upward rank (critical path first),
    # breaking ties by program order for determinism.
    ready: list[tuple[float, int, int]] = []
    counter = itertools.count()
    idle_workers: list[tuple[int, int]] = []  # (order, worker_id); fastest first
    for slot in sorted(slots, key=lambda s: (-s.speed_factor, s.worker_id)):
        heapq.heappush(idle_workers, (len(idle_workers), slot.worker_id))

    phase_end_times: dict[int, float] = {}
    dependency_overhead = machine.dependency_overhead_s()

    def push_ready(task_id: int) -> None:
        heapq.heappush(ready, (-ranks[task_id], next(counter), task_id))

    def dispatch() -> None:
        while ready and idle_workers:
            _, _, task_id = heapq.heappop(ready)
            _, worker_id = heapq.heappop(idle_workers)
            task = graph.tasks[task_id]
            slot = slots[worker_id]
            start = events.clock.now
            duration = _task_duration(task, slot, contention)
            # Resolving the input futures of the dataflow node costs a little.
            duration += dependency_overhead * max(len(task.deps), 1)
            end = start + duration
            trace.add(
                TaskRecord(
                    task_id=task.task_id,
                    name=task.name,
                    loop_name=task.loop_name,
                    phase=task.phase,
                    chunk_index=task.chunk_index,
                    worker_id=worker_id,
                    core_id=slot.core_id,
                    start=start,
                    end=end,
                    bytes_moved=task.cost.bytes_moved,
                )
            )
            events.push(end, _make_finish(task_id, worker_id), tag=f"finish:{task.name}")

    def _make_finish(task_id: int, worker_id: int):
        def finish() -> None:
            task = graph.tasks[task_id]
            phase_end_times[task.phase] = max(
                phase_end_times.get(task.phase, 0.0), events.clock.now
            )
            heapq.heappush(idle_workers, (task_id, worker_id))
            for dependent in dependents[task_id]:
                remaining_deps[dependent] -= 1
                if remaining_deps[dependent] == 0:
                    push_ready(dependent)
            dispatch()

        return finish

    for task in graph.tasks:
        if not task.deps:
            push_ready(task.task_id)
    dispatch()
    events.run_until_empty()

    scheduled = len(trace)
    if scheduled != len(graph.tasks):
        raise SimulationError(
            f"dataflow schedule executed {scheduled} of {len(graph.tasks)} tasks; "
            "the dependency graph probably contains an unsatisfiable dependency"
        )
    return trace, phase_end_times


def simulate_schedule(
    graph: TaskGraph,
    machine: Machine,
    num_threads: int,
    mode: ScheduleMode = ScheduleMode.DATAFLOW,
    *,
    omp_schedule: OmpSchedule | str = OmpSchedule.STATIC,
) -> ScheduleResult:
    """Simulate executing ``graph`` on ``num_threads`` workers of ``machine``.

    Returns a :class:`ScheduleResult` with the makespan, the full execution
    trace and derived aggregates.  The simulation is deterministic.
    """
    graph.validate()
    if isinstance(omp_schedule, str):
        omp_schedule = OmpSchedule(omp_schedule)
    slots = machine.worker_slots(num_threads)
    contention = _estimate_contention(graph, machine, num_threads)

    if mode is ScheduleMode.BARRIER:
        trace, phase_ends = _simulate_barrier(graph, machine, slots, contention, omp_schedule)
        makespan = max(phase_ends.values(), default=0.0)
    elif mode is ScheduleMode.DATAFLOW:
        trace, phase_ends = _simulate_dataflow(graph, machine, slots, contention)
        makespan = trace.makespan
    else:  # pragma: no cover - exhaustive enum
        raise SimulationError(f"unknown schedule mode: {mode}")

    trace.validate_no_worker_overlap()
    return ScheduleResult(
        mode=mode,
        num_threads=num_threads,
        makespan_seconds=makespan,
        trace=trace,
        total_bytes=graph.total_bytes(),
        total_work_seconds=graph.total_work_seconds(),
        critical_path_seconds=graph.critical_path_seconds(),
        contention_factor=contention,
        phase_end_times=phase_ends,
        dependency_edges=graph.total_edges(),
    )
