"""The execution context ``op_par_loop`` dispatches to.

An *execution context* decides how ``op_par_loop`` invocations run: the
serial reference, the OpenMP-style fork/join baseline, or the HPX-style
dataflow executor from :mod:`repro.core` -- one class over the shared loop
pipeline, built by the factories in :mod:`repro.op2.backends`.  Contexts are
installed with the :func:`active_context` context manager::

    with active_context(openmp_context(num_threads=16)) as ctx:
        airfoil.run(...)          # op_par_loop calls dispatch to ctx
    report = ctx.report()

Every context records the loops it executed and produces a
:class:`BackendReport` combining numerical bookkeeping with the simulated
timing of the run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, TYPE_CHECKING, Union

from repro.config import DEFAULTS
from repro.engines import RunConfig
from repro.errors import OP2BackendError
from repro.session import Session, _active_sessions
from repro.sim.machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import LoopPipeline
    from repro.engines import ExecutionEngine
    from repro.op2.par_loop import ParLoop
    from repro.sim.scheduler_sim import ScheduleResult

__all__ = [
    "BackendReport",
    "ExecutionContext",
    "active_context",
    "drain_active_context",
    "get_active_context",
    "resolve_context",
    "resolve_machine",
]


@dataclass
class BackendReport:
    """Summary of one backend run.

    ``schedule`` is ``None`` for the plain serial context (there is nothing to
    simulate); the OpenMP and HPX contexts attach the
    :class:`~repro.sim.scheduler_sim.ScheduleResult` of their run.
    ``wall_seconds`` is the measured wall-clock time of the run's numerical
    execution -- the real counterpart of the simulated makespan, and the
    number to watch when a context runs with ``engine="threads"``.
    """

    backend: str
    num_threads: int
    loops_executed: int
    schedule: Optional["ScheduleResult"] = None
    wall_seconds: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        """Simulated runtime of the run (0.0 when no schedule was produced)."""
        return self.schedule.makespan_seconds if self.schedule is not None else 0.0

    @property
    def achieved_bandwidth_gbs(self) -> float:
        """Simulated achieved memory bandwidth of the run."""
        return self.schedule.achieved_bandwidth_gbs if self.schedule is not None else 0.0

    @property
    def dependency_edges(self) -> int:
        """Number of chunk-level dependency edges in the run's DAG.

        The scheduled graph's count is authoritative whenever a schedule was
        produced -- including a legitimately zero-edge schedule (a run whose
        chunks are all independent).  Only when *no* schedule exists does the
        tracker total the HPX context stores in ``details`` stand in.
        """
        if self.schedule is not None:
            return self.schedule.dependency_edges
        return int(self.details.get("total_dependencies", 0))


class ExecutionContext:
    """Where ``op_par_loop`` invocations run: one loop pipeline and a label.

    Every backend is this one class; what differs is the schedule policy of
    its :class:`~repro.core.pipeline.LoopPipeline` -- none for the serial
    reference, colour fork/join for the OpenMP baseline, dataflow for the
    HPX design -- which the factories in :mod:`repro.op2.backends` pick.
    ``backend`` is the label the report carries.

    The pipeline's session scopes the context's runtime state: its engines
    come from the session's warm pool (shut down at ``Session.close()``, not
    at context exit) and entering the context activates the session, so
    kernel registration and the plan cache resolve against it.  With no
    session -- neither passed nor active at construction -- the context owns
    a private engine per run and shuts it down at ``finish()``.
    """

    def __init__(self, backend: str, pipeline: "LoopPipeline") -> None:
        self.backend = backend
        self.pipeline = pipeline
        #: owning session (None = per-run engine ownership, no warm pool)
        self.session = pipeline.session
        self._stack_session: Optional[Session] = None

    def execute(self, loop: "ParLoop") -> Any:
        """Run (or schedule) one loop; returns its output future under a
        policy that produces futures, else ``None``."""
        return self.pipeline.run(loop)

    @property
    def executor(self) -> Optional["ExecutionEngine"]:
        """The engine of the current run (``None`` before any deferred loop)."""
        return self.pipeline.executor

    def finish(self) -> None:
        """Drain outstanding deferred work and simulate the accumulated graph."""
        self.pipeline.finish()

    def abort(self) -> None:
        """Cancel unstarted tasks and stop an owned engine.

        Called instead of :meth:`finish` when the ``with`` block raises, so
        real worker pools stop mutating data and release their threads.
        """
        self.pipeline.abort()

    def report(self) -> BackendReport:
        """The run's report (finishing the run first if needed)."""
        return self.pipeline.build_report(self.backend)

    # -- context-manager sugar -----------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        # Entering a session-scoped context activates its session, so every
        # kernel registration / plan lookup / engine acquisition inside the
        # with block resolves against that session.
        if self.session is not None:
            self.session.activate()
        self._stack_session = self.session if self.session is not None else Session.current()
        self._stack_session.push_context(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            if exc_info[0] is None:
                self.finish()
            else:
                self.abort()
        finally:
            stack_session, self._stack_session = self._stack_session, None
            if stack_session is not None:
                stack_session.pop_context(self)
            if self.session is not None:
                self.session.deactivate()


def resolve_context(
    config: Optional[RunConfig], session: Optional[Session], **keywords: Any
) -> tuple[RunConfig, Optional[Session]]:
    """The run configuration and owning session of a new context.

    ``config`` (default: ``RunConfig()``) with every non-``None`` keyword
    applied, and ``session`` -- else the session active *now*, so a context
    built inside a session and pushed later still borrows its warm engines.
    """
    if config is None:
        config = RunConfig()
    elif not isinstance(config, RunConfig):
        raise OP2BackendError(f"config must be a RunConfig, got {type(config).__name__}")
    # a loop, not a comprehension: a light request builds one context, and
    # its profiled call budget (tests/test_inline_route.py) counts the call
    overrides = {}
    for key in keywords:
        if keywords[key] is not None:
            overrides[key] = keywords[key]
    if overrides:
        config = config.replace(**overrides)
    return config, session if session is not None else Session.current_or_none()


def resolve_machine(machine: Union[Machine, str, None]) -> Machine:
    """A simulated machine: ``machine`` itself, a preset name, or (``None``)
    the default preset."""
    if machine is None:
        machine = DEFAULTS.machine_preset
    return machine if isinstance(machine, Machine) else Machine(machine)


# ---------------------------------------------------------------------------
# Active-context lookup (stacks live on sessions, thread-local within each
# session so tests can run contexts in parallel threads)
# ---------------------------------------------------------------------------
def get_active_context() -> ExecutionContext:
    """The innermost active context; defaults to a fresh serial context.

    Activated sessions are searched innermost-first, then the default
    session -- each session's stack is thread-local, so only contexts this
    thread entered are ever visible.
    """
    for session in reversed(_active_sessions.stack):
        context = session.active_context()
        if context is not None:
            return context
    context = Session.default().active_context()
    if context is not None:
        return context
    # Import here to avoid a circular import at module load time.
    from repro.op2.backends.serial import serial_context

    return serial_context()


def drain_active_context() -> None:
    """Complete the in-flight deferred work of the innermost active context.

    No-op when no context is active (or the active one runs eagerly).  This
    is the ordering point for mutations that deferred loops observe *live* --
    most importantly :meth:`~repro.op2.map.OpMap.set_values`, whose new
    connectivity must not be visible to loops submitted before it.
    """
    for session in (*reversed(_active_sessions.stack), Session.default()):
        context = session.active_context()
        if context is not None:
            context.finish()
            return


@contextlib.contextmanager
def active_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``context`` for the duration of the ``with`` block."""
    with context:
        yield context
