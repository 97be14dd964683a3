"""Execution contexts and backend dispatch.

An *execution context* decides how ``op_par_loop`` invocations run: the
serial reference, the OpenMP-style fork/join baseline, or the HPX-style
dataflow executor from :mod:`repro.core`.  Contexts are installed with the
:func:`active_context` context manager::

    with active_context(openmp_context(num_threads=16)) as ctx:
        airfoil.run(...)          # op_par_loop calls dispatch to ctx
    report = ctx.report()

Every context records the loops it executed and produces a
:class:`BackendReport` combining numerical bookkeeping with the simulated
timing of the run.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.errors import OP2BackendError
from repro.session import Session, _active_sessions

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.par_loop import ParLoop
    from repro.sim.scheduler_sim import ScheduleResult

__all__ = [
    "BackendReport",
    "ExecutionContext",
    "active_context",
    "drain_active_context",
    "get_active_context",
    "register_backend",
    "available_backends",
    "make_context",
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
    """Base class of every backend context.

    ``session`` scopes the context's runtime state: its engines come from the
    session's warm pool (shut down at ``Session.close()``, not at context
    exit) and entering the context activates the session, so kernel
    registration and the plan cache resolve against it.  With no session --
    neither passed nor active at construction -- the context owns a private
    engine per run and shuts it down at ``finish()``, the historical
    behaviour.
    """

    #: backend identifier, overridden by subclasses
    backend_name: str = "abstract"

    def __init__(self, session: Optional[Session] = None) -> None:
        self.loop_count = 0
        #: owning session (None = per-run engine ownership, no warm pool)
        self.session = session if session is not None else Session.current_or_none()
        self._stack_session: Optional[Session] = None

    # -- the backend interface --------------------------------------------------
    def execute(self, loop: "ParLoop") -> Any:
        """Run (or schedule) one parallel loop; backends override this."""
        raise NotImplementedError

    def finish(self) -> None:
        """Complete any outstanding asynchronous work (default: nothing)."""

    def abort(self) -> None:
        """Abandon outstanding asynchronous work (default: nothing).

        Called instead of :meth:`finish` when the ``with`` block raises, so
        backends running real worker pools stop mutating data and release
        their threads.
        """

    def report(self) -> BackendReport:
        """Produce the run report; backends override to attach schedules."""
        return BackendReport(
            backend=self.backend_name, num_threads=1, loops_executed=self.loop_count
        )

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
    from repro.op2.backends.serial import SerialContext

    default = SerialContext()
    return default


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


# ---------------------------------------------------------------------------
# Backend registry (global on purpose: factories are *code*, not run state,
# exactly like the engine registry -- sessions own the state they create)
# ---------------------------------------------------------------------------
_backend_factories: dict[str, Any] = {}
_backend_lock = threading.Lock()


def register_backend(name: str, factory: Any, *, overwrite: bool = False) -> None:
    """Register a context factory under ``name`` (e.g. ``"openmp"``)."""
    with _backend_lock:
        if not overwrite and name in _backend_factories:
            raise OP2BackendError(f"backend {name!r} already registered")
        _backend_factories[name] = factory


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    _ensure_builtin_backends()
    with _backend_lock:
        return sorted(_backend_factories)


def make_context(name: str, **kwargs: Any) -> ExecutionContext:
    """Instantiate a registered backend context by name."""
    _ensure_builtin_backends()
    with _backend_lock:
        try:
            factory = _backend_factories[name]
        except KeyError as exc:
            raise OP2BackendError(
                f"unknown backend {name!r}; available: {sorted(_backend_factories)}"
            ) from exc
    return factory(**kwargs)


def _ensure_builtin_backends() -> None:
    """Import the built-in backends so they self-register."""
    if {"serial", "openmp", "hpx"} <= _backend_factories.keys():
        return
    from repro.op2.backends import hpx, openmp, serial  # noqa: F401  (self-registering)
