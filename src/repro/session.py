"""Session-scoped runtime state: the explicit owner of what used to be global.

The paper's runtime (OP2 loops lowered onto an asynchronous HPX-style
executor) is *long-lived*: many loop chains share one warm runtime instead of
spinning threads up and down per chain.  A :class:`Session` makes that
ownership explicit.  It owns

* a **kernel namespace** -- :class:`~repro.op2.kernel.Kernel` objects by
  name, the registry by-name dispatch (the ``processes`` engine) resolves
  against;
* a **plan cache** -- the colouring/blocking plans of
  :func:`~repro.op2.plan.op_plan_get`, guarded by a lock;
* a **loop cost table** -- the measured whole-set inline time of every loop
  shape the session has run, which the grain gate
  (:mod:`repro.core.grain`) reads to keep small loop chains off the engines;
* an **interval algebra** -- the interned, memoised
  :class:`~repro.op2.intervals.IntervalSet` operations of the dependency
  tracker, so a time-stepping chain pays for each set-algebra answer once
  (dropped at :meth:`close`);
* **shared-memory arena registrations** -- every
  :class:`~repro.op2.shm.SharedMemoryArena` the session's engines adopt dats
  into, released at :meth:`close`;
* the **active-context stack** -- where ``op_par_loop`` finds the innermost
  execution context (thread-local within the session, so tests may run
  contexts in parallel threads);
* a **warm engine pool** -- :meth:`engine` returns a cached *live*
  :class:`~repro.engines.ExecutionEngine` per run configuration.  Engines are
  shut down at :meth:`close`, not per loop chain, so consecutive chains skip
  thread/process spin-up entirely; between chains the contexts only *drain*
  the engine (whose live state collapses to the ``wait_all`` watermark).

The module-level APIs keep working: :func:`repro.op2.kernel.register_kernel`,
:func:`repro.op2.plan.op_plan_get` / ``clear_plan_cache`` and the context
stack are thin facades over :meth:`Session.current`, which is the innermost
*activated* session -- or the process-wide :meth:`Session.default` when no
session has been activated.  Code that never mentions sessions therefore
behaves exactly as before, with the former globals living in the default
session.

Two sessions in one process are fully isolated: same-named kernels, plan
caches, arenas and engine pools never interact -- the seam the multi-tenant
service layer builds on.  Kernel *resolution* falls back from a session's own
namespace to the default session, so kernels declared at module scope (the
overwhelmingly common case) remain visible inside every session; same-named
kernels registered while a session is active shadow them per session.

Usage::

    with Session() as session:                    # activate; close on exit
        with active_context(hpx_context(engine="threads", num_threads=4)):
            run_jacobi(problem_a)                 # spins the pool up
        with active_context(hpx_context(engine="threads", num_threads=4)):
            run_airfoil(mesh)                     # reuses the warm pool
    # session closed: engines shut down, arenas released

``session.use()`` activates without closing on exit, for sessions that
outlive a ``with`` block.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.errors import OP2Error, RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ExecutionEngine, RunConfig
    from repro.op2.kernel import Kernel
    from repro.op2.plan import ExecutionPlan
    from repro.op2.shm import SharedMemoryArena

__all__ = ["PlanCache", "KernelArtifactCache", "LoopCostTable", "Session"]


class PlanCache:
    """A lock-guarded, version-evicting cache of execution plans.

    Keys are the version-*insensitive* identity of a (loop, block size)
    combination; each entry remembers the map versions it was computed from,
    so a renumbered map (``OpMap.set_values``) *replaces* the entry on the
    next lookup instead of leaking one plan per superseded version.  All
    mutations happen under a lock: two threads building plans concurrently
    (e.g. two tenant sessions sharing one interpreter) can no longer race on
    the dict insert/evict.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[tuple, "ExecutionPlan"]] = {}
        self._hits = 0
        self._misses = 0

    def lookup(self, identity: tuple, versions: tuple) -> Optional["ExecutionPlan"]:
        """The cached plan for ``identity`` at exactly ``versions``, else None."""
        with self._lock:
            entry = self._entries.get(identity)
            if entry is not None and entry[0] == versions:
                self._hits += 1
                return entry[1]
            self._misses += 1
            return None

    def store(self, identity: tuple, versions: tuple, plan: "ExecutionPlan") -> None:
        """Cache ``plan``, replacing any entry of a superseded version."""
        with self._lock:
            self._entries[identity] = (versions, plan)

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (``hits``/``misses``/``entries``).

        A version-mismatched entry counts as a miss: the caller rebuilds the
        plan exactly as if nothing were cached.
        """
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every cached plan (counters survive for diagnostics)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class KernelArtifactCache:
    """A lock-guarded cache of compiled kernel artifacts.

    Keys are ``(kernel fingerprint, slab signature)`` -- content-addressed,
    so redefining a same-named kernel with different source simply misses
    (the stale entry ages out with the session) while re-running the same
    loop chain hits.  Hit/miss counters feed the bench harness, which
    reports compile amortisation across cold and warm runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, Any] = {}
        self._hits = 0
        self._misses = 0

    def lookup(self, key: tuple) -> Optional[Any]:
        """The cached artifact for ``key``, counting a hit or miss."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._hits += 1
            else:
                self._misses += 1
            return artifact

    def store(self, key: tuple, artifact: Any) -> Any:
        """Cache ``artifact``; first store wins so concurrent builds converge."""
        with self._lock:
            return self._entries.setdefault(key, artifact)

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (``hits``/``misses``/``entries``)."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every cached artifact (counters survive for diagnostics)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LoopCostTable:
    """Measured whole-set inline time per loop shape, for the grain gate.

    Keys are :func:`repro.core.grain.cost_key` tuples; an entry is ``(min
    seconds, samples)``, in CPU seconds of the thread that ran the loop.  The
    minimum, not the mean: what a loop costs is its fastest observed run,
    everything above it is set-up or noise.  An entry with
    :attr:`SETTLED_SAMPLES` samples is settled and its loop is no longer
    timed: the two clock reads and the locked update cost a 30 us loop 5%,
    on the serial path of every context of the session.
    """

    #: samples after which the inline route stops timing the loop
    SETTLED_SAMPLES = 8

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[float, int]] = {}
        #: ``lookup(key)``: ``(min seconds, samples)`` of ``key``, or ``None``
        #: when never run -- the entries' own ``get``, one C call per loop
        self.lookup: Callable[[tuple], Optional[tuple[float, int]]] = self._entries.get

    def record(self, key: tuple, seconds: float) -> None:
        """Fold one measured execution into the entry of ``key``."""
        with self._lock:
            best, samples = self._entries.get(key, (seconds, 0))
            self._entries[key] = (min(best, seconds), samples + 1)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Current-session stack (thread-local, like the active-context stack)
# ---------------------------------------------------------------------------
class _SessionStack(threading.local):
    def __init__(self) -> None:
        self.stack: list["Session"] = []


_active_sessions = _SessionStack()

#: the process-wide default session (created lazily; replaced if closed)
_default_session: Optional["Session"] = None
_default_lock = threading.Lock()

_session_counter = itertools.count()


class Session:
    """Explicit owner of runtime state shared by many loop chains.

    Parameters
    ----------
    name:
        Diagnostic name (also the prefix of shared-memory segment names of
        arenas the session's engines create); generated when omitted.
    engine_pool:
        A :class:`~repro.service.SharedEnginePool` to *lease* engines from
        instead of building private ones.  With a pool, :meth:`engine`
        returns an :class:`~repro.service.EngineLease` (a group-scoped view
        of a shared engine, keyed by :attr:`tenant`) and :meth:`close`
        releases the leases back to the pool -- the underlying engines stay
        warm for other tenants.  The pool itself is owned by whoever created
        it (typically a :class:`~repro.service.ServiceRuntime`).
    tenant:
        The scheduling key leases are taken under -- the *raw* tenant object,
        so the engine's fair ready queue and the service runtime's weights
        dict agree on one key even for non-string tenants.  Defaults to
        :attr:`name` (the historical behaviour) when omitted.
    """

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        engine_pool: Optional[Any] = None,
        tenant: Optional[Any] = None,
    ) -> None:
        self.name = name if name is not None else f"session-{next(_session_counter)}"
        #: fair-scheduling key of this session's engine leases
        self.tenant = tenant if tenant is not None else self.name
        self._lock = threading.RLock()
        self._kernels: dict[str, "Kernel"] = {}
        self.plan_cache = PlanCache()
        self.artifact_cache = KernelArtifactCache()
        #: measured inline loop times the grain gate decides on
        self.loop_costs = LoopCostTable()
        # imported here: repro.op2's package import reaches back to this module
        from repro.op2.intervals import IntervalAlgebra

        self.interval_algebra = IntervalAlgebra()
        self._engine_pool = engine_pool
        self._engines: dict[tuple, "ExecutionEngine"] = {}
        self._arenas: list["SharedMemoryArena"] = []
        self._contexts = _ContextStack()
        self._closed = False
        self._close_done = threading.Event()
        self._closing_thread: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._engines)} engine(s)"
        return f"Session({self.name!r}, {state})"

    # -- default / current -------------------------------------------------------
    @classmethod
    def default(cls) -> "Session":
        """The process-wide default session (the former module globals).

        Always live: closing it (which shuts its warm engines down) makes the
        next call create a fresh default, so the module-level facades can
        never land on a closed session.
        """
        global _default_session
        with _default_lock:
            if _default_session is None or _default_session.closed:
                _default_session = cls(name="default")
            return _default_session

    @classmethod
    def current(cls) -> "Session":
        """The innermost activated session, else :meth:`default`."""
        if _active_sessions.stack:
            return _active_sessions.stack[-1]
        return cls.default()

    @classmethod
    def current_or_none(cls) -> Optional["Session"]:
        """The innermost *explicitly activated* session, else ``None``.

        Contexts use this to decide engine ownership: inside an activated
        session they borrow warm engines from its pool; outside, they own a
        private engine per run, shut down at ``finish()`` -- exactly the
        historical behaviour.
        """
        if _active_sessions.stack:
            return _active_sessions.stack[-1]
        return None

    # -- activation --------------------------------------------------------------
    def activate(self) -> "Session":
        """Make this the current session (until :meth:`deactivate`)."""
        self._check_open()
        _active_sessions.stack.append(self)
        return self

    def deactivate(self) -> None:
        """Undo the innermost :meth:`activate` of this session."""
        stack = _active_sessions.stack
        if not stack or stack[-1] is not self:
            raise RuntimeStateError(
                f"session {self.name!r} is not the innermost active session "
                f"(unbalanced activate/deactivate)"
            )
        stack.pop()

    @contextlib.contextmanager
    def use(self) -> Iterator["Session"]:
        """Activate for the duration of the ``with`` block, *without* closing."""
        self.activate()
        try:
            yield self
        finally:
            self.deactivate()

    def __enter__(self) -> "Session":
        return self.activate()

    def __exit__(self, *exc_info: object) -> None:
        self.deactivate()
        self.close()

    # -- kernel namespace --------------------------------------------------------
    def register_kernel(self, kern: "Kernel") -> None:
        """Bind ``kern`` under its name in this session (last declaration wins)."""
        with self._lock:
            self._kernels[kern.name] = kern

    def resolve_kernel(self, name: str, module: Optional[str] = None) -> "Kernel":
        """Look up a kernel by name; session namespace first, then default.

        When the name is unknown and ``module`` is given, the module is
        imported first: modules register their kernels at import time, which
        is how spawn-started worker processes (whose registry starts empty)
        find the kernels of application modules.
        """
        kern = self._lookup_kernel(name)
        if kern is None and module is not None and module != "__main__":
            import importlib

            importlib.import_module(module)
            kern = self._lookup_kernel(name)
        if kern is None:
            raise OP2Error(
                f"kernel {name!r} is not registered in this process; multiprocess "
                f"execution needs kernels declared at module scope (or before the "
                f"worker pool is created, with the default fork start method)"
            )
        return kern

    def _lookup_kernel(self, name: str) -> Optional["Kernel"]:
        with self._lock:
            kern = self._kernels.get(name)
        if kern is None:
            default = Session.default()
            if default is not self:
                with default._lock:
                    kern = default._kernels.get(name)
        return kern

    def kernel_names(self) -> list[str]:
        """Names registered in *this* session's namespace, sorted."""
        with self._lock:
            return sorted(self._kernels)

    def kernel_snapshot(self) -> dict[str, "Kernel"]:
        """A copy of the namespace (tests snapshot before, restore after)."""
        with self._lock:
            return dict(self._kernels)

    def restore_kernels(self, snapshot: dict[str, "Kernel"]) -> None:
        """Reset the namespace to ``snapshot`` (drops later registrations)."""
        with self._lock:
            self._kernels.clear()
            self._kernels.update(snapshot)

    # -- active-context stack ------------------------------------------------------
    def push_context(self, context: Any) -> None:
        """Install ``context`` as the innermost active context (this thread)."""
        self._contexts.stack.append(context)

    def pop_context(self, context: Any) -> None:
        """Remove ``context``; raises if it is not the innermost one."""
        from repro.errors import OP2BackendError

        if not self._contexts.stack or self._contexts.stack[-1] is not context:
            raise OP2BackendError(
                "execution context stack corrupted (unbalanced push/pop)"
            )
        self._contexts.stack.pop()

    def active_context(self) -> Optional[Any]:
        """The innermost active context of this session (this thread)."""
        if self._contexts.stack:
            return self._contexts.stack[-1]
        return None

    # -- kernel artifacts ----------------------------------------------------------
    def kernel_artifact(self, key: tuple, builder: Any) -> Any:
        """The compiled artifact for ``key``, building it on first use.

        ``builder`` runs *outside* the cache lock -- compiling a slab can take
        long enough (numba JIT) that holding the lock would serialise every
        concurrent loop chain -- and the first finished build wins, so two
        racing builders converge on one artifact.  Lowering errors propagate
        to the caller, which decides the fallback policy.
        """
        self._check_open()
        artifact = self.artifact_cache.lookup(key)
        if artifact is not None:
            return artifact
        return self.artifact_cache.store(key, builder())

    def artifact_cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the kernel-artifact cache."""
        return self.artifact_cache.stats()

    # -- shared-memory arenas ------------------------------------------------------
    def track_arena(self, arena: "SharedMemoryArena") -> None:
        """Register ``arena`` for release at :meth:`close`."""
        with self._lock:
            self._check_open()
            self._arenas.append(arena)

    # -- warm engine pool ----------------------------------------------------------
    @staticmethod
    def _engine_key(config: "RunConfig") -> tuple:
        # Only the fields the engine factories consume: two configs differing
        # in, say, chunking policy still share one warm pool.
        return (config.engine, config.num_threads, config.prefer_vectorized)

    def engine(self, config: "RunConfig") -> "ExecutionEngine":
        """A live engine for ``config``, from the pool when one is warm.

        The first request for an ``(engine, num_threads, prefer_vectorized)``
        combination instantiates the engine through the registry; later
        requests return the same live object, so consecutive loop chains skip
        thread/process spin-up.  Engines stay up until :meth:`close` -- loop
        chains must *drain* (``wait_all``) between runs, never ``shutdown``.

        With a shared ``engine_pool`` the entry is an
        :class:`~repro.service.EngineLease` instead: the underlying engine is
        shared with other tenant sessions (draining and failure stay scoped
        to this session's lease) and outlives :meth:`close`.
        """
        from repro.engines.registry import make_engine

        key = self._engine_key(config)
        with self._lock:
            self._check_open()
            engine = self._engines.get(key)
            if engine is not None and not engine.is_shutdown:
                return engine
            if self._engine_pool is not None:
                # Lease from the shared pool: the pool owns the engine (and
                # its arena); the lease is what close() "shuts down", which
                # merely releases it back to the pool.
                engine = self._engine_pool.lease(config, tenant=self.tenant)
                self._engines[key] = engine
                return engine
            engine = make_engine(config)
            self._engines[key] = engine
            # Engines without a shared address space hold their dats in a
            # shared-memory arena; own it so close() releases the segments
            # even if the engine is never shut down cleanly.
            arena = getattr(engine, "arena", None)
            if arena is not None:
                self._arenas.append(arena)
            return engine

    def live_engines(self) -> list["ExecutionEngine"]:
        """Every pooled engine that has not been shut down."""
        with self._lock:
            return [e for e in self._engines.values() if not e.is_shutdown]

    # -- diagnostics -----------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of the session's runtime state.

        Reports the plan-cache, kernel-artifact-cache and interval-algebra
        (``interval_cache``: hits, misses, memo entries, interned sets and
        their bytes) counters, the number of loop shapes with a measured
        inline cost (``loop_costs``), the pool keys of live engines (``[engine,
        num_threads, prefer_vectorized]`` triples) and the number of tracked
        shared-memory arenas -- what the service runtime surfaces per tenant, and what
        :meth:`~repro.core.pipeline.LoopPipeline.build_report` embeds under
        ``details["session"]``.
        """
        with self._lock:
            engine_keys = sorted(
                key for key, engine in self._engines.items() if not engine.is_shutdown
            )
            arena_count = len(self._arenas)
            closed = self._closed
        return {
            "name": self.name,
            "closed": closed,
            "plan_cache": self.plan_cache.stats(),
            "artifact_cache": self.artifact_cache.stats(),
            "interval_cache": self.interval_algebra.stats(),
            "loop_costs": len(self.loop_costs),
            "engines": [list(key) for key in engine_keys],
            "arenas": arena_count,
        }

    # -- lifecycle -----------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeStateError(f"session {self.name!r} has been closed")

    def close(self) -> None:
        """Shut every pooled engine down and release every tracked arena.

        Draining shutdowns run first (``shutdown(wait=True)``), so in-flight
        chunks complete and shared-memory dats are copied back to private
        arrays before their segments are unlinked.  Leased engines are
        *released* to their shared pool instead of shut down (their
        ``shutdown`` is the release).  Idempotent and safe from any thread:
        a concurrent second ``close()`` blocks until the first finished the
        teardown -- instead of returning while engines are still being torn
        down -- and a *reentrant* call from within the closing thread (an
        engine failure callback, say) returns immediately.  The first engine
        failure is re-raised after *all* engines and arenas have been torn
        down, from the closing thread only.
        """
        engines: Optional[list["ExecutionEngine"]] = None
        with self._lock:
            if self._closed:
                closing_elsewhere = self._closing_thread != threading.get_ident()
            else:
                self._closed = True
                self._closing_thread = threading.get_ident()
                engines = list(self._engines.values())
                self._engines.clear()
                arenas = list(self._arenas)
                self._arenas.clear()
                self.artifact_cache.clear()
                self.interval_algebra.clear()
        if engines is None:  # someone closed (or is closing) already
            if closing_elsewhere:
                self._close_done.wait()
            return
        first_failure: Optional[BaseException] = None
        try:
            for engine in engines:
                try:
                    if not engine.is_shutdown:
                        engine.shutdown(wait=True)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_failure is None:
                        first_failure = exc
            for arena in arenas:
                # Idempotent: engine shutdown released its own arena already.
                arena.release()
        finally:
            self._close_done.set()
        if first_failure is not None:
            raise first_failure


class _ContextStack(threading.local):
    """Per-session, thread-local stack of active execution contexts."""

    def __init__(self) -> None:
        self.stack: list[Any] = []
