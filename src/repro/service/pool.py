"""A process-wide shared warm engine pool, leased by tenant sessions.

Historically each :class:`~repro.session.Session` pooled its own engines:
warm reuse worked *within* a session, but N tenant sessions meant N thread
pools for the same ``(engine, num_threads, prefer_vectorized)`` key -- N
times the workers, no sharing of spin-up cost, and the OS scheduler (not the
runtime) deciding how tenants interleave.  :class:`SharedEnginePool` lifts
the keyed cache one level up: sessions *lease* engines from a lock-guarded
pool shared across sessions, so all tenants of a configuration run on one
warm worker pool, interleaved at chunk granularity by the pool's
:class:`~repro.runtime.policies.WeightedRoundRobin` ready queue.

The object a lease hands back, :class:`EngineLease`, speaks the full
:class:`~repro.engines.base.ExecutionEngine` protocol so sessions, pipelines
and contexts use it unchanged -- but it scopes every operation to the
tenant's own *task group* on the shared engine:

* ``submit`` tags tasks with the lease (whose ``tenant``
  attribute keys the fair ready queue),
* ``wait_all`` drains only the tenant's group -- a small tenant's barrier
  never waits on a long chain another tenant has in flight,
* a task failure poisons only the tenant's group, and
* ``shutdown`` *releases* the lease back to the pool (refcounted) -- the
  engine stays warm for other tenants, and ``Session.close()`` needs no
  special casing.

Engines are torn down only at :meth:`SharedEnginePool.close` (typically via
the owning :class:`~repro.service.ServiceRuntime`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Optional

from repro.errors import ServiceClosedError
from repro.runtime.policies import WeightedRoundRobin

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import EngineCapabilities, ExecutionEngine, RunConfig

__all__ = ["EngineLease", "SharedEnginePool"]


class EngineLease:
    """A tenant-scoped view of a shared engine (ExecutionEngine protocol).

    Created by :meth:`SharedEnginePool.lease`; the lease object itself is the
    *task group* its submissions are tagged with on group-capable engines:
    every built-in deferred one (:class:`~repro.runtime.pool_executor.PoolExecutor`,
    and :class:`~repro.runtime.process_pool.ProcessChunkEngine` through its
    gate pool).  An engine without ``wait_group`` (the simulator, which holds
    no task, or a third-party engine) is delegated to directly, so its
    drains and cancels reach every tenant on it.
    """

    def __init__(
        self,
        pool: "SharedEnginePool",
        key: tuple,
        engine: "ExecutionEngine",
        tenant: Optional[Hashable],
    ) -> None:
        self._pool = pool
        self._key = key
        self._engine = engine
        #: scheduling key of the fair ready queue (read via getattr by the
        #: executor when tasks of this group become ready)
        self.tenant = tenant
        self._released = False
        self._grouped = hasattr(engine, "wait_group")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "live"
        return f"EngineLease(tenant={self.tenant!r}, key={self._key!r}, {state})"

    # -- delegating views ---------------------------------------------------------
    @property
    def engine(self) -> "ExecutionEngine":
        """The underlying shared engine (shared with other tenants)."""
        return self._engine

    @property
    def key(self) -> tuple:
        """The pool key this lease was taken under."""
        return self._key

    @property
    def capabilities(self) -> "EngineCapabilities":
        return self._engine.capabilities

    @property
    def num_workers(self) -> int:
        return self._engine.num_workers

    @property
    def arena(self) -> Optional[Any]:
        return getattr(self._engine, "arena", None)

    @property
    def trace_events(self) -> Optional[list]:
        return getattr(self._engine, "trace_events", None)

    @property
    def is_shutdown(self) -> bool:
        """True once released to the pool (or the shared engine went down)."""
        return self._released or self._engine.is_shutdown

    # -- submission (group-tagged) --------------------------------------------------
    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        if self._grouped:
            return self._engine.submit(fn, deps=deps, on_skip=on_skip, group=self)
        return self._engine.submit(fn, deps=deps, on_skip=on_skip)

    # -- synchronisation (group-scoped) ---------------------------------------------
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain *this tenant's* tasks (other tenants keep running)."""
        if self._grouped:
            self._engine.wait_group(self, timeout)
        else:
            self._engine.wait_all(timeout)

    def cancel_pending(self) -> None:
        """Poison *this tenant's* unstarted tasks (other tenants unaffected)."""
        if self._grouped:
            self._engine.cancel_group(self)
        else:
            self._engine.cancel_pending()

    def shutdown(self, wait: bool = True) -> None:
        """Release the lease back to the pool; the engine stays warm.

        This is what ``Session.close()`` calls on its pooled "engines" -- for
        a lease it drains the tenant's group (``wait=True``) and decrements
        the pool refcount instead of stopping the shared workers.
        """
        self._pool.release(self, drain=wait)


class SharedEnginePool:
    """Lock-guarded, refcounted cache of live engines shared across sessions.

    Parameters
    ----------
    tenant_weights:
        Mutable mapping of tenant -> weighted-round-robin share, installed
        *live* into every engine's fair ready queue: mutating it (e.g. via
        :meth:`ServiceRuntime.set_tenant_weight`) retunes scheduling of
        engines already running.
    default_weight:
        Share of tenants absent from ``tenant_weights``.
    """

    def __init__(
        self,
        *,
        tenant_weights: Optional[dict[Hashable, int]] = None,
        default_weight: int = 1,
    ) -> None:
        self._lock = threading.Lock()
        self._engines: dict[tuple, "ExecutionEngine"] = {}
        self._refcounts: dict[tuple, int] = {}
        self._arenas: list[Any] = []
        self._closed = False
        #: live WRR weights, shared by reference with every engine's queue
        self.tenant_weights: dict[Hashable, int] = (
            tenant_weights if tenant_weights is not None else {}
        )
        self._default_weight = default_weight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._engines)} engine(s)"
        return f"SharedEnginePool({state})"

    @staticmethod
    def _key(config: "RunConfig") -> tuple:
        from repro.session import Session

        return Session._engine_key(config)

    # -- leasing -------------------------------------------------------------------
    def lease(
        self, config: "RunConfig", *, tenant: Optional[Hashable] = None
    ) -> EngineLease:
        """A lease on the (possibly already warm) engine for ``config``.

        The first lease of a key instantiates the engine through the registry
        and installs the fair ready queue; later leases -- from any session --
        share the live engine.  Refcounts only track accounting: an engine
        whose leases are all released stays *warm* until :meth:`close`.
        """
        from repro.engines.registry import make_engine

        key = self._key(config)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("shared engine pool has been closed")
            engine = self._engines.get(key)
            if engine is None or engine.is_shutdown:
                engine = make_engine(config)
                if hasattr(engine, "set_ready_policy"):
                    engine.set_ready_policy(
                        WeightedRoundRobin(
                            self.tenant_weights, default_weight=self._default_weight
                        )
                    )
                self._engines[key] = engine
                arena = getattr(engine, "arena", None)
                if arena is not None:
                    self._arenas.append(arena)
            self._refcounts[key] = self._refcounts.get(key, 0) + 1
            return EngineLease(self, key, engine, tenant)

    def release(self, lease: EngineLease, *, drain: bool = True) -> None:
        """Return ``lease`` to the pool (idempotent per lease).

        With ``drain=True`` the tenant's outstanding tasks are drained first
        (re-raising the group's failure, exactly like an owned engine's
        draining shutdown would).  The engine itself stays warm.
        """
        with self._lock:
            if lease._released:
                return
            lease._released = True
            count = self._refcounts.get(lease.key, 0)
            if count > 0:
                self._refcounts[lease.key] = count - 1
        if drain and not lease.engine.is_shutdown:
            if hasattr(lease.engine, "wait_group"):
                lease.engine.wait_group(lease)
            else:
                lease.engine.wait_all()

    # -- lifecycle / diagnostics -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def live_keys(self) -> list[tuple]:
        """Keys of engines currently warm in the pool."""
        with self._lock:
            return sorted(
                key for key, engine in self._engines.items() if not engine.is_shutdown
            )

    def stats(self) -> dict[str, Any]:
        """JSON-friendly snapshot: live engine keys, lease refcounts, state."""
        with self._lock:
            return {
                "closed": self._closed,
                "engines": [list(key) for key in sorted(self._engines)],
                "leases": {
                    "/".join(map(str, key)): count
                    for key, count in sorted(self._refcounts.items())
                    if count
                },
                "arenas": len(self._arenas),
            }

    def close(self) -> None:
        """Shut every engine down (draining) and release every arena.

        Idempotent.  The first engine failure is re-raised after *all*
        engines and arenas were torn down, mirroring ``Session.close()``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            engines = list(self._engines.values())
            self._engines.clear()
            self._refcounts.clear()
            arenas = list(self._arenas)
            self._arenas.clear()
        first_failure: Optional[BaseException] = None
        for engine in engines:
            try:
                if not engine.is_shutdown:
                    engine.shutdown(wait=True)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_failure is None:
                    first_failure = exc
        for arena in arenas:
            arena.release()
        if first_failure is not None:
            raise first_failure

    def __enter__(self) -> "SharedEnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
