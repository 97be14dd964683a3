"""The multi-tenant serving front-end: asyncio/sync submission over one pool.

:class:`ServiceRuntime` is the top of the service stack::

    submit / submit_sync            (asyncio + thread-safe entry points)
        -> AdmissionController      (bounded queue, per-tenant caps)
        -> FIFO request queue, drained by dispatcher threads
        -> interpreter turns        (one inline request runs at a time)
        -> per-tenant Session       (kernel namespace, plan cache)
        -> SharedEnginePool         (one warm engine per config, all tenants)
        -> fair chunk interleaving  (WRR ready queue in the engine)

A *request* is a callable running a loop chain; the runtime executes it
inside an ``hpx_context`` bound to the tenant's session, whose engines are
leases on the shared pool.  Inline requests (the common case) take
*interpreter turns* (:mod:`repro.runtime.turns`): one runs at a time,
yielding between loops to a request expected to finish sooner, and a
finished one hands its turn to its ``submit_sync`` caller.  A request whose
loops defer leaves its turn; the shared engine's weighted-round-robin ready
queue then interleaves its *chunks* with other tenants' -- the paper's
chunked dataflow makes every loop preemptible between chunks.  Tenant
weights act in both places.

Requests of one tenant execute serially, in admission order -- enforced
structurally, not by a lock: at most one request per tenant is ever in the
dispatch queue or running, the rest wait in a per-tenant FIFO backlog and
are promoted one at a time as the previous request finishes.  (A lock would
only guarantee mutual exclusion; ``threading.Lock`` is unfair, so two
dispatchers could run a tenant's requests out of admission order.)  Chains
of one tenant typically share dats, and serial in-order execution keeps
their results deterministic without asking callers to synchronise.
Distinct tenants are in flight concurrently, up to ``dispatchers`` threads.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.engines.base import RunConfig
from repro.errors import ServiceClosedError, ServiceError, ServiceTimeoutError
from repro.runtime import turns
from repro.service.admission import AdmissionController
from repro.service.pool import SharedEnginePool
from repro.session import Session

__all__ = ["ServiceConfig", "ServiceRuntime"]

#: sentinel distinguishing "not passed" from an explicit ``None`` timeout
_UNSET: Any = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`ServiceRuntime`.

    ``engine``/``num_threads``/``prefer_vectorized`` form the default
    :class:`~repro.engines.base.RunConfig` of requests (overridable per
    request); the rest size the front-end: ``dispatchers`` concurrent request
    executors, a queue bounded at ``max_queue_depth``, at most
    ``max_inflight_per_tenant`` admitted requests per tenant, and
    ``admission_timeout`` seconds of blocking before backpressure surfaces
    as :class:`~repro.errors.AdmissionError` (``None`` = wait forever).
    ``tenant_weights`` seeds the live tenant weights, which scale interpreter
    turn keys and the engines' weighted-round-robin chunk shares.
    """

    engine: str = "threads"
    num_threads: int = 4
    prefer_vectorized: bool = True
    dispatchers: int = 2
    max_queue_depth: int = 64
    max_inflight_per_tenant: int = 8
    admission_timeout: Optional[float] = 0.0
    default_weight: int = 1
    tenant_weights: dict[Hashable, int] = field(default_factory=dict)


class _Request:
    __slots__ = ("tenant", "fn", "run_config", "future", "turn")

    def __init__(
        self,
        tenant: Hashable,
        fn: Callable[[], Any],
        run_config: RunConfig,
        turn: turns.Turn,
    ) -> None:
        self.tenant = tenant
        self.fn = fn
        self.run_config = run_config
        self.future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        self.turn = turn


class ServiceRuntime:
    """Serve loop-chain requests from many tenants over one shared warm pool.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig`; defaults apply when omitted.
    pool:
        An existing :class:`~repro.service.SharedEnginePool` to serve from;
        by default the runtime creates (and owns, i.e. closes) its own.

    Usage::

        with ServiceRuntime(ServiceConfig(num_threads=4)) as runtime:
            result = runtime.submit_sync("alice", lambda: run_jacobi(problem))
            # or, from a coroutine:
            result = await runtime.submit("bob", lambda: run_airfoil(mesh))
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        pool: Optional[SharedEnginePool] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if pool is not None:
            self._pool = pool
            self._owns_pool = False
            self._pool.tenant_weights.update(self.config.tenant_weights)
        else:
            self._pool = SharedEnginePool(
                tenant_weights=dict(self.config.tenant_weights),
                default_weight=self.config.default_weight,
            )
            self._owns_pool = True
        self._admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            max_inflight_per_tenant=self.config.max_inflight_per_tenant,
        )
        self._queue_cond = threading.Condition()
        #: admitted requests in admission order (at most one per tenant)
        self._queue: deque[_Request] = deque()
        #: who holds the interpreter; the live weights scale its keys
        self._turns = turns.TurnQueue(
            self._pool.tenant_weights, default_weight=self.config.default_weight
        )
        #: tenants with a request in the dispatch queue or running; their
        #: later requests wait in _tenant_backlog (FIFO, admission order)
        self._tenant_active: set[Hashable] = set()
        self._tenant_backlog: dict[Hashable, deque[_Request]] = {}
        self._sessions: dict[Hashable, Session] = {}
        self._state_lock = threading.Lock()
        #: dispatch() rejects once False; flipped together with _closed
        self._accepting = True
        self._closed = False
        #: True once sessions/pool teardown began (after dispatchers drained)
        self._torn_down = False
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop, name=f"service-dispatch-{i}", daemon=True
            )
            for i in range(max(1, self.config.dispatchers))
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- submission -----------------------------------------------------------------
    @property
    def pool(self) -> SharedEnginePool:
        """The shared engine pool requests execute on."""
        return self._pool

    def _default_run_config(self) -> RunConfig:
        return RunConfig(
            engine=self.config.engine,
            num_threads=self.config.num_threads,
            prefer_vectorized=self.config.prefer_vectorized,
        )

    def dispatch(
        self,
        tenant: Hashable,
        fn: Callable[[], Any],
        *,
        config: Optional[RunConfig] = None,
        admission_timeout: Any = _UNSET,
    ) -> "concurrent.futures.Future[Any]":
        """Admit and enqueue one request; returns its result future.

        Blocks only inside admission control (up to the admission timeout);
        the returned :class:`concurrent.futures.Future` resolves with the
        callable's return value once a dispatcher ran the chain to its drain,
        or with the chain's exception.  Thread-safe.
        """
        return self._admit(tenant, fn, config, admission_timeout).future

    def _admit(
        self,
        tenant: Hashable,
        fn: Callable[[], Any],
        config: Optional[RunConfig],
        admission_timeout: Any,
        *,
        caller_waits: bool = False,
    ) -> _Request:
        if not callable(fn):
            raise ServiceError(f"request of tenant {tenant!r} is not callable: {fn!r}")
        if not self._accepting:
            raise ServiceClosedError("service runtime has been closed")
        timeout = (
            self.config.admission_timeout if admission_timeout is _UNSET else admission_timeout
        )
        self._admission.admit(tenant, timeout=timeout)
        request = _Request(
            tenant,
            fn,
            config if config is not None else self._default_run_config(),
            turns.Turn(self._turns, tenant, caller_waits=caller_waits),
        )
        with self._queue_cond:
            if not self._accepting:
                self._admission.cancel(tenant)
                raise ServiceClosedError("service runtime has been closed")
            if tenant in self._tenant_active:
                # Serial-per-tenant, structurally: the request only enters
                # the dispatch queue once the tenant's previous one finished.
                self._tenant_backlog.setdefault(tenant, deque()).append(request)
            else:
                self._tenant_active.add(tenant)
                self._queue.append(request)
                self._queue_cond.notify()
        return request

    def submit_sync(
        self,
        tenant: Hashable,
        fn: Callable[[], Any],
        *,
        config: Optional[RunConfig] = None,
        timeout: Optional[float] = None,
        admission_timeout: Any = _UNSET,
    ) -> Any:
        """Run one request to completion from any thread; returns its result.

        ``timeout`` bounds the wait for the *result* (admission waits are
        bounded separately) and surfaces as
        :class:`~repro.errors.ServiceTimeoutError`; the request itself keeps
        running and the timed-out caller may not observe its effects.
        The finished request hands this thread its interpreter turn, released
        here once the result is in hand, so no other request runs first.
        """
        request = self._admit(tenant, fn, config, admission_timeout, caller_waits=True)
        try:
            return request.future.result(timeout)
        except concurrent.futures.TimeoutError:
            raise ServiceTimeoutError(
                f"request of tenant {tenant!r} did not complete within {timeout}s"
            ) from None
        finally:
            self._turns.drop_caller(request.turn)

    async def submit(
        self,
        tenant: Hashable,
        fn: Callable[[], Any],
        *,
        config: Optional[RunConfig] = None,
        admission_timeout: Any = _UNSET,
    ) -> Any:
        """Awaitable twin of :meth:`submit_sync` for asyncio front-ends.

        Admission (which may block on backpressure) runs on the event loop's
        default thread-pool executor, so the coroutine never blocks the loop;
        the result future is then awaited directly.
        """
        loop = asyncio.get_running_loop()
        enqueue = functools.partial(
            self.dispatch, tenant, fn, config=config, admission_timeout=admission_timeout
        )
        future = await loop.run_in_executor(None, enqueue)
        return await asyncio.wrap_future(future)

    # -- tenant state ---------------------------------------------------------------
    def set_tenant_weight(self, tenant: Hashable, weight: int) -> None:
        """Retune ``tenant``'s turn keys and chunk share at once (live dict)."""
        if weight < 1:
            raise ServiceError(f"tenant weight must be positive, got {weight}")
        self._pool.tenant_weights[tenant] = int(weight)

    def tenant_session(self, tenant: Hashable) -> Session:
        """The tenant's session (created on first use, leasing from the pool).

        Gated on teardown, not on :meth:`close` itself: a draining close
        still executes queued requests, whose dispatchers need their tenant
        sessions while ``closed`` is already True.
        """
        with self._state_lock:
            if self._torn_down:
                raise ServiceClosedError("service runtime has been closed")
            session = self._sessions.get(tenant)
            if session is None or session.closed:
                session = Session(name=str(tenant), engine_pool=self._pool, tenant=tenant)
                self._sessions[tenant] = session
            return session

    def stats(self) -> dict[str, Any]:
        """JSON-friendly snapshot: admission, queue, turn, pool, tenant stats."""
        with self._state_lock:
            sessions = dict(self._sessions)
        with self._queue_cond:
            queued = Counter(request.tenant for request in self._queue)
            for tenant, backlog in self._tenant_backlog.items():
                queued[tenant] += len(backlog)
        return {
            "closed": self._closed,
            "admission": self._admission.snapshot(),
            "queued_by_tenant": {str(key): count for key, count in queued.items() if count},
            "turns": self._turns.stats(),
            "pool": self._pool.stats(),
            "tenants": {str(key): session.stats() for key, session in sessions.items()},
        }

    # -- dispatcher loop --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if not self._queue:
                    return  # closed and drained
                request = self._queue.popleft()
            self._admission.start(request.tenant)
            try:
                result = self._run_request(request)
            except BaseException as exc:  # noqa: BLE001 - routed to the future
                request.future.set_exception(exc)
            else:
                request.future.set_result(result)
            finally:
                self._admission.finish(request.tenant)
                self._promote_next(request.tenant)

    def _promote_next(self, tenant: Hashable) -> None:
        """A tenant's request finished: make its next backlogged one ready."""
        with self._queue_cond:
            backlog = self._tenant_backlog.get(tenant)
            if backlog:
                nxt = backlog.popleft()
                if not backlog:
                    del self._tenant_backlog[tenant]
                self._queue.append(nxt)
                self._queue_cond.notify()
            else:
                self._tenant_active.discard(tenant)

    def _run_request(self, request: _Request) -> Any:
        from repro.core.executor import hpx_context

        # No per-tenant lock: the backlog already guarantees at most one
        # request per tenant reaches a dispatcher at a time, in admission
        # order.  Entering the context activates the tenant session (kernels
        # and plans resolve against it) and leases its engines from the
        # shared pool; exiting drains the tenant's task group.  The request
        # runs in its interpreter turn: its pipelines read it from
        # ``turns.current`` and yield or leave it between loops.
        session = self.tenant_session(request.tenant)
        turn = request.turn
        self._turns.start(turn)
        turns.current.turn = turn
        try:
            with hpx_context(config=request.run_config, session=session):
                return request.fn()
        finally:
            turns.current.turn = None
            self._turns.finish(turn)

    # -- lifecycle -------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, drain: bool = True) -> None:
        """Stop the runtime; idempotent, callable from any thread.

        With ``drain=True`` queued requests still execute before the
        dispatchers exit; with ``drain=False`` they fail with
        :class:`~repro.errors.ServiceClosedError` immediately.  Tenant
        sessions are closed (releasing their leases) and -- when the runtime
        owns it -- the shared pool is shut down last.
        """
        with self._queue_cond:
            already = self._closed
            self._closed = True
            self._accepting = False
            abandoned: list[_Request] = []
            if not drain:
                abandoned.extend(self._queue)
                self._queue.clear()
                for backlog in self._tenant_backlog.values():
                    abandoned.extend(backlog)
                self._tenant_backlog.clear()
            self._queue_cond.notify_all()
        for request in abandoned:
            self._admission.cancel(request.tenant)
            request.future.set_exception(
                ServiceClosedError("service runtime closed before the request ran")
            )
        for thread in self._dispatchers:
            if thread is not threading.current_thread():
                thread.join()
        if already:
            return
        with self._state_lock:
            self._torn_down = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        first_failure: Optional[BaseException] = None
        for session in sessions:
            try:
                session.close()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_failure is None:
                    first_failure = exc
        if self._owns_pool:
            try:
                self._pool.close()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure

    def __enter__(self) -> "ServiceRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
