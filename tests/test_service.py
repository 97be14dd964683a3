"""The multi-tenant service layer: shared pool, admission, turns, parity.

Six groups:

* **SharedEnginePool / EngineLease** -- sessions lease one warm engine per
  config key; releases are refcounted and keep the engine warm; close tears
  everything down.
* **AdmissionController** -- bounded queue depth and per-tenant in-flight
  caps surface as typed :class:`~repro.errors.AdmissionError`.
* **ServiceRuntime** -- sync and asyncio submission, typed close semantics,
  stats; the no-starvation smoke (a long chain in flight cannot block small
  tenants, the CI fairness leg).
* **Parity** -- concurrent tenant sessions sharing one warm pool produce
  results bit-identical to serial (the acceptance criterion).
* **Cross-tenant failure** -- on every built-in deferred engine a tenant's
  kernel failure reaches that tenant only.
* **Interpreter turns** -- the turn queue's order, yields, hand-backs and
  stall valve, alone and under a running service.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.core import grain
from repro.engines.base import RunConfig
from repro.errors import (
    AdmissionError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.op2 import OP_ID, OP_INC, OP_READ, Kernel, op_arg_dat, op_par_loop
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.runtime.turns import Turn, TurnQueue
from repro.service import (
    AdmissionController,
    EngineLease,
    ServiceConfig,
    ServiceRuntime,
    SharedEnginePool,
)
from repro.session import Session


def _jacobi(num_nodes=80, iterations=3):
    return run_jacobi(build_ring_problem(num_nodes), iterations=iterations)


def _serial_jacobi(num_nodes=80, iterations=3):
    with active_context(serial_context()):
        return _jacobi(num_nodes, iterations)


THREADS2 = RunConfig(engine="threads", num_threads=2)


# ---------------------------------------------------------------------------
# SharedEnginePool / EngineLease
# ---------------------------------------------------------------------------
class TestSharedEnginePool:
    def test_leases_share_one_live_engine(self):
        with SharedEnginePool() as pool:
            lease_a = pool.lease(THREADS2, tenant="a")
            lease_b = pool.lease(THREADS2, tenant="b")
            assert lease_a.engine is lease_b.engine
            assert pool.stats()["leases"] == {"threads/2/True": 2}

    def test_release_keeps_engine_warm(self):
        with SharedEnginePool() as pool:
            lease = pool.lease(THREADS2, tenant="a")
            engine = lease.engine
            lease.shutdown()  # what Session.close() calls
            assert lease.is_shutdown
            assert not engine.is_shutdown  # still warm in the pool
            again = pool.lease(THREADS2, tenant="a")
            assert again.engine is engine

    def test_release_is_idempotent(self):
        with SharedEnginePool() as pool:
            lease = pool.lease(THREADS2, tenant="a")
            lease.shutdown()
            lease.shutdown()
            assert pool.stats()["leases"] == {}

    def test_distinct_configs_distinct_engines(self):
        with SharedEnginePool() as pool:
            one = pool.lease(RunConfig(engine="threads", num_threads=2))
            two = pool.lease(RunConfig(engine="threads", num_threads=3))
            assert one.engine is not two.engine
            assert pool.live_keys() == [("threads", 2, True), ("threads", 3, True)]

    def test_close_shuts_engines_and_rejects_leases(self):
        pool = SharedEnginePool()
        lease = pool.lease(THREADS2, tenant="a")
        engine = lease.engine
        pool.close()
        assert engine.is_shutdown
        with pytest.raises(ServiceClosedError):
            pool.lease(THREADS2, tenant="a")
        pool.close()  # idempotent

    def test_lease_scopes_wait_and_failure_to_tenant(self):
        with SharedEnginePool() as pool:
            lease_a = pool.lease(THREADS2, tenant="a")
            lease_b = pool.lease(THREADS2, tenant="b")

            def boom():
                raise ValueError("tenant a failed")

            lease_a.submit(boom)
            lease_b.submit(lambda: None)
            with pytest.raises(ValueError, match="tenant a failed"):
                lease_a.wait_all()
            lease_b.wait_all()  # unaffected by a's failure

    def test_session_with_engine_pool_leases(self):
        with SharedEnginePool() as pool:
            session = Session(name="tenant-x", engine_pool=pool)
            engine = session.engine(THREADS2)
            assert isinstance(engine, EngineLease)
            assert engine.tenant == "tenant-x"
            assert session.engine(THREADS2) is engine  # cached per session
            underlying = engine.engine
            session.close()  # releases the lease...
            assert engine.is_shutdown
            assert not underlying.is_shutdown  # ...the engine stays warm


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_queue_depth_bound(self):
        control = AdmissionController(max_queue_depth=2, max_inflight_per_tenant=8)
        control.admit("a")
        control.admit("b")
        with pytest.raises(AdmissionError, match="queue is full"):
            control.admit("c", timeout=0.0)
        control.start("a")  # leaves the queue
        control.admit("c", timeout=0.0)

    def test_per_tenant_inflight_cap(self):
        control = AdmissionController(max_queue_depth=16, max_inflight_per_tenant=2)
        control.admit("a")
        control.admit("a")
        with pytest.raises(AdmissionError, match="in-flight cap"):
            control.admit("a", timeout=0.0)
        control.admit("b", timeout=0.0)  # other tenants unaffected
        control.start("a")
        control.finish("a")  # one of a's requests completed
        control.admit("a", timeout=0.0)

    def test_blocking_admit_clears_on_finish(self):
        control = AdmissionController(max_queue_depth=16, max_inflight_per_tenant=1)
        control.admit("a")
        admitted = threading.Event()

        def blocked_admit():
            control.admit("a", timeout=5.0)
            admitted.set()

        thread = threading.Thread(target=blocked_admit)
        thread.start()
        assert not admitted.wait(0.1)
        control.start("a")
        control.finish("a")
        assert admitted.wait(5.0)
        thread.join(5.0)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ServiceError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ServiceError):
            AdmissionController(max_inflight_per_tenant=0)

    def test_snapshot(self):
        control = AdmissionController(max_queue_depth=4, max_inflight_per_tenant=2)
        control.admit("a")
        snap = control.snapshot()
        assert snap["queued"] == 1
        assert snap["inflight"] == {"a": 1}

    def test_double_finish_raises_instead_of_underflowing(self):
        """A second finish must fail loudly: silently decrementing below zero
        would let the tenant exceed its in-flight cap on later admits."""
        control = AdmissionController(max_queue_depth=4, max_inflight_per_tenant=2)
        control.admit("a")
        control.start("a")
        control.finish("a")
        with pytest.raises(ServiceError, match="without a matching admit"):
            control.finish("a")
        snap = control.snapshot()
        assert snap["queued"] == 0
        assert snap["inflight"] == {}

    def test_cancel_after_start_raises(self):
        """cancel undoes an *un-started* admit; after start the request left
        the queue, so cancelling would drive the queue counter negative."""
        control = AdmissionController(max_queue_depth=4, max_inflight_per_tenant=2)
        control.admit("a")
        control.start("a")
        with pytest.raises(ServiceError, match="without a matching un-started admit"):
            control.cancel("a")
        # The bad cancel left both counters consistent: finish still works.
        control.finish("a")
        snap = control.snapshot()
        assert snap["queued"] == 0
        assert snap["inflight"] == {}

    def test_double_cancel_raises(self):
        control = AdmissionController(max_queue_depth=4, max_inflight_per_tenant=2)
        control.admit("a")
        control.cancel("a")
        with pytest.raises(ServiceError, match="without a matching un-started admit"):
            control.cancel("a")
        assert control.snapshot()["queued"] == 0


# ---------------------------------------------------------------------------
# ServiceRuntime
# ---------------------------------------------------------------------------
class TestServiceRuntime:
    def test_submit_sync_returns_chain_result(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            result = runtime.submit_sync("alice", _jacobi)
            reference = _serial_jacobi()
            assert np.array_equal(result.u, reference.u)
            assert result.u_max_history == reference.u_max_history

    def test_sharded_service_serves_a_request_equal_to_serial(self):
        # ``sharded`` leases like ``processes``: same arena, pinned chunks.
        config = ServiceConfig(engine="sharded", num_threads=2, dispatchers=1)
        with ServiceRuntime(config) as runtime:
            result = runtime.submit_sync("alice", _jacobi, timeout=60.0)
        reference = _serial_jacobi()
        assert np.array_equal(result.u, reference.u)
        assert result.u_max_history == reference.u_max_history

    def test_request_exception_propagates(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1)) as runtime:

            def bad():
                raise ValueError("chain blew up")

            with pytest.raises(ValueError, match="chain blew up"):
                runtime.submit_sync("alice", bad)
            # the runtime (and the tenant's lease) survives a failed request
            result = runtime.submit_sync("alice", _jacobi)
            assert np.array_equal(result.u, _serial_jacobi().u)

    def test_async_submit(self):
        async def drive(runtime):
            return await asyncio.gather(
                runtime.submit("alice", _jacobi),
                runtime.submit("bob", _jacobi),
            )

        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            results = asyncio.run(drive(runtime))
        reference = _serial_jacobi()
        for result in results:
            assert np.array_equal(result.u, reference.u)

    def test_admission_backpressure_is_typed(self):
        config = ServiceConfig(
            num_threads=2, dispatchers=1, max_inflight_per_tenant=1, admission_timeout=0.0
        )
        with ServiceRuntime(config) as runtime:
            gate = threading.Event()
            future = runtime.dispatch("alice", lambda: gate.wait(5.0))
            with pytest.raises(AdmissionError):
                runtime.dispatch("alice", _jacobi)
            gate.set()
            future.result(10.0)

    def test_submit_after_close_raises(self):
        runtime = ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1))
        runtime.close()
        with pytest.raises(ServiceClosedError):
            runtime.submit_sync("alice", _jacobi)

    def test_close_without_drain_fails_queued_requests(self):
        runtime = ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1))
        gate = threading.Event()
        running = threading.Event()

        def hold():
            running.set()
            gate.wait(5.0)

        first = runtime.dispatch("alice", hold)
        assert running.wait(5.0)
        queued = runtime.dispatch("bob", _jacobi)
        closer = threading.Thread(target=lambda: runtime.close(drain=False))
        closer.start()
        gate.set()
        closer.join(10.0)
        first.result(5.0)
        with pytest.raises(ServiceClosedError):
            queued.result(5.0)

    def test_close_with_drain_executes_queued_requests(self):
        """A draining close (the default, what ``__exit__`` does) runs queued
        requests to completion instead of failing them with
        ServiceClosedError (the dispatchers still need tenant sessions)."""
        runtime = ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1))
        gate = threading.Event()
        running = threading.Event()

        def hold():
            running.set()
            gate.wait(5.0)

        first = runtime.dispatch("alice", hold)
        assert running.wait(5.0)
        queued = runtime.dispatch("bob", _jacobi)  # waits behind hold()
        closer = threading.Thread(target=runtime.close)  # drain=True
        closer.start()
        gate.set()
        closer.join(30.0)
        assert not closer.is_alive()
        first.result(5.0)
        assert np.array_equal(queued.result(5.0).u, _serial_jacobi().u)
        with pytest.raises(ServiceClosedError):
            runtime.submit_sync("carol", _jacobi)

    def test_same_tenant_requests_run_serially_in_admission_order(self):
        """With several dispatchers, one tenant's requests must still execute
        one at a time in the order they were admitted (structural FIFO, not
        an unfair lock)."""
        config = ServiceConfig(num_threads=2, dispatchers=4, admission_timeout=None)
        with ServiceRuntime(config) as runtime:
            order: list[int] = []
            gate = threading.Event()

            def make(i):
                def run():
                    if i == 0:
                        # hold the first request so the rest pile up behind it
                        gate.wait(10.0)
                    order.append(i)

                return run

            futures = [runtime.dispatch("alice", make(i)) for i in range(6)]
            gate.set()
            for future in futures:
                future.result(30.0)
            assert order == list(range(6))

    def test_non_string_tenant_keys_lease_and_weights_consistently(self):
        """The raw tenant object keys both fairness levels: the lease's
        scheduling key equals the request-queue/weights key, so
        set_tenant_weight retunes chunk scheduling for non-string tenants."""
        tenant = ("team", 7)
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1)) as runtime:
            runtime.set_tenant_weight(tenant, 3)
            runtime.submit_sync(tenant, _jacobi)
            session = runtime.tenant_session(tenant)
            lease = session.engine(RunConfig(engine="threads", num_threads=2))
            assert lease.tenant == tenant
            assert runtime.pool.tenant_weights[lease.tenant] == 3

    def test_result_timeout_is_typed(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1)) as runtime:
            gate = threading.Event()
            try:
                with pytest.raises(ServiceTimeoutError):
                    runtime.submit_sync("alice", lambda: gate.wait(5.0), timeout=0.05)
            finally:
                gate.set()

    def test_stats_shape(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            runtime.submit_sync("alice", _jacobi)
            stats = runtime.stats()
            assert stats["closed"] is False
            assert "alice" in stats["tenants"]
            assert stats["pool"]["engines"] == [["threads", 2, True]]
            assert stats["admission"]["queued"] == 0
            # alice's first request started outside the turn (no history),
            # and its first loop deferred: no turn was ever granted
            assert stats["turns"] == {
                "grants": 0, "yields": 0, "suspends": 0, "bypasses": 0, "hand_backs": 0,
            }
            # the second starts in its turn, and leaves it as its loops defer
            runtime.submit_sync("alice", _jacobi)
            assert runtime.stats()["turns"]["grants"] == 1
            assert runtime.stats()["turns"]["hand_backs"] == 0

    def test_tenant_weight_validation(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1)) as runtime:
            runtime.set_tenant_weight("alice", 3)
            assert runtime.pool.tenant_weights["alice"] == 3
            with pytest.raises(ServiceError):
                runtime.set_tenant_weight("alice", 0)

    def test_long_chain_does_not_starve_small_tenants(self):
        """The CI fairness smoke: while a heavy tenant keeps a long chain in
        flight on the shared pool, small tenants' requests still complete."""
        config = ServiceConfig(num_threads=2, dispatchers=2, admission_timeout=None)
        with ServiceRuntime(config) as runtime:
            lights_done = threading.Event()
            heavy_started = threading.Event()

            def heavy_chain():
                problem = build_ring_problem(600)
                heavy_started.set()
                for _ in range(400):  # bounded, but far beyond the lights' needs
                    run_jacobi(problem, iterations=1)
                    if lights_done.is_set():
                        break
                return "heavy-done"

            heavy_future = runtime.dispatch("heavy", heavy_chain)
            assert heavy_started.wait(10.0)
            try:
                # the heavy chain is in flight on the shared engine the whole
                # time these run: completion proves no starvation
                for i in range(3):
                    result = runtime.submit_sync(f"light-{i}", _jacobi, timeout=60.0)
                    assert result.u.size > 0
            finally:
                lights_done.set()
            assert heavy_future.result(60.0) == "heavy-done"


# ---------------------------------------------------------------------------
# Parity: concurrent tenants over one warm pool vs serial
# ---------------------------------------------------------------------------
class TestConcurrentTenantParity:
    def test_two_concurrent_tenants_bit_identical_to_serial(self):
        reference = _serial_jacobi(num_nodes=300, iterations=6)
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            futures = [
                runtime.dispatch(tenant, lambda: _jacobi(num_nodes=300, iterations=6))
                for tenant in ("alice", "bob")
            ]
            results = [future.result(60.0) for future in futures]
            stats = runtime.stats()
        # both tenants ran on ONE shared warm engine...
        assert stats["pool"]["engines"] == [["threads", 2, True]]
        assert set(stats["tenants"]) == {"alice", "bob"}
        # ...and still match serial bit for bit
        for result in results:
            assert np.array_equal(result.u, reference.u)
            assert result.u_max_history == reference.u_max_history

    def test_many_tenants_interleaved_runs_parity(self):
        reference = _serial_jacobi(num_nodes=120, iterations=4)
        config = ServiceConfig(num_threads=2, dispatchers=3, admission_timeout=None)
        with ServiceRuntime(config) as runtime:
            futures = [
                runtime.dispatch(
                    f"tenant-{i % 4}", lambda: _jacobi(num_nodes=120, iterations=4)
                )
                for i in range(12)
            ]
            for future in futures:
                assert np.array_equal(future.result(60.0).u, reference.u)


# ---------------------------------------------------------------------------
# Cross-tenant failure: a kernel failure reaches its own tenant only
# ---------------------------------------------------------------------------
DEFERRED_ENGINES = ("threads", "processes", "sharded")


def _boom(x, u):  # pragma: no cover - may run in a worker process
    raise RuntimeError("boom")


def _boom_vec(_idx, x, u):  # pragma: no cover - may run in a worker process
    raise RuntimeError("boom")


BOOM = Kernel(name="service_boom", elemental=_boom, vectorized=_boom_vec)


class TestCrossTenantFailure:
    @pytest.mark.parametrize("engine", DEFERRED_ENGINES)
    def test_a_lease_scopes_failure_on_every_deferred_engine(self, engine):
        config = RunConfig(engine=engine, num_threads=2)
        with SharedEnginePool() as pool:
            lease_a = pool.lease(config, tenant="a")
            lease_b = pool.lease(config, tenant="b")
            release = threading.Event()
            ran: list[int] = []
            lease_a.submit(lambda: release.wait(10.0))

            def fail():
                raise ValueError("tenant b failed")

            lease_b.submit(fail)
            try:
                with pytest.raises(ValueError, match="tenant b failed"):
                    lease_b.wait_all(timeout=5.0)  # b's own tasks only
                lease_a.submit(lambda: ran.append(1))  # a is not poisoned
            finally:
                release.set()
            lease_a.wait_all(timeout=10.0)
            assert ran == [1]

    @pytest.mark.parametrize("engine", DEFERRED_ENGINES)
    def test_a_kernel_failure_stays_with_its_tenant(self, engine):
        """Tenant ``heavy`` has tasks in flight on the shared engine while
        tenant ``boom``'s kernel raises: ``boom``'s request raises, and
        ``heavy``'s result still equals serial."""
        with active_context(serial_context()):
            problem = build_ring_problem(2000, seed=1)
            run_jacobi(problem, iterations=1)
            reference = run_jacobi(problem, iterations=3)
        config = ServiceConfig(engine=engine, num_threads=2, dispatchers=2)
        boom_failed = threading.Event()
        heavy_in_flight = threading.Event()

        def heavy():
            problem = build_ring_problem(2000, seed=1)
            run_jacobi(problem, iterations=1)
            # keep a task of this tenant pending until boom has failed
            lease = Session.current().engine(RunConfig(engine=engine, num_threads=2))
            lease.submit(lambda: boom_failed.wait(5.0))
            heavy_in_flight.set()
            return run_jacobi(problem, iterations=3)

        def boom():
            problem = build_ring_problem(300, seed=2)
            run_jacobi(problem, iterations=1)
            op_par_loop(
                BOOM, "service_boom", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
            )
            return run_jacobi(problem, iterations=1)

        with ServiceRuntime(config) as runtime:
            heavy_future = runtime.dispatch("heavy", heavy)
            try:
                assert heavy_in_flight.wait(30.0)
                with pytest.raises(RuntimeError, match="boom"):
                    runtime.submit_sync("boom", boom, timeout=30.0)
            finally:
                boom_failed.set()
            result = heavy_future.result(30.0)
        assert np.array_equal(result.u, reference.u)
        assert result.u_max_history == reference.u_max_history


# ---------------------------------------------------------------------------
# Interpreter turns
# ---------------------------------------------------------------------------
class TestSharedProcessEngineUnderContention:
    def test_concurrent_tenants_on_one_process_engine_match_serial(self):
        """Four tenants expand loops into chunks on one shared ``processes``
        engine at once, with a 10 us switch interval: each loop registers
        under its own key and ships its own call state."""
        reference = _serial_jacobi(num_nodes=200, iterations=4)
        config = ServiceConfig(
            engine="processes", num_threads=2, dispatchers=4, admission_timeout=None
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceRuntime(config) as runtime:
                futures = [
                    runtime.dispatch(
                        f"tenant-{i % 4}", lambda: _jacobi(num_nodes=200, iterations=4)
                    )
                    for i in range(8)
                ]
                results = [future.result(120.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert np.array_equal(result.u, reference.u)
            assert result.u_max_history == reference.u_max_history


def _give_history(runtime, *tenants):
    """One empty request per tenant: later ones start in their turns."""
    for tenant in tenants:
        runtime.submit_sync(tenant, lambda: None, timeout=10.0)


def _take(queue, turn):
    """Start ``turn``'s request and take its turn, as its first loop the gate
    measured short does."""
    queue.start(turn)
    turn.enter(True)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


class TestInterpreterTurns:
    """Units over a bare :class:`TurnQueue`, then a running service."""

    @pytest.fixture
    def no_stall(self, monkeypatch):
        # the unit tests hold turns across thread hand-offs on purpose
        monkeypatch.setattr(grain, "GRAIN_THRESHOLD_SECONDS", 30.0)

    @staticmethod
    def _start_waiters(queue, tenants, log):
        """One thread per tenant: take a turn, log, finish; started in order,
        each queued before the next starts."""
        threads = []
        for tenant in tenants:
            def run(tenant=tenant):
                turn = Turn(queue, tenant)
                _take(queue, turn)
                log.append(tenant)
                queue.finish(turn)

            before = len(queue.waiters)
            thread = threading.Thread(target=run)
            thread.start()
            _wait_until(lambda: len(queue.waiters) > before)
            threads.append(thread)
        return threads

    def test_grants_go_in_key_order_then_arrival_order(self, no_stall):
        queue = TurnQueue({})
        queue.expected.update({"a": 0.3, "b": 0.1, "c": 0.1, "d": 0.2})
        holder = Turn(queue, "holder")
        _take(queue, holder)
        log: list[str] = []
        threads = self._start_waiters(queue, ["a", "b", "c", "d"], log)
        queue.finish(holder)
        for thread in threads:
            thread.join(10.0)
        assert log == ["b", "c", "d", "a"]
        assert queue.stats()["grants"] == 5

    def test_weights_scale_the_key(self, no_stall):
        queue = TurnQueue({"batch": 100})
        queue.expected.update({"batch": 0.5, "light": 0.01})
        holder = Turn(queue, "holder")
        _take(queue, holder)
        log: list[str] = []
        threads = self._start_waiters(queue, ["light", "batch"], log)
        queue.finish(holder)
        for thread in threads:
            thread.join(10.0)
        assert log == ["batch", "light"]  # 0.5 / 100 < 0.01 / 1

    def test_a_holder_yields_only_to_a_strictly_smaller_key(self, no_stall):
        queue = TurnQueue({})
        queue.expected.update({"light": 0.01, "twin": 0.01, "short": 0.001})
        log: list[str] = []
        held, first, second = threading.Event(), threading.Event(), threading.Event()

        def light():
            turn = Turn(queue, "light")
            _take(queue, turn)
            held.set()
            first.wait(10.0)
            turn.checkpoint()  # "twin" waits with an equal key: no yield
            log.append("light-1")
            second.wait(10.0)
            turn.checkpoint()  # "short" waits: yield, then be granted again
            log.append("light-2")
            queue.finish(turn)

        holder = threading.Thread(target=light)
        holder.start()
        assert held.wait(10.0)
        threads = self._start_waiters(queue, ["twin"], log)
        first.set()
        _wait_until(lambda: log == ["light-1"])
        assert queue.stats()["yields"] == 0
        threads += self._start_waiters(queue, ["short"], log)
        second.set()
        for thread in [holder, *threads]:
            thread.join(10.0)
        # light's remaining (< 0.01) still beats twin's 0.01 when short is done
        assert log == ["light-1", "short", "light-2", "twin"]
        assert queue.stats()["yields"] == 1

    def test_a_tenant_with_no_history(self, no_stall):
        queue = TurnQueue({})
        queue.expected["known"] = 0.5
        known = Turn(queue, "known")
        _take(queue, known)
        log: list[str] = []
        resumed = threading.Event()

        def holder_checkpoint():
            known.checkpoint()  # the newcomer's key is 0: yield to it
            resumed.set()

        threads = self._start_waiters(queue, ["newcomer"], log)
        checker = threading.Thread(target=holder_checkpoint)
        checker.start()
        assert resumed.wait(10.0)
        assert log == ["newcomer"]
        assert queue.stats()["yields"] == 1
        queue.finish(known)
        for thread in [checker, *threads]:
            thread.join(10.0)
        assert set(queue.expected) == {"known", "newcomer"}
        # a holder without history counts what it used as its remaining
        fresh = Turn(queue, "fresh")
        _take(queue, fresh)
        sum(range(10000))
        assert fresh.remaining() > 0.0
        queue.finish(fresh)

    def test_a_handed_back_turn_is_released_by_the_caller(self, no_stall):
        queue = TurnQueue({})
        done = Turn(queue, "a", caller_waits=True)
        _take(queue, done)
        log: list[str] = []
        threads = self._start_waiters(queue, ["b"], log)
        queue.finish(done)
        assert queue.stats()["hand_backs"] == 1
        time.sleep(0.02)
        assert log == []  # the caller still holds the turn
        queue.drop_caller(done)
        for thread in threads:
            thread.join(10.0)
        assert log == ["b"]
        # a caller gone before the request finished: released at once
        gone = Turn(queue, "a", caller_waits=True)
        _take(queue, gone)
        queue.drop_caller(gone)
        queue.finish(gone)
        assert queue.stats()["hand_backs"] == 1
        assert not queue.waiters and queue._holder is None

    def test_a_suspended_holder_lets_a_waiter_run(self, no_stall):
        queue = TurnQueue({})
        queue.expected.update({"heavy": 0.5, "light": 0.001})
        heavy = Turn(queue, "heavy")
        _take(queue, heavy)
        log: list[str] = []
        threads = self._start_waiters(queue, ["light"], log)
        heavy.enter(False)  # a loop of unknown length: the waiter goes first
        for thread in threads:
            thread.join(10.0)
        assert log == ["light"]
        heavy.enter(True)  # the turn is free again: taken back at once
        assert queue._holder is heavy
        queue.finish(heavy)
        assert queue.stats()["suspends"] == 1 and queue.stats()["grants"] == 3

    @pytest.mark.grain_gate
    def test_unmeasured_code_runs_outside_the_turn(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=1)) as runtime:
            # a new tenant starts outside the turn; Jacobi runs each of its
            # two loop shapes three times, and takes the turn at the third
            # run of the first, the first loop the gate has measured short
            runtime.submit_sync("light", _jacobi, timeout=30.0)
            assert runtime.stats()["turns"]["grants"] == 1
            # with history it starts in its turn, suspends it for the first
            # unmeasured loop of a new mesh size, takes it back at the first
            # measured one
            runtime.submit_sync(
                "light", lambda: (_jacobi(), _jacobi(num_nodes=50)), timeout=30.0
            )
            turns = runtime.stats()["turns"]
        assert turns["grants"] == 3 and turns["suspends"] == 1
        assert turns["hand_backs"] == 2 and turns["bypasses"] == 0

    def test_one_holder_at_a_time_under_stress(self, no_stall):
        """Eight threads of distinct tenants take turns, yield at checkpoints
        and suspend around some "loops", with a 10 us switch interval: never
        two holders running at once, and every grant accounted for."""
        queue = TurnQueue({})
        queue.expected.update({f"t{i}": 0.0005 * i for i in range(8)})
        running, peak, lock = [0], [0], threading.Lock()

        def enter():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])

        def leave():
            with lock:
                running[0] -= 1

        def worker(index):
            for i in range(30):
                turn = Turn(queue, f"t{index}")
                _take(queue, turn)
                enter()
                for step in range(3):
                    sum(range(300))
                    leave()
                    if (index + i + step) % 4 == 0:
                        turn.enter(False)
                        sum(range(300))
                        turn.enter(True)
                    else:
                        turn.checkpoint()
                    enter()
                leave()
                queue.finish(turn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] == 1
        stats = queue.stats()
        assert stats["bypasses"] == 0 and stats["yields"] > 0
        assert stats["grants"] == 8 * 30 + stats["yields"] + stats["suspends"]
        assert not queue.waiters and queue._holder is None

    # -- under a running service ---------------------------------------------------
    @pytest.mark.grain_gate
    def test_a_blocked_holder_delays_a_light_request_by_the_stall_bound(self):
        config = ServiceConfig(num_threads=2, dispatchers=2)
        with ServiceRuntime(config) as runtime:
            own = 0.0
            for _ in range(5):  # warm, and time the light request alone
                started = time.perf_counter()
                runtime.submit_sync("light", _jacobi, timeout=30.0)
                own = max(own, time.perf_counter() - started)
            _give_history(runtime, "blocked")  # so it starts in its turn
            gate, running = threading.Event(), threading.Event()

            def blocked():
                running.set()
                return gate.wait(10.0)

            held = runtime.dispatch("blocked", blocked)
            try:
                assert running.wait(10.0)
                started = time.perf_counter()
                runtime.submit_sync("light", _jacobi, timeout=30.0)
                waited = time.perf_counter() - started
            finally:
                gate.set()
            assert held.result(10.0) is True
            # one stall, then every later loop of the light request goes
            # ahead at once: the holder is still silent
            assert runtime.stats()["turns"]["bypasses"] >= 1
        # the bound, with room for the scheduler of a shared box
        assert waited <= grain.GRAIN_THRESHOLD_SECONDS + own + 0.2

    @pytest.mark.grain_gate
    def test_a_request_waiting_on_another_does_not_deadlock(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            _give_history(runtime, "a", "b")  # both start in their turns
            event, running = threading.Event(), threading.Event()

            def waits():
                running.set()
                return event.wait(10.0)

            started = time.perf_counter()
            first = runtime.dispatch("a", waits)
            assert running.wait(10.0)
            runtime.submit_sync("b", event.set, timeout=10.0)
            assert first.result(10.0) is True
            assert time.perf_counter() - started < 5.0
            assert runtime.stats()["turns"]["bypasses"] == 1

    @pytest.mark.grain_gate
    def test_a_submit_sync_timeout_releases_the_turn(self):
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            _give_history(runtime, "a")
            gate = threading.Event()
            try:
                with pytest.raises(ServiceTimeoutError):
                    runtime.submit_sync("a", lambda: gate.wait(10.0), timeout=0.05)
            finally:
                gate.set()
            _wait_until(lambda: not runtime.stats()["admission"]["inflight"])
            runtime.submit_sync("b", _jacobi, timeout=10.0)
            turns = runtime.stats()["turns"]
        # b found the turn free: no stall behind a turn nobody releases; only
        # b's caller was there to take a hand-back
        assert turns["bypasses"] == 0 and turns["hand_backs"] == 1

    def test_a_gate_flip_releases_the_turn(self):
        # the suite's pinned gate defers every loop: the first one flips
        with ServiceRuntime(ServiceConfig(num_threads=2, dispatchers=2)) as runtime:
            _give_history(runtime, "a", "b")  # both start in their turns
            gate, ran = threading.Event(), threading.Event()

            def deferred_then_blocked():
                result = _jacobi()
                ran.set()
                gate.wait(10.0)
                return result

            first = runtime.dispatch("a", deferred_then_blocked)
            try:
                assert ran.wait(30.0)
                result = runtime.submit_sync("b", _jacobi, timeout=30.0)
                assert not first.done()  # b ran while a still blocked
            finally:
                gate.set()
            assert np.array_equal(first.result(30.0).u, result.u)
            assert runtime.stats()["turns"]["bypasses"] == 0

    @pytest.mark.grain_gate
    def test_a_heavy_tenant_progresses_beside_more_clients_than_dispatchers(self):
        """Four closed-loop light clients on three dispatchers: a light
        request is always waiting when another releases, and every one has a
        smaller key than the heavy tenant.  The heavy tenant still finishes
        requests while the clients run: each of its loops waits at most about
        the aging bound for its turn."""
        def heavy_request():
            return run_airfoil(generate_mesh(48, 32), niter=3).q

        with active_context(serial_context()) as reference:
            heavy_request()
        loops = reference.report().details["grain"]["inline_loops"]
        config = ServiceConfig(num_threads=2, dispatchers=3, admission_timeout=None)
        with ServiceRuntime(config) as runtime:
            for _ in range(3):  # history, and loops the gate measured short
                started = time.perf_counter()
                runtime.submit_sync("heavy", heavy_request, timeout=60.0)
                solo = time.perf_counter() - started
            stop, errors = threading.Event(), []
            heavy_done: list[np.ndarray] = []

            def loop(tenant, fn, results):
                try:
                    while not stop.is_set():
                        results.append(runtime.submit_sync(tenant, fn, timeout=60.0))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            light_done: list = []
            clients = [
                threading.Thread(target=loop, args=(f"light-{i}", _jacobi, light_done))
                for i in range(4)
            ]
            heavy = threading.Thread(target=loop, args=("heavy", heavy_request, heavy_done))
            try:
                for thread in clients:
                    thread.start()
                _wait_until(lambda: len(light_done) >= 20)
                started = time.perf_counter()
                heavy.start()
                _wait_until(lambda: len(heavy_done) >= 2 or errors, timeout=60.0)
                elapsed = time.perf_counter() - started
            finally:
                stop.set()
                for thread in [*clients, heavy]:
                    thread.join(60.0)
            turns = runtime.stats()["turns"]
        assert not errors
        assert len(heavy_done) >= 2 and turns["yields"] > 0
        # twice the bound per loop, and room for the scheduler of a shared box
        bound = 2 * (solo + loops * 2 * grain.GRAIN_THRESHOLD_SECONDS)
        assert elapsed <= bound + 1.0

    @pytest.mark.grain_gate
    def test_two_clients_and_a_heavy_tenant_match_serial(self):
        with active_context(serial_context()):
            light_reference = _jacobi(300, 5).u
            heavy_reference = run_airfoil(generate_mesh(48, 32), niter=3).q
        config = ServiceConfig(num_threads=2, dispatchers=3, admission_timeout=None)
        with ServiceRuntime(config) as runtime:
            stop = threading.Event()
            heavy_results: list[np.ndarray] = []
            light_results: list[np.ndarray] = []

            def heavy():
                while not stop.is_set():
                    heavy_results.append(runtime.submit_sync(
                        "heavy",
                        lambda: run_airfoil(generate_mesh(48, 32), niter=3).q,
                        timeout=60.0,
                    ))

            def client(index):
                for i in range(12):
                    light_results.append(runtime.submit_sync(
                        f"light-{(index + i) % 4}", lambda: _jacobi(300, 5).u,
                        timeout=60.0,
                    ))

            heavy_thread = threading.Thread(target=heavy)
            heavy_thread.start()
            _wait_until(lambda: runtime.stats()["turns"]["grants"] > 0)
            clients = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(120.0)
            stop.set()
            heavy_thread.join(120.0)
            turns = runtime.stats()["turns"]
        assert len(light_results) == 24 and heavy_results
        for u in light_results:
            assert np.array_equal(u, light_reference)
        for q in heavy_results:
            assert np.array_equal(q, heavy_reference)
        assert turns["hand_backs"] > 0
