"""The multi-tenant service layer: shared pool, admission, fairness, parity.

Four groups:

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
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.engines.base import RunConfig
from repro.errors import (
    AdmissionError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
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
