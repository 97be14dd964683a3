"""Multi-tenant service throughput: shared warm pool vs per-session pools.

Two measurements over the :mod:`repro.service` layer, persisted to
``BENCH_service.json``:

* **Requests per second** -- N tenants each submit R small Jacobi chains.
  The *shared* variant serves them from one :class:`ServiceRuntime` (one
  warm engine shared by every tenant, fair chunk interleaving); the
  *per-session* baseline gives each tenant its own :class:`Session` with a
  private engine pool, the pre-service layering.  Shared-pool warm reuse
  pays one engine spin-up instead of N and keeps the worker count flat --
  and since the grain gate (:mod:`repro.core.grain`) a chain this small
  pays none at all: its loops measure far below the threshold, so each
  request runs inline on its dispatcher thread and neither variant creates
  an engine.  The example prints which engines the pool ended up holding.

* **Fairness under a long-chain competitor** -- one tenant keeps a long
  Airfoil chain in flight (a 400x300 mesh: its ``res_calc`` crosses the
  grain threshold after two measured executions, so the chain moves onto
  the workers in its second time step) while small Jacobi tenants keep
  submitting.  The light requests finish inline on their dispatcher threads
  without queueing behind the heavy chain's chunks, so their p99 latency
  stays bounded (reported against their isolated p99) instead of growing
  with the competitor's chain length.

Every request's numbers are asserted bit-identical to the serial backend.

Run with::

    PYTHONPATH=src python examples/service_throughput.py
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.bench.harness import bench_metadata
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.service import ServiceConfig, ServiceRuntime
from repro.session import Session

NUM_TENANTS = 6
REQUESTS_PER_TENANT = 4
JACOBI_NODES = 300
JACOBI_ITERATIONS = 5
NUM_THREADS = 2
DISPATCHERS = 4

FAIRNESS_LIGHT_REQUESTS = 10
HEAVY_MESH = (400, 300)
HEAVY_NITER = 4


def _jacobi_chain():
    return run_jacobi(build_ring_problem(JACOBI_NODES), iterations=JACOBI_ITERATIONS)


def _serial_reference() -> np.ndarray:
    clear_plan_cache()
    with active_context(serial_context()):
        return _jacobi_chain().u


# ---------------------------------------------------------------------------
# RPS: shared ServiceRuntime vs per-session pools
# ---------------------------------------------------------------------------
def measure_shared(reference: np.ndarray) -> dict:
    """All tenants through one ServiceRuntime over one shared warm pool."""
    config = ServiceConfig(
        engine="threads",
        num_threads=NUM_THREADS,
        dispatchers=DISPATCHERS,
        admission_timeout=None,  # benchmark load is bounded; wait, don't shed
    )
    started = time.perf_counter()
    with ServiceRuntime(config) as runtime:
        futures = [
            runtime.dispatch(f"tenant-{tenant}", _jacobi_chain)
            for _ in range(REQUESTS_PER_TENANT)
            for tenant in range(NUM_TENANTS)
        ]
        for future in futures:
            assert np.array_equal(future.result(120.0).u, reference), "shared diverged"
        engines = runtime.stats()["pool"]["engines"]
    seconds = time.perf_counter() - started
    # One shared engine at most -- none when every chain stayed inline.
    assert engines in ([], [["threads", NUM_THREADS, True]]), engines
    return {
        "seconds": seconds,
        "requests": len(futures),
        "rps": len(futures) / seconds,
        "pool_engines": engines,
    }


def measure_per_session(reference: np.ndarray) -> dict:
    """The pre-service baseline: one private Session (own engine pool) per
    tenant, tenants running concurrently on their own threads."""
    total = NUM_TENANTS * REQUESTS_PER_TENANT
    failures: list[str] = []

    def tenant_thread(tenant: int) -> None:
        session = Session(name=f"solo-{tenant}")
        try:
            with session.use():
                for _ in range(REQUESTS_PER_TENANT):
                    with active_context(
                        hpx_context(engine="threads", num_threads=NUM_THREADS)
                    ):
                        result = _jacobi_chain()
                    if not np.array_equal(result.u, reference):
                        failures.append(f"tenant-{tenant} diverged")
        finally:
            session.close()

    threads = [
        threading.Thread(target=tenant_thread, args=(t,)) for t in range(NUM_TENANTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not failures, failures
    return {"seconds": seconds, "requests": total, "rps": total / seconds}


# ---------------------------------------------------------------------------
# Fairness: small-tenant latency under a long-chain competitor
# ---------------------------------------------------------------------------
def measure_light_latencies(runtime: ServiceRuntime, reference: np.ndarray) -> list[float]:
    latencies = []
    for i in range(FAIRNESS_LIGHT_REQUESTS):
        started = time.perf_counter()
        result = runtime.submit_sync(f"light-{i % 3}", _jacobi_chain, timeout=120.0)
        latencies.append(time.perf_counter() - started)
        assert np.array_equal(result.u, reference), "light tenant diverged"
    return latencies


def measure_fairness(reference: np.ndarray) -> dict:
    config = ServiceConfig(
        engine="threads",
        num_threads=NUM_THREADS,
        dispatchers=DISPATCHERS,
        admission_timeout=None,
    )
    with ServiceRuntime(config) as runtime:
        # Isolated: the light tenants with the pool to themselves.
        isolated = measure_light_latencies(runtime, reference)

        # Contended: the same requests while a long Airfoil chain is in flight.
        heavy_started = threading.Event()

        def heavy_chain():
            mesh = generate_mesh(*HEAVY_MESH)
            heavy_started.set()
            return run_airfoil(mesh, niter=HEAVY_NITER, rk_steps=2)

        heavy_future = runtime.dispatch("heavy", heavy_chain)
        assert heavy_started.wait(60.0)
        contended = measure_light_latencies(runtime, reference)
        heavy_running_throughout = not heavy_future.done()
        heavy_future.result(300.0)

    def summarize(latencies: list[float]) -> dict:
        return {
            "mean_ms": float(np.mean(latencies)) * 1e3,
            "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "max_ms": float(np.max(latencies)) * 1e3,
        }

    iso, con = summarize(isolated), summarize(contended)
    return {
        "light_requests": FAIRNESS_LIGHT_REQUESTS,
        "heavy_mesh": list(HEAVY_MESH),
        "heavy_niter": HEAVY_NITER,
        "heavy_running_throughout": heavy_running_throughout,
        "isolated": iso,
        "contended": con,
        "p99_inflation": con["p99_ms"] / iso["p99_ms"],
    }


def main() -> None:
    reference = _serial_reference()

    print(
        f"RPS: {NUM_TENANTS} tenants x {REQUESTS_PER_TENANT} Jacobi chains "
        f"({JACOBI_NODES} nodes, {JACOBI_ITERATIONS} iterations), "
        f"threads engine, num_threads={NUM_THREADS}"
    )
    per_session = measure_per_session(reference)
    shared = measure_shared(reference)
    speedup = shared["rps"] / per_session["rps"]
    print(f"  per-session pools: {per_session['rps']:8.1f} req/s")
    print(f"  shared warm pool:  {shared['rps']:8.1f} req/s  ({speedup:.2f}x)")
    print(
        "  engines in the shared pool: "
        + (str(shared["pool_engines"]) if shared["pool_engines"]
           else "none (every chain ran inline, below the grain threshold)")
    )

    print("\nFairness: light Jacobi tenants vs a long Airfoil chain")
    fairness = measure_fairness(reference)
    print(
        f"  isolated  p99 {fairness['isolated']['p99_ms']:8.1f} ms "
        f"(p50 {fairness['isolated']['p50_ms']:.1f} ms)"
    )
    print(
        f"  contended p99 {fairness['contended']['p99_ms']:8.1f} ms "
        f"(p50 {fairness['contended']['p50_ms']:.1f} ms, "
        f"{fairness['p99_inflation']:.2f}x inflation, "
        f"heavy in flight throughout: {fairness['heavy_running_throughout']})"
    )

    payload = {
        "benchmark": "service_throughput",
        "metadata": bench_metadata(),
        "workload": {
            "tenants": NUM_TENANTS,
            "requests_per_tenant": REQUESTS_PER_TENANT,
            "jacobi_nodes": JACOBI_NODES,
            "jacobi_iterations": JACOBI_ITERATIONS,
            "num_threads": NUM_THREADS,
            "dispatchers": DISPATCHERS,
        },
        "rps": {
            "per_session": per_session,
            "shared": shared,
            "shared_over_per_session": speedup,
        },
        "fairness": fairness,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\npersisted -> {path}")


if __name__ == "__main__":
    main()
