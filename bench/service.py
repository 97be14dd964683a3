"""The ``service_mixed`` workload: many short task groups next to one long one.

A *step* here is one light request: a Jacobi chain on a fresh ring problem.
``step_ms.T`` is its median latency

* ``serial`` -- run directly under ``serial_context`` (also the reference),
* ``threads`` / ``processes`` -- through a :class:`ServiceRuntime` on that
  engine, submitted by closed-loop client threads round-robin over the light
  tenants while a ``heavy`` tenant keeps an Airfoil request in flight,
* ``sharded`` -- run directly under ``hpx_context(engine="sharded")`` in a
  warm session: the service cannot lease a sharded engine at this commit
  (``EngineLease`` has no ``sync_parent_dats``; the first drain raises).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Callable

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.errors import AdmissionError
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.service import ServiceConfig, ServiceRuntime
from repro.session import Session

from common import PARITY_TOLERANCE

_now = time.perf_counter

REQUEST_TIMEOUT_S = 60.0
SERVICE_ENGINES = ("threads", "processes")


def light_request(conf: dict, seed: int) -> Callable[[], np.ndarray]:
    def request() -> np.ndarray:
        problem = build_ring_problem(conf["ring_nodes"], seed=seed)
        return run_jacobi(problem, iterations=conf["ring_iterations"]).u

    return request


def heavy_request(conf: dict) -> Callable[[], np.ndarray]:
    def request() -> np.ndarray:
        mesh = generate_mesh(*conf["heavy_mesh"])
        return run_airfoil(mesh, niter=conf["heavy_steps"], rk_steps=2).q

    return request


def service_config(conf: dict, engine: str) -> ServiceConfig:
    return ServiceConfig(
        engine=engine, num_threads=conf["workers"],
        dispatchers=conf["dispatchers"], admission_timeout=None,
    )


def tenant_orders(conf: dict, seed: int) -> list[list[str]]:
    """Each client's cycle over the light tenants, permuted by the seed."""
    rng = np.random.default_rng(seed)
    return [
        [f"light-{t}" for t in rng.permutation(conf["light_tenants"])]
        for _ in range(conf["clients"])
    ]


class MixResult:
    """What one measured window through a service produced."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.spans: list[list] = []
        self.failed = 0
        self.rejected = 0
        self.window_s = 0.0
        self.heavy_done = 0
        self.heavy_failed = 0
        self.heavy_span_s = 0.0
        self.setup_s = 0.0
        self.close_s = 0.0
        self.errors: list[str] = []


def run_mix(
    conf: dict, seed: int, engine: str, per_client: int, label: str,
    light: Callable[[], np.ndarray], light_ref: np.ndarray, heavy_ref: np.ndarray,
) -> MixResult:
    """Start a service on ``engine``, warm it up, then measure the mix."""
    result = MixResult()
    lock = threading.Lock()
    orders = tenant_orders(conf, seed)
    heavy = heavy_request(conf)
    started = _now()
    runtime = ServiceRuntime(service_config(conf, engine))
    try:
        for i in range(conf["warmup"]):
            runtime.submit_sync(
                orders[0][i % len(orders[0])], light, timeout=REQUEST_TIMEOUT_S
            )
        result.setup_s = _now() - started

        stop = threading.Event()
        heavy_started = threading.Event()
        heavy_times: list[tuple[float, float]] = []

        def heavy_loop() -> None:
            while not stop.is_set():
                begin = _now()
                heavy_started.set()
                try:
                    q = runtime.submit_sync("heavy", heavy, timeout=REQUEST_TIMEOUT_S)
                    ok = bool(np.abs(q - heavy_ref).max() <= PARITY_TOLERANCE)
                except Exception as exc:  # boundary: counted, the mix goes on
                    ok = False
                    with lock:
                        result.errors.append(f"heavy: {type(exc).__name__}: {exc}")
                end = _now()
                with lock:
                    heavy_times.append((begin, end))
                    result.spans.append(["svc.heavy_request", begin, end, None,
                                         f"{label}/heavy", len(heavy_times) - 1])
                    if not ok:
                        result.heavy_failed += 1

        def client(index: int) -> None:
            order = orders[index]
            for i in range(per_client):
                begin = _now()
                ok = False
                try:
                    u = runtime.submit_sync(
                        order[i % len(order)], light, timeout=REQUEST_TIMEOUT_S
                    )
                    ok = bool(np.array_equal(u, light_ref))
                except AdmissionError:
                    with lock:
                        result.rejected += 1
                except Exception as exc:  # boundary: a failed request is a sample
                    with lock:
                        result.errors.append(f"light: {type(exc).__name__}: {exc}")
                end = _now()
                with lock:
                    result.spans.append(["svc.request", begin, end, None,
                                         f"{label}/client-{index}", i])
                    if ok:
                        result.latencies_ms.append((end - begin) * 1e3)
                    else:
                        result.failed += 1

        heavy_thread = threading.Thread(target=heavy_loop, name="bench-heavy")
        heavy_thread.start()
        heavy_started.wait(REQUEST_TIMEOUT_S)
        clients = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(conf["clients"])
        ]
        window_start = _now()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        result.window_s = _now() - window_start
        stop.set()
        heavy_thread.join(2 * REQUEST_TIMEOUT_S)
        if heavy_thread.is_alive():
            result.errors.append("heavy tenant did not finish")
        result.heavy_done = len(heavy_times) - result.heavy_failed
        if heavy_times:
            result.heavy_span_s = heavy_times[-1][1] - heavy_times[0][0]
    finally:
        closing = _now()
        runtime.close()
        result.close_s = _now() - closing
    return result


def run_direct(
    make_ctx: Callable[[], Any], count: int, label: str,
    light: Callable[[], np.ndarray], light_ref: np.ndarray, warmup: int,
) -> MixResult:
    """``count`` light requests one after another, each in its own context of
    one warm session (no service)."""
    result = MixResult()
    started = _now()
    with Session(name=f"bench-direct-{label}"):
        for i in range(warmup + count):
            if i == warmup:
                result.setup_s = _now() - started
            begin = _now()
            ok = False
            try:
                with active_context(make_ctx()):
                    u = light()
                ok = bool(np.array_equal(u, light_ref))
            except Exception as exc:  # boundary: a failed request is a sample
                result.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            end = _now()
            if i < warmup:
                continue
            result.spans.append(["direct.request", begin, end, None, label, i - warmup])
            if ok:
                result.latencies_ms.append((end - begin) * 1e3)
            else:
                result.failed += 1
    return result


def references(conf: dict, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Serial results of the light and the heavy request, and the seconds."""
    started = _now()
    clear_plan_cache()
    with active_context(serial_context()):
        light_ref = light_request(conf, seed)()
        heavy_ref = heavy_request(conf)()
    return light_ref, heavy_ref, _now() - started


def run_round(conf: dict, seed: int, index: int) -> dict:
    """One round: references, then every target's requests; set-up summed."""
    round_start = _now()
    light = light_request(conf, seed)
    light_ref, heavy_ref, reference_s = references(conf, seed)
    setup_s = _now() - round_start
    workers = conf["workers"]
    requests = conf["requests"]
    results: dict[str, MixResult] = {}
    results["serial"] = run_direct(
        serial_context, requests["serial"], f"serial/{index}", light, light_ref, warmup=1
    )
    for engine in SERVICE_ENGINES:
        results[engine] = run_mix(
            conf, seed, engine, requests[engine], f"{engine}/{index}",
            light, light_ref, heavy_ref,
        )
    results["sharded"] = run_direct(
        lambda: hpx_context(engine="sharded", num_threads=workers),
        requests["sharded"], f"sharded/{index}", light, light_ref, warmup=2,
    )
    setup_s += sum(r.setup_s for r in results.values())
    return {"results": results, "setup_s": setup_s, "reference_s": reference_s}


def null_request_ms(conf: dict) -> tuple[float, int]:
    """Median latency of a no-op request through an idle threads service,
    and how many were refused admission."""
    rejected = 0
    latencies = []
    with ServiceRuntime(service_config(conf, "threads")) as runtime:
        for i in range(conf["null_requests"]):
            begin = _now()
            try:
                runtime.submit_sync(f"light-{i % conf['light_tenants']}", _nothing,
                                    timeout=REQUEST_TIMEOUT_S)
            except AdmissionError:
                rejected += 1
                continue
            latencies.append((_now() - begin) * 1e3)
    return (statistics.median(latencies) if latencies else 0.0), rejected


def _nothing() -> None:
    return None
