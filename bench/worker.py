"""Runs one workload in this process and writes its record.

Started by ``run.py`` in a fresh subprocess (``PYTHONHASHSEED`` pinned, hard
timeout, leak check afterwards).  ``job`` is a JSON object: the workload's
config dict (counts already sized for ``--seconds``), the seed, whether this
is the traced pass, and where the record and the trace file go.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

import airfoil  # noqa: E402
import layers  # noqa: E402
import service  # noqa: E402
from common import (  # noqa: E402
    COMMON_TARGETS, E2E_NAMES, EXTRA_TARGETS, PER_LAYER_NAMES, UNITS, scalar, summarize,
)
from tracer import Tracer, self_times  # noqa: E402

from repro.session import Session  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_START


def peak_rss_mb() -> float:
    """Parent peak RSS plus the largest reaped child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _metric(metrics: dict, name: str, samples: Any) -> None:
    """File ``samples`` (a list, or one number) under ``name``."""
    unit = UNITS[name]
    if isinstance(samples, (list, tuple)):
        metrics[name] = summarize(samples, unit) if samples else scalar(0.0, unit)
    else:
        metrics[name] = scalar(samples, unit)


def _setup_metric(metrics: dict, round_setups: list[float]) -> None:
    """``setup_s``: imports once, plus the median round's set-up."""
    metrics["setup_s"] = summarize([_IMPORT_S + s for s in round_setups], "s")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Airfoil workloads
# ---------------------------------------------------------------------------
def _count_ops(chains: list, conf: dict, steps: int, notes: list[str]) -> tuple[int, int]:
    attempted = failed = 0
    for chain in chains:
        planned = steps * conf["reps"].get(chain.target, 1)
        if chain.error is None:
            attempted += len(chain.samples_ms)
        else:  # a chain that failed (or lost parity) fails every planned step
            attempted += planned
            failed += planned
            notes.append(f"{chain.chain_id}: {chain.error}")
    return attempted, failed


def airfoil_end_to_end(conf: dict, seed: int) -> dict:
    targets = conf["targets"]
    samples: dict[str, list[float]] = {t: [] for t in targets}
    setups: list[float] = []
    notes: list[str] = []
    attempted = failed = 0
    max_delta = 0.0
    for index in range(conf["rounds"]):
        rnd = airfoil.run_round(conf, seed, index, targets, conf["steps"])
        setups.append(rnd["setup_s"])
        a, f = _count_ops(rnd["chains"], conf, conf["steps"], notes)
        attempted, failed = attempted + a, failed + f
        for chain in rnd["chains"]:
            if chain.error is None:
                samples[chain.target].extend(chain.samples_ms)
                max_delta = max(max_delta, chain.max_delta)
    metrics: dict[str, dict] = {}
    for target in targets:
        _metric(metrics, f"step_ms.{target}", samples[target])
    _setup_metric(metrics, setups)
    _metric(metrics, "peak_rss_mb", peak_rss_mb())
    return {
        "metrics": metrics, "ops_attempted": attempted, "ops_failed": failed,
        "notes": notes, "parity_max_delta": max_delta,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def airfoil_per_layer(conf: dict, seed: int, trace_path: str) -> dict:
    targets = conf["trace_targets"]
    steps = conf["trace_steps"]
    workers = conf["workers"]
    notes: list[str] = []
    metrics: dict[str, dict] = {}

    # The untraced round is the baseline of trace_overhead_share and gives
    # the step times of the targets that have no bounded metric.
    plain = airfoil.run_round(conf, seed, 0, targets, steps)
    tracer = Tracer()
    traced = airfoil.run_round(conf, seed, 0, targets, steps, tracer)
    attempted = failed = 0
    for rnd in (plain, traced):
        a, f = _count_ops(rnd["chains"], conf, steps, notes)
        attempted, failed = attempted + a, failed + f
    plain_ms = {c.target: c.samples_ms for c in plain["chains"] if c.error is None}

    mesh_ms = []
    shm_peak = 0
    for chain in traced["chains"]:
        target = chain.target
        mesh_ms.append(chain.mesh_s * 1e3)
        shm_peak = max(shm_peak, chain.shm_peak)
        if chain.error is not None:
            continue
        totals = chain.totals
        stage_sum_ms = [sum(t.stage_s.values()) * 1e3 for t in totals]
        per_target = {
            "core.lower_ms": [t.stage_s["lower"] * 1e3 for t in totals],
            "core.analyze_ms": [t.stage_s["analyze"] * 1e3 for t in totals],
            "core.schedule_ms": [t.stage_s["schedule"] * 1e3 for t in totals],
            "core.submit_ms": [t.stage_s["submit"] * 1e3 for t in totals],
            "core.chunks_per_step": [t.chunks for t in totals],
            "core.dep_edges_per_step": [t.edges for t in totals],
            "engine.submit_ms": [t.engine_submit_s * 1e3 for t in totals],
            "engine.tasks_per_step": [t.tasks for t in totals],
            "engine.drain_wait_ms": [t.drain_s * 1e3 for t in totals],
            "engine.drains_per_step": [t.drains for t in totals],
            "op2.par_loop_other_ms": [
                step - stages for step, stages in zip(chain.samples_ms, stage_sum_ms)
            ],
            "engine.spinup_ms": chain.spinup_s * 1e3,
            "engine.first_step_ms": chain.first_step_s * 1e3,
        }
        if plain_ms.get(target):
            per_target["trace_overhead_share"] = (
                _median(chain.samples_ms) / _median(plain_ms[target]) - 1.0
            )
        if target in EXTRA_TARGETS and plain_ms.get(target):
            per_target["step_ms"] = plain_ms[target]
        for stem, values in per_target.items():
            name = f"{stem}.{target}"
            if name in UNITS:
                _metric(metrics, name, values)
        if chain.halo:
            _metric(metrics, "sharding.halo_bytes_per_step",
                    [h["halo_bytes"] for h in chain.halo])
            _metric(metrics, "sharding.halo_fetches_per_step",
                    [h["halo_fetches"] for h in chain.halo])
            _metric(metrics, "sharding.halo_share", _share(
                sum(h["halo_bytes"] for h in chain.halo),
                sum(h["whole_dat_bytes"] for h in chain.halo),
            ))
    _metric(metrics, "session.close_ms", traced["close_s"] * 1e3)
    _metric(metrics, "op2.shm.peak_segment_mb", shm_peak / 2**20)
    _metric(metrics, "apps.mesh_build_ms", mesh_ms)
    _metric(metrics, "apps.serial_reference_ms", traced["reference_s"] * 1e3)
    plan = traced["session_stats"]["plan_cache"]
    _metric(metrics, "op2.plan.cache_hit_share",
            _share(plan["hits"], plan["hits"] + plan["misses"]))
    artifacts = traced["session_stats"]["artifact_cache"]
    _metric(metrics, "translator.artifact_hit_share",
            _share(artifacts["hits"], artifacts["hits"] + artifacts["misses"]))

    # Layers driven on their own, outside any chain.
    analyzed = next(
        (tracer.analyzed[f"{t}/0"] for t in ("processes", "sharded", "threads")
         if f"{t}/0" in tracer.analyzed), [],
    )
    for key, value in layers.interval_ops(analyzed).items():
        _metric(metrics, f"op2.intervals.{key}", value)
    with Session(name="bench-layers"):
        if "res_calc" in tracer.loops:
            _metric(metrics, "op2.plan.build_ms", layers.plan_build_ms(tracer.loops["res_calc"]))
        if "compiled" in targets:
            kernel_loops = [tracer.loops[n] for n in
                            ("save_soln", "adt_calc", "res_calc", "bres_calc", "update")]
            _metric(metrics, "translator.lower_ms", layers.translator_lower_ms(kernel_loops))
        for target in targets:
            if f"engine.null_loop_us.{target}" in UNITS:
                _metric(metrics, f"engine.null_loop_us.{target}",
                        layers.null_loop_us(target, workers))
            if f"session.context_cycle_us.{target}" in UNITS:
                _metric(metrics, f"session.context_cycle_us.{target}",
                        layers.context_cycle_us(target, workers))
    _metric(metrics, "runtime.pool_executor.task_us", layers.pool_task_us())
    if "simulate" in targets:
        for key, value in layers.sim_makespans(conf["nx"], conf["ny"]).items():
            _metric(metrics, f"sim.{key}", value)

    write_trace(trace_path, conf, seed, tracer.spans)
    return {"metrics": metrics, "ops_attempted": attempted, "ops_failed": failed, "notes": notes}


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------
def _service_ops(rnd: dict, notes: list[str]) -> tuple[int, int]:
    attempted = failed = 0
    for label, result in rnd["results"].items():
        attempted += len(result.latencies_ms) + result.failed
        attempted += result.heavy_done + result.heavy_failed
        failed += result.failed + result.heavy_failed
        notes.extend(f"{label}: {e}" for e in result.errors[:5])
    return attempted, failed


def service_end_to_end(conf: dict, seed: int) -> dict:
    latencies: dict[str, list[float]] = {t: [] for t in COMMON_TARGETS}
    setups: list[float] = []
    notes: list[str] = []
    attempted = failed = 0
    for index in range(conf["rounds"]):
        rnd = service.run_round(conf, seed, index)
        setups.append(rnd["setup_s"])
        a, f = _service_ops(rnd, notes)
        attempted, failed = attempted + a, failed + f
        for target, result in rnd["results"].items():
            latencies[target].extend(result.latencies_ms)
    metrics: dict[str, dict] = {}
    for target in COMMON_TARGETS:
        _metric(metrics, f"step_ms.{target}", latencies[target])
    _setup_metric(metrics, setups)
    _metric(metrics, "peak_rss_mb", peak_rss_mb())
    return {"metrics": metrics, "ops_attempted": attempted, "ops_failed": failed, "notes": notes}


def service_per_layer(conf: dict, seed: int, trace_path: str) -> dict:
    notes: list[str] = []
    metrics: dict[str, dict] = {}
    rnd = service.run_round(conf, seed, 0)
    attempted, failed = _service_ops(rnd, notes)
    spans: list[list] = []
    rejected = 0
    for engine, suffix in (("threads", ""), ("processes", ".processes")):
        mix = rnd["results"][engine]
        spans.extend(mix.spans)
        rejected += mix.rejected
        done = len(mix.latencies_ms)
        _metric(metrics, f"svc_rps{suffix}", _share(done, mix.window_s))
        _metric(metrics, f"svc_heavy_steps_per_s{suffix}",
                _share(mix.heavy_done * conf["heavy_steps"], mix.heavy_span_s))
        ordered = sorted(mix.latencies_ms)
        p95 = ordered[min(done - 1, int(0.95 * done))] if done else 0.0
        _metric(metrics, f"svc_light_p95_ms{suffix}", p95)
        if not suffix:
            _metric(metrics, "svc_light_p50_ms", mix.latencies_ms)
            _metric(metrics, "session.close_ms", mix.close_s * 1e3)
    for label in ("serial", "sharded"):
        spans.extend(rnd["results"][label].spans)
    null_ms, null_rejected = service.null_request_ms(conf)
    _metric(metrics, "service.null_request_ms", null_ms)
    _metric(metrics, "service.rejected", rejected + null_rejected)
    _metric(metrics, "apps.serial_reference_ms", rnd["reference_s"] * 1e3)
    with Session(name="bench-layers"):
        _metric(metrics, "engine.null_loop_us.threads",
                layers.null_loop_us("threads", conf["workers"]))
        _metric(metrics, "session.context_cycle_us.threads",
                layers.context_cycle_us("threads", conf["workers"]))
    _metric(metrics, "runtime.pool_executor.task_us", layers.pool_task_us())
    write_trace(trace_path, conf, seed, spans)
    return {"metrics": metrics, "ops_attempted": attempted, "ops_failed": failed, "notes": notes}


# ---------------------------------------------------------------------------
# Record
# ---------------------------------------------------------------------------
def write_trace(path: str, conf: dict, seed: int, spans: list[list]) -> None:
    """Spans plus, per chain, the median self time of each layer per steady step."""
    per_chain: dict[str, dict[str, list[float]]] = {}
    for (chain, step), names in self_times(spans).items():
        if step == 0 and conf["kind"] == "airfoil":
            continue  # the cold step
        bucket = per_chain.setdefault(str(chain), {})
        for name, seconds in names.items():
            bucket.setdefault(name, []).append(seconds * 1e3)
    summary = {
        chain: {name: statistics.median(values) for name, values in names.items()}
        for chain, names in per_chain.items()
    }
    with open(path, "w") as handle:
        json.dump({
            "workload": conf["name"], "seed": seed,
            "span_fields": ["name", "start", "end", "parent", "chain_id", "step"],
            "self_ms_per_step": summary,
            "spans": spans,
        }, handle)


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    conf, seed = job["config"], job["seed"]
    trace = bool(job["trace"])
    if conf["kind"] == "airfoil":
        result = (
            airfoil_per_layer(conf, seed, job["trace_path"]) if trace
            else airfoil_end_to_end(conf, seed)
        )
    else:
        result = (
            service_per_layer(conf, seed, job["trace_path"]) if trace
            else service_end_to_end(conf, seed)
        )
    names = PER_LAYER_NAMES if trace else E2E_NAMES
    for name in names:  # a layer this workload does not exercise reads 0
        result["metrics"].setdefault(name, scalar(0.0, UNITS[name]))
    record: dict[str, Any] = {
        "config": conf,
        "trace": trace,
        "start_method": multiprocessing.get_start_method(),
        "wall_s": time.perf_counter() - _PROCESS_START,
        **result,
    }
    with open(job["record_path"], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
