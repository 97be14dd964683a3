"""Names, workload configs and statistics shared by the benchmark's files.

Everything here is plain data: the workload matrix is declared as dicts
(config in, record out -- the persisted record carries the exact dict a
workload was built from), and the metric lists are the single source the
driver, ``BENCHMARK.json`` and the contract test agree on.
"""

from __future__ import annotations

import copy
import os
import statistics
from typing import Any, Optional, Sequence

#: ``--seconds`` the step/request counts below are sized for
NOMINAL_SECONDS = 20

#: targets every workload reports a bounded ``step_ms.T`` for
COMMON_TARGETS = ("serial", "threads", "processes", "sharded")
#: targets only ``airfoil_small``'s traced invocation runs (unbounded numbers)
EXTRA_TARGETS = ("forkjoin", "simulate", "compiled")
#: ``threads`` precedes ``forkjoin``: they share one pooled engine instance and
#: the first to open a chain pays (and reports) its spin-up
ALL_TARGETS = ("serial", "simulate", "threads", "forkjoin", "processes", "sharded", "compiled")

#: ``max|q_target - q_serial|`` allowed at equal step counts (see README)
PARITY_TOLERANCE = 1e-12

#: name prefixes of the shared-memory segments the engines create
SHM_PREFIXES = ("hpx-chunk-",)



def shm_segments() -> dict[str, int]:
    """Name and size of every live ``/dev/shm`` segment the engines created."""
    segments = {}
    try:
        with os.scandir("/dev/shm") as entries:
            for entry in entries:
                if entry.name.startswith(SHM_PREFIXES):
                    try:
                        segments[entry.name] = entry.stat().st_size
                    except OSError:
                        pass  # unlinked between listing and stat
    except OSError:
        pass
    return segments


WORKLOAD_WHY = {
    "airfoil_large": (
        "Airfoil 400x300, 2 workers: compute-bound, most of a step is the drain "
        "wait for gather-kernel-scatter, so parallel speed-up and kernel work show"
    ),
    "airfoil_small": (
        "Airfoil 120x80, 2 workers: overhead-bound, pipeline stages, task "
        "submission and RPC dominate a 15 ms step and kernels do little"
    ),
    "airfoil_shuffle": (
        "Airfoil 120x80 shuffle-renumbered, 4 workers: every chunk summary is "
        "fragmented into many runs, so interval algebra and halo planning dominate"
    ),
    "service_mixed": (
        "2 closed-loop clients send Jacobi requests over 4 light tenants while a "
        "heavy Airfoil tenant stays in flight: many short task groups, not one chain"
    ),
}

_FULL: dict[str, dict[str, Any]] = {
    "airfoil_large": {
        "kind": "airfoil", "nx": 400, "ny": 300, "renumber": None, "workers": 2,
        "targets": list(COMMON_TARGETS),
        "reps": {"serial": 1, "threads": 1, "processes": 1, "sharded": 1},
        "rounds": 3, "steps": 8,
        "trace_targets": list(COMMON_TARGETS), "trace_steps": 4,
    },
    "airfoil_small": {
        "kind": "airfoil", "nx": 120, "ny": 80, "renumber": None, "workers": 2,
        "targets": list(COMMON_TARGETS),
        "reps": {"serial": 1, "threads": 1, "processes": 1, "sharded": 1},
        "rounds": 3, "steps": 40,
        "trace_targets": list(ALL_TARGETS), "trace_steps": 6,
    },
    "airfoil_shuffle": {
        "kind": "airfoil", "nx": 120, "ny": 80, "renumber": "shuffle", "workers": 4,
        "targets": list(COMMON_TARGETS),
        # a sharded step costs ~14x the others here: the fast targets take
        # four steps per sharded step so every target gets enough samples
        "reps": {"serial": 4, "threads": 4, "processes": 4, "sharded": 1},
        "rounds": 3, "steps": 5,
        "trace_targets": list(COMMON_TARGETS), "trace_steps": 3,
    },
    "service_mixed": {
        "kind": "service", "workers": 2, "dispatchers": 3, "clients": 2,
        "light_tenants": 4, "ring_nodes": 300, "ring_iterations": 5,
        "heavy_mesh": [48, 32], "heavy_steps": 6, "warmup": 10,
        "rounds": 3,
        # requests per round: per client through a service, in total when direct
        "requests": {"serial": 60, "threads": 70, "processes": 25, "sharded": 25},
        "null_requests": 200,
    },
}

_SMOKE_OVERRIDES: dict[str, dict[str, Any]] = {
    "airfoil_large": {"nx": 32, "ny": 24, "rounds": 1, "steps": 2, "trace_steps": 2},
    "airfoil_small": {"nx": 16, "ny": 12, "rounds": 1, "steps": 2, "trace_steps": 2},
    "airfoil_shuffle": {
        "nx": 16, "ny": 12, "rounds": 1, "steps": 2, "trace_steps": 2,
        "reps": {"serial": 2, "threads": 2, "processes": 2, "sharded": 1},
    },
    "service_mixed": {
        "ring_nodes": 30, "heavy_mesh": [8, 6], "heavy_steps": 2, "warmup": 2,
        "rounds": 1, "null_requests": 10,
        "requests": {"serial": 4, "threads": 4, "processes": 3, "sharded": 3},
    },
}

WORKLOAD_NAMES = tuple(_FULL)
SCALES = ("full", "smoke")


def workload_config(name: str, scale: str = "full", seconds: Optional[float] = None) -> dict:
    """The plain-dict config of workload ``name`` at ``scale``.

    ``seconds`` rescales the step and request counts of the full scale, which
    are sized for :data:`NOMINAL_SECONDS`; smoke counts are fixed.
    """
    conf = copy.deepcopy(_FULL[name])
    if scale == "smoke":
        conf.update(copy.deepcopy(_SMOKE_OVERRIDES[name]))
    elif seconds is not None:
        factor = seconds / NOMINAL_SECONDS

        def scaled(count: int) -> int:
            return max(2, round(count * factor))

        if conf["kind"] == "airfoil":
            conf["steps"] = scaled(conf["steps"])
            conf["trace_steps"] = scaled(conf["trace_steps"])
        else:
            conf["requests"] = {k: scaled(v) for k, v in conf["requests"].items()}
    conf["name"] = name
    conf["scale"] = scale
    return conf


# ---------------------------------------------------------------------------
# Metric lists
# ---------------------------------------------------------------------------
def _metric(name: str, unit: str, better: str = "lower", bound: Optional[float] = None) -> dict:
    entry = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        entry["bound"] = bound
    return entry


#: bounded metrics; every workload reports every one of them (untraced pass)
END_TO_END = [
    _metric("step_ms.serial", "ms", bound=0.25),
    _metric("step_ms.threads", "ms", bound=0.25),
    _metric("step_ms.processes", "ms", bound=0.25),
    _metric("step_ms.sharded", "ms", bound=0.25),
    _metric("setup_s", "s", bound=0.25),
    _metric("peak_rss_mb", "MB", bound=0.10),
]

_ENGINE_TARGETS = ("forkjoin", "threads", "processes", "sharded", "compiled")
_PIPELINE_TARGETS = ("forkjoin", "simulate", "threads", "processes", "sharded", "compiled")
_HPX_TARGETS = ("simulate", "threads", "processes", "sharded", "compiled")


def _per_target(stem: str, unit: str, targets: Sequence[str], better: str = "lower") -> list[dict]:
    return [_metric(f"{stem}.{target}", unit, better) for target in targets]


#: unbounded metrics of single layers (traced invocation); 0 on a workload
#: that does not exercise the layer or run the target
PER_LAYER = [
    *_per_target("core.lower_ms", "ms", _PIPELINE_TARGETS),
    *_per_target("core.analyze_ms", "ms", _PIPELINE_TARGETS),
    *_per_target("core.schedule_ms", "ms", _PIPELINE_TARGETS),
    *_per_target("core.submit_ms", "ms", _PIPELINE_TARGETS),
    *_per_target("core.chunks_per_step", "count", _PIPELINE_TARGETS),
    *_per_target("core.dep_edges_per_step", "count", _PIPELINE_TARGETS),
    *_per_target("engine.submit_ms", "ms", _ENGINE_TARGETS),
    *_per_target("engine.tasks_per_step", "count", _ENGINE_TARGETS),
    *_per_target("engine.drain_wait_ms", "ms", _ENGINE_TARGETS),
    *_per_target("engine.drains_per_step", "count", _ENGINE_TARGETS),
    *_per_target("op2.par_loop_other_ms", "ms", ALL_TARGETS),
    *_per_target("engine.spinup_ms", "ms", ("threads", "processes", "sharded", "compiled")),
    *_per_target("engine.first_step_ms", "ms", ALL_TARGETS),
    *_per_target("engine.null_loop_us", "us", ("serial", *_HPX_TARGETS)),
    *_per_target("session.context_cycle_us", "us", _HPX_TARGETS),
    *_per_target("trace_overhead_share", "share", ALL_TARGETS),
    *_per_target("step_ms", "ms", EXTRA_TARGETS),
    _metric("session.close_ms", "ms"),
    _metric("runtime.pool_executor.task_us", "us"),
    _metric("sharding.halo_bytes_per_step", "bytes"),
    _metric("sharding.halo_fetches_per_step", "count"),
    _metric("sharding.halo_share", "share"),
    _metric("op2.intervals.runs_per_summary", "count"),
    _metric("op2.intervals.union_us", "us"),
    _metric("op2.intervals.intersection_us", "us"),
    _metric("op2.intervals.difference_us", "us"),
    _metric("op2.plan.build_ms", "ms"),
    _metric("op2.plan.cache_hit_share", "share", "higher"),
    _metric("op2.shm.peak_segment_mb", "MB"),
    _metric("translator.lower_ms", "ms"),
    _metric("translator.artifact_hit_share", "share", "higher"),
    _metric("service.null_request_ms", "ms"),
    _metric("service.rejected", "count"),
    _metric("svc_rps", "1/s", "higher"),
    _metric("svc_light_p50_ms", "ms"),
    _metric("svc_light_p95_ms", "ms"),
    _metric("svc_heavy_steps_per_s", "1/s", "higher"),
    _metric("svc_rps.processes", "1/s", "higher"),
    _metric("svc_light_p95_ms.processes", "ms"),
    _metric("svc_heavy_steps_per_s.processes", "1/s", "higher"),
    _metric("sim.makespan_ms.dataflow", "ms"),
    _metric("sim.makespan_ms.forkjoin", "ms"),
    _metric("sim.dataflow_gain", "share", "higher"),
    _metric("sim.simulate_ms", "ms"),
    _metric("apps.mesh_build_ms", "ms"),
    _metric("apps.serial_reference_ms", "ms"),
]

E2E_NAMES = tuple(m["name"] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m["name"] for m in PER_LAYER)
UNITS = {m["name"]: m["unit"] for m in (*END_TO_END, *PER_LAYER)}


def manifest(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` object these lists describe."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": WORKLOAD_WHY[n]} for n in WORKLOAD_NAMES],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``; both the value for n=1)."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(samples: Sequence[float], unit: str) -> dict:
    """Median, quartiles, sample count and the highest percentile that still
    has ten samples beyond it (absent below 20 samples)."""
    ordered = sorted(samples)
    q1, q3 = quartiles(ordered)
    entry = {
        "value": statistics.median(ordered), "unit": unit,
        "q1": q1, "q3": q3, "n": len(ordered),
    }
    if len(ordered) >= 20:
        entry["tail_percentile"] = 100.0 * (1.0 - 10.0 / len(ordered))
        entry["tail"] = ordered[-11]
    return entry


def scalar(value: float, unit: str) -> dict:
    """A metric measured once (or counted exactly)."""
    return {"value": float(value), "unit": unit, "q1": float(value), "q3": float(value), "n": 1}
