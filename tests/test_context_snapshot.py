"""Snapshot of what every execution context reports.

One 120x80 Airfoil step per backend and engine, inside a session: the
report's backend label, the key set of ``report().details`` and the
``details["config"]`` label are pinned, so a refactor of the contexts can
change neither the report's shape nor its wording.
"""

from __future__ import annotations

import pytest

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.engines import RunConfig
from repro.errors import OP2BackendError
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

FACTORIES = {"serial": serial_context, "openmp": openmp_context, "hpx": hpx_context}

COMMON = {"engine", "engine_capabilities", "execution", "session"}
FORKJOIN = COMMON | {"block_size", "loops", "omp_schedule"}
DATAFLOW = COMMON | {
    "chunking",
    "config",
    "dependency_edges_by_loop",
    "dependency_mode",
    "owner",
    "total_chunks",
    "total_dependencies",
    "tracked_dats",
}
GATED = DATAFLOW | {"grain"}
ARENA = GATED | {"shared_dats", "workers"}

#: (backend, engine) -> (details key set, details["config"])
SNAPSHOT = {
    ("serial", None): (COMMON | {"grain", "loops"}, None),
    ("openmp", "simulate"): (FORKJOIN, None),
    ("openmp", "threads"): (FORKJOIN, None),
    ("hpx", "simulate"): (DATAFLOW, "dataflow+interleave+auto-chunks"),
    ("hpx", "threads"): (GATED, "dataflow+interleave+auto-chunks"),
    ("hpx", "processes"): (ARENA, "dataflow+interleave+auto-chunks"),
    ("hpx", "sharded"): (ARENA, "dataflow+interleave+auto-chunks"),
    ("hpx", "compiled"): (GATED, "dataflow+interleave+auto-chunks"),
}


def _report(factory, **kwargs):
    clear_plan_cache()
    with Session(name="context-snapshot"):
        context = factory(**kwargs)
        with active_context(context):
            run_airfoil(generate_mesh(120, 80), niter=1, rk_steps=2)
        return context.report()


@pytest.mark.parametrize(("backend", "engine"), sorted(SNAPSHOT, key=str))
def test_report_snapshot(backend, engine):
    keys, config = SNAPSHOT[(backend, engine)]
    kwargs = {} if engine is None else {"engine": engine, "num_threads": 2}
    report = _report(FACTORIES[backend], **kwargs)
    assert report.backend == backend
    assert set(report.details) == keys
    assert report.details.get("config") == config
    assert report.details["engine"] == (engine or "simulate")
    assert report.loops_executed == 9


@pytest.mark.parametrize(
    ("config", "label"),
    [
        (
            RunConfig(chunking="persistent_auto", prefetch=True, prefetch_distance_factor=10),
            "dataflow+interleave+persistent-chunks+prefetch(d=10)",
        ),
        (
            RunConfig(interleave=False, async_tasking=False),
            "no-dataflow+loop-granular+auto-chunks",
        ),
    ],
)
def test_config_label_names_the_techniques(config, label):
    assert _report(hpx_context, config=config).details["config"] == label


def test_prefetch_requires_async_tasking():
    with pytest.raises(OP2BackendError, match="prefetching requires async_tasking"):
        hpx_context(prefetch=True, async_tasking=False)
    with pytest.raises(OP2BackendError, match="prefetch_distance_factor"):
        hpx_context(prefetch_distance_factor=0)
