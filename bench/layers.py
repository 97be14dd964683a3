"""Single-layer measurements of the traced invocation, made from outside.

Each function drives one layer through its public entry points and returns a
plain number; none of them feeds an end-to-end metric.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Optional

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.op2.access import OP_ID, OP_RW
from repro.op2.args import op_arg_dat
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.context import active_context
from repro.op2.dat import op_decl_dat
from repro.op2.kernel import Kernel
from repro.op2.par_loop import op_par_loop
from repro.op2.plan import clear_plan_cache, op_plan_get
from repro.op2.set import op_decl_set
from repro.runtime.pool_executor import PoolExecutor
from repro.session import Session
from repro.translator import build_slab, parse_kernel, slab_signature

from airfoil import make_context

_now = time.perf_counter

NULL_LOOPS = 200
CONTEXT_CYCLES = 200
POOL_TASKS = 10_000


def _null(x) -> None:
    x[0] += 1.0


def _null_vec(_idx, x) -> None:
    x[:, 0] += 1.0


#: module scope, so worker processes resolve it by name
NULL_KERNEL = Kernel(name="bench_null", elemental=_null, vectorized=_null_vec,
                     cycles_per_element=1.0)


def null_loop_us(target: str, workers: int) -> float:
    """Fixed cost of one loop: a one-chunk direct loop over 16 elements,
    :data:`NULL_LOOPS` times, drained.  Needs an active session."""
    elements = op_decl_set(16, "bench_null_set")
    dat = op_decl_dat(elements, 1, "double", np.zeros((16, 1)), "bench_null_dat")
    with active_context(make_context(target, workers)) as ctx:
        started = _now()
        for _ in range(NULL_LOOPS):
            op_par_loop(NULL_KERNEL, "bench_null", elements,
                        op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW))
        engine = getattr(ctx, "executor", None)
        if engine is not None:
            engine.wait_all()
        seconds = _now() - started
    return seconds / NULL_LOOPS * 1e6


def context_cycle_us(target: str, workers: int) -> float:
    """Enter and exit a context with no loops, in a session whose engine is warm."""
    started = _now()
    for _ in range(CONTEXT_CYCLES):
        with active_context(make_context(target, workers)):
            pass
    return (_now() - started) / CONTEXT_CYCLES * 1e6


def pool_task_us() -> float:
    """No-op tasks in compute -> merge-chain shape through ``PoolExecutor(2)``."""
    def prepare():
        return _noop

    pool = PoolExecutor(2, name="bench-pool")
    try:
        started = _now()
        last: Optional[int] = None
        for _ in range(POOL_TASKS // 2):
            _compute, last = pool.submit_chunk(prepare, after=last)
        pool.wait_all()
        seconds = _now() - started
    finally:
        pool.shutdown(wait=True)
    return seconds / POOL_TASKS * 1e6


def _noop() -> None:
    return None


def plan_build_ms(loop: Any) -> float:
    """A cold ``op_plan_get`` for ``loop`` (the session's plan cache is cleared)."""
    clear_plan_cache()
    started = _now()
    op_plan_get(loop.name, loop.iterset, 256, loop.args)
    return (_now() - started) * 1e3


def translator_lower_ms(loops: list[Any]) -> float:
    """``parse_kernel`` + ``build_slab`` for each loop's kernel and slab
    signature, cold (nothing is cached on this path)."""
    started = _now()
    for loop in loops:
        ir = parse_kernel(loop.kernel.elemental, name=loop.kernel.name)
        build_slab(ir, slab_signature(loop))
    return (_now() - started) * 1e3


def interval_ops(analyzed_loops: list[Any], repeats: int = 5) -> dict[str, float]:
    """Cost of the interval algebra on the summaries the analyze stage built.

    Pairs are the summaries of consecutive chunks of one loop for the same
    ``(dat, access)``; each operation is timed over all pairs and the median
    of ``repeats`` passes is reported per operation.
    """
    pairs = []
    runs = []
    for analyzed in analyzed_loops:
        previous: dict[tuple, Any] = {}
        for chunk in analyzed.chunks:
            current = {}
            for dat_id, access, summary in chunk.access_groups or ():
                runs.append(summary.num_runs)
                current[(dat_id, access)] = summary
                if (dat_id, access) in previous:
                    pairs.append((previous[(dat_id, access)], summary))
            previous = current
    result = {"runs_per_summary": statistics.fmean(runs) if runs else 0.0}
    for op in ("union", "intersection", "difference"):
        timings = []
        for _ in range(repeats if pairs else 0):
            started = _now()
            for left, right in pairs:
                getattr(left, op)(right)
            timings.append((_now() - started) / len(pairs) * 1e6)
        result[f"{op}_us"] = statistics.median(timings) if timings else 0.0
    return result


def sim_makespans(nx: int, ny: int) -> dict[str, float]:
    """Modelled dataflow vs fork/join makespan of two Airfoil steps at 16
    threads on ``paper-testbed`` (exact), and the wall time of the dataflow
    report (which simulates the DAG)."""
    result = {}
    with Session(name="bench-sim"):
        for key, factory in (("dataflow", hpx_context), ("forkjoin", openmp_context)):
            clear_plan_cache()
            mesh = generate_mesh(nx, ny)
            ctx = factory(engine="simulate", num_threads=16, machine="paper-testbed")
            # the report simulates the accumulated DAG on first use
            with active_context(ctx):
                run_airfoil(mesh, niter=2, rk_steps=2)
                started = _now()
                report = ctx.report()
                seconds = _now() - started
            result[f"makespan_ms.{key}"] = report.makespan_seconds * 1e3
            if key == "dataflow":
                result["simulate_ms"] = seconds * 1e3
    forkjoin = result["makespan_ms.forkjoin"]
    result["dataflow_gain"] = (forkjoin - result["makespan_ms.dataflow"]) / forkjoin
    return result
