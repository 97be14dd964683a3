"""Run Airfoil on the shared-memory *multiprocess* chunk-DAG engine.

``hpx_context(engine="processes")`` executes the same dependency-gated
chunk DAG as the threaded engine, but on worker *processes*: every dat lives
in a ``multiprocessing.shared_memory`` segment that workers gather/scatter
into in place, chunks dispatch by registered kernel name, and the
deterministic merge chain carries global reductions back to the parent.
Because each worker owns its own GIL, the NumPy kernels that keep the
threaded engine serialised can genuinely overlap.

The interesting number is the *marginal* cost of a time step: the first
iteration pays one-off costs (worker fork, segment creation, cold interval
summaries), after which the processes engine is the substrate whose
per-iteration wall clock drops below the serial baseline.

Run with::

    PYTHONPATH=src python examples/process_execution.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.bench.harness import AirfoilWorkload, ExperimentConfig, run_wallclock_comparison
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache

NX, NY = 600, 400
STEADY_ITERS = 4


def run(factory, niter, **kwargs):
    clear_plan_cache()
    mesh = generate_mesh(NX, NY)
    context = factory(**kwargs)
    with active_context(context):
        result = run_airfoil(mesh, niter=niter, rk_steps=2)
    return result, context.report()


def main() -> None:
    configs = [
        ("serial reference", serial_context, {}),
        ("hpx threads(4)", hpx_context, dict(num_threads=4, engine="threads")),
        ("hpx processes(4)", hpx_context, dict(num_threads=4, engine="processes")),
    ]

    print(f"Airfoil {NX}x{NY}, rk_steps=2 -- wall clock of 1 vs {STEADY_ITERS} time steps\n")
    print(
        f"{'configuration':18s} {'1 iter [ms]':>12s} {f'{STEADY_ITERS} iters [ms]':>14s} "
        f"{'marginal/iter [ms]':>19s} {'max |q - serial|':>17s}"
    )
    reference_q = None
    proc_report = None
    for label, factory, kwargs in configs:
        _, single_report = run(factory, 1, **kwargs)
        steady_result, steady_report = run(factory, STEADY_ITERS, **kwargs)
        if reference_q is None:
            reference_q = steady_result.q
        if label.startswith("hpx processes"):
            proc_report = steady_report
        diff = float(np.abs(steady_result.q - reference_q).max())
        marginal = (steady_report.wall_seconds - single_report.wall_seconds) / (
            STEADY_ITERS - 1
        )
        print(
            f"{label:18s} {single_report.wall_seconds * 1e3:12.1f} "
            f"{steady_report.wall_seconds * 1e3:14.1f} {marginal * 1e3:19.1f} "
            f"{diff:17.2e}"
        )

    assert proc_report is not None
    print(
        f"\nprocesses engine: {proc_report.details['workers']} workers, "
        f"{proc_report.details['shared_dats']} shared dats, "
        f"{proc_report.details['total_chunks']} chunks, "
        f"{proc_report.details['total_dependencies']} dependency edges"
    )

    # The Fig. 15/16-style wall-clock track, now with all three substrates.
    comparison = run_wallclock_comparison(
        ExperimentConfig(
            backend="hpx",
            num_threads=4,
            workload=AirfoilWorkload(nx=60, ny=40, niter=1, rk_steps=2),
        )
    )
    print("\nwall-clock comparison (60x40 mesh):")
    for execution, entry in comparison.items():
        # A 60x40 mesh is far below the grain threshold: the deferred engines
        # run it inline (no tasks, nothing to model), only ``simulate`` --
        # which never defers -- still reports a modelled makespan.
        makespan = (
            f"{entry['makespan_seconds'] * 1e3:8.4f} ms"
            if entry["makespan_seconds"] > 0.0
            else "  inline   "
        )
        print(
            f"  {execution:10s} wall={entry['wall_seconds'] * 1e3:8.2f} ms  "
            f"makespan={makespan}  "
            f"correct={bool(entry['numerically_correct'])}"
        )
    assert all(entry["numerically_correct"] for entry in comparison.values())


if __name__ == "__main__":
    main()
