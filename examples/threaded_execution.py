"""Run Airfoil on the *real* threaded chunk-DAG engine.

``hpx_context(engine="threads")`` replaces the eager, sequential numerical
execution with a worker pool: every chunk of every ``op_par_loop`` becomes a
pool task gated by the same dependency edges the simulator models, so
dependent loops genuinely interleave on OS threads.  The report then carries
both numbers -- the simulated makespan of the machine model *and* the
measured wall-clock time -- next to a correctness check against the serial
backend.

The mesh is 400x300 because a deferring context only hands loops to its
engine once one of them measures at or above the grain threshold
(:mod:`repro.core.grain`): the serial reference run first supplies the
measurements, ``res_calc`` crosses the threshold at this size, and the hpx
rows flip to deferred execution at their first ``res_calc``.  On a 120x80
mesh the same contexts would run every loop inline and report zero chunks.

Run with::

    PYTHONPATH=src python examples/threaded_execution.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache


def run(factory, label, **kwargs):
    clear_plan_cache()
    mesh = generate_mesh(400, 300)
    context = factory(**kwargs)
    with active_context(context):
        result = run_airfoil(mesh, niter=2, rk_steps=2)
    report = context.report()
    return label, result, report


def main() -> None:
    runs = [
        run(serial_context, "serial reference"),
        run(openmp_context, "openmp (pooled colours)", num_threads=4, engine="threads"),
        run(hpx_context, "hpx dataflow (threads)", num_threads=4, engine="threads"),
        run(
            hpx_context,
            "hpx dataflow (threads, persistent chunks)",
            num_threads=4,
            engine="threads",
            chunking="persistent_auto",
        ),
    ]
    _, reference, _ = runs[0]

    print(f"{'configuration':44s} {'wall [ms]':>10s} {'sim makespan [ms]':>18s} {'max |q - serial|':>18s}")
    for label, result, report in runs:
        diff = float(np.abs(result.q - reference.q).max())
        sim = report.makespan_seconds * 1e3
        print(f"{label:44s} {report.wall_seconds * 1e3:10.2f} {sim:18.4f} {diff:18.2e}")

    _, _, hpx_report = runs[2]
    gate = hpx_report.details["grain"]
    print(
        f"\nhpx threads: {gate['inline_loops']} loops inline, then "
        f"{gate['deferred_loops']} deferred (flipped at {gate['flip_loop']}): "
        f"{hpx_report.details['total_chunks']} chunks, "
        f"{hpx_report.details['total_dependencies']} dependency edges "
        f"({hpx_report.details['dependency_mode']} summaries) enforced at runtime"
    )

    # Renumbered meshes are where the exact interval-set summaries earn their
    # keep: shuffled cell/node ids defeat a single [min, max] interval, which
    # then serializes chunks whose true target sets are disjoint.  The edge
    # counts are the tracker's, so the sweep runs on the ``simulate`` engine:
    # a 120x80 mesh on a real engine stays inline and produces no edges.
    from repro.bench.harness import AirfoilWorkload, ExperimentConfig, run_renumbered_sweep

    sweep = run_renumbered_sweep(
        ExperimentConfig(
            backend="hpx",
            num_threads=8,
            engine="simulate",
            workload=AirfoilWorkload(nx=120, ny=80, niter=1, rk_steps=2),
        ),
        renumberings=("shuffle",),
    )
    print("\ndependency edges by chunk-summary representation:")
    for mesh_label, modes in sweep.items():
        exact, coarse = modes["interval_set"], modes["minmax"]
        print(
            f"  {mesh_label:8s} interval-set={exact['dependency_edges']:6.0f}  "
            f"minmax={coarse['dependency_edges']:6.0f}  "
            f"correct={bool(exact['numerically_correct']) and bool(coarse['numerically_correct'])}"
        )


if __name__ == "__main__":
    main()
