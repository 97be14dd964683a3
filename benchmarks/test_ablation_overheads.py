"""Ablation: sensitivity to barrier and task-spawn overheads.

The cost-model calibration lives in one place (``repro.sim.machine``); this
benchmark varies the two scheduling overheads that differentiate the OpenMP
and HPX designs -- the per-loop fork/join + barrier cost and the per-task
spawn cost -- and checks the comparison behaves sensibly at the extremes:
with free barriers the OpenMP baseline closes most of the gap, and with very
expensive task spawns the dataflow advantage shrinks.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_WORKLOAD

from repro.sim.machine import Machine, MachineConfig


def _run(backend: str, machine: Machine) -> float:
    from repro.apps.airfoil import generate_mesh, run_airfoil
    from repro.op2.backends.hpx import hpx_context
    from repro.op2.backends.openmp import openmp_context
    from repro.op2.context import active_context
    from repro.op2.plan import clear_plan_cache

    clear_plan_cache()
    mesh = generate_mesh(BENCH_WORKLOAD.nx, BENCH_WORKLOAD.ny)
    factory = openmp_context if backend == "openmp" else hpx_context
    with active_context(factory(machine=machine, num_threads=32)) as ctx:
        run_airfoil(mesh, niter=1)
    return ctx.report().makespan_seconds


def test_overhead_sensitivity(benchmark):
    base_config = MachineConfig.from_preset("paper-testbed")

    def sweep():
        results = {}
        for label, overrides in (
            ("calibrated", {}),
            ("free-barriers", {"fork_join_overhead_us": 0.0,
                               "barrier_overhead_us_per_thread": 0.0}),
            ("expensive-spawn", {"task_spawn_overhead_us": 20.0}),
        ):
            machine = Machine(dataclasses.replace(base_config, **overrides))
            results[label] = {
                "openmp": _run("openmp", machine),
                "hpx": _run("hpx", machine),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — overhead sensitivity (32 threads, ms)")
    for label, times in results.items():
        gain = 100 * (times["openmp"] - times["hpx"]) / times["openmp"]
        print(f"  {label:16s} openmp={times['openmp']*1e3:8.3f}  "
              f"hpx={times['hpx']*1e3:8.3f}  gain={gain:5.1f}%")

    calibrated_gain = results["calibrated"]["openmp"] - results["calibrated"]["hpx"]
    free_barrier_gain = results["free-barriers"]["openmp"] - results["free-barriers"]["hpx"]
    expensive_spawn_gain = results["expensive-spawn"]["openmp"] - results["expensive-spawn"]["hpx"]
    # Removing barrier costs helps OpenMP, shrinking the dataflow advantage.
    assert free_barrier_gain <= calibrated_gain * 1.001
    # Making task spawns very expensive hurts the dataflow backend.
    assert expensive_spawn_gain <= calibrated_gain * 1.001
    # Dataflow still wins under the calibrated model.
    assert calibrated_gain > 0
