"""Run Airfoil on the *sharded* engine and measure its halo traffic.

``hpx_context(engine="sharded")`` partitions every ``OpSet`` into
contiguous per-worker shards: each worker computes against its own
partition of every dat, and data crosses a shard boundary only as an
interval-exact **halo exchange** -- the precise index runs the chunk-DAG's
``IntervalSet`` summaries say a consumer reads from another shard's
territory, batched into the chunk RPCs themselves.

Two numbers matter here, both persisted to ``BENCH_sharded.json``:

* **halo bytes vs whole-dat bytes** on a renumbered 400x300 airfoil mesh --
  what the engine actually copied across shard boundaries against the
  counterfactual of shipping every accessed dat whole (what a naive
  partition-blind distribution would do).  Renumbering is the hard case:
  scattered connectivity maximises cross-shard reads, and the halo must
  stay interval-exact rather than degrade to whole-dat broadcasts.
* **steady-state marginal wall clock per time step** next to the
  ``processes`` engine, whose single-shared-segment layout the sharded
  engine generalises.

The mesh is 400x300 because anything much smaller never reaches the engine:
a deferring context runs its loops inline until one measures at or above
the grain threshold (:mod:`repro.core.grain`; the serial reference computed
first supplies the measurements), and ``res_calc`` crosses it only on a mesh
of this size.  The example prints the gate's decision per run.

Run with::

    PYTHONPATH=src python examples/sharded_execution.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.bench.harness import bench_metadata
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache

NX, NY = 400, 300
WORKERS = 4
STEADY_ITERS = 4


def run_renumbered(engine_kwargs, method, niter=1):
    clear_plan_cache()
    mesh = renumber_mesh(generate_mesh(NX, NY), method=method, seed=0)
    context = hpx_context(**engine_kwargs)
    with active_context(context):
        result = run_airfoil(mesh, niter=niter, rk_steps=2)
    return result, context


def main() -> None:
    # -- halo traffic on renumbered meshes ---------------------------------
    print(f"Airfoil {NX}x{NY} (renumbered), {WORKERS} shards -- halo traffic\n")
    print(
        f"{'renumbering':12s} {'halo [MB]':>10s} {'whole-dat [MB]':>15s} "
        f"{'ratio':>7s} {'fetches':>8s} {'max |q - serial|':>17s}"
    )
    halo_series = {}
    for method in ("shuffle", "rcm"):
        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_airfoil(
                renumber_mesh(generate_mesh(NX, NY), method=method, seed=0),
                niter=1,
                rk_steps=2,
            )
        result, context = run_renumbered(
            dict(num_threads=WORKERS, engine="sharded"), method
        )
        diff = float(np.abs(result.q - reference.q).max())
        assert np.allclose(result.q, reference.q, rtol=1e-12, atol=1e-14)
        gate = context.report().details["grain"]
        if context.executor is None:
            # A machine fast enough to keep res_calc below the threshold
            # never creates the engine: there is no halo traffic to report.
            print(f"{method:12s} ran inline ({gate['inline_loops']} loops below "
                  f"{gate['threshold_seconds'] * 1e3:.0f} ms): no engine, no halo")
            continue
        stats = context.executor.halo_stats()
        assert 0 < stats["halo_bytes"] < stats["whole_dat_bytes"], (
            "halo traffic must stay strictly below the whole-dat counterfactual"
        )
        ratio = stats["halo_bytes"] / stats["whole_dat_bytes"]
        print(
            f"{method:12s} {stats['halo_bytes'] / 1e6:10.2f} "
            f"{stats['whole_dat_bytes'] / 1e6:15.2f} {ratio:7.3f} "
            f"{stats['halo_fetches']:8d} {diff:17.2e}"
        )
        halo_series[method] = {**stats, "halo_ratio": ratio, "grain_gate": gate}

    # -- steady-state marginal wall clock vs processes ---------------------
    print(
        f"\nsteady-state marginal wall clock "
        f"(1 vs {STEADY_ITERS} steps, shuffle renumbering):\n"
    )
    print(f"{'engine':12s} {'1 iter [ms]':>12s} {f'{STEADY_ITERS} iters [ms]':>14s} "
          f"{'marginal/iter [ms]':>19s}")
    marginal_series = {}
    for engine in ("processes", "sharded"):
        kwargs = dict(num_threads=WORKERS, engine=engine)
        _, single = run_renumbered(kwargs, "shuffle", niter=1)
        _, steady = run_renumbered(kwargs, "shuffle", niter=STEADY_ITERS)
        single_s = single.report().wall_seconds
        steady_s = steady.report().wall_seconds
        marginal = (steady_s - single_s) / (STEADY_ITERS - 1)
        print(
            f"{engine:12s} {single_s * 1e3:12.1f} {steady_s * 1e3:14.1f} "
            f"{marginal * 1e3:19.1f}"
        )
        marginal_series[engine] = {
            "single_iter_seconds": single_s,
            "steady_iters_seconds": steady_s,
            "marginal_per_iter_seconds": marginal,
        }

    payload = {
        "benchmark": "sharded_halo_traffic",
        "backend": "hpx",
        "num_threads": WORKERS,
        "metadata": bench_metadata(),
        "workload": {"nx": NX, "ny": NY, "niter": 1, "rk_steps": 2,
                     "renumber_seed": 0},
        "halo_traffic": halo_series,
        "steady_state_marginal": {
            "iters": STEADY_ITERS,
            "renumbering": "shuffle",
            "series": marginal_series,
        },
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\npersisted -> {path}")


if __name__ == "__main__":
    main()
