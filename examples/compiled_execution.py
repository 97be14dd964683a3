"""Lowered kernel slabs: the ``compiled`` engine and its artifact cache.

The ``compiled`` engine keeps the threaded engine's chunk DAG but asks the
kernel-lowering pipeline for a *slab* per ``(kernel, argument signature)``:
one generated gather-compute-scatter function replacing the per-element
interpreted kernel call.  Slabs are JIT-compiled through numba when it is
importable and run as plain exec'd NumPy modules otherwise -- this example
prints which backend is active.

The engine is only reached by loops worth the tasks: a deferring context
runs its loops inline until one measures at or above the grain threshold
(:mod:`repro.core.grain`).  The chains here are far below it -- and without
numba a slab is a per-element Python loop, so a chain large enough to cross
it would take minutes -- which means that on a plain interpreter this
example reports every loop inline and an untouched artifact cache.  The
lowering pipeline itself is exercised by ``tests/test_compiled_engine.py``
and ``tests/test_translator.py`` (gate pinned closed).

Two measurements:

* **cold vs warm chains** -- several Jacobi loop chains inside one
  :class:`repro.session.Session`.  The first chain pays parsing + emission
  (artifact-cache *misses*); every later chain reuses the cached artifacts
  (*hits*), so its marginal time drops.  All chains are asserted
  bit-identical to the serial backend.
* **engine comparison** -- :func:`repro.bench.harness.run_wallclock_comparison`
  over every registered engine (the ``compiled`` engine joins automatically)
  on a small Airfoil workload.  Each engine's entry records its
  artifact-cache traffic under ``details``.

Run with::

    PYTHONPATH=src python examples/compiled_execution.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.bench.harness import (
    AirfoilWorkload,
    ExperimentConfig,
    run_wallclock_comparison,
)
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

NUM_CHAINS = 4
NUM_NODES = 2000
ITERATIONS = 10


def slab_backend() -> str:
    """Which slab backend this interpreter gets ("numba" or "numpy")."""
    from repro.translator import SlabArg, build_slab, parse_kernel

    def probe(a, out):
        out[0] = a[0]

    artifact = build_slab(
        parse_kernel(probe),
        (SlabArg(kind="direct", access="READ", dim=1, dtype="float64"),
         SlabArg(kind="direct", access="WRITE", dim=1, dtype="float64")),
        fingerprint="backend-probe",
    )
    return artifact.backend


def run_chain() -> tuple[float, np.ndarray, dict]:
    """One Jacobi loop chain under the compiled engine (plus the gate's account)."""
    clear_plan_cache()
    problem = build_ring_problem(num_nodes=NUM_NODES)
    context = hpx_context(engine="compiled", num_threads=2)
    started = time.perf_counter()
    with active_context(context):
        result = run_jacobi(problem, iterations=ITERATIONS)
    seconds = time.perf_counter() - started
    return seconds, result.u, context.report().details["grain"]


def main() -> None:
    print(f"slab backend: {slab_backend()} "
          "(numba JIT when importable, exec'd NumPy module otherwise)\n")

    # Serial reference: every compiled chain must reproduce it bit-exactly.
    clear_plan_cache()
    with active_context(serial_context()):
        reference = run_jacobi(
            build_ring_problem(num_nodes=NUM_NODES), iterations=ITERATIONS
        ).u

    print(f"{NUM_CHAINS} Jacobi chains ({NUM_NODES} nodes, "
          f"{ITERATIONS} iterations) under engine='compiled':")
    print(f"{'chain':>6s} {'time [ms]':>10s} {'cache hits':>11s} "
          f"{'cache misses':>13s} {'loops inline/deferred':>22s}")
    with Session(name="compiled-example") as session:
        previous = session.artifact_cache_stats()
        for chain in range(NUM_CHAINS):
            seconds, u, gate = run_chain()
            assert np.array_equal(u, reference), "compiled chain diverged"
            stats = session.artifact_cache_stats()
            print(f"{chain:>6d} {seconds * 1e3:>10.2f} "
                  f"{stats['hits'] - previous['hits']:>11d} "
                  f"{stats['misses'] - previous['misses']:>13d} "
                  f"{gate['inline_loops']:>14d}/{gate['deferred_loops']:<7d}")
            previous = stats
        final = session.artifact_cache_stats()
    print(f"total: {final['entries']} cached artifacts, "
          f"{final['hits']} hits / {final['misses']} misses "
          "(a deferred chain 0 pays lowering, later chains reuse; inline "
          "loops never lower)\n")

    # Engine comparison on a small Airfoil step; compiled joins automatically.
    config = ExperimentConfig(
        backend="hpx",
        num_threads=2,
        workload=AirfoilWorkload(nx=40, ny=26, niter=1, rk_steps=2),
    )
    comparison = run_wallclock_comparison(config)
    print("wall-clock comparison (Airfoil 40x26, 1 step):")
    print(f"{'engine':>10s} {'wall [ms]':>10s} {'correct':>8s} "
          f"{'artifact hits/misses':>21s}")
    for engine, entry in sorted(comparison.items()):
        details = entry["details"]
        print(f"{engine:>10s} {entry['wall_seconds'] * 1e3:>10.2f} "
              f"{entry['numerically_correct'] == 1.0!s:>8s} "
              f"{details['artifact_cache_hits']:>12d}/{details['artifact_cache_misses']:<8d}")


if __name__ == "__main__":
    main()
