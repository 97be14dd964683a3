"""Run Airfoil on the *sharded* engine: ``processes`` with owner placement.

``hpx_context(engine="sharded")`` is the ``processes`` engine -- one shared
arena, one segment per dat and map -- whose chunks are pinned to workers by
OP2's owner-compute rule: each ``OpSet`` is cut into ``num_workers``
contiguous ranges, a row chunk runs on the worker owning its start and an
owner chunk on the worker owning the start of its target range.

The example prints

* the placement: each set's owned range per worker, and how each loop was
  chunked (``rows`` chunks follow the iteration set, ``owner`` chunks the
  set they increment);
* the steady-state marginal wall clock per time step next to
  ``processes``, with a sha1 over ``q``/``res``/``adt``/``qold`` against
  ``serial``.

The mesh is 400x300 because anything much smaller never reaches the engine:
a deferring context runs its loops inline until one measures at or above
the grain threshold (:mod:`repro.core.grain`; the serial reference computed
first supplies the measurements).  The example prints the gate's decision.

Run with::

    PYTHONPATH=src python examples/sharded_execution.py
"""

from __future__ import annotations

import hashlib

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.runtime.sharding import ShardPartition

NX, NY = 400, 300
WORKERS = 4
STEADY_ITERS = 4


def run(context, niter):
    clear_plan_cache()
    mesh = generate_mesh(NX, NY)
    with active_context(context):
        run_airfoil(mesh, niter=niter, rk_steps=2)
    digest = hashlib.sha1()
    for dat in (mesh.p_q, mesh.p_res, mesh.p_adt, mesh.p_qold):
        digest.update(dat.data.tobytes())
    return mesh, context.report(), digest.hexdigest()


def main() -> None:
    mesh, _, reference = run(serial_context(), STEADY_ITERS)

    # -- placement ----------------------------------------------------------
    partition = ShardPartition(WORKERS)
    print(f"Airfoil {NX}x{NY}, {WORKERS} workers -- owned range per worker\n")
    print(f"{'set':8s} " + " ".join(f"{f'worker {w}':>17s}" for w in range(WORKERS)))
    for opset in (mesh.cells, mesh.edges, mesh.bedges):
        cuts = partition.cuts(opset.set_id, opset.size)
        ranges = [f"[{cuts[w]}, {cuts[w + 1]})" for w in range(WORKERS)]
        print(f"{opset.name:8s} " + " ".join(f"{r:>17s}" for r in ranges))

    # -- steady step beside processes ---------------------------------------
    print(f"\nwall clock of 1 vs {STEADY_ITERS} time steps, sha1 vs serial:\n")
    print(f"{'engine':10s} {'marginal/iter [ms]':>19s} {'sha1 == serial':>15s}")
    owner = grain = None
    for engine in ("processes", "sharded"):
        kwargs = dict(num_threads=WORKERS, engine=engine)
        _, single, _ = run(hpx_context(**kwargs), 1)
        _, steady, digest = run(hpx_context(**kwargs), STEADY_ITERS)
        marginal = (steady.wall_seconds - single.wall_seconds) / (STEADY_ITERS - 1)
        assert digest == reference, f"{engine}: dats differ from serial"
        print(f"{engine:10s} {marginal * 1e3:19.1f} {'yes':>15s}")
        owner, grain = steady.details["owner"], steady.details["grain"]

    print(f"\ngrain gate: {grain['deferred_loops']} loops deferred, "
          f"{grain['inline_loops']} inline")
    print("\nchunking per loop on sharded (rows: by iteration set, owner: by target):")
    for name, info in owner.items():
        print(f"  {name:10s} {info['chunking']:6s} {info['chunks']} chunks, "
              f"redundancy {info['redundancy']:.3f}")


if __name__ == "__main__":
    main()
