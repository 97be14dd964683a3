"""Mesh-size sweep behind ``repro.core.grain.GRAIN_THRESHOLD_SECONDS``.

For each Airfoil mesh: the measured inline time of the two largest loops
(min over the serial reference's samples), the serial step, and the median
steady step of an ``hpx_context`` on each deferred engine with the gate forced
all-inline vs all-deferred (chains interleaved, W=2).  Results and the reading
of them: ``docs/perf/pr-24.txt``.

    PYTHONPATH=src python docs/perf/grain_sweep.py
"""

from __future__ import annotations

import statistics
import time

from repro.apps.airfoil import ADT_CALC, RES_CALC, generate_mesh, run_airfoil
from repro.core import grain
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

MESHES = [(120, 80), (160, 120), (200, 150), (240, 180), (280, 210), (340, 255), (400, 300)]
ENGINES = ("threads", "processes", "sharded")
WORKERS = 2
_now = time.perf_counter


def _step_ms(mesh) -> float:
    started = _now()
    run_airfoil(mesh, niter=1, rk_steps=2)
    return (_now() - started) * 1e3


def sweep_mesh(nx: int, ny: int) -> str:
    steps = max(6, min(30, 400_000 // (nx * ny)))
    with Session(name=f"sweep-{nx}x{ny}") as session:
        clear_plan_cache()
        mesh = generate_mesh(nx, ny)
        mesh.declare()
        with active_context(serial_context()):
            serial = [_step_ms(mesh) for _ in range(steps + 1)][1:]
        loop_ms = [
            session.loop_costs.lookup((kernel.fingerprint, rows, True))[0] * 1e3
            for kernel, rows in ((RES_CALC, mesh.edges.size), (ADT_CALC, mesh.cells.size))
        ]
        chains = []
        for engine in ENGINES:
            for inline in (True, False):
                chain_mesh = generate_mesh(nx, ny)
                chain_mesh.declare()
                context = hpx_context(engine=engine, num_threads=WORKERS)
                chains.append((engine, inline, chain_mesh, context, []))
        for k in range(steps + 1):
            for _engine, inline, chain_mesh, context, samples in chains if k % 2 == 0 else chains[::-1]:
                grain.should_defer = lambda loop, phase, cost, inline=inline: not inline
                session.push_context(context)
                try:
                    elapsed = _step_ms(chain_mesh)
                finally:
                    session.pop_context(context)
                if k:  # the cold step is not a sample
                    samples.append(elapsed)
        for _engine, _inline, _mesh, context, _samples in chains:
            session.push_context(context)
            try:
                context.finish()
            finally:
                session.pop_context(context)
    median = {(engine, inline): statistics.median(s) for engine, inline, _m, _c, s in chains}
    cells = " | ".join(
        f"{median[(e, True)]:>13.1f} {median[(e, False)]:>13.1f}" for e in ENGINES
    )
    return (
        f"{nx:>4}x{ny:<4} {loop_ms[0]:>11.2f} {loop_ms[1]:>11.2f} "
        f"{statistics.median(serial):>8.1f} | {cells}"
    )


def main() -> None:
    header = " | ".join(f"{e + ' inl':>13} {e + ' def':>13}" for e in ENGINES)
    print(f"{'mesh':>9} {'res_calc_ms':>11} {'adt_calc_ms':>11} {'serial':>8} | {header}")
    decide = grain.should_defer
    try:
        for nx, ny in MESHES:
            print(sweep_mesh(nx, ny), flush=True)
    finally:
        grain.should_defer = decide


if __name__ == "__main__":
    main()
