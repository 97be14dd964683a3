"""Warm engine reuse across loop chains with an explicit ``Session``.

The paper's runtime is long-lived: many loop chains share one warm executor
instead of spinning worker threads/processes up and down per chain.  This
example measures exactly that seam.  Each *chain* is a short Airfoil run on
its own fresh mesh:

* **cold** -- no session: every chain's context owns a private engine, pays
  pool spin-up on its first loop and shuts the pool down on exit (the
  historical lifecycle);
* **warm** -- one :class:`repro.session.Session` around all chains: the first
  chain spins the pool up, later chains borrow the same live engine from the
  session's pool and only *drain* it on exit.  Engines are shut down once, at
  ``Session.close()``.

The marginal chain time (chains after the first) is the number to watch: warm
chains skip thread/process creation and teardown entirely.  The mesh is
400x300 on purpose: a chain whose loops measure below the grain threshold
(:mod:`repro.core.grain`) never acquires an engine at all, cold or warm --
there would be no spin-up to save -- so the example sizes its loops above it
and prints what the gate decided.

Run with::

    PYTHONPATH=src python examples/session_reuse.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

#: chains per variant; the first is the spin-up chain, the rest are marginal
NUM_CHAINS = 4
NX, NY = 400, 300
ITERATIONS = 2


def run_chain(engine: str, num_threads: int) -> tuple[float, np.ndarray, dict]:
    """One loop chain (fresh mesh, fresh context); returns (seconds, result,
    the grain gate's account of the chain)."""
    clear_plan_cache()
    mesh = generate_mesh(NX, NY)
    context = hpx_context(engine=engine, num_threads=num_threads)
    started = time.perf_counter()
    with active_context(context):
        result = run_airfoil(mesh, niter=ITERATIONS, rk_steps=2)
    seconds = time.perf_counter() - started
    return seconds, result.q, context.report().details["grain"]


def run_variant(engine: str, num_threads: int, *, warm: bool) -> dict:
    """Run ``NUM_CHAINS`` chains cold (no session) or warm (one session)."""
    chains: list[float] = []
    outputs: list[np.ndarray] = []
    deferred_loops = 0

    def one_chain() -> None:
        nonlocal deferred_loops
        seconds, u, gate = run_chain(engine, num_threads)
        chains.append(seconds)
        outputs.append(u)
        deferred_loops += gate["deferred_loops"]

    if warm:
        with Session(name=f"warm-{engine}") as session:
            for _ in range(NUM_CHAINS):
                one_chain()
                # At most one live engine serves every chain of the session
                # (none while every loop so far ran inline).
                assert len(session.live_engines()) <= 1
    else:
        for _ in range(NUM_CHAINS):
            one_chain()
    marginal = chains[1:]
    return {
        "chain_seconds": chains,
        "first_chain_seconds": chains[0],
        "marginal_chain_seconds_mean": sum(marginal) / len(marginal),
        "deferred_loops": deferred_loops,
        "outputs": outputs,
    }


def main() -> None:
    # Serial reference: every chain, cold or warm, must reproduce it (to
    # rounding: res_calc accumulates through several scatter streams).  It
    # also gives the default session the loop timings the cold chains' gates
    # decide on; a warm session measures its own during its first chain.
    clear_plan_cache()
    with active_context(serial_context()):
        reference = run_airfoil(
            generate_mesh(NX, NY), niter=ITERATIONS, rk_steps=2
        ).q

    num_threads = 2
    print(
        f"{NUM_CHAINS} Airfoil chains ({NX}x{NY}, {ITERATIONS} time steps), "
        f"num_threads={num_threads}"
    )
    print(
        f"{'engine':>10s} {'variant':>6s} {'first chain [ms]':>17s} "
        f"{'marginal chain [ms]':>20s}"
    )
    for engine in ("threads", "processes"):
        cold = run_variant(engine, num_threads, warm=False)
        warm = run_variant(engine, num_threads, warm=True)
        for variant, stats in (("cold", cold), ("warm", warm)):
            for u in stats.pop("outputs"):
                assert np.allclose(u, reference, rtol=1e-12, atol=1e-14), (
                    f"{engine}/{variant} diverged"
                )
            print(
                f"{engine:>10s} {variant:>6s} "
                f"{stats['first_chain_seconds'] * 1e3:17.2f} "
                f"{stats['marginal_chain_seconds_mean'] * 1e3:20.2f}"
                f"   {stats['deferred_loops']} loops deferred"
                + ("" if stats["deferred_loops"] else " (all inline: no engine)")
            )
        saved = (
            cold["marginal_chain_seconds_mean"] - warm["marginal_chain_seconds_mean"]
        )
        ratio = (
            cold["marginal_chain_seconds_mean"] / warm["marginal_chain_seconds_mean"]
        )
        print(
            f"{engine:>10s}   warm reuse saves {saved * 1e3:.2f} ms per chain "
            f"({ratio:.2f}x marginal speedup)\n"
        )


if __name__ == "__main__":
    main()
