"""The three Airfoil workloads: interleaved chains of time steps per target.

A *round* opens a fresh :class:`Session`, computes the serial reference,
builds one chain per target (fresh mesh, one context, the cold step) and then
takes steady steps from the chains in turn.  Every ``run_airfoil(mesh,
niter=1, rk_steps=2)`` call ends in ``update``'s ``rms`` reduction drain, so a
call is one complete time step on every engine.  Set-up (everything before
the first steady step) is timed once per round; steady samples of all rounds
are pooled.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.engines import RunConfig
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

from common import PARITY_TOLERANCE, shm_segments
from tracer import Tracer

_now = time.perf_counter


def engine_name(target: str) -> Optional[str]:
    """Registered engine a target's chunks run on (``None``: no engine)."""
    if target in ("serial", "simulate"):
        return None
    return "threads" if target == "forkjoin" else target


def make_context(target: str, workers: int) -> Any:
    """``serial`` = serial reference, ``forkjoin`` = the paper's OpenMP-style
    baseline on the thread pool, every other target = the HPX context on the
    engine of that name."""
    if target == "serial":
        return serial_context()
    if target == "forkjoin":
        return openmp_context(engine="threads", num_threads=workers)
    return hpx_context(engine=target, num_threads=workers)


def build_mesh(conf: dict, seed: int) -> Any:
    mesh = generate_mesh(conf["nx"], conf["ny"])
    if conf["renumber"]:
        mesh = renumber_mesh(mesh, method=conf["renumber"], seed=seed)
    mesh.declare()
    return mesh


class Chain:
    """One target's sequence of time steps on its own mesh and context."""

    def __init__(
        self, session: Session, target: str, conf: dict, seed: int,
        chain_id: str, tracer: Optional[Tracer] = None,
    ) -> None:
        self.session = session
        self.target = target
        self.conf = conf
        self.seed = seed
        self.chain_id = chain_id
        self.tracer = tracer
        self.count = 0  # time steps taken so far (cold step included)
        self.samples_ms: list[float] = []
        self.totals: list[Any] = []
        self.halo: list[dict] = []
        self.error: Optional[str] = None
        self.q: Optional[np.ndarray] = None
        self.mesh_s = self.spinup_s = self.first_step_s = 0.0
        self.max_delta = float("nan")
        self.shm_peak = 0
        self.engine: Any = None

    def open(self) -> None:
        """Mesh, context and the cold step (plans, summaries, spin-up, adoption)."""
        started = _now()
        self.mesh = build_mesh(self.conf, self.seed)
        self.mesh_s = _now() - started
        engine = engine_name(self.target)
        if self.tracer is not None and engine is not None:
            started = _now()
            self.engine = self.session.engine(
                RunConfig(engine=engine, num_threads=self.conf["workers"])
            )
            self.spinup_s = _now() - started
            self.tracer.wrap_engine(self.engine)
        self.ctx = make_context(self.target, self.conf["workers"])
        if self.tracer is not None:
            self.ctx.pipeline.add_observer(self.tracer.observe)
        self.first_step_s = self._step()

    def _step(self) -> float:
        """One time step under the chain's context; returns its seconds."""
        tracer = self.tracer
        halo_before = self._halo_stats()
        self.session.push_context(self.ctx)
        try:
            if tracer is not None:
                tracer.begin_step(self.chain_id, self.count)
            started = _now()
            run_airfoil(self.mesh, niter=1, rk_steps=2)
            seconds = _now() - started
        finally:
            self.session.pop_context(self.ctx)
            if tracer is not None:
                totals = tracer.end_step()
        self.count += 1
        if tracer is not None:
            if self.count > 1:
                self.totals.append(totals)
                if halo_before is not None:
                    after = self._halo_stats()
                    self.halo.append({k: after[k] - halo_before[k] for k in after})
            self.shm_peak = max(self.shm_peak, sum(shm_segments().values()))
        return seconds

    def _halo_stats(self) -> Optional[dict]:
        stats = getattr(self.engine, "halo_stats", None)
        return stats() if stats is not None else None

    def step(self) -> None:
        """A steady step; a failure ends the chain and fails all its steps."""
        if self.error is not None:
            return
        try:
            self.samples_ms.append(self._step() * 1e3)
        except Exception as exc:  # boundary: the other chains keep running
            self.error = f"{type(exc).__name__}: {exc}"
            self.ctx.abort()

    def close(self) -> None:
        """Finish the context (drain, home sync) and keep the final state."""
        if self.error is not None:
            return
        self.session.push_context(self.ctx)
        try:
            self.ctx.finish()
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.session.pop_context(self.ctx)
        self.q = self.mesh.p_q.data.copy()


def serial_reference(conf: dict, seed: int, max_count: int) -> tuple[list[np.ndarray], float]:
    """``q`` after 1..``max_count`` serial steps (index 0 unused) and the seconds."""
    started = _now()
    mesh = build_mesh(conf, seed)
    snapshots: list[np.ndarray] = [np.empty(0)]
    with active_context(serial_context()):
        for _ in range(max_count):
            snapshots.append(run_airfoil(mesh, niter=1, rk_steps=2).q)
    return snapshots, _now() - started


def run_round(
    conf: dict, seed: int, index: int, targets: list[str], steps: int,
    tracer: Optional[Tracer] = None,
) -> dict:
    """One round of interleaved chains; returns the chains and its timings."""
    round_start = _now()
    reps = conf["reps"]
    rep_of = {t: reps.get(t, 1) for t in targets}
    max_count = 1 + steps * max(rep_of.values())
    shift = index % len(targets)
    order = targets[shift:] + targets[:shift]
    with Session(name=f"bench-{conf['name']}-{index}") as session:
        clear_plan_cache()
        reference, reference_s = serial_reference(conf, seed, max_count)
        chains = [
            Chain(session, t, conf, seed, f"{t}/{index}", tracer) for t in order
        ]
        for chain in chains:
            try:
                chain.open()
            except Exception as exc:
                chain.error = f"{type(exc).__name__}: {exc}"
        setup_s = _now() - round_start
        for k in range(steps):
            for chain in chains if k % 2 == 0 else chains[::-1]:
                for _ in range(rep_of[chain.target]):
                    chain.step()
        for chain in chains:
            chain.close()
        stats = session.stats()
        close_start = _now()
    close_s = _now() - close_start
    if tracer is not None:
        tracer.unwrap_engines()
    for chain in chains:
        if chain.error is None:
            delta = np.abs(chain.q - reference[chain.count])
            chain.max_delta = float(delta.max())
            # written so that a NaN fails the check
            if not chain.max_delta <= PARITY_TOLERANCE:
                chain.error = f"parity: max|dq| = {chain.max_delta:.3e} at step {chain.count}"
    return {
        "chains": chains, "setup_s": setup_s, "close_s": close_s,
        "reference_s": reference_s, "session_stats": stats,
    }
