"""Tests of the grain gate (:mod:`repro.core.grain`).

The rest of the suite runs with the gate pinned closed (root ``conftest.py``);
the ``grain_gate`` marker opts these tests out, so they see the real decision:

* a chain whose loops are too small to pay for tasks never touches an engine
  -- no pool, no shared-memory segment, ready futures -- and is bit-identical
  to the serial backend (it *is* the serial reference path);
* a loop with two measured samples at or above the threshold flips the
  context to ``DEFERRED`` before it runs, for the rest of the context's life;
  one cold sample does not;
* a kernel failure in an inline loop surfaces exactly as under the serial
  backend and leaves the session reusable.

The last class drives the benchmark's own Airfoil round at smoke size with
the gate pinned closed: ``bench/run.py --scale smoke`` runs inline at smoke
sizes since the gate exists, so this is what keeps CI reaching every engine.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import RES_KERNEL, UPDATE_KERNEL, build_ring_problem, run_jacobi
from repro.core import grain
from repro.op2 import OP_ID, OP_RW, Kernel, op_arg_dat, op_decl_dat, op_decl_set, op_par_loop
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session

DEFERRED_ENGINES = ("threads", "processes", "sharded")


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("hpx-chunk-")}
    except OSError:
        return set()


def _heavy(session: Session, kernel: Kernel, rows: int, samples: int = 2) -> None:
    """Seed ``session``'s cost table: ``kernel`` over ``rows`` rows is heavy."""
    for _ in range(samples):
        session.loop_costs.record(
            (kernel.fingerprint, rows, True), 10 * grain.GRAIN_THRESHOLD_SECONDS
        )


# ---------------------------------------------------------------------------
# (a) small chains never become tasks
# ---------------------------------------------------------------------------
@pytest.mark.grain_gate
class TestSmallChainsStayInline:
    @pytest.mark.parametrize("engine", DEFERRED_ENGINES)
    def test_jacobi_300_creates_no_engine(self, engine):
        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_jacobi(build_ring_problem(num_nodes=300), iterations=5)
        segments = _shm_segments()
        with Session(name=f"gate-jacobi-{engine}") as session:
            # three requests, so the later ones decide on >= 2 samples
            for _ in range(3):
                clear_plan_cache()
                context = hpx_context(engine=engine, num_threads=2)
                with active_context(context):
                    result = run_jacobi(build_ring_problem(num_nodes=300), iterations=5)
                    assert all(f.is_ready() for f in context.loop_futures.values())
                assert np.array_equal(result.u, reference.u)
                assert result.u_sum_history == reference.u_sum_history
                assert context.executor is None
                assert session.live_engines() == []
                assert _shm_segments() == segments
            gate = context.report().details["grain"]
            assert gate["state"] == grain.INLINE
            assert gate["inline_loops"] == 10 and gate["deferred_loops"] == 0
            assert gate["flip_phase"] is None
            assert {r.submission for r in context.loop_records} == {"inline"}
            assert context.report().details["total_chunks"] == 0

    @pytest.mark.parametrize("engine", DEFERRED_ENGINES)
    def test_airfoil_48x32_creates_no_engine(self, engine):
        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_airfoil(generate_mesh(48, 32), niter=3, rk_steps=2)
        segments = _shm_segments()
        with Session(name=f"gate-airfoil-{engine}") as session:
            clear_plan_cache()
            context = hpx_context(engine=engine, num_threads=2)
            with active_context(context):
                result = run_airfoil(generate_mesh(48, 32), niter=3, rk_steps=2)
                assert all(f.is_ready() for f in context.loop_futures.values())
            # inline *is* the serial path: bit-identical even for res_calc
            assert np.array_equal(result.q, reference.q)
            assert result.rms_history == reference.rms_history
            assert session.live_engines() == []
            assert _shm_segments() == segments

    def test_every_whole_set_inline_run_is_measured(self):
        """Serial contexts, the simulate engine's eager loops and gate-inline
        loops all feed one table; the fork/join baseline's block-by-block
        eager execution does not (it is not the whole-set path)."""
        with Session(name="gate-measure") as session:
            problem = build_ring_problem(num_nodes=64)
            key = (RES_KERNEL.fingerprint, problem.edges.size, True)
            with active_context(openmp_context(engine="simulate", num_threads=2)):
                run_jacobi(problem, iterations=1)
            assert session.loop_costs.lookup(key) is None
            for expected, factory in enumerate(
                (
                    serial_context,
                    lambda: hpx_context(engine="simulate", num_threads=2),
                    lambda: hpx_context(engine="threads", num_threads=2),
                ),
                start=1,
            ):
                with active_context(factory()):
                    run_jacobi(problem, iterations=1)
                seconds, samples = session.loop_costs.lookup(key)
                assert samples == expected and seconds > 0.0
            assert session.stats()["loop_costs"] == 2  # res + jac_update

    def test_ungated_contexts_report_no_gate(self):
        for context in (
            serial_context(),
            openmp_context(engine="threads", num_threads=2),
            hpx_context(engine="simulate", num_threads=2),
        ):
            assert context.pipeline.grain is None
            assert "grain" not in context.report().details
        # the fork/join baseline keeps paying per-loop engine overhead
        clear_plan_cache()
        context = openmp_context(engine="threads", num_threads=2)
        with active_context(context):
            run_jacobi(build_ring_problem(num_nodes=64), iterations=1)
            assert context.executor is not None


# ---------------------------------------------------------------------------
# (b), (c) the flip
# ---------------------------------------------------------------------------
def _nap(x) -> None:
    x[0] += 1.0


def _nap_vec(_idx, x) -> None:
    # burn CPU, not wall clock: the gate measures the thread's CPU time
    until = time.thread_time() + 1.5 * grain.GRAIN_THRESHOLD_SECONDS
    while time.thread_time() < until:
        pass
    x[:, 0] += 1.0


#: whole-set execution spins past the threshold: measurably heavy, tiny data
NAP_KERNEL = Kernel(name="gate_nap", elemental=_nap, vectorized=_nap_vec)


def _wait(x) -> None:
    x[0] = x[0] + 1.0


def _wait_vec(_idx, x) -> None:
    time.sleep(1.5 * grain.GRAIN_THRESHOLD_SECONDS)
    x[:, 0] += 1.0


#: as long on the wall clock as NAP_KERNEL, but idle
WAIT_KERNEL = Kernel(name="gate_wait", elemental=_wait, vectorized=_wait_vec)


def _nap_loop(cells, dat) -> None:
    op_par_loop(NAP_KERNEL, "gate_nap", cells, op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW))


@pytest.mark.grain_gate
class TestFlip:
    def test_two_measured_samples_flip_before_the_loop_runs(self):
        """End to end through the real measurement: two serial executions of
        a slow loop, then a deferring context flips at its first loop."""
        with Session(name="gate-flip-measured") as session:
            cells = op_decl_set(8, "gate_cells")
            dat = op_decl_dat(cells, 1, "double", np.zeros((8, 1)), "gate_dat")
            with active_context(serial_context()):
                _nap_loop(cells, dat)
                _nap_loop(cells, dat)
            context = hpx_context(engine="threads", num_threads=2)
            with active_context(context):
                _nap_loop(cells, dat)
                assert context.executor is not None  # flipped *before* running
            assert np.array_equal(dat.data, np.full((8, 1), 3.0))
            gate = context.report().details["grain"]
            assert gate["state"] == grain.DEFERRED
            assert (gate["flip_phase"], gate["flip_loop"]) == (0, "gate_nap")
            assert (gate["inline_loops"], gate["deferred_loops"]) == (0, 1)
            assert len(session.live_engines()) == 1

    def test_a_single_cold_sample_does_not_flip(self):
        with Session(name="gate-cold") as session:
            cells = op_decl_set(8, "gate_cells")
            dat = op_decl_dat(cells, 1, "double", np.zeros((8, 1)), "gate_dat")
            context = hpx_context(engine="threads", num_threads=2)
            with active_context(context):
                _nap_loop(cells, dat)  # no sample yet: inline
                _nap_loop(cells, dat)  # one sample above the threshold: inline
                assert context.executor is None
                assert context.pipeline.grain.state == grain.INLINE
                _nap_loop(cells, dat)  # two samples: flips
                assert context.pipeline.grain.state == grain.DEFERRED
            assert np.array_equal(dat.data, np.full((8, 1), 3.0))
            gate = context.report().details["grain"]
            assert gate["flip_phase"] == 2 and gate["inline_loops"] == 2
            seconds, samples = session.loop_costs.lookup(
                (NAP_KERNEL.fingerprint, 8, True)
            )
            assert samples == 2 and seconds >= grain.GRAIN_THRESHOLD_SECONDS

    def test_waiting_is_not_work(self):
        """The samples are CPU time of the executing thread: a loop that spends
        its wall clock waiting (for the GIL, a core, a sleep) stays cheap --
        a dispatcher thread next to a busy tenant must not flip on 0.5 ms
        loops that *took* 26 ms."""
        with Session(name="gate-wait") as session:
            cells = op_decl_set(8, "gate_cells")
            dat = op_decl_dat(cells, 1, "double", np.zeros((8, 1)), "gate_dat")
            context = hpx_context(engine="threads", num_threads=2)
            with active_context(context):
                for _ in range(4):
                    op_par_loop(
                        WAIT_KERNEL, "gate_wait", cells,
                        op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW),
                    )
            assert context.pipeline.grain.state == grain.INLINE
            assert session.live_engines() == []
            seconds, samples = session.loop_costs.lookup((WAIT_KERNEL.fingerprint, 8, True))
            assert samples == 4 and seconds < grain.GRAIN_THRESHOLD_SECONDS

    @pytest.mark.parametrize("engine", DEFERRED_ENGINES)
    def test_flip_mid_chain_stays_deferred_across_drains(self, engine):
        """Inline prefix, flip at the first heavy loop, then DEFERRED for good:
        through reduction drains, an ``OpMap.set_values`` drain and a
        ``finish()`` -- and the result is still the serial one."""

        def chain(problem):
            run_jacobi(problem, iterations=2)
            problem.ppedge.set_values(np.roll(problem.ppedge.values, 3, axis=0))
            return run_jacobi(problem, iterations=2)

        clear_plan_cache()
        with active_context(serial_context()):
            reference = chain(build_ring_problem(num_nodes=120, seed=5))
        with Session(name=f"gate-flip-{engine}") as session:
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=120, seed=5)
            # jac_update is "heavy", res is not: res of iteration 1 runs
            # inline, the gate flips at phase 1 and res of iteration 2 defers
            _heavy(session, UPDATE_KERNEL, problem.nodes.size)
            context = hpx_context(engine=engine, num_threads=2)
            with active_context(context):
                result = chain(problem)
                context.finish()
                assert context.pipeline.grain.state == grain.DEFERRED
                run_jacobi(problem, iterations=1)
            submissions = [r.submission for r in context.loop_records]
            assert submissions == ["inline"] + ["deferred"] * 9
            gate = context.report().details["grain"]
            assert (gate["flip_phase"], gate["flip_loop"]) == (1, "jac_update")
            assert (gate["inline_loops"], gate["deferred_loops"]) == (1, 9)
            assert gate["threshold_seconds"] == grain.GRAIN_THRESHOLD_SECONDS
            assert np.array_equal(result.u, reference.u)
            assert result.u_max_history == reference.u_max_history

    def test_the_decision_needs_two_samples_and_uses_their_minimum(self):
        loop, t = object(), grain.GRAIN_THRESHOLD_SECONDS
        assert not grain.should_defer(loop, 0, None)
        assert not grain.should_defer(loop, 0, (10 * t, 1))
        assert not grain.should_defer(loop, 0, (0.99 * t, 50))
        assert grain.should_defer(loop, 0, (t, 2))
        with Session(name="gate-min") as session:
            session.loop_costs.record(("k",), 10 * t)  # the cold sample
            session.loop_costs.record(("k",), 0.5 * t)
            assert session.loop_costs.lookup(("k",)) == (0.5 * t, 2)

    def test_a_settled_loop_is_no_longer_timed(self):
        """Sampling is not free on a 30 us loop (two clock reads, a locked
        update): once a loop shape has ``SETTLED_SAMPLES`` samples the serial
        path stops timing it, in every later context of the session."""
        with Session(name="gate-settled") as session:
            settled = session.loop_costs.SETTLED_SAMPLES
            problem = build_ring_problem(num_nodes=64)
            key = (RES_KERNEL.fingerprint, problem.edges.size, True)
            assert session.loop_costs.wants(key)
            with active_context(serial_context()):
                run_jacobi(problem, iterations=settled - 1)
            assert session.loop_costs.lookup(key)[1] == settled - 1
            assert session.loop_costs.wants(key)
            for factory in (
                serial_context,
                lambda: hpx_context(engine="threads", num_threads=2),
            ):
                with active_context(factory()):
                    run_jacobi(problem, iterations=3)
                assert session.loop_costs.lookup(key)[1] == settled
                assert not session.loop_costs.wants(key)


# ---------------------------------------------------------------------------
# (e) failures in inline loops
# ---------------------------------------------------------------------------
def _boom(x) -> None:
    raise ValueError("inline kernel failure")


def _boom_vec(_idx, x) -> None:
    raise ValueError("inline kernel failure")


BOOM_KERNEL = Kernel(name="gate_boom", elemental=_boom, vectorized=_boom_vec)


@pytest.mark.grain_gate
class TestInlineFailure:
    @pytest.mark.parametrize("engine", ("threads", "processes"))
    def test_kernel_exception_surfaces_like_serial_and_session_stays_usable(self, engine):
        def failing_chain():
            cells = op_decl_set(16, "boom_cells")
            dat = op_decl_dat(cells, 1, "double", np.zeros((16, 1)), "boom_dat")
            op_par_loop(
                BOOM_KERNEL, "gate_boom", cells,
                op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW),
            )

        with pytest.raises(ValueError, match="inline kernel failure") as serial_error:
            with active_context(serial_context()):
                failing_chain()
        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_jacobi(build_ring_problem(num_nodes=90), iterations=3)
        with Session(name=f"gate-boom-{engine}") as session:
            with pytest.raises(ValueError, match="inline kernel failure") as gate_error:
                with active_context(hpx_context(engine=engine, num_threads=2)):
                    failing_chain()  # raises from op_par_loop itself, not a drain
            assert type(gate_error.value) is type(serial_error.value)
            assert session.live_engines() == []
            # the session -- and, once a chain needs it, its pool -- still work
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=90)
            _heavy(session, RES_KERNEL, problem.edges.size)
            context = hpx_context(engine=engine, num_threads=2)
            with active_context(context):
                result = run_jacobi(problem, iterations=3)
            assert context.pipeline.grain.state == grain.DEFERRED
            assert len(session.live_engines()) == 1
            assert np.array_equal(result.u, reference.u)


# ---------------------------------------------------------------------------
# CI keeps reaching every engine: the benchmark's round, gate pinned closed
# ---------------------------------------------------------------------------
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


class TestBenchSmokeRoundReachesEveryEngine:
    """``bench/airfoil.run_round`` on the smoke config of ``airfoil_small``
    under the suite's pin (every loop deferred): all four bounded targets
    keep parity with the serial snapshots and the engine targets really
    submit tasks."""

    def test_all_targets_run_tasks_and_keep_parity(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import airfoil as bench_airfoil
        from common import COMMON_TARGETS, PARITY_TOLERANCE, workload_config
        from tracer import Tracer

        conf = workload_config("airfoil_small", "smoke")
        segments = _shm_segments()
        rnd = bench_airfoil.run_round(
            conf, seed=1, index=0, targets=list(COMMON_TARGETS),
            steps=conf["steps"], tracer=Tracer(),
        )
        assert sorted(c.target for c in rnd["chains"]) == sorted(COMMON_TARGETS)
        for chain in rnd["chains"]:
            assert chain.error is None, f"{chain.target}: {chain.error}"
            assert chain.max_delta <= PARITY_TOLERANCE
            assert len(chain.samples_ms) == conf["steps"]
            tasks = [totals.tasks for totals in chain.totals]
            if chain.target == "serial":
                assert tasks == [0] * conf["steps"]
            else:
                assert all(t > 0 for t in tasks), (chain.target, tasks)
                assert chain.ctx.pipeline.grain.inline_loops == 0
        assert _shm_segments() == segments
