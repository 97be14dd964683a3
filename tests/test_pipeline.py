"""The shared loop-lowering pipeline: stage artifacts, hooks, parity.

Three groups:

* **Stage artifacts** -- every artifact of :mod:`repro.core.stages` is a
  plain dataclass, constructible and inspectable in isolation (no engine, no
  context), so observers and future tools can rely on their shape.
* **Pipeline behaviour** -- the stage observers fire in pipeline order with
  the right artifact types, the schedule stage derives drain points and the
  parent fallback purely from engine capabilities, the serial reference runs
  every loop through the inline route without stages, and all three
  backend contexts expose their pipeline.
* **Differential parity** -- every *registered* engine produces the same
  numbers as the serial reference on Jacobi (bit-identical) and Airfoil
  through the one shared pipeline.  This is the seed of the all-engines
  fuzzer: a new engine registered via :func:`repro.engines.register_engine`
  is automatically picked up here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.core.pipeline import (
    ColorForkJoinSchedulePolicy,
    DataflowSchedulePolicy,
    LoopPipeline,
)
from repro.core.stages import (
    PIPELINE_STAGES,
    AnalyzedChunk,
    AnalyzedLoop,
    ChunkRange,
    ChunkSchedule,
    ChunkTaskSpec,
    LoopRecord,
    LoweredLoop,
    ReductionPlan,
    StageEvent,
)
from repro.engines import available_engines
from repro.errors import OP2BackendError
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache


# ---------------------------------------------------------------------------
# Stage artifacts in isolation
# ---------------------------------------------------------------------------
class TestStageArtifacts:
    def test_chunk_range_size_and_immutability(self):
        chunk = ChunkRange(index=2, start=128, stop=192, color=1)
        assert chunk.size == 64
        with pytest.raises(AttributeError):
            chunk.start = 0  # type: ignore[misc]

    def test_lowered_loop_views(self):
        class FakeSet:
            size = 100

        class FakeLoop:
            name = "res_calc"
            iterset = FakeSet()

        lowered = LoweredLoop(
            loop=FakeLoop(),  # type: ignore[arg-type]
            phase=3,
            profile=None,  # type: ignore[arg-type]
            chunks=[ChunkRange(0, 0, 60), ChunkRange(1, 60, 100)],
        )
        assert lowered.name == "res_calc"
        assert lowered.iterations == 100
        assert lowered.chunk_sizes == [60, 40]
        assert lowered.num_colors == 1

    def test_analyzed_loop_aggregates(self):
        lowered = LoweredLoop(
            loop=None, phase=0, profile=None, chunks=[ChunkRange(0, 0, 10)]  # type: ignore[arg-type]
        )
        analyzed = AnalyzedLoop(
            lowered=lowered,
            chunks=[
                AnalyzedChunk(chunk=ChunkRange(0, 0, 5), task_id=7, deps=[1, 2]),
                AnalyzedChunk(chunk=ChunkRange(1, 5, 10), task_id=8, deps=[7]),
            ],
        )
        assert analyzed.task_ids == [7, 8]
        assert analyzed.dependency_count == 3

    def test_chunk_task_spec_is_frozen(self):
        spec = ChunkTaskSpec(
            chunk_index=0, start=0, stop=8, sim_id=3, sim_deps=(1,), barrier_after=True
        )
        assert spec.owner is None
        with pytest.raises(AttributeError):
            spec.sim_id = 9  # type: ignore[misc]

    def test_reduction_plan_defaults(self):
        plan = ReductionPlan()
        assert not plan.drain_before and not plan.drain_after

    def test_chunk_schedule_loop_view(self):
        lowered = LoweredLoop(loop="LOOP", phase=0, profile=None, chunks=[])  # type: ignore[arg-type]
        schedule = ChunkSchedule(
            analyzed=AnalyzedLoop(lowered=lowered, chunks=[]),
            tasks=[],
            reduction=ReductionPlan(),
            submission="eager",
        )
        assert schedule.loop == "LOOP"

    def test_loop_record_num_chunks(self):
        record = LoopRecord(
            name="update",
            phase=1,
            iterations=100,
            chunk_sizes=[50, 50],
            task_ids=[0, 1],
            dependency_count=0,
        )
        assert record.num_chunks == 2

    def test_stage_event_is_frozen_with_extras(self):
        event = StageEvent(stage="lower", loop_name="l", phase=0, artifact=None)
        assert event.seconds == 0.0
        assert event.extra == {}
        with pytest.raises(AttributeError):
            event.stage = "submit"  # type: ignore[misc]

    def test_stage_names(self):
        assert PIPELINE_STAGES == ("lower", "analyze", "schedule", "submit")


# ---------------------------------------------------------------------------
# Pipeline behaviour through the real contexts
# ---------------------------------------------------------------------------
STAGE_ARTIFACT_TYPES = {
    "lower": LoweredLoop,
    "analyze": AnalyzedLoop,
    "schedule": ChunkSchedule,
}


def _run_jacobi_with_observer(context, iterations=3):
    events: list[StageEvent] = []
    context.pipeline.add_observer(events.append)
    clear_plan_cache()
    problem = build_ring_problem(num_nodes=200)
    with active_context(context):
        result = run_jacobi(problem, iterations=iterations)
    return result, events


class TestPipelineHooks:
    @pytest.mark.parametrize(
        "factory", [hpx_context, openmp_context, serial_context], ids=["hpx", "openmp", "serial"]
    )
    def test_observer_sees_all_stages_in_order(self, factory):
        context = factory()
        _, events = _run_jacobi_with_observer(context)
        if factory is serial_context:
            # gate pinned INLINE: no loop is lowered, so no stage fires
            assert events == []
            records = context.pipeline.records
            assert len(records) == 6
            assert {(r.submission, r.reason) for r in records} == {("inline", "serial")}
            assert all(r.chunk_sizes == [] for r in records)
            return
        assert events, "observer must fire"
        assert len(events) % len(PIPELINE_STAGES) == 0
        for i in range(0, len(events), 4):
            per_loop = events[i : i + 4]
            assert [e.stage for e in per_loop] == list(PIPELINE_STAGES)
            # one loop per 4-event window, consistent phase
            assert len({(e.loop_name, e.phase) for e in per_loop}) == 1
            for event in per_loop:
                assert event.seconds >= 0.0
                expected = STAGE_ARTIFACT_TYPES.get(event.stage)
                if expected is not None:
                    assert isinstance(event.artifact, expected)

    def test_observer_stage_filter(self):
        context = hpx_context(num_threads=2)
        schedules: list[StageEvent] = []
        context.pipeline.add_observer(schedules.append, stages=("schedule",))
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=100)
        with active_context(context):
            run_jacobi(problem, iterations=2)
        assert schedules and all(e.stage == "schedule" for e in schedules)
        assert all(isinstance(e.artifact, ChunkSchedule) for e in schedules)

    def test_observer_rejects_unknown_stage(self):
        context = hpx_context()
        with pytest.raises(OP2BackendError, match="unknown pipeline stage"):
            context.pipeline.add_observer(lambda e: None, stages=("colour",))

    def test_remove_observer(self):
        context = hpx_context()
        events: list[StageEvent] = []

        def observer(event: StageEvent) -> None:
            events.append(event)

        context.pipeline.add_observer(observer)
        context.pipeline.remove_observer(observer)
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=50)
        with active_context(context):
            run_jacobi(problem, iterations=1)
        assert events == []

    def test_analyze_artifact_carries_interval_summaries(self):
        """The analyze stage exposes the tracker's per-(dat, access)
        IntervalSet groups -- the prefetcher hook point."""
        context = hpx_context(num_threads=2)
        analyzed: list[AnalyzedLoop] = []
        context.pipeline.add_observer(
            lambda e: analyzed.append(e.artifact), stages=("analyze",)
        )
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=100)
        with active_context(context):
            run_jacobi(problem, iterations=1)
        chunk = analyzed[0].chunks[0]
        assert chunk.access_groups, "dataflow analysis must attach access groups"
        for _dat_id, _access, intervals in chunk.access_groups:
            assert intervals.count > 0

    def test_schedule_stage_derives_drains_from_capabilities(self):
        """Global reductions drain *after* (the application reads the target)
        but not before when no in-flight loop uses their global; the simulate
        engine (not deferred) schedules every loop onto the inline route with
        reason ``model``, keeping its chunks for the modelled DAG."""
        deferred_ctx = hpx_context(num_threads=2, engine="threads")
        eager_ctx = hpx_context(num_threads=2, engine="simulate")
        for context, expect_deferred in ((deferred_ctx, True), (eager_ctx, False)):
            schedules: list[ChunkSchedule] = []
            context.pipeline.add_observer(
                lambda e, acc=schedules: acc.append(e.artifact), stages=("schedule",)
            )
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=100)
            with active_context(context):
                run_jacobi(problem, iterations=1)
            with_reduction = [s for s in schedules if s.reduction.has_global_reduction]
            without = [s for s in schedules if not s.reduction.has_global_reduction]
            assert with_reduction and without
            if expect_deferred:
                assert all(s.submission == "deferred" for s in schedules)
                assert all(s.reduction.drain_after for s in with_reduction)
                assert all(not s.reduction.drain_before for s in schedules)
                assert all(s.tasks for s in schedules)
            else:
                assert all(
                    (s.submission, s.reason) == ("inline", "model") for s in schedules
                )
                assert all(not s.tasks and s.analyzed.chunks for s in schedules)
                assert all(not s.reduction.drain_after for s in schedules)
                records = context.pipeline.records
                assert {(r.submission, r.reason) for r in records} == {("inline", "model")}
                assert context.report().details["total_chunks"] > 0

    @pytest.mark.parametrize("owner", ["session", "private"])
    def test_chunk_ids_are_forgotten_at_every_drain(self, owner):
        """A long chain holds the ids of the chunks since the last drain, not
        of every step: each Jacobi iteration ends in a reduction drain."""
        session = Session(name="drain-ids") if owner == "session" else None
        try:
            context = hpx_context(num_threads=2, engine="threads", session=session)
            held: list[int] = []
            context.pipeline.add_observer(
                lambda e: held.append(len(context.pipeline.pool_chunk_ids)),
                stages=("submit",),
            )
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=200)
            with active_context(context):
                run_jacobi(problem, iterations=12)
            per_iteration = len(held) // 12
            assert max(held) > 0
            assert held[:per_iteration] * 12 == held, "no growth from step to step"
            assert context.pipeline.pool_chunk_ids == {}
        finally:
            if session is not None:
                session.close()

    def test_forkjoin_schedule_barriers_per_color(self):
        """The OpenMP policy closes every colour with a barrier."""
        context = openmp_context(num_threads=2, engine="threads")
        schedules: list[ChunkSchedule] = []
        context.pipeline.add_observer(
            lambda e: schedules.append(e.artifact), stages=("schedule",)
        )
        clear_plan_cache()
        mesh = generate_mesh(20, 14)
        with active_context(context):
            run_airfoil(mesh, niter=1, rk_steps=1)
        colored = [
            s for s in schedules if s.analyzed.lowered.num_colors > 1 and s.tasks
        ]
        assert colored, "airfoil has multi-colour loops"
        for schedule in colored:
            specs = schedule.tasks
            chunks = schedule.analyzed.lowered.chunks
            for position, spec in enumerate(specs):
                last_of_color = (
                    position == len(specs) - 1
                    or chunks[position + 1].color != chunks[position].color
                )
                assert spec.barrier_after == last_of_color

    def test_policies_exposed_by_contexts(self):
        assert isinstance(hpx_context().pipeline.policy, DataflowSchedulePolicy)
        assert isinstance(openmp_context().pipeline.policy, ColorForkJoinSchedulePolicy)
        # the serial reference has no schedule policy: its gate is pinned INLINE
        serial = serial_context().pipeline
        assert isinstance(serial, LoopPipeline)
        assert serial.policy is None and serial.grain.pinned
        assert serial.grain.state == "inline" and serial.task_graph is None

    def test_serial_report_is_single_worker(self):
        context = serial_context()
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=50)
        with active_context(context):
            run_jacobi(problem, iterations=1)
        report = context.report()
        assert report.num_threads == 1
        assert report.schedule is None
        assert report.wall_seconds > 0.0
        assert report.details["loops"]


# ---------------------------------------------------------------------------
# Differential parity: every registered engine vs the serial reference
# ---------------------------------------------------------------------------
def _serial_jacobi():
    clear_plan_cache()
    problem = build_ring_problem(num_nodes=400)
    with active_context(serial_context()):
        return run_jacobi(problem, iterations=10)


def _serial_airfoil():
    clear_plan_cache()
    mesh = generate_mesh(24, 16)
    with active_context(serial_context()):
        return run_airfoil(mesh, niter=2, rk_steps=2)


class TestAllEnginesParity:
    """Seed of the ROADMAP all-engines fuzzer: every *registered* engine --
    including third-party registrations -- must agree with serial through
    the shared pipeline."""

    @pytest.mark.parametrize("engine", available_engines())
    def test_jacobi_bit_identical_to_serial(self, engine):
        reference = _serial_jacobi()
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=400)
        with active_context(hpx_context(num_threads=4, engine=engine)):
            result = run_jacobi(problem, iterations=10)
        assert np.array_equal(result.u, reference.u)
        assert result.u_max_history == reference.u_max_history

    @pytest.mark.parametrize("engine", available_engines())
    def test_airfoil_matches_serial(self, engine):
        reference = _serial_airfoil()
        clear_plan_cache()
        mesh = generate_mesh(24, 16)
        with active_context(hpx_context(num_threads=4, engine=engine)):
            result = run_airfoil(mesh, niter=2, rk_steps=2)
        assert np.allclose(result.q, reference.q, rtol=1e-12, atol=1e-14)
        assert np.allclose(result.rms_history, reference.rms_history, rtol=1e-12)


# ---------------------------------------------------------------------------
# Differential fuzzing: random loop chains, every engine vs serial
# ---------------------------------------------------------------------------
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.apps.jacobi import RES_KERNEL, UPDATE_KERNEL  # noqa: E402
from repro.core import grain  # noqa: E402
from repro.op2.access import OP_ID, OP_INC, OP_MAX, OP_READ, OP_RW  # noqa: E402
from repro.op2.args import op_arg_dat, op_arg_gbl  # noqa: E402
from repro.op2.dat import op_decl_dat  # noqa: E402
from repro.op2.kernel import Kernel  # noqa: E402
from repro.op2.par_loop import op_par_loop  # noqa: E402
from repro.op2.set import op_decl_set  # noqa: E402
from repro.session import Session  # noqa: E402


def _fz_scale(r, u):
    u[0] = 0.5 * u[0] + 0.25 * r[0]


def _fz_scale_vec(_idx, r, u):
    u[:, 0] = 0.5 * u[:, 0] + 0.25 * r[:, 0]


FZ_SCALE = Kernel(name="fz_scale", elemental=_fz_scale, vectorized=_fz_scale_vec)


def _fz_dup(a, d1, d2):
    d1[0] += a[0]
    d2[0] += 2.0 * a[0]


def _fz_dup_vec(_idx, a, d1, d2):
    d1[:, 0] += a[:, 0]
    d2[:, 0] += 2.0 * a[:, 0]


FZ_DUP = Kernel(name="fz_dup", elemental=_fz_dup, vectorized=_fz_dup_vec)


def _fz_edge_rw(a):
    a[0] = 0.9 * a[0] + 0.01


def _fz_edge_rw_vec(_idx, a):
    a[:, 0] = 0.9 * a[:, 0] + 0.01


FZ_EDGE_RW = Kernel(name="fz_edge_rw", elemental=_fz_edge_rw, vectorized=_fz_edge_rw_vec)


def _fz_ind_rw(a, u):
    u[0] = 0.75 * u[0] + 0.125 * a[0]


def _fz_ind_rw_vec(_idx, a, u):
    u[:, 0] = 0.75 * u[:, 0] + 0.125 * a[:, 0]


FZ_IND_RW = Kernel(name="fz_ind_rw", elemental=_fz_ind_rw, vectorized=_fz_ind_rw_vec)


def _fz_gbl_rw(u, acc):
    acc[0] = 0.5 * acc[0] + u[0]


def _fz_gbl_rw_vec(_idx, u, acc):
    for value in u[:, 0]:
        acc[0] = 0.5 * acc[0] + value


FZ_GBL_RW = Kernel(name="fz_gbl_rw", elemental=_fz_gbl_rw, vectorized=_fz_gbl_rw_vec)


def _fz_inc_gbl(a, d1, d2, count):
    d1[0] += a[0]
    d2[0] += 0.5 * a[0]
    count[0] += 1.0


def _fz_inc_gbl_vec(_idx, a, d1, d2, count):
    d1[:, 0] += a[:, 0]
    d2[:, 0] += 0.5 * a[:, 0]
    count[0] += float(a.shape[0])


FZ_INC_GBL = Kernel(name="fz_inc_gbl", elemental=_fz_inc_gbl, vectorized=_fz_inc_gbl_vec)


def _fz_read_inc(u_read, u_inc):
    u_inc[0] += 0.25 * u_read[0]


def _fz_read_inc_vec(_idx, u_read, u_inc):
    u_inc[:, 0] += 0.25 * u_read[:, 0]


FZ_READ_INC = Kernel(name="fz_read_inc", elemental=_fz_read_inc, vectorized=_fz_read_inc_vec)


def _fuzz_chain(ops, problem, trace):
    """Run the op sequence on ``problem``; exact-safe reductions go to ``trace``."""
    for op in ops:
        if op == "edge_inc":
            op_par_loop(
                RES_KERNEL, "res", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
            )
        elif op == "dup_inc":
            # duplicate scatter: the same dat through the same map slot twice
            op_par_loop(
                FZ_DUP, "fz_dup", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 0, problem.ppedge, 1, "double", OP_INC),
                op_arg_dat(problem.p_du, 0, problem.ppedge, 1, "double", OP_INC),
            )
        elif op == "update":
            u_sum = np.zeros(1, dtype=np.float64)
            u_max = np.full(1, -np.inf, dtype=np.float64)
            op_par_loop(
                UPDATE_KERNEL, "jac_update", problem.nodes,
                op_arg_dat(problem.p_r, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, -1, OP_ID, 1, "double", OP_RW),
                op_arg_dat(problem.p_u, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(u_sum, 1, "double", OP_INC),
                op_arg_gbl(u_max, 1, "double", OP_MAX),
            )
            trace.append(("u_max", float(u_max[0])))
        elif op == "scale":
            op_par_loop(
                FZ_SCALE, "fz_scale", problem.nodes,
                op_arg_dat(problem.p_r, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, -1, OP_ID, 1, "double", OP_RW),
            )
        elif op == "edge_rw":
            op_par_loop(
                FZ_EDGE_RW, "fz_edge_rw", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_RW),
            )
        elif op == "indirect_rw":
            op_par_loop(
                FZ_IND_RW, "fz_ind_rw", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_RW),
            )
        elif op == "gbl_rw":
            # non-reduction global RW: forces the eager serialized fallback
            acc = np.zeros(1, dtype=np.float64)
            op_par_loop(
                FZ_GBL_RW, "fz_gbl_rw", problem.nodes,
                op_arg_dat(problem.p_u, -1, OP_ID, 1, "double", OP_READ),
                op_arg_gbl(acc, 1, "double", OP_RW),
            )
            trace.append(("gbl_rw", float(acc[0])))
        elif op == "inc_gbl":
            # indirect INC through both slots plus a global INC: owner chunks
            # run cut rows twice, and each row counts in its home chunk only
            # (a count is exact in any order)
            count = np.zeros(1, dtype=np.float64)
            op_par_loop(
                FZ_INC_GBL, "fz_inc_gbl", problem.edges,
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 0, problem.ppedge, 1, "double", OP_INC),
                op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
                op_arg_gbl(count, 1, "double", OP_INC),
            )
            trace.append(("inc_gbl", float(count[0])))
        elif op == "read_inc":
            # the same dat read and incremented: one chunk
            op_par_loop(
                FZ_READ_INC, "fz_read_inc", problem.edges,
                op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, 1, problem.ppedge, 1, "double", OP_INC),
            )
        elif op == "renumber":
            # mid-run renumbering: set_values drains in-flight loops first
            problem.ppedge.set_values(np.roll(problem.ppedge.values, 5, axis=0))
        else:  # pragma: no cover - strategy and palette must agree
            raise AssertionError(f"unknown fuzz op {op!r}")


FUZZ_OPS = st.sampled_from(
    [
        "edge_inc", "dup_inc", "update", "scale", "edge_rw", "indirect_rw", "gbl_rw",
        "renumber", "inc_gbl", "read_inc",
    ]
)


@pytest.fixture(scope="module")
def fuzz_sessions():
    """One warm session per engine, so examples reuse live worker pools."""
    sessions = {}
    yield sessions
    for session in sessions.values():
        session.close()


class TestEngineParityFuzzer:
    """The generalized all-engines differential harness: random loop chains
    (access-mode mix, duplicate scatters, globals, mid-run renumbering) must
    agree with serial on every registered engine -- bit-for-bit for dats and
    order-insensitive reductions, to tolerance for chunk-accumulated sums."""

    @settings(
        max_examples=8,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=st.lists(FUZZ_OPS, min_size=1, max_size=6), flip=st.integers(0, 6))
    # mid-chain flips, pinned: the eight derandomized draws land on 0 or past
    # the chain's end
    @example(ops=["edge_inc", "update", "dup_inc", "renumber", "indirect_rw", "update"], flip=2)
    @example(ops=["gbl_rw", "scale", "edge_inc", "update", "edge_rw", "gbl_rw"], flip=3)
    def test_random_chains_all_engines_match_serial(
        self, ops, flip, fuzz_sessions, monkeypatch
    ):
        # The grain gate's flip point: loops before phase ``flip`` run inline
        # (the serial reference path), loops from it on are deferred; 0 is
        # "every loop deferred", anything past the chain's end "all inline".
        monkeypatch.setattr(grain, "should_defer", lambda loop, phase, cost: phase >= flip)
        clear_plan_cache()
        reference = build_ring_problem(num_nodes=72, seed=13)
        reference_trace = []
        with active_context(serial_context()):
            _fuzz_chain(ops, reference, reference_trace)

        for engine in available_engines():
            session = fuzz_sessions.get(engine)
            if session is None or session.closed:
                session = Session(name=f"fuzz-{engine}")
                fuzz_sessions[engine] = session
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=72, seed=13)
            trace = []
            with active_context(
                hpx_context(engine=engine, num_threads=4, session=session)
            ):
                _fuzz_chain(ops, problem, trace)

            label = f"engine={engine} ops={ops} flip={flip}"
            assert np.array_equal(problem.p_u.data, reference.p_u.data), label
            assert np.array_equal(problem.p_du.data, reference.p_du.data), label
            assert np.array_equal(problem.p_A.data, reference.p_A.data), label
            assert len(trace) == len(reference_trace), label
            for (kind, value), (ref_kind, ref_value) in zip(trace, reference_trace):
                assert kind == ref_kind, label
                if kind == "u_max":
                    # MAX reductions are order-insensitive: exact
                    assert value == ref_value, label
                else:
                    # serialized global RW chains are element-ordered: exact
                    assert value == ref_value, label


# ---------------------------------------------------------------------------
# Reduction pre-drain: only when an in-flight loop uses the same global
# ---------------------------------------------------------------------------
def _pd_shift(d, g):
    d[0] = d[0] + g[0]


def _pd_shift_vec(_idx, d, g):
    d[:, 0] = d[:, 0] + g[0]


PD_SHIFT = Kernel(name="pd_shift", elemental=_pd_shift, vectorized=_pd_shift_vec)


def _pd_sum(d, g):
    g[0] += d[0]


def _pd_sum_vec(_idx, d, g):
    g[0] += float(np.sum(d[:, 0]))


PD_SUM = Kernel(name="pd_sum", elemental=_pd_sum, vectorized=_pd_sum_vec)


class TestReductionPreDrain:
    """Globals are invisible to the tracker: a reduction must wait for an
    in-flight loop that still *reads* its target, and only for that."""

    @staticmethod
    def _chain(read_view, reduce_view, other):
        """Loop A reads ``g`` through ``read_view``; loop B reduces into an
        unrelated global; loop C reduces into ``g`` through ``reduce_view``."""
        cells = op_decl_set(4000, "pd_cells")
        dat = op_decl_dat(cells, 1, "double", np.arange(4000.0).reshape(-1, 1), "pd_dat")
        op_par_loop(
            PD_SHIFT, "pd_shift", cells,
            op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW),
            op_arg_gbl(read_view, 1, "double", OP_READ),
        )
        op_par_loop(
            PD_SUM, "pd_sum_other", cells,
            op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(other, 1, "double", OP_INC),
        )
        op_par_loop(
            PD_SHIFT, "pd_shift", cells,
            op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW),
            op_arg_gbl(read_view, 1, "double", OP_READ),
        )
        op_par_loop(
            PD_SUM, "pd_sum", cells,
            op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(reduce_view, 1, "double", OP_INC),
        )
        return dat.data.copy()

    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    @pytest.mark.parametrize("through_view", [False, True])
    def test_reduction_into_a_global_an_in_flight_loop_reads_drains_first(
        self, engine, through_view
    ):
        def globals_():
            storage = np.array([0.5, 0.0])
            g = storage[:1]
            # two views of one array are one buffer
            return g, (storage[0:1] if through_view else g), np.zeros(1)

        clear_plan_cache()
        g_ref, view_ref, other_ref = globals_()
        with active_context(serial_context()):
            reference = self._chain(g_ref, view_ref, other_ref)

        context = hpx_context(engine=engine, num_threads=2)
        schedules: list[ChunkSchedule] = []
        context.pipeline.add_observer(
            lambda e: schedules.append(e.artifact), stages=("schedule",)
        )
        clear_plan_cache()
        g, view, other = globals_()
        with active_context(context):
            data = self._chain(g, view, other)
        assert [s.reduction.drain_before for s in schedules] == [False, False, False, True]
        assert [s.reduction.drain_after for s in schedules] == [False, True, False, True]
        assert np.array_equal(data, reference)
        assert g[0] == pytest.approx(g_ref[0], rel=1e-12)
        assert other[0] == pytest.approx(other_ref[0], rel=1e-12)
