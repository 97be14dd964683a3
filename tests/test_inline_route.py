"""The inline route: one whole-set path for every loop that runs in the parent.

Four groups:

* **Eager small stages** (Hypothesis) -- a chunk of fewer than
  ``SCRATCH_MIN_ROWS`` rows builds its views as they are declared; over
  direct/indirect READ/INC/RW/WRITE arguments of dims 1-4, duplicate targets,
  global INC/MIN/MAX and row counts on both sides of ``SCRATCH_MIN_ROWS`` and
  of 8192 scatter-buffer entries, its dats are ``np.array_equal`` to the generic
  per-sub-block path, INC globals agree to 1e-12 and MIN/MAX exactly, and it
  builds exactly the same scatter schedules.
* **Reasons** -- ``serial``, ``gate``, ``model`` and ``global_write`` loops
  are all ``submission="inline"``, all sample the session's cost table and
  all match the serial reference.
* **Call budget** -- a light request (a 5-iteration Jacobi chain, 10 loops,
  context included) stays within a fixed number of profiled Python calls on
  the serial reference and on a gate-inline ``hpx`` context.
* **Ready futures** -- what an inline loop returns: satisfied from birth,
  continuations inline, safe to read from many threads.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.errors import FutureAlreadySatisfiedError
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    OP_WRITE,
    datapath,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_par_loop,
)
from repro.op2 import map as map_module
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.datapath import SCRATCH_MIN_ROWS
from repro.op2.kernel import Kernel
from repro.op2.par_loop import ParLoop
from repro.runtime.future import make_exceptional_future, make_ready_future
from repro.session import Session


# ---------------------------------------------------------------------------
# eager small stages
# ---------------------------------------------------------------------------
def _no_elemental(*_views):
    raise AssertionError("every block of these loops takes the block form")


def _block_form(specs, gmode):
    """A block form over ``specs`` (one ``(indirect, access)`` per dat
    argument), then an optional global reduction of mode ``gmode``."""

    def block(_idx, *views):
        value = (_idx % 7) * 0.375 - 1.0
        for (_indirect, access), view in zip(specs, views):
            if access is OP_READ:
                value = value + view.sum(axis=1) * 0.25
            elif access is OP_INC:
                view += (value * 0.5)[:, None]
            elif access is OP_RW:
                view[:] = view * 0.75 + (value * 0.125)[:, None]
                value = value + view[:, 0]
            else:  # OP_WRITE
                view[:] = (value * 1.5)[:, None]
        if gmode is OP_INC:
            views[-1][0] += value.sum()
        elif gmode is OP_MIN:
            views[-1][0] = min(views[-1][0], value.min())
        elif gmode is OP_MAX:
            views[-1][0] = max(views[-1][0], value.max())

    return block


def _run_loop(rows, dim, specs, gmode, cuts, seed):
    """Declare a fresh problem, run the loop chunk by chunk (computes first,
    commits in order: the engines' discipline; no cut is the inline route)
    and return every dat and the global."""
    rng = np.random.default_rng(seed)
    targets = max(rows // 3, 1)
    edges = op_decl_set(rows, "eager_edges")
    nodes = op_decl_set(rows, "eager_nodes")
    columns = np.stack(
        [
            rng.integers(0, targets, size=rows),  # READ/INC: heavy duplicates
            rng.permutation(rows),  # WRITE/RW: distinct targets
        ],
        axis=1,
    )
    e2n = op_decl_map(edges, nodes, 2, columns, "eager_e2n")
    dats, args = [], []
    for position, (indirect, access) in enumerate(specs):
        dataset = nodes if indirect else edges
        dat = op_decl_dat(
            dataset, dim, "double", rng.standard_normal((rows, dim)), f"eager_{position}"
        )
        dats.append(dat)
        if indirect:
            slot = 1 if access in (OP_WRITE, OP_RW) else 0
            args.append(op_arg_dat(dat, slot, e2n, dim, "double", access))
        else:
            args.append(op_arg_dat(dat, -1, OP_ID, dim, "double", access))
    gbl = np.array([0.5])
    if gmode is not None:
        args.append(op_arg_gbl(gbl, 1, "double", gmode))
    kernel = Kernel(
        name="eager_shape", elemental=_no_elemental, vectorized=_block_form(specs, gmode)
    )
    loop = ParLoop(kernel, kernel.name, edges, args)
    if not cuts:
        loop.execute_all()
    else:
        bounds = [0, *sorted(cuts), rows]
        for commit in [loop.prepare_block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]:
            commit()
    return [dat.data.copy() for dat in dats], gbl.copy()


_ROWS = st.one_of(
    st.integers(1, 64),
    # dim 4: the scatter buffers reach 8192 entries at 2048 rows
    st.integers(2040, 2100),
    st.integers(SCRATCH_MIN_ROWS - 8, SCRATCH_MIN_ROWS + 8),
)
_SPECS = st.lists(
    st.tuples(st.booleans(), st.sampled_from([OP_READ, OP_INC, OP_RW, OP_WRITE])),
    min_size=1,
    max_size=4,
)


class TestEagerSmallStages:
    """A chunk below ``SCRATCH_MIN_ROWS`` rows is one sub-block whose views
    are built at declaration; against the generic path (the stage forced
    lazy: views made per sub-block, as for every chunk before), nothing
    changes -- no dat bit, no MIN/MAX, no scatter schedule."""

    def _both(self, rows, dim, specs, gmode, cuts, seed, monkeypatch):
        builds: list[list[int]] = []
        stages: list[list[bool]] = []
        build_ranks = datapath.occurrence_ranks
        real_init = datapath.BlockStage.__init__

        def logging_build(index):
            builds[-1].append(zlib.crc32(index.tobytes()))
            return build_ranks(index)

        def run(eager):
            def init(self, start, stop):
                real_init(self, start, stop)
                stages[-1].append(self.eager)
                if not eager:
                    self.eager = False

            builds.append([])
            stages.append([])
            with monkeypatch.context() as patch:
                patch.setattr(map_module, "occurrence_ranks", logging_build)
                patch.setattr(datapath.BlockStage, "__init__", init)
                return _run_loop(rows, dim, specs, gmode, cuts, seed)

        ours, generic = run(eager=True), run(eager=False)
        return ours, generic, builds, stages[0]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_ROWS,
        dim=st.integers(1, 4),
        specs=_SPECS,
        gmode=st.sampled_from([None, OP_INC, OP_MIN, OP_MAX]),
        cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    # both crossovers exactly, and a duplicate-target INC next to a RW
    @example(rows=SCRATCH_MIN_ROWS - 1, dim=1, specs=[(True, OP_INC), (False, OP_READ)],
             gmode=OP_MIN, cut_fractions=[], seed=1)
    @example(rows=SCRATCH_MIN_ROWS, dim=1, specs=[(True, OP_INC)],
             gmode=OP_MAX, cut_fractions=[], seed=2)
    @example(rows=2048, dim=4, specs=[(True, OP_RW), (True, OP_INC)],
             gmode=OP_INC, cut_fractions=[], seed=3)
    def test_eager_stage_equals_the_generic_path(
        self, rows, dim, specs, gmode, cut_fractions, seed
    ):
        cuts = [int(fraction * rows) for fraction in cut_fractions]
        with pytest.MonkeyPatch.context() as monkeypatch:
            ours, generic, builds, eager_flags = self._both(
                rows, dim, specs, gmode, cuts, seed, monkeypatch
            )
        bounds = [0, *sorted(cuts), rows]
        expected = [hi - lo < SCRATCH_MIN_ROWS for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        assert eager_flags == expected, "a chunk is eager exactly below SCRATCH_MIN_ROWS"
        for position, (mine, theirs) in enumerate(zip(ours[0], generic[0])):
            assert np.array_equal(mine, theirs), position
        if gmode is OP_INC:
            assert ours[1] == pytest.approx(generic[1], rel=1e-12)
        else:
            assert np.array_equal(ours[1], generic[1])
        assert builds[0] == builds[1], "scatter schedule builds must not change"


# ---------------------------------------------------------------------------
# one route, four reasons
# ---------------------------------------------------------------------------
def _accumulate(u, acc):
    acc[0] = 0.5 * acc[0] + u[0]


def _accumulate_block(_idx, u, acc):
    for value in u[:, 0]:
        acc[0] = 0.5 * acc[0] + value


#: a non-reduction global RW: no engine without ``supports_global_write`` hosts it
ACCUMULATE = Kernel(name="route_accumulate", elemental=_accumulate, vectorized=_accumulate_block)


def _chain(problem):
    """Two Jacobi iterations, then a loop with a global RW; returns its value."""
    run_jacobi(problem, iterations=2)
    acc = np.zeros(1)
    op_par_loop(
        ACCUMULATE, "route_accumulate", problem.nodes,
        op_arg_dat(problem.p_u, -1, OP_ID, 1, "double", OP_READ),
        op_arg_gbl(acc, 1, "double", OP_RW),
    )
    return acc[0]


class TestOneRouteFourReasons:
    """Every whole-set parent execution is ``submission="inline"`` with its
    reason, samples the session's cost table, and matches serial bit for bit."""

    @pytest.mark.parametrize(
        "factory, reasons",
        [
            (serial_context, ["serial"] * 5),
            (lambda: hpx_context(engine="simulate", num_threads=2), ["model"] * 5),
            # the suite pins the gate closed: jacobi defers, the RW global cannot
            (lambda: hpx_context(engine="processes", num_threads=2),
             [None] * 4 + ["global_write"]),
        ],
        ids=["serial", "simulate", "processes"],
    )
    def test_reasons_are_recorded_and_results_match_serial(self, factory, reasons):
        with active_context(serial_context()):
            expected = _chain(problem := build_ring_problem(num_nodes=64, seed=3))
        reference = problem.p_u.data.copy()
        with Session(name="route-reasons") as session:
            context = factory()
            with active_context(context):
                value = _chain(problem := build_ring_problem(num_nodes=64, seed=3))
            records = context.pipeline.records
            assert [r.reason for r in records] == reasons
            assert all((r.submission == "inline") == (r.reason is not None) for r in records)
            key = (ACCUMULATE.fingerprint, 64, True)
            assert session.loop_costs.lookup(key)[1] == 1, "every reason samples"
        assert value == expected
        assert np.array_equal(problem.p_u.data, reference)

    @pytest.mark.grain_gate
    def test_the_gate_reason_and_the_report(self):
        with Session(name="route-gate"):
            context = hpx_context(engine="threads", num_threads=2)
            with active_context(context):
                _chain(build_ring_problem(num_nodes=64, seed=3))
            gate = context.report().details["grain"]
        assert [r.reason for r in context.pipeline.records] == ["gate"] * 5
        assert gate["inline_by_reason"] == {"gate": 5} and gate["inline_loops"] == 5
        assert not gate["pinned"] and context.executor is None


# ---------------------------------------------------------------------------
# call budget of a light request
# ---------------------------------------------------------------------------
#: profiled Python calls a warm 5-iteration Jacobi chain (10 loops, context
#: construction and exit included) may make; before the one inline route it
#: made 2 143 (serial) and 2 025 (gate-inline hpx), before the host stubs and
#: the ``op_arg_dat`` memo 943 and 1 085, now 528 and 639
INLINE_CALL_BUDGET = 650

LIGHT_CONTEXTS = {
    "serial": serial_context,
    "hpx-gate-inline": lambda: hpx_context(engine="threads", num_threads=2),
}


@pytest.mark.grain_gate
class TestInlineLoopsStayCheap:
    @pytest.mark.parametrize("name", sorted(LIGHT_CONTEXTS))
    def test_a_light_request_stays_within_the_call_budget(self, name):
        factory = LIGHT_CONTEXTS[name]
        with Session(name=f"budget-{name}"):
            problem = build_ring_problem(num_nodes=300, seed=0)
            for _ in range(12):  # warm: settled costs, generated block forms
                with active_context(factory()):
                    run_jacobi(problem, iterations=5)
            profiler = cProfile.Profile()
            profiler.enable()
            with active_context(factory()) as context:
                run_jacobi(problem, iterations=5)
            profiler.disable()
        calls = pstats.Stats(profiler).total_calls  # type: ignore[attr-defined]
        assert {r.submission for r in context.pipeline.records} == {"inline"}
        assert calls <= INLINE_CALL_BUDGET, f"{name}: {calls} profiled calls"

    def test_a_ready_future_is_satisfied_from_birth(self):
        future = make_ready_future("dat").share()
        assert future.is_ready() and future.get() == "dat"
        with pytest.raises(FutureAlreadySatisfiedError):
            future._shared_state.set_value("other")
        with pytest.raises(FutureAlreadySatisfiedError):
            future._shared_state.set_exception(ValueError("late"))
        assert future.get() == "dat"
        failed = make_exceptional_future(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            failed.get()
        with pytest.raises(TypeError):
            make_exceptional_future("not an exception")  # type: ignore[arg-type]

    def test_continuations_of_a_ready_future_run_inline(self):
        caller = threading.get_ident()
        seen = []
        future = make_ready_future(3).share()
        future.add_done_callback(lambda: seen.append(threading.get_ident()))
        chained = future.then(lambda f: f.get() * 2)
        assert seen == [caller]
        assert chained.is_ready() and chained.get() == 6
        # a callback that touches another ready future does not deadlock on
        # the primitives ready states share
        other = make_ready_future(4).share()
        future.add_done_callback(lambda: other.add_done_callback(lambda: seen.append(0)))
        assert seen == [caller, 0]

    def test_eight_threads_read_a_ready_future_at_once(self):
        future = make_ready_future(np.arange(4)).share()
        start = threading.Barrier(8)
        results = []

        def reader():
            start.wait()
            for _ in range(200):
                results.append(int(future.get(timeout=5).sum()))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [6] * 1600
