"""Owner-computes increments: each chunk commits its own targets.

A deferred loop whose only dat writes are indirect INC is cut into owner
chunks (:class:`~repro.op2.map.OwnerPlan`): chunk ``k`` owns a contiguous
range of the targets, runs every row touching it and commits only what it
owns, so no two chunks of a loop write one element and every chunk is one
engine task.  Covered here:

* the row lists against brute force (Hypothesis over maps, slots and K);
* Airfoil ``q``/``res``/``adt``/``qold`` sha1-equal to ``serial`` on every
  real engine at W = 1, 2, 4, natural and shuffled numbering;
* ``report().details["owner"]``: chunk count, exact redundancy, one-chunk
  reasons;
* a pooled engine after a kernel raised mid-chain: the next chain is
  bit-identical to ``serial`` (the failure was delivered, not left latched)
  and no shared-memory segment is left.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    Kernel,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_par_loop,
)
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.par_loop import ParLoop
from repro.op2.plan import clear_plan_cache
from repro.session import Session

# ---------------------------------------------------------------------------
# Row lists against brute force
# ---------------------------------------------------------------------------


@st.composite
def _maps(draw):
    rows = draw(st.integers(0, 60))
    targets = draw(st.integers(1, 25))
    dim = draw(st.integers(1, 3))
    values = draw(
        st.lists(st.integers(0, targets - 1), min_size=rows * dim, max_size=rows * dim)
    )
    slots = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    parts = draw(st.integers(1, 6))
    return rows, targets, dim, np.array(values, dtype=np.int64), tuple(slots), parts


@st.composite
def _rings(draw):
    """Jacobi's ring map (edge 2i joins node i to i + 1, edge 2i + 1 to
    i - 1), rolled: long runs of home rows with guests interleaved."""
    nodes = draw(st.integers(3, 40))
    node = np.repeat(np.arange(nodes), 2)
    step = np.tile([1, -1], nodes)
    values = np.stack([node, (node + step) % nodes], axis=1)
    values = np.roll(values, draw(st.integers(0, 2 * nodes)), axis=0)
    slots = draw(st.sampled_from([(0,), (1,), (0, 1), (1, 0)]))
    return 2 * nodes, nodes, 2, values.reshape(-1), slots, draw(st.integers(1, 6))


class TestRowListsAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(_maps(), _rings()))
    def test_rows_cover_every_row_and_every_target_has_one_owner(self, case):
        rows, targets, dim, values, slots, parts = case
        opmap = op_decl_map(op_decl_set(rows, "from"), op_decl_set(targets, "to"), dim, values)
        plan = opmap.owner_plan(slots, parts)
        table = opmap.values
        owner = table * parts // targets  # owner of each (row, slot) target
        assert plan.bounds[0] == 0 and plan.bounds[-1] == targets
        committed = {slot: [] for slot in slots}
        for part in range(parts):
            lo, hi = plan.bounds[part], plan.bounds[part + 1]
            assert all((t * parts // targets == part) == (lo <= t < hi) for t in range(targets))
            chunk_rows, homes = plan.rows[part], plan.homes[part]
            home, guest = chunk_rows[:homes], chunk_rows[homes:]
            # home rows, then guest rows: each part ascending, no row twice
            assert np.all(np.diff(home) > 0) and np.all(np.diff(guest) > 0)
            assert len(set(chunk_rows.tolist())) == chunk_rows.size
            touching = {r for r in range(rows) if any(owner[r, s] == part for s in slots)}
            assert set(chunk_rows.tolist()) == touching
            assert set(home.tolist()) == {r for r in range(rows) if owner[r, slots[0]] == part}
            for j, slot in enumerate(slots):
                positions = plan.commits[part][j]
                committed_rows = chunk_rows[positions]
                # the rows whose targets this chunk owns, in row order
                assert np.all(np.diff(committed_rows) > 0)
                assert set(committed_rows.tolist()) == {
                    r for r in touching if owner[r, slot] == part
                }
                owned = plan.targets(table, part, j)
                assert np.all((lo <= owned) & (owned < hi))
                committed[slot].extend(committed_rows.tolist())
        # every row runs in exactly one home chunk; every (row, slot)
        # increment is committed by exactly one chunk
        assert sorted(r for p in range(parts) for r in plan.rows[p][: plan.homes[p]]) == list(
            range(rows)
        )
        for slot in slots:
            assert sorted(committed[slot]) == list(range(rows))

    @settings(max_examples=50, deadline=None)
    @given(case=_maps(), shift=st.integers(1, 5))
    def test_set_values_drops_the_plan(self, case, shift):
        rows, targets, dim, values, slots, parts = case
        opmap = op_decl_map(op_decl_set(rows, "from"), op_decl_set(targets, "to"), dim, values)
        plan = opmap.owner_plan(slots, parts)
        assert opmap.owner_plan(slots, parts) is plan  # cached
        opmap.set_values((values + shift) % targets)
        fresh = opmap.owner_plan(slots, parts)
        assert fresh is not plan
        rebuilt = op_decl_map(
            op_decl_set(rows, "from"), op_decl_set(targets, "to"), dim, (values + shift) % targets
        ).owner_plan(slots, parts)
        for part in range(parts):
            assert np.array_equal(fresh.rows[part], rebuilt.rows[part])


# ---------------------------------------------------------------------------
# Airfoil dats sha1-equal to serial
# ---------------------------------------------------------------------------
def _airfoil_digest(context, method):
    clear_plan_cache()
    mesh = generate_mesh(120, 80)
    if method is not None:
        mesh = renumber_mesh(mesh, method=method, seed=7)
    mesh.declare()
    with active_context(context):
        run_airfoil(mesh, niter=2, rk_steps=2)
    digest = hashlib.sha1()
    for dat in (mesh.p_q, mesh.p_res, mesh.p_adt, mesh.p_qold):
        digest.update(np.ascontiguousarray(dat.data).tobytes())
    return digest.hexdigest(), context


@pytest.fixture(scope="module")
def serial_digests():
    return {method: _airfoil_digest(serial_context(), method)[0] for method in (None, "shuffle")}


class TestAirfoilBitIdenticalToSerial:
    @pytest.mark.parametrize("method", [None, "shuffle"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    def test_dats_sha1_equal_serial(self, engine, workers, method, serial_digests):
        digest, context = _airfoil_digest(
            hpx_context(engine=engine, num_threads=workers), method
        )
        assert digest == serial_digests[method]
        owner = context.report().details["owner"]
        assert owner["res_calc"]["chunking"] == ("owner" if workers > 1 else "rows")


# ---------------------------------------------------------------------------
# Observability: details["owner"]
# ---------------------------------------------------------------------------
def _read_inc(u_read, u_inc):
    u_inc[0] += 0.25 * u_read[0]


def _read_inc_vec(_idx, u_read, u_inc):
    u_inc[:, 0] += 0.25 * u_read[:, 0]


READ_INC = Kernel(name="owner_read_inc", elemental=_read_inc, vectorized=_read_inc_vec)


class TestOwnerDetails:
    def test_owner_chunks_redundancy_and_one_chunk_reasons(self):
        clear_plan_cache()
        mesh = renumber_mesh(generate_mesh(60, 40), method="shuffle", seed=3)
        mesh.declare()
        context = hpx_context(engine="threads", num_threads=3)
        with active_context(context):
            run_airfoil(mesh, niter=1, rk_steps=1)
            op_par_loop(
                READ_INC, "owner_read_inc", mesh.edges,
                op_arg_dat(mesh.p_res, 0, mesh.pecell, 4, "double", OP_READ),
                op_arg_dat(mesh.p_res, 1, mesh.pecell, 4, "double", OP_INC),
            )
        owner = context.report().details["owner"]
        res_calc = owner["res_calc"]
        plan = mesh.pecell.owner_plan((0, 1), res_calc["chunks"])
        rows_run = sum(rows.size for rows in plan.rows)
        assert res_calc["chunking"] == "owner" and not res_calc["one_chunk"]
        assert res_calc["chunks"] == 3
        assert res_calc["iterations"] == mesh.num_edges
        assert res_calc["rows"] == rows_run > mesh.num_edges  # cut rows run twice
        assert res_calc["redundancy"] == rows_run / mesh.num_edges
        assert owner["update"] == {
            "chunking": "rows", "chunks": 3, "rows": mesh.num_cells,
            "iterations": mesh.num_cells, "redundancy": 1.0, "one_chunk": False,
            "reason": None,
        }
        read_inc = owner["owner_read_inc"]
        assert read_inc["one_chunk"] and read_inc["reason"] == "read_inc"
        assert read_inc["chunks"] == 1 and read_inc["redundancy"] == 1.0

    def test_one_task_per_chunk_plus_the_finalizer(self):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=200)
        context = hpx_context(engine="threads", num_threads=2)
        with active_context(context):
            run_jacobi(problem, iterations=3)
        chunks = sum(record.num_chunks for record in context.pipeline.records)
        trace = context.executor.trace_events
        tasks = sum(1 for kind, _ in trace if kind == "start")
        # every loop: its chunks plus one finalizer (future + reductions)
        assert tasks == chunks + len(context.pipeline.records)


# ---------------------------------------------------------------------------
# Failure: a kernel raising mid-chain leaves the pooled engine clean
# ---------------------------------------------------------------------------
def _boom(x, u):  # pragma: no cover - runs in a worker process
    raise RuntimeError("owner chunk failed")


def _boom_vec(_idx, x, u):  # pragma: no cover - runs in a worker process
    raise RuntimeError("owner chunk failed")


BOOM = Kernel(name="owner_boom", elemental=_boom, vectorized=_boom_vec)


def _chunk_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("hpx-chunk-")}


class TestPooledEngineAfterAKernelRaised:
    @pytest.mark.parametrize("engine", ["threads", "processes"])
    def test_next_chain_is_serial_identical_and_leaks_no_segment(self, engine):
        clear_plan_cache()
        reference = build_ring_problem(num_nodes=300, seed=5)
        with active_context(serial_context()):
            expected = run_jacobi(reference, iterations=4)
        before = _chunk_segments()
        with Session(name="owner-boom") as session:
            clear_plan_cache()
            broken = build_ring_problem(num_nodes=300, seed=5)
            with pytest.raises(RuntimeError, match="owner chunk failed"):
                with active_context(
                    hpx_context(engine=engine, num_threads=2, session=session)
                ):
                    run_jacobi(broken, iterations=1)
                    op_par_loop(
                        BOOM, "owner_boom", broken.edges,
                        op_arg_dat(broken.p_A, -1, OP_ID, 1, "double", OP_READ),
                        op_arg_dat(broken.p_du, 1, broken.ppedge, 1, "double", OP_INC),
                    )
                    run_jacobi(broken, iterations=2)
            (pool,) = session.live_engines()
            clear_plan_cache()
            problem = build_ring_problem(num_nodes=300, seed=5)
            with active_context(
                hpx_context(engine=engine, num_threads=2, session=session)
            ):
                result = run_jacobi(problem, iterations=4)
            assert session.live_engines() == [pool]  # the same warm pool
        assert np.array_equal(result.u, expected.u)
        assert np.array_equal(problem.p_du.data, reference.p_du.data)
        assert _chunk_segments() <= before


# ---------------------------------------------------------------------------
# Owner commits against the whole-set commit
# ---------------------------------------------------------------------------
def _two_slot_inc(a, d0, d1, count):
    d0[0] += a[0]
    d1[0] += 0.5 * a[0] + 0.25
    count[0] += 1.0


def _two_slot_inc_vec(_idx, a, d0, d1, count):
    d0[:, 0] += a[:, 0]
    d1[:, 0] += 0.5 * a[:, 0] + 0.25
    count[0] += float(a.shape[0])


TWO_SLOT_INC = Kernel(
    name="owner_two_slot_inc", elemental=_two_slot_inc, vectorized=_two_slot_inc_vec
)


class TestOwnerCommitsEqualTheWholeSetCommit:
    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(_maps(), _rings()), seed=st.integers(0, 2**32 - 1))
    def test_owner_chunks_commit_bit_identically(self, case, seed):
        """Every chunk count, map and slot choice: owner chunks run one by
        one give the whole-set commit's bits, and each row counts once in
        the global."""
        rows, targets, dim, values, slots, parts = case
        a_values = np.random.default_rng(seed).random((rows, 1))
        results = []
        for owner in (False, True):
            edges, nodes = op_decl_set(rows, "edges"), op_decl_set(targets, "nodes")
            emap = op_decl_map(edges, nodes, dim, values)
            a = op_decl_dat(edges, 1, "double", a_values, "a")
            d = op_decl_dat(nodes, 1, "double", np.zeros((targets, 1)), "d")
            count = np.zeros(1)
            loop = ParLoop(TWO_SLOT_INC, "two_slot", edges, [
                op_arg_dat(a, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(d, slots[0], emap, 1, "double", OP_INC),
                op_arg_dat(d, slots[-1], emap, 1, "double", OP_INC),
                op_arg_gbl(count, 1, "double", OP_INC),
            ])
            if owner:
                for part in range(parts):
                    loop.fold_partials(loop.run_chunk(0, 0, (parts, part)))
            else:
                loop.execute_all()
            results.append((d.data.copy(), count[0]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1] == rows
