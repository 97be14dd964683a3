"""The chunk data path (:mod:`repro.op2.datapath`): bit-identity and confinement.

Seven groups:

* **Helpers** (Hypothesis) -- the scatter-add commit (one 1-D ``np.add.at``
  per column) is ``np.array_equal`` to the 2-D ``np.add.at`` on non-integer
  floats and on integers, with heavy duplicates, dims 1-4 and buffers above
  8192 entries; gathers equal fancy indexing; occurrence ranks equal a
  brute-force count and widen their dtype when they must.
* **Duplicate detection** -- ``OpMap.repeats`` (the WRITE/RW duplicate
  detector) equals a brute-force check, keeps one bool per chunk-slot,
  answers concurrent askers alike and is dropped by ``set_values``.
* **End-to-end oracle** -- Airfoil steps, whose commits reach 8192 entries
  and more, are bit-identical to a run whose data path is patched back to
  fancy indexing + the 2-D ``np.add.at``.
* **Sub-blocks** -- the compute phase's block size changes no bit of any dat:
  Airfoil steps at block sizes around every boundary case equal the unblocked
  run, and a Hypothesis property does the same over loop shapes (direct,
  indirect READ+INC, WRITE/RW, global reductions that accumulate or assign, a
  kernel reading ``_idx``, empty ranges, one-row tails).
* **Scratch and staging pool** -- concurrent threads gather into disjoint
  scratch; a kernel raising mid-chunk leaves its thread computing the
  ``serial`` answer; staging returns to the free-list only from a commit, a
  reused INC buffer is zero, the pool stays under its cap; and the map
  values the ``mode="clip"`` gathers trust are range-checked and read-only
  wherever they come from.
* **Layout** -- every slot of a map's values is contiguous and read-only
  after declaration, ``set_values``, adoption into shared memory and
  ``attach_map`` in a forked or spawned worker; the stub and the stage
  hand the kernel contiguous INC columns, fresh and pooled; an owner
  chunk's commit on a shuffled mesh allocates nothing that scales with it.
* **Guard** -- ``np.add.at``, ``np.take`` and fancy row gathers of dat data
  appear nowhere in ``src/`` outside the data-path module, and the sub-block
  loop with its row constant lives in one function of it, so ``ParLoop`` and
  the slab cannot drift apart again; neither do ``mode="clip"`` gathers or
  the scratch accessor, and generated block modules are executed only by
  the translator.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from functools import partial
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.apps.airfoil.kernels import RES_CALC
from repro.errors import OP2MappingError
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    OP_WRITE,
    datapath,
    map as map_module,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    shm,
)
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.datapath import gather_rows, occurrence_ranks, stage_scatter_add
from repro.op2.kernel import Kernel
from repro.op2.par_loop import ParLoop
from repro.op2.plan import clear_plan_cache
from repro.session import Session

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _brute_force_ranks(index: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}
    ranks = np.empty(index.size, dtype=np.int64)
    for i, target in enumerate(index.tolist()):
        ranks[i] = seen.get(target, 0)
        seen[target] = ranks[i] + 1
    return ranks


@st.composite
def _scatter_cases(draw, max_rows=200):
    """(data, strided column index, buffer): few targets, many rows."""
    rows = draw(st.integers(0, max_rows))
    targets = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, targets, size=(rows, 3))
    index = values[:, draw(st.integers(0, 2))]  # a strided map column
    if draw(st.booleans()):
        data = rng.standard_normal((targets, dim)) * 1e3
        buffer = rng.standard_normal((rows, dim))
    else:
        data = rng.integers(-(2**40), 2**40, size=(targets, dim))
        buffer = rng.integers(-(2**40), 2**40, size=(rows, dim))
    return data, index, buffer


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
class TestScatterAdd:
    @settings(max_examples=200, deadline=None)
    # up to 3 000 rows: dims 1-4 reach past 8192 buffer entries
    @given(case=_scatter_cases(max_rows=3000))
    def test_bit_identical_to_add_at(self, case):
        data, index, buffer = case
        expected = data.copy()
        np.add.at(expected, index, buffer)
        commit = stage_scatter_add(data, index, buffer)
        untouched = buffer.copy()
        commit()
        assert np.array_equal(data, expected)
        assert np.array_equal(buffer, untouched)


class TestGatherAndRanks:
    @settings(max_examples=100, deadline=None)
    @given(case=_scatter_cases())
    def test_gather_equals_fancy_indexing(self, case):
        data, index, _ = case
        gathered = gather_rows(data, index)
        assert np.array_equal(gathered, data[index])
        assert gathered.shape == (index.size, data.shape[1])
        assert not np.shares_memory(gathered, data)

    @settings(max_examples=100, deadline=None)
    @given(case=_scatter_cases())
    def test_ranks_equal_brute_force(self, case):
        _, index, _ = case
        ranks = occurrence_ranks(index)
        brute = _brute_force_ranks(index)
        if ranks is None:
            assert not brute.any()
        else:
            assert brute.any()
            assert ranks.dtype == np.uint8
            assert np.array_equal(ranks, brute)

    @pytest.mark.parametrize("hits, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_rank_dtype_widens_only_when_needed(self, hits, dtype, rng):
        index = np.concatenate([np.full(hits, 7), np.arange(100, 150)])
        rng.shuffle(index)
        ranks = occurrence_ranks(index)
        assert ranks.dtype == dtype
        assert int(ranks.max()) == hits - 1
        assert np.array_equal(ranks, _brute_force_ranks(index))
        data = rng.standard_normal((150, 2))
        buffer = rng.standard_normal((index.size, 2))
        expected = data.copy()
        np.add.at(expected, index, buffer)
        stage_scatter_add(data, index, buffer)()
        assert np.array_equal(data, expected)


# ---------------------------------------------------------------------------
# duplicate detection
# ---------------------------------------------------------------------------
class TestDuplicateDetection:
    @staticmethod
    def _map(rows=4000, targets=1000, seed=0):
        rng = np.random.default_rng(seed)
        source = op_decl_set(rows, "edges")
        target = op_decl_set(max(rows, targets), "nodes")
        values = np.stack(
            [rng.permutation(rows), rng.integers(0, targets, size=rows)], axis=1
        )
        return op_decl_map(source, target, 2, values, "e2n"), values

    @staticmethod
    def _has_repeat(index: np.ndarray) -> bool:
        return len(set(index.tolist())) < index.size

    @settings(max_examples=60, deadline=None)
    @given(
        slot=st.integers(0, 1),
        start=st.integers(0, 3999),
        rows=st.integers(1, 200),
    )
    def test_repeats_equal_a_brute_force_check(self, slot, start, rows):
        opmap, values = self._map()
        stop = min(start + rows, 4000)
        expected = self._has_repeat(values[start:stop, slot])
        assert opmap.repeats(slot, start, stop) is expected
        assert opmap.repeats(slot, start, stop) is expected  # the kept answer

    def test_one_bool_is_kept_per_chunk_slot(self, monkeypatch):
        opmap, _ = self._map()
        asked = []

        def counting(index):
            asked.append(index.size)
            return occurrence_ranks(index)

        monkeypatch.setattr(map_module, "occurrence_ranks", counting)
        assert not opmap.repeats(0, 0, 4000)  # a permutation
        assert opmap.repeats(1, 500, 3500)
        assert opmap.repeats(1, 500, 3500) and not opmap.repeats(0, 0, 4000)
        assert asked == [4000, 3000]
        assert set(opmap._repeats.values()) == {False, True}

    def test_concurrent_askers_agree(self):
        # compute threads of one engine share the map: more threads than
        # cores, a short switch interval, overlapping ranges
        opmap, values = self._map()
        ranges = [(start, start + rows) for start in range(0, 3000, 250) for rows in (3, 40, 900)]
        expected = {r: self._has_repeat(values[r[0] : r[1], 1]) for r in ranges}
        assert set(expected.values()) == {False, True}
        wrong = []

        def worker(offset):
            for turn in range(3 * len(ranges)):
                r = ranges[(offset + turn) % len(ranges)]
                if opmap.repeats(1, *r) is not expected[r]:
                    wrong.append(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    def test_set_values_drops_the_answers_of_the_old_connectivity(self):
        opmap, values = self._map()
        assert opmap.repeats(1, 0, 4000)
        distinct = values.copy()
        distinct[:, 1] = np.arange(4000)
        opmap.set_values(distinct)
        assert opmap._repeats == {}
        assert not opmap.repeats(1, 0, 4000)


# ---------------------------------------------------------------------------
# end-to-end oracle: the data path of the parent commit
# ---------------------------------------------------------------------------
def _legacy_data_path(monkeypatch):
    """Patch the data path back to fancy indexing and the 2-D ``np.add.at``."""
    monkeypatch.setattr(datapath, "gather_rows", lambda data, index: data[index].copy())
    monkeypatch.setattr(
        datapath,
        "stage_scatter_add",
        lambda data, index, buffer: partial(np.add.at, data, index, buffer),
    )


class TestBitIdenticalToTheLegacyDataPath:
    STEPS = 3

    def _run(self, engine, method):
        clear_plan_cache()
        mesh = generate_mesh(120, 80)
        if method is not None:
            mesh = renumber_mesh(mesh, method=method, seed=5)
        if engine == "serial":
            with active_context(serial_context()):
                for _ in range(self.STEPS):
                    run_airfoil(mesh, niter=1, rk_steps=2)
            return mesh.p_q.data.copy()
        # a fresh session per run: its workers fork after any monkeypatching
        with Session(name=f"oracle-{engine}") as session:
            context = hpx_context(engine=engine, num_threads=2, session=session)
            with active_context(context):
                for _ in range(self.STEPS):
                    run_airfoil(mesh, niter=1, rk_steps=2)
        return mesh.p_q.data.copy()

    @pytest.mark.parametrize("method", [None, "shuffle"])
    @pytest.mark.parametrize("engine", ["serial", "threads", "processes"])
    def test_airfoil_steps_equal_the_legacy_path_bit_for_bit(
        self, engine, method, monkeypatch
    ):
        large = []  # per commit of >= 8192 entries: whether a target repeats
        real_stage = datapath.stage_scatter_add

        def counting_stage(data, index, buffer):
            if buffer.size >= 8192:
                large.append(np.unique(index).size < index.size)
            return real_stage(data, index, buffer)

        with monkeypatch.context() as patch:
            patch.setattr(datapath, "stage_scatter_add", counting_stage)
            current = self._run(engine, method)
        if engine != "processes":  # worker-side calls are not visible here
            assert large, "the mesh must be large enough to reach commits of 8192 entries"
        if engine == "serial":
            assert any(large), "whole-range res_calc blocks hit cells twice"
        with monkeypatch.context() as patch:
            _legacy_data_path(patch)
            legacy = self._run(engine, method)
        assert np.isfinite(current).all()
        assert np.array_equal(current, legacy)


# ---------------------------------------------------------------------------
# sub-blocks: the block size of the compute phase changes no bit
# ---------------------------------------------------------------------------
#: one sub-block per chunk whatever its size: the compute phase before sub-blocks
UNBLOCKED = sys.maxsize


def _airfoil_dats(engine, method, shape, steps=3):
    """``q``/``res``/``adt``/``qold`` after ``steps`` Airfoil steps on a fresh mesh."""
    clear_plan_cache()
    mesh = generate_mesh(*shape)
    if method is not None:
        mesh = renumber_mesh(mesh, method=method, seed=5)
    if engine == "serial":
        with active_context(serial_context()):
            for _ in range(steps):
                run_airfoil(mesh, niter=1, rk_steps=2)
    else:
        # a fresh session per run: its workers fork after any monkeypatching
        with Session(name=f"sub-blocks-{engine}") as session:
            context = hpx_context(engine=engine, num_threads=2, session=session)
            with active_context(context):
                for _ in range(steps):
                    run_airfoil(mesh, niter=1, rk_steps=2)
    return [dat.data.copy() for dat in (mesh.p_q, mesh.p_res, mesh.p_adt, mesh.p_qold)]


class TestSubBlockSizeChangesNoBit:
    """Three Airfoil steps per block size, ``np.array_equal`` to the unblocked run.

    ``n`` is the cell count: ``serial`` runs the direct loops as one ``n``-row
    block, so ``n - 1`` splits it into two equal halves, ``n`` is one exact
    block and ``n + 1`` one block with room; ``n // 8`` cuts the engines' smaller chunks
    too.  One- and seven-row blocks call the block form once per (few) rows --
    15 s per run on 120x80 -- and therefore run on a 24x16 mesh.
    """

    @pytest.mark.parametrize("method", [None, "shuffle"])
    @pytest.mark.parametrize("engine", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("shape", [(120, 80), (24, 16)], ids=["120x80", "24x16-tiny-blocks"])
    def test_airfoil_dats_equal_the_unblocked_run(self, engine, method, shape, monkeypatch):
        n = shape[0] * shape[1]
        default = datapath.COMPUTE_BLOCK_ROWS
        sizes = (n // 8, n - 1, n, n + 1, default) if shape == (120, 80) else (1, 7)
        monkeypatch.setattr(datapath, "COMPUTE_BLOCK_ROWS", UNBLOCKED)
        unblocked = _airfoil_dats(engine, method, shape)
        assert all(np.isfinite(dat).all() for dat in unblocked)
        for rows in sizes:
            monkeypatch.setattr(datapath, "COMPUTE_BLOCK_ROWS", rows)
            blocked = _airfoil_dats(engine, method, shape)
            for name, ours, theirs in zip(("q", "res", "adt", "qold"), blocked, unblocked):
                assert np.array_equal(ours, theirs), (name, rows)


_REDUCE = {OP_INC: np.sum, OP_MIN: np.min, OP_MAX: np.max}
_COMBINE = {OP_INC: np.add, OP_MIN: np.minimum, OP_MAX: np.maximum}


def _shape_block_form(shape, gmode, assign):
    """A block form for one loop shape; every one writes ``_idx`` into ``eout``."""

    def block_form(_idx, ein, eout, *rest):
        rest = list(rest)
        eout[:, 0] = ein[:, 0] * 0.5 + _idx
        value = ein[:, 1]
        if shape == "read_inc":
            source, increments = rest.pop(0), rest.pop(0)
            value = source[:, 0] * value - source[:, 1]
            increments[:, 0] += value
            increments[:, 1] -= value * 0.3
        elif shape == "write":
            target = rest.pop(0)
            target[:, 0] = value * 1.7
            target[:, 1] = _idx
        elif shape == "rw":
            target = rest.pop(0)
            target[:, 0] = target[:, 0] * 0.5 + value
            value = target[:, 1] + value
        if gmode is not None:
            (gbl,) = rest
            partial_result = _REDUCE[gmode](value)
            # a block form may assign its partial result to the (neutral)
            # buffer it is given instead of accumulating into it
            gbl[0] = partial_result if assign else _COMBINE[gmode](gbl[0], partial_result)

    return block_form


def _elemental_must_not_run(*_views):
    raise AssertionError("every block of these loop shapes takes the block form")


class TestSubBlocksOverLoopShapes:
    """Chunks computed first, committed in order afterwards -- the engines'
    discipline -- at a drawn block size against one block per chunk."""

    def _run(self, rows, n_edges, cuts, shape, gmode, assign, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_nodes = n_edges + 3
        edges = op_decl_set(n_edges, "edges")
        nodes = op_decl_set(n_nodes, "nodes")
        columns = np.stack(
            [
                rng.integers(0, n_nodes, size=n_edges),  # READ: duplicates welcome
                rng.integers(0, max(n_nodes // 2, 1), size=n_edges),  # INC: heavy duplicates
                rng.permutation(n_nodes)[:n_edges],  # WRITE/RW: distinct targets
            ],
            axis=1,
        )
        e2n = op_decl_map(edges, nodes, 3, columns, "e2n")
        ein = op_decl_dat(edges, 2, "double", rng.standard_normal((n_edges, 2)), "ein")
        eout = op_decl_dat(edges, 1, "double", np.zeros((n_edges, 1)), "eout")
        source = op_decl_dat(nodes, 2, "double", rng.standard_normal((n_nodes, 2)), "src")
        target = op_decl_dat(nodes, 2, "double", rng.standard_normal((n_nodes, 2)), "tgt")
        gbl = np.array([0.25])
        args = [
            op_arg_dat(ein, -1, OP_ID, 2, "double", OP_READ),
            op_arg_dat(eout, -1, OP_ID, 1, "double", OP_WRITE),
        ]
        if shape == "read_inc":
            args.append(op_arg_dat(source, 0, e2n, 2, "double", OP_READ))
            args.append(op_arg_dat(target, 1, e2n, 2, "double", OP_INC))
        elif shape != "direct":
            args.append(
                op_arg_dat(target, 2, e2n, 2, "double", OP_WRITE if shape == "write" else OP_RW)
            )
        if gmode is not None:
            args.append(op_arg_gbl(gbl, 1, "double", gmode))
        kernel = Kernel(
            name=f"shape-{shape}",
            elemental=_elemental_must_not_run,
            vectorized=_shape_block_form(shape, gmode, assign),
        )
        loop = ParLoop(kernel, kernel.name, edges, args)
        bounds = [0, *sorted(cuts), n_edges]
        monkeypatch.setattr(datapath, "COMPUTE_BLOCK_ROWS", rows)
        commits = [loop.prepare_block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for commit in commits:
            commit()
        expected_eout = ein.data[:, 0] * 0.5 + np.arange(n_edges)
        return eout.data.copy(), target.data.copy(), gbl.copy(), expected_eout

    @settings(max_examples=150, deadline=None)
    @given(
        n_edges=st.integers(0, 40),
        rows=st.integers(1, 45),
        cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
        shape=st.sampled_from(["direct", "read_inc", "write", "rw"]),
        gmode=st.sampled_from([None, OP_INC, OP_MIN, OP_MAX]),
        assign=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # one-row tail blocks, an empty iteration set, an empty chunk between two cuts
    @example(n_edges=9, rows=4, cut_fractions=[], shape="read_inc", gmode=OP_MIN, assign=True, seed=1)
    @example(n_edges=11, rows=5, cut_fractions=[], shape="rw", gmode=OP_INC, assign=True, seed=2)
    @example(n_edges=0, rows=3, cut_fractions=[], shape="write", gmode=OP_MAX, assign=False, seed=3)
    @example(n_edges=8, rows=3, cut_fractions=[0.5, 0.5], shape="direct", gmode=OP_INC, assign=False, seed=4)
    def test_block_size_changes_no_dat_and_no_min_max(
        self, n_edges, rows, cut_fractions, shape, gmode, assign, seed
    ):
        cuts = [int(fraction * n_edges) for fraction in cut_fractions]
        with pytest.MonkeyPatch.context() as patch:
            blocked = self._run(rows, n_edges, cuts, shape, gmode, assign, seed, patch)
            unblocked = self._run(UNBLOCKED, n_edges, cuts, shape, gmode, assign, seed, patch)
        assert np.array_equal(blocked[0], unblocked[0]), "direct output"
        assert np.array_equal(blocked[1], unblocked[1]), "indirect target"
        if gmode is OP_INC:  # grouped by sub-block: equal to rounding
            assert np.allclose(blocked[2], unblocked[2], rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(blocked[2], unblocked[2]), "global"
        # ``_idx`` is the sub-block's *global* iteration range
        assert np.array_equal(blocked[0][:, 0], blocked[3])


# ---------------------------------------------------------------------------
# scratch and staging pool
# ---------------------------------------------------------------------------
def _res_calc_loop(mesh, kernel=RES_CALC):
    return ParLoop(
        kernel,
        "res_calc",
        mesh.edges,
        [
            op_arg_dat(mesh.p_x, 0, mesh.pedge, 2, "double", OP_READ),
            op_arg_dat(mesh.p_x, 1, mesh.pedge, 2, "double", OP_READ),
            op_arg_dat(mesh.p_q, 0, mesh.pecell, 4, "double", OP_READ),
            op_arg_dat(mesh.p_q, 1, mesh.pecell, 4, "double", OP_READ),
            op_arg_dat(mesh.p_adt, 0, mesh.pecell, 1, "double", OP_READ),
            op_arg_dat(mesh.p_adt, 1, mesh.pecell, 1, "double", OP_READ),
            op_arg_dat(mesh.p_res, 0, mesh.pecell, 4, "double", OP_INC),
            op_arg_dat(mesh.p_res, 1, mesh.pecell, 4, "double", OP_INC),
        ],
    )


def _edge_map(rows, seed=0):
    rng = np.random.default_rng(seed)
    edges = op_decl_set(rows, "edges")
    nodes = op_decl_set(rows // 2, "nodes")
    e2n = op_decl_map(edges, nodes, 2, rng.integers(0, nodes.size, (rows, 2)), "e2n")
    values = rng.standard_normal((nodes.size, 3))
    return e2n, op_decl_dat(nodes, 3, "double", values, "x")


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty free-list of staging, whatever earlier tests left pooled."""
    pool = datapath._StagingPool()
    monkeypatch.setattr(datapath, "_staging", pool)
    return pool


class TestScratchAndStagingPool:
    def test_threads_gathering_at_once_get_disjoint_scratch(self):
        rows = 3 * datapath.SCRATCH_MIN_ROWS
        e2n, x = _edge_map(rows)
        arg = op_arg_dat(x, 1, e2n, 3, "double", OP_READ)
        barrier = threading.Barrier(2)
        seen: dict[str, list] = {"a": [], "b": []}

        def gather(name):
            stage = datapath.BlockStage(0, rows)
            stage.gathered(arg)
            for idx, (view,) in stage.sub_blocks():
                barrier.wait(timeout=30)  # both threads hold a sub-block's views now
                seen[name].append((idx.copy(), view, view.copy()))
                barrier.wait(timeout=30)

        threads = [threading.Thread(target=gather, args=(name,)) for name in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen["a"]) == len(seen["b"]) >= 2
        for idx, _, values in seen["a"] + seen["b"]:
            assert np.array_equal(values, x.data[e2n.values[idx, 1]])
        for _, ours, _ in seen["a"]:
            for _, theirs, _ in seen["b"]:
                assert not np.shares_memory(ours, theirs)

    def test_a_kernel_raising_mid_chunk_leaves_the_thread_computing_the_serial_answer(
        self, monkeypatch, fresh_pool
    ):
        reference_mesh = generate_mesh(120, 80).declare()
        _res_calc_loop(reference_mesh).execute_all()
        # two sub-blocks, both through scratch
        half = -(-reference_mesh.num_edges // 2)
        assert half >= datapath.SCRATCH_MIN_ROWS
        monkeypatch.setattr(datapath, "COMPUTE_BLOCK_ROWS", half)
        calls = []

        def flaky(_idx, *views):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("kernel failed in the second sub-block")
            RES_CALC.vectorized(_idx, *views)

        mesh = generate_mesh(120, 80).declare()
        kernel = Kernel("res_calc_flaky", elemental=RES_CALC.elemental, vectorized=flaky)
        with pytest.raises(RuntimeError, match="second sub-block"):
            _res_calc_loop(mesh, kernel).prepare_block(0, mesh.num_edges)
        assert not mesh.p_res.data.any()  # nothing committed
        _res_calc_loop(mesh, kernel).execute_all()  # same thread, same scratch
        assert np.array_equal(mesh.p_res.data, reference_mesh.p_res.data)

    def test_staging_returns_to_the_pool_only_from_a_commit(self, fresh_pool):
        mesh = generate_mesh(120, 80).declare()
        loop = _res_calc_loop(mesh)
        staging = 2 * mesh.num_edges * 4 * 8  # the two INC buffers
        loop.prepare_block(0, mesh.num_edges)()
        assert fresh_pool.nbytes == staging
        aborted = loop.prepare_block(0, mesh.num_edges)  # as an aborted context leaves it
        assert fresh_pool.nbytes == 0
        del aborted
        assert fresh_pool.nbytes == 0
        loop.prepare_block(0, mesh.num_edges)()
        assert fresh_pool.nbytes == staging

    @pytest.mark.parametrize("access", [OP_INC, OP_RW])
    def test_a_reused_buffer_is_zeroed_or_gathered_again(self, access, fresh_pool):
        rows = datapath.SCRATCH_MIN_ROWS
        e2n, x = _edge_map(rows)
        if access is OP_RW:  # WRITE/RW staging needs distinct targets
            nodes = op_decl_set(rows, "nodes")
            e2n = op_decl_map(e2n.from_set, nodes, 1, np.random.default_rng(1).permutation(rows), "e2n")
            x = op_decl_dat(nodes, 3, "double", np.arange(3.0 * rows).reshape(rows, 3), "x")
        arg = op_arg_dat(x, 0, e2n, 3, "double", access)
        first = datapath.BlockStage(0, rows)
        used = first.private(arg)
        used[...] = 7.0
        first.committer()()
        second = datapath.BlockStage(0, rows)
        reused = second.private(arg)
        assert reused is used
        if access is OP_INC:
            assert not reused.any()
        else:
            assert np.array_equal(reused, x.data[e2n.values[:, 0]])

    def test_threads_sharing_the_pool_never_hold_one_buffer_at_once(self, fresh_pool):
        # compute threads take while merge threads give back: more threads
        # than cores, a short switch interval, a buffer marked by its holder
        shapes = [(64, 4), (64, 1), (32, 4)]
        clashes = []

        def churn(mark):
            for turn in range(300):
                shape = shapes[(mark + turn) % len(shapes)]
                buffer = fresh_pool.take(shape, np.float64)
                if buffer is None:
                    buffer = np.empty(shape)
                buffer.fill(mark)
                if not (buffer == mark).all():  # another thread wrote it meanwhile
                    clashes.append(mark)
                fresh_pool.give([buffer])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(mark,)) for mark in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clashes
        pooled = [b for stack in fresh_pool._free.values() for b in stack]
        assert fresh_pool.nbytes == sum(b.nbytes for b in pooled) <= datapath.STAGING_POOL_BYTES
        assert len({id(b) for b in pooled}) == len(pooled)

    def test_the_pool_holds_at_most_its_cap(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(datapath, "STAGING_POOL_BYTES", 3 * 8000)
        fresh_pool.give([np.empty(1000) for _ in range(5)])
        assert fresh_pool.nbytes == 2 * 8000  # the fourth emptied it
        fresh_pool.give([np.empty(4000)])  # larger than the cap: dropped
        assert fresh_pool.nbytes == 0
        assert fresh_pool.take((1000,), np.float64) is None

    def test_pooled_bytes_stay_under_the_cap_after_a_large_processes_chain(self, fresh_pool):
        clear_plan_cache()
        mesh = generate_mesh(400, 300)
        with active_context(serial_context()):
            run_airfoil(mesh, niter=1, rk_steps=2)
        assert fresh_pool.nbytes > 0
        with Session(name="pooled-staging") as session:
            with active_context(hpx_context(engine="processes", num_threads=2, session=session)):
                run_airfoil(mesh, niter=1, rk_steps=2)
        pooled = sum(b.nbytes for stack in fresh_pool._free.values() for b in stack)
        assert pooled == fresh_pool.nbytes <= datapath.STAGING_POOL_BYTES


class TestMapValuesAreCheckedAndReadOnly:
    """``mode="clip"`` would clamp a bad index silently: every array that
    becomes ``OpMap.values`` is range-checked and read-only."""

    def test_set_values_checks_the_range_and_keeps_values_read_only(self):
        e2n, _ = _edge_map(64)
        bad = e2n.values.copy()
        bad[5, 1] = e2n.to_set.size
        with pytest.raises(OP2MappingError, match="outside target set"):
            e2n.set_values(bad)
        e2n.set_values(e2n.values[::-1].copy())
        assert not e2n.values.flags.writeable
        with pytest.raises(ValueError):
            e2n.values[0, 0] = 0

    def test_attach_map_checks_the_range_in_the_worker(self):
        e2n, _ = _edge_map(64)
        arena = shm.SharedMemoryArena(name_prefix="op2-test")
        segments: list = []
        try:
            spec = arena.adopt_map(e2n)
            attached = shm.attach_map(spec, {}, segments)
            assert np.array_equal(attached.values, e2n.values)
            assert not attached.values.flags.writeable
            # a writer that bypasses the read-only view corrupts the segment
            segment = shared_memory.SharedMemory(name=spec["segment"])
            try:
                raw = np.ndarray(spec["shape"], dtype=spec["dtype"], buffer=segment.buf)
                raw[3, 0] = -1
                del raw
            finally:
                segment.close()
            with pytest.raises(OP2MappingError, match="outside target set"):
                shm.attach_map(spec, {}, segments)
        finally:
            shm.detach_all(segments)
            arena.release()


def _slots_contiguous_and_read_only(values: np.ndarray) -> list[tuple[bool, bool]]:
    return [
        (values[:, s].flags.c_contiguous, values[:, s].flags.writeable)
        for s in range(values.shape[1])
    ]


def _report_attached_layout(spec, conn) -> None:
    """Worker side of the layout check: attach the map as a worker does."""
    segments: list = []
    try:
        conn.send(_slots_contiguous_and_read_only(shm.attach_map(spec, {}, segments).values))
    finally:
        shm.detach_all(segments)
        conn.close()


class TestColumnMajorLayout:
    """Map slots and INC staging columns are contiguous wherever they come
    from: a slot is the index of every gather and scatter-add, an INC
    column what the kernel writes and the commit reads."""

    COLUMN_MAJOR = [(True, False)] * 2  # per slot: C-contiguous, read-only

    def test_map_slots_after_declaration_and_set_values(self):
        e2n, _ = _edge_map(64)
        assert _slots_contiguous_and_read_only(e2n.values) == self.COLUMN_MAJOR
        e2n.set_values(np.ascontiguousarray(e2n.values[::-1]))
        assert _slots_contiguous_and_read_only(e2n.values) == self.COLUMN_MAJOR

    def test_map_slots_after_adoption_and_release_in_the_parent(self):
        e2n, _ = _edge_map(64)
        expected = e2n.values.copy()
        arena = shm.SharedMemoryArena(name_prefix="op2-test")
        try:
            spec = arena.adopt_map(e2n)
            assert spec["order"] == "F"
            assert _slots_contiguous_and_read_only(e2n.values) == self.COLUMN_MAJOR
        finally:
            arena.release()
        assert _slots_contiguous_and_read_only(e2n.values) == self.COLUMN_MAJOR
        assert np.array_equal(e2n.values, expected)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_map_slots_after_attach_map_in_a_worker(self, method):
        import multiprocessing

        from repro.apps.jacobi import build_ring_problem, run_jacobi
        from repro.runtime.process_pool import ProcessChunkEngine

        # the order travels in the spec: attach in a child process
        e2n, _ = _edge_map(64)
        context = multiprocessing.get_context(method)
        arena = shm.SharedMemoryArena(name_prefix="op2-test")
        try:
            spec = arena.adopt_map(e2n)
            ours, theirs = context.Pipe()
            child = context.Process(target=_report_attached_layout, args=(spec, theirs))
            child.start()
            theirs.close()
            assert ours.poll(60)
            assert ours.recv() == self.COLUMN_MAJOR
            child.join(timeout=30)
        finally:
            arena.release()
        # and a pool started that way computes through it
        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_jacobi(build_ring_problem(num_nodes=200), iterations=2)
        clear_plan_cache()
        hpx = hpx_context(num_threads=2, engine="processes")
        hpx._executor = ProcessChunkEngine(2, name="layout", start_method=method)
        with active_context(hpx):
            result = run_jacobi(build_ring_problem(num_nodes=200), iterations=2)
        assert np.array_equal(result.u, reference.u)

    def test_the_stub_hands_the_kernel_contiguous_inc_columns(self):
        rows = datapath.SCRATCH_MIN_ROWS // 4
        e2n, x = _edge_map(rows)
        seen = []

        def record(_idx, x0, x1):
            seen.append([x1[:, c].flags.c_contiguous for c in range(3)])

        kernel = Kernel("record_inc_layout", elemental=lambda x0, x1: None, vectorized=record)
        loop = ParLoop(
            kernel,
            "record_inc_layout",
            e2n.from_set,
            [
                op_arg_dat(x, 0, e2n, 3, "double", OP_READ),
                op_arg_dat(x, 1, e2n, 3, "double", OP_INC),
            ],
        )
        assert datapath.BlockStage(0, rows).eager  # the chunk runs through the stub
        loop.execute_block(0, rows)
        assert seen == [[True] * 3]

    def test_inc_staging_is_column_major_fresh_and_pooled(self, fresh_pool):
        small, rows = datapath.SCRATCH_MIN_ROWS // 4, datapath.SCRATCH_MIN_ROWS
        e2n, x = _edge_map(rows)
        arg = op_arg_dat(x, 1, e2n, 3, "double", OP_INC)
        fresh = datapath.BlockStage(0, small).private(arg)
        assert [fresh[:, c].flags.c_contiguous for c in range(3)] == [True] * 3
        # a row-major buffer of the same shape (WRITE/RW staging) is not handed out
        fresh_pool.give([np.empty((rows, 3))])
        first = datapath.BlockStage(0, rows)
        used = first.private(arg)
        assert [used[:, c].flags.c_contiguous for c in range(3)] == [True] * 3
        first.committer()()
        reused = datapath.BlockStage(0, rows).private(arg)
        assert reused is used and not reused.any()

    def test_an_owner_commit_on_a_shuffled_mesh_allocates_nothing_that_scales(self):
        import tracemalloc

        clear_plan_cache()
        mesh = renumber_mesh(generate_mesh(260, 200), method="shuffle", seed=5).declare()
        loop = _res_calc_loop(mesh)
        owner = (2, 0)
        rows = loop.owner_plan(2).rows[0].size
        assert rows > 4 * datapath.SCRATCH_MIN_ROWS
        loop._prepare_vectorized(0, 0, owner).committer()()  # warm-up: scratch, pool
        stage = loop._prepare_vectorized(0, 0, owner)
        assert len(stage._pooled) == 2
        for buffer in stage._pooled:  # the kernel's INC columns: contiguous
            assert buffer.flags.f_contiguous and not buffer.flags.c_contiguous
        commit = stage.committer()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            commit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's staging is rows x 4 doubles (> 1 MB) per INC argument
        assert peak - before <= 64 << 10, peak - before
        assert np.isfinite(mesh.p_res.data).all()


# ---------------------------------------------------------------------------
# guard: one implementation
# ---------------------------------------------------------------------------
class TestTheDataPathLivesInOneModule:
    FORBIDDEN = {
        "np.add.at call": re.compile(r"add\.at\("),
        "np.take gather": re.compile(r"\btake\("),
        "fancy row gather/scatter of dat data": re.compile(
            r"\.data\[\s*(targets|indices|index|idx|column|col)\b"
        ),
    }

    def test_no_stray_add_at_or_fancy_row_gather_in_src(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "datapath.py":
                continue
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                for what, pattern in self.FORBIDDEN.items():
                    if pattern.search(line):
                        offenders.append(f"{path.relative_to(SRC)}:{number}: {what}")
        assert not offenders, (
            "indirect gathers and scatter-adds belong to repro.op2.datapath "
            "(BlockStage), shared by ParLoop and the slab:\n" + "\n".join(offenders)
        )

    def test_add_at_appears_in_one_function_of_the_data_path_module(self):
        tree = ast.parse((SRC / "op2" / "datapath.py").read_text())
        users = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(
                isinstance(node, ast.Attribute)
                and node.attr == "at"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "add"
                for node in ast.walk(function)
            )
        ]
        assert users == ["stage_scatter_add"]

    def test_the_sub_block_loop_and_its_row_constant_live_in_one_function(self):
        constant = "COMPUTE_BLOCK_ROWS"

        def mentions(node):
            return any(
                (isinstance(n, ast.Name) and n.id == constant)
                or (isinstance(n, ast.Attribute) and n.attr == constant)
                for n in ast.walk(node)
            )

        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            if constant not in text:
                continue
            tree = ast.parse(text)
            if path.name != "datapath.py":
                assert not mentions(tree), f"{path.relative_to(SRC)} reads the block rows"
                continue
            users = [
                function.name
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and mentions(function)
            ]
            assert users == ["sub_blocks"]
            (sub_blocks,) = [
                f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "sub_blocks"
            ]
            loops = [n for n in ast.walk(sub_blocks) if isinstance(n, ast.For) and mentions(n.iter)]
            assert len(loops) == 1, "one loop steps through a chunk by the block rows"
        callers = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if re.search(r"\.sub_blocks\(", path.read_text())
        ]
        assert callers == ["op2/par_loop.py"], "the slab is deliberately not sub-blocked"

    @staticmethod
    def _calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def test_clip_gathers_and_the_scratch_accessor_live_in_the_data_path_module(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "datapath.py":
                continue
            tree = ast.parse(path.read_text())
            for call in self._calls(tree):
                if any(
                    kw.arg == "mode" and isinstance(kw.value, ast.Constant) and kw.value.value == "clip"
                    for kw in call.keywords
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{call.lineno}: mode='clip'")
            for node in ast.walk(tree):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "_thread_scratch":
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: scratch accessor")
        assert not offenders, "\n".join(offenders)

    def test_generated_modules_are_executed_only_by_the_translator(self):
        executors = sorted(
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if any(
                isinstance(call.func, ast.Name) and call.func.id in ("exec", "eval")
                for call in self._calls(ast.parse(path.read_text()))
            )
        )
        assert executors and all(path.startswith("translator/") for path in executors), executors
