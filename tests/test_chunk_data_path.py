"""The chunk data path (:mod:`repro.op2.datapath`): bit-identity and confinement.

Five groups:

* **Helpers** (Hypothesis) -- the scatter-add commit is ``np.array_equal`` to
  ``np.add.at`` on non-integer floats with heavy duplicates, on both sides of
  the small-block crossover; gathers equal fancy indexing; occurrence ranks
  equal a brute-force count and widen their dtype when they must.
* **Schedule ownership** -- ``OpMap.scatter_ranks`` stores nothing for a
  chunk-slot without duplicates, at most one byte per row otherwise, stays
  within one byte per map entry overall and is dropped by ``set_values``.
* **End-to-end oracle** -- Airfoil steps are bit-identical to a run whose data
  path is patched back to fancy indexing + ``np.add.at``, i.e. to the commit
  before the rounds existed.
* **Sub-blocks** -- the compute phase's block size changes no bit of any dat:
  Airfoil steps at block sizes around every boundary case equal the unblocked
  run, and a Hypothesis property does the same over loop shapes (direct,
  indirect READ+INC, WRITE/RW, global reductions that accumulate or assign, a
  kernel reading ``_idx``, empty ranges, one-row tails).
* **Guard** -- ``np.add.at``, ``np.take`` and fancy row gathers of dat data
  appear nowhere in ``src/`` outside the data-path module, and the sub-block
  loop with its row constant lives in one function of it, so ``ParLoop`` and
  the slab cannot drift apart again.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
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
)
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.datapath import (
    SCATTER_ROUNDS_MIN_SIZE,
    gather_rows,
    occurrence_ranks,
    stage_scatter_add,
)
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
def _scatter_cases(draw):
    """(data, strided column index, buffer): few targets, many rows."""
    rows = draw(st.integers(0, 200))
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
    @given(case=_scatter_cases(), rounds=st.booleans())
    def test_bit_identical_to_add_at(self, case, rounds):
        data, index, buffer = case
        expected = data.copy()
        np.add.at(expected, index, buffer)
        # drive both sides of the crossover regardless of the block's size
        threshold = 0 if rounds else buffer.size + 1
        asked = []

        def ranks_of():
            asked.append(True)
            return occurrence_ranks(index)

        saved = datapath.SCATTER_ROUNDS_MIN_SIZE
        datapath.SCATTER_ROUNDS_MIN_SIZE = threshold
        try:
            commit = stage_scatter_add(data, index, buffer, ranks_of)
        finally:
            datapath.SCATTER_ROUNDS_MIN_SIZE = saved
        untouched = buffer.copy()
        commit()
        assert np.array_equal(data, expected)
        assert np.array_equal(buffer, untouched)
        assert len(asked) == (1 if rounds else 0)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_crossover_constant_selects_the_path(self, dim, rng):
        rows_at = -(-SCATTER_ROUNDS_MIN_SIZE // dim)
        for rows, expect_ranks in ((rows_at, True), (rows_at - 1, False)):
            index = rng.integers(0, rows // 3, size=rows)
            buffer = rng.standard_normal((rows, dim))
            data = rng.standard_normal((rows // 3, dim))
            expected = data.copy()
            np.add.at(expected, index, buffer)
            asked = []
            commit = stage_scatter_add(
                data, index, buffer, lambda: asked.append(1) or occurrence_ranks(index)
            )
            commit()
            assert bool(asked) is expect_ranks
            assert np.array_equal(data, expected)

    def test_ranks_are_taken_when_staged_not_when_committed(self, rng):
        index = rng.integers(0, 50, size=SCATTER_ROUNDS_MIN_SIZE)
        buffer = rng.standard_normal((index.size, 1))
        data = np.zeros((50, 1))
        calls = []
        commit = stage_scatter_add(
            data, index, buffer, lambda: calls.append(1) or occurrence_ranks(index)
        )
        assert calls == [1]
        commit()
        assert calls == [1]


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
        datapath._scatter_add_rounds(data, index, buffer, ranks)
        assert np.array_equal(data, expected)


# ---------------------------------------------------------------------------
# schedule ownership
# ---------------------------------------------------------------------------
class TestMapOwnedSchedules:
    @staticmethod
    def _map(rows=4000, targets=1000, seed=0):
        rng = np.random.default_rng(seed)
        source = op_decl_set(rows, "edges")
        target = op_decl_set(max(rows, targets), "nodes")
        values = np.stack(
            [rng.permutation(rows), rng.integers(0, targets, size=rows)], axis=1
        )
        return op_decl_map(source, target, 2, values, "e2n"), values

    def test_nothing_is_stored_for_a_chunk_slot_without_duplicates(self):
        opmap, _ = self._map()
        assert opmap.scatter_ranks(0, 0, 4000) is None
        assert opmap.scatter_ranks(0, 100, 2100) is None
        assert opmap._scatter_ranks_bytes == 0
        assert all(ranks is None for ranks in opmap._scatter_ranks.values())

    def test_a_duplicated_chunk_slot_costs_at_most_one_byte_per_row(self):
        opmap, values = self._map()
        ranks = opmap.scatter_ranks(1, 500, 3500)
        assert ranks is not None and ranks.nbytes <= 3000
        assert np.array_equal(ranks, _brute_force_ranks(values[500:3500, 1]))
        assert opmap.scatter_ranks(1, 500, 3500) is ranks  # built once
        assert opmap._scatter_ranks_bytes == ranks.nbytes

    def test_storage_stays_within_one_byte_per_map_entry(self):
        opmap, values = self._map()
        for start in range(0, 2000, 100):  # overlapping ranges: 20 x 2000 rows
            opmap.scatter_ranks(1, start, start + 2000)
            stored = sum(r.nbytes for r in opmap._scatter_ranks.values() if r is not None)
            assert stored == opmap._scatter_ranks_bytes <= values.size

    def test_concurrent_builders_keep_the_byte_accounting_exact(self):
        # compute threads of one engine share the map: more threads than
        # cores, a short switch interval, overlapping ranges that overflow
        # the budget (so the cache is cleared under contention)
        opmap, values = self._map()
        ranges = [(start, start + 2000) for start in range(0, 2000, 250)]
        expected = {r: _brute_force_ranks(values[r[0] : r[1], 1]) for r in ranges}
        wrong = []

        def worker(offset):
            for turn in range(40):
                r = ranges[(offset + turn) % len(ranges)]
                if not np.array_equal(opmap.scatter_ranks(1, *r), expected[r]):
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
        stored = sum(r.nbytes for r in opmap._scatter_ranks.values() if r is not None)
        assert stored == opmap._scatter_ranks_bytes <= values.size

    def test_set_values_drops_the_schedules_of_the_old_connectivity(self):
        opmap, values = self._map()
        old = opmap.scatter_ranks(1, 0, 4000)
        opmap.set_values(values[::-1].copy())
        assert opmap._scatter_ranks == {} and opmap._scatter_ranks_bytes == 0
        new = opmap.scatter_ranks(1, 0, 4000)
        assert new is not old
        assert np.array_equal(new, _brute_force_ranks(values[::-1, 1]))


# ---------------------------------------------------------------------------
# end-to-end oracle: the data path of the parent commit
# ---------------------------------------------------------------------------
def _legacy_data_path(monkeypatch):
    """Patch the data path back to fancy indexing and ``np.add.at`` -- what
    ``ParLoop`` and the slab did before the rounds."""
    monkeypatch.setattr(datapath, "gather_rows", lambda data, index: data[index].copy())
    monkeypatch.setattr(
        datapath,
        "stage_scatter_add",
        lambda data, index, buffer, ranks_of: partial(np.add.at, data, index, buffer),
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
        rounds = []
        real_rounds = datapath._scatter_add_rounds

        def counting_rounds(data, index, buffer, ranks):
            rounds.append(1 if ranks is None else int(ranks.max()) + 1)
            real_rounds(data, index, buffer, ranks)

        with monkeypatch.context() as patch:
            patch.setattr(datapath, "_scatter_add_rounds", counting_rounds)
            current = self._run(engine, method)
        if engine != "processes":  # worker-side calls are not visible here
            assert rounds, "the mesh must be large enough to leave the add.at path"
        if engine == "serial":
            assert max(rounds) >= 2, "whole-range res_calc blocks hit cells twice"
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
    block, so ``n - 1`` leaves a one-row tail, ``n`` one exact block and
    ``n + 1`` one block with room; ``n // 8`` cuts the engines' smaller chunks
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
