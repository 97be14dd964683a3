"""The chunk data path (:mod:`repro.op2.datapath`): bit-identity and confinement.

Four groups:

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
* **Guard** -- ``np.add.at`` and fancy row gathers of dat data appear nowhere
  in ``src/`` outside the data-path module, so ``ParLoop`` and the slab cannot
  drift apart again.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.op2 import datapath, op_decl_map, op_decl_set
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.datapath import (
    SCATTER_ROUNDS_MIN_SIZE,
    gather_rows,
    occurrence_ranks,
    stage_scatter_add,
)
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
# guard: one implementation
# ---------------------------------------------------------------------------
class TestTheDataPathLivesInOneModule:
    FORBIDDEN = {
        "np.add.at call": re.compile(r"add\.at\("),
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
