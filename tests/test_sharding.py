"""Tests of the ``sharded`` engine: owner placement over the ``processes`` layout.

* exact interval algebra (``intersection`` / ``difference``) checked against
  brute-force element sets, and the memoised algebra against the pure one;
* placement: ``_worker_for`` pins a row chunk to the worker owning its
  start and an owner chunk to the worker owning the start of its targets;
* the shared data layout: one segment per adopted dat and map, nothing left
  in ``/dev/shm`` after ``Session.close()``, and parent writes between loops
  visible to the next loop on every real engine;
* end-to-end parity with ``processes`` and equal capabilities.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, run_airfoil
from repro.apps.jacobi import RES_KERNEL, build_ring_problem, run_jacobi
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    op_arg_dat,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
)
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.intervals import IntervalAlgebra, IntervalSet
from repro.op2.par_loop import LoopChunk, ParLoop
from repro.op2.plan import clear_plan_cache
from repro.op2.shm import SharedMemoryArena, attach_dat, detach_all
from repro.runtime.process_pool import ProcessChunkEngine, ProcessPool
from repro.runtime.sharding import ShardedChunkEngine, ShardPartition
from repro.session import Session


def _elements(runs: IntervalSet | None) -> set[int]:
    """Brute-force element set of an interval set (None means empty)."""
    if runs is None:
        return set()
    out: set[int] = set()
    for lo, hi in runs.runs():
        out.update(range(lo, hi + 1))
    return out


def _from_elements(elements: set[int]) -> IntervalSet | None:
    if not elements:
        return None
    return IntervalSet.from_targets(np.fromiter(elements, dtype=np.int64))


_interval_sets = st.lists(
    st.integers(0, 63), min_size=0, max_size=24, unique=True
).map(lambda xs: _from_elements(set(xs)))


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------
class TestIntervalOps:
    def test_intersection_directed(self):
        a = IntervalSet.from_targets(np.array([0, 1, 2, 8, 9, 20]))
        b = IntervalSet.from_targets(np.array([2, 3, 9, 10, 21]))
        assert _elements(a.intersection(b)) == {2, 9}
        assert a.intersection(IntervalSet.from_range(30, 40)) is None

    def test_difference_directed(self):
        a = IntervalSet.from_range(0, 9)
        b = IntervalSet.from_targets(np.array([3, 4, 7]))
        assert _elements(a.difference(b)) == {0, 1, 2, 5, 6, 8, 9}
        assert a.difference(IntervalSet.from_range(0, 9)) is None
        # Disjoint subtrahend: the result is self, unchanged.
        assert a.difference(IntervalSet.from_range(20, 30)) is a

    @given(a=_interval_sets, b=_interval_sets)
    @settings(max_examples=200, deadline=None)
    def test_algebra_matches_set_semantics(self, a, b):
        ea, eb = _elements(a), _elements(b)
        if a is not None and b is not None:
            assert _elements(a.intersection(b)) == ea & eb
            assert _elements(a.difference(b)) == ea - eb


# ---------------------------------------------------------------------------
# The memoised algebra: interned results, identity-keyed memo, bounded table
# ---------------------------------------------------------------------------
class _TinyAlgebra(IntervalAlgebra):
    """Evicts every few misses, so sequences cross evictions mid-way."""

    MAX_ENTRIES = 3


def _check_against_sets(algebra: IntervalAlgebra, a: IntervalSet, b: IntervalSet) -> None:
    """memoised == pure == brute-force set, for all four operations."""
    ea, eb = _elements(a), _elements(b)
    for name, expected in (
        ("union", ea | eb),
        ("intersection", ea & eb),
        ("difference", ea - eb),
    ):
        pure = getattr(a, name)(b)
        memoised = getattr(algebra, name)(a, b)
        assert _elements(pure) == expected, name
        assert _elements(memoised) == expected, name
        assert memoised == pure, name
    assert a.overlaps(b) == algebra.overlaps(a, b) == bool(ea & eb)


_nonempty_sets = st.lists(
    st.integers(0, 63), min_size=1, max_size=24, unique=True
).map(lambda xs: _from_elements(set(xs)))


class TestIntervalAlgebra:
    @given(pairs=st.lists(st.tuples(_nonempty_sets, _nonempty_sets), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_memoised_equals_pure_equals_brute_force(self, pairs):
        for algebra in (IntervalAlgebra(), _TinyAlgebra()):
            for _ in range(2):  # the second pass hits, or re-misses after an eviction
                for a, b in pairs:
                    _check_against_sets(algebra, a, b)
                    assert algebra.stats()["entries"] <= algebra.MAX_ENTRIES
        assert algebra.stats()["misses"] > algebra.MAX_ENTRIES  # it did evict

    def test_a_repeated_question_is_a_hit(self):
        algebra = IntervalAlgebra()
        a = IntervalSet.from_targets([0, 1, 5, 9])
        b = IntervalSet.from_targets([1, 2, 9, 10])
        first = algebra.intersection(a, b)
        before = algebra.stats()
        assert algebra.intersection(a, b) is first
        after = algebra.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        # identity, not value, keys the memo: an equal operand misses once...
        assert algebra.intersection(IntervalSet.from_targets([0, 1, 5, 9]), b) is first
        assert algebra.stats()["misses"] == after["misses"] + 1

    def test_equal_values_intern_to_one_object(self):
        algebra = IntervalAlgebra()
        left = algebra.union(IntervalSet.from_range(0, 4), IntervalSet.from_range(5, 9))
        right = algebra.difference(IntervalSet.from_range(0, 20), IntervalSet.from_range(10, 20))
        assert left is right is algebra.from_range(0, 9)
        # ... and a result that *is* an interned operand is not counted twice
        assert algebra.difference(left, IntervalSet.from_range(50, 60)) is left
        stats = algebra.stats()
        assert stats["interned"] == 1 and stats["bytes"] == left.nbytes
        algebra.clear()
        assert algebra.stats()["entries"] == algebra.stats()["interned"] == 0

    def test_arrays_reject_writes(self):
        a = IntervalSet.from_targets([0, 1, 5, 6, 7, 12])
        b = IntervalSet.from_targets([1, 6, 30])
        results = [a, a.union(b), a.intersection(b), a.difference(b)]
        results.append(IntervalAlgebra().union(a, b))
        for runs in results:
            for array in (runs.starts, runs.stops):
                with pytest.raises(ValueError):
                    array[0] = 99

    def test_count_and_hash_follow_the_value(self):
        a = IntervalSet.from_targets([3, 4, 5, 9])
        assert a.count == 4 and a.count == 4
        assert hash(a) == hash(IntervalSet.from_targets([9, 5, 4, 3]))
        assert hash(a) != hash(IntervalSet.from_targets([3, 4, 5, 10]))

    def test_four_threads_on_one_table_only_see_correct_results(self):
        """Racing misses may compute twice or publish twice; never wrongly."""
        rng = np.random.default_rng(7)
        sets = [
            IntervalSet.from_targets(rng.integers(0, 96, size=rng.integers(1, 20)))
            for _ in range(12)
        ]
        cases = [(a, b, _elements(a), _elements(b)) for a in sets for b in sets]
        algebra = _TinyAlgebra()  # evictions race with lock-free readers too
        failures: list[str] = []
        deadline = time.monotonic() + 20.0

        def hammer(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(len(cases))
            for _ in range(3):
                for index in order:
                    a, b, ea, eb = cases[index]
                    if time.monotonic() > deadline:
                        failures.append("ran out of time")
                        return
                    got = (
                        _elements(algebra.union(a, b)) == ea | eb
                        and _elements(algebra.intersection(a, b)) == ea & eb
                        and _elements(algebra.difference(a, b)) == ea - eb
                        and algebra.overlaps(a, b) == bool(ea & eb)
                    )
                    if not got:
                        failures.append(f"wrong result for case {index}")
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = algebra.stats()
        assert stats["entries"] <= algebra.MAX_ENTRIES and stats["misses"] > 0


# ---------------------------------------------------------------------------
# ShardPartition: contiguous cuts and the owner of an index
# ---------------------------------------------------------------------------
class TestShardPartition:
    @given(size=st.integers(0, 500), num_shards=st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_cuts_partition_the_set(self, size, num_shards):
        partition = ShardPartition(num_shards)
        cuts = partition.cuts(7, size)
        assert len(cuts) == num_shards + 1
        assert cuts[0] == 0 and cuts[-1] == size
        assert all(lo <= hi for lo, hi in zip(cuts, cuts[1:]))
        # equal cuts: no owned range is more than one element longer than another
        lengths = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        assert max(lengths) - min(lengths) <= 1
        # cached per set: the same list on every call
        assert partition.cuts(7, size) is cuts

    @given(size=st.integers(1, 500), num_shards=st.integers(1, 9), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_shard_of_is_the_range_holding_the_index(self, size, num_shards, data):
        partition = ShardPartition(num_shards)
        cuts = partition.cuts(3, size)
        index = data.draw(st.integers(0, size - 1), label="index")
        shard = partition.shard_of(3, size, index)
        assert cuts[shard] <= index < cuts[shard + 1]
        assert shard == int(np.searchsorted(cuts, index, side="right")) - 1

    def test_shard_of_clamps_indices_past_the_set(self):
        partition = ShardPartition(3)
        assert partition.cuts(1, 9) == [0, 3, 6, 9]
        assert partition.shard_of(1, 9, -1) == 0
        assert partition.shard_of(1, 9, 9) == 2
        assert partition.shard_of(1, 9, 100) == 2

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_owned_and_foreign_accesses_split_a_chunk_summary(self, data):
        """For any partition of a renumbered mesh, a shard's chunk summary
        splits through ``intersection`` / ``difference`` into exactly the
        accessed elements it owns and those it does not: none missed, none
        in both."""
        n_nodes = data.draw(st.integers(1, 40), label="n_nodes")
        n_edges = data.draw(st.integers(1, 60), label="n_edges")
        num_shards = data.draw(st.integers(1, 5), label="num_shards")
        # A renumbered mesh is just an arbitrary map: draw raw connectivity.
        values = data.draw(
            st.lists(st.integers(0, n_nodes - 1), min_size=n_edges, max_size=n_edges),
            label="map_values",
        )
        edges = op_decl_set(n_edges, "edges")
        nodes = op_decl_set(n_nodes, "nodes")
        opmap = op_decl_map(edges, nodes, 1, np.array(values), "e2n")

        partition = ShardPartition(num_shards)
        cuts = partition.cuts(edges.set_id, edges.size)
        node_cuts = partition.cuts(nodes.set_id, nodes.size)
        for shard in range(num_shards):
            start, stop = cuts[shard], cuts[shard + 1]
            if start >= stop:
                continue
            accessed = opmap.chunk_summary(0, start, stop)
            owned_lo, owned_hi = node_cuts[shard], node_cuts[shard + 1]
            expected = {values[i] for i in range(start, stop)}
            if owned_lo < owned_hi:
                owned_range = IntervalSet.from_range(owned_lo, owned_hi - 1)
                owned = accessed.intersection(owned_range)
                foreign = accessed.difference(owned_range)
            else:
                owned, foreign = None, accessed
            assert _elements(owned) == {x for x in expected if owned_lo <= x < owned_hi}
            assert _elements(owned) | _elements(foreign) == expected
            assert not _elements(owned) & _elements(foreign)


# ---------------------------------------------------------------------------
# Placement: owner affinity over the processes engine
# ---------------------------------------------------------------------------
class TestPlacement:
    def test_worker_for_is_the_shard_owning_the_chunk_start(self):
        problem = build_ring_problem(num_nodes=40)
        loop = ParLoop(
            RES_KERNEL,
            "res",
            problem.edges,
            (
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
            ),
        )
        engine = ShardedChunkEngine(3, name="test-shards")
        try:
            partition = engine.partition
            assert partition.num_shards == 3
            edges, nodes = problem.edges, problem.nodes
            for start in (0, 26, 27, 79):
                rows = LoopChunk(loop, start, start + 1, None, [], 0)
                assert engine._worker_for(rows) == partition.shard_of(
                    edges.set_id, edges.size, start
                )
            plan = loop.owner_plan(3)
            assert plan.target_set is nodes
            for k in range(3):
                start, stop = plan.bounds[k], plan.bounds[k + 1]
                owner = LoopChunk(loop, start, stop, (3, k), [], 0)
                assert engine._worker_for(owner) == partition.shard_of(
                    nodes.set_id, nodes.size, start
                ) == k
            # the base engine leases any idle worker
            assert ProcessChunkEngine._worker_for(engine, owner) is None
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("engine", ["processes", "sharded"])
    def test_the_pin_reaches_the_pool(self, engine, monkeypatch):
        """Every chunk of a ``sharded`` Airfoil chain is submitted pinned,
        and every worker owns some; ``processes`` leases every chunk."""
        pins = []
        submit = ProcessPool.submit_loop_chunk

        def recording(pool, *args, **kwargs):
            pins.append(kwargs.get("worker"))
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPool, "submit_loop_chunk", recording)
        mesh = generate_mesh(24, 16)
        with active_context(hpx_context(engine=engine, num_threads=2)):
            run_airfoil(mesh, niter=1, rk_steps=2)
        assert pins
        if engine == "sharded":
            assert set(pins) == {0, 1}
        else:
            assert set(pins) == {None}


# ---------------------------------------------------------------------------
# The shared data layout
# ---------------------------------------------------------------------------
def _chunk_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("hpx-chunk-")}


class TestOneSharedArena:
    def test_attach_preserves_dat_version(self):
        """Worker-side dats must carry the parent's version: rebuilding at
        version 0 made worker cache keys diverge from the parent's."""
        nodes = op_decl_set(16, "nodes")
        dat = op_decl_dat(nodes, 1, "double", np.arange(16.0), "d")
        dat.bump_version()
        dat.bump_version()
        arena = SharedMemoryArena(name_prefix="test-shards")
        segments: list = []
        try:
            spec = arena.adopt_dat(dat)
            assert spec["version"] == dat.version == 2
            assert attach_dat(spec, {}, segments).version == 2
        finally:
            detach_all(segments)
            arena.release()

    def test_one_segment_per_adopted_dat_and_map_and_none_left_after_close(self):
        before = _chunk_segments()
        clear_plan_cache()
        mesh = generate_mesh(24, 16)
        mesh.declare()
        with Session(name="sharded-arena") as session:
            with active_context(hpx_context(engine="sharded", num_threads=2, session=session)):
                run_airfoil(mesh, niter=2, rk_steps=2)
            (engine,) = session.live_engines()
            dats = (mesh.p_x, mesh.p_q, mesh.p_qold, mesh.p_adt, mesh.p_res, mesh.p_bound)
            maps = (mesh.pedge, mesh.pecell, mesh.pbedge, mesh.pbecell, mesh.pcell)
            assert engine.arena.dat_ids() == sorted(dat.dat_id for dat in dats)
            assert engine.arena.num_segments == len(dats) + len(maps)
            assert len(_chunk_segments() - before) == len(dats) + len(maps)
        assert _chunk_segments() <= before

    def test_processes_and_sharded_hold_the_same_segments(self):
        layout = {}
        for engine in ("processes", "sharded"):
            clear_plan_cache()
            mesh = generate_mesh(24, 16)
            with Session(name=f"layout-{engine}") as session:
                with active_context(hpx_context(engine=engine, num_threads=2, session=session)):
                    run_airfoil(mesh, niter=1, rk_steps=2)
                (live,) = session.live_engines()
                dats = (mesh.p_x, mesh.p_q, mesh.p_qold, mesh.p_adt, mesh.p_res, mesh.p_bound)
                names = {dat.dat_id: dat.name for dat in dats}
                layout[engine] = (
                    sorted(names[dat_id] for dat_id in live.arena.dat_ids()),
                    live.arena.num_segments,
                )
        assert layout["sharded"] == layout["processes"]


class TestParentWritesBetweenLoops:
    @staticmethod
    def _run(context):
        clear_plan_cache()
        problem = build_ring_problem(300, seed=3)
        with active_context(context):
            run_jacobi(problem, iterations=2)
            problem.p_u.data[:] = 0.5 * problem.p_u.data
            result = run_jacobi(problem, iterations=2)
        return result

    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    def test_an_in_place_parent_write_reaches_the_next_loop(self, engine):
        """``dat.data[:] = x`` bumps no version; the next loop must see it."""
        expected = self._run(serial_context())
        result = self._run(hpx_context(engine=engine, num_threads=2))
        assert np.array_equal(result.u, expected.u)
        assert result.u_max_history == expected.u_max_history

    @staticmethod
    def _airfoil(context):
        clear_plan_cache()
        mesh = generate_mesh(24, 16)
        with active_context(context):
            run_airfoil(mesh, niter=1, rk_steps=2)
            mesh.p_q.data[:] = 0.9 * mesh.p_q.data
            run_airfoil(mesh, niter=1, rk_steps=2)
        return mesh.p_q.data.copy()

    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    def test_an_in_place_write_to_airfoil_q_reaches_the_next_step(self, engine):
        """``q`` is read through maps by ``res_calc``: a stale copy of the
        parent's write would show far beyond rounding."""
        expected = self._airfoil(serial_context())
        result = self._airfoil(hpx_context(engine=engine, num_threads=2))
        # multi-stream increments round differently from serial
        assert np.allclose(result, expected, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# End-to-end: the sharded engine
# ---------------------------------------------------------------------------
class TestShardedEngine:
    def _run(self, engine, **kwargs):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=300)
        context = hpx_context(num_threads=3, engine=engine, **kwargs)
        with active_context(context):
            result = run_jacobi(problem, iterations=6)
        return result, context

    def test_bit_identical_to_processes(self):
        reference, _ = self._run("processes")
        sharded, _ = self._run("sharded")
        assert np.array_equal(sharded.u, reference.u)
        assert sharded.u_max_history == reference.u_max_history
        assert sharded.u_sum_history == reference.u_sum_history

    def test_capabilities_are_those_of_processes(self):
        from repro.engines import engine_capabilities

        assert engine_capabilities("sharded") == engine_capabilities("processes")
