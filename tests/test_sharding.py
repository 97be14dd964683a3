"""Tests of the ``sharded`` engine's building blocks and end-to-end parity.

Three layers, bottom up:

* exact interval algebra (``intersection`` / ``difference`` / ``clip`` /
  ``split``) checked against brute-force element sets;
* the halo property the engine rests on -- for *any* partition of a
  renumbered mesh, the halo runs computed from the map's interval-set
  summaries equal exactly the cross-shard accesses (no element missed, no
  owned element duplicated);
* the :class:`~repro.runtime.sharding.HaloDirectory` bookkeeping and the
  engine itself (bit-parity with ``processes``, halo traffic strictly below
  the whole-dat counterfactual, version threading across address spaces).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.op2 import op_decl_dat, op_decl_map, op_decl_set
from repro.op2.backends.hpx import hpx_context
from repro.op2.context import active_context
from repro.op2.intervals import IntervalAlgebra, IntervalSet, copy_runs
from repro.op2.plan import clear_plan_cache
from repro.op2.shm import ShardedArena, attach_dat, detach_all
from repro.runtime.sharding import HaloDirectory, ShardPartition


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

    def test_clip_directed(self):
        a = IntervalSet.from_targets(np.array([0, 1, 5, 6, 7, 12]))
        assert _elements(a.clip(1, 6)) == {1, 5, 6}
        assert a.clip(8, 11) is None
        assert _elements(a.clip(0, 12)) == _elements(a)

    def test_split_directed(self):
        a = IntervalSet.from_range(0, 9)
        pieces = a.split([0, 3, 7, 10])
        assert [_elements(p) for p in pieces] == [
            {0, 1, 2},
            {3, 4, 5, 6},
            {7, 8, 9},
        ]

    @given(a=_interval_sets, b=_interval_sets)
    @settings(max_examples=200, deadline=None)
    def test_algebra_matches_set_semantics(self, a, b):
        ea, eb = _elements(a), _elements(b)
        if a is not None and b is not None:
            assert _elements(a.intersection(b)) == ea & eb
            assert _elements(a.difference(b)) == ea - eb
        if a is not None:
            assert _elements(a.clip(10, 40)) == {x for x in ea if 10 <= x <= 40}


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
        results = [a, a.union(b), a.intersection(b), a.difference(b), a.clip(1, 6), *a.split([0, 6, 13])]
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
# copy_runs: one gather/scatter, or slices when the runs are long
# ---------------------------------------------------------------------------
def _copy_runs_reference(dst, src, starts, stops):
    for lo, hi in zip(starts, stops):
        dst[lo : hi + 1] = src[lo : hi + 1]


class TestCopyRuns:
    @given(
        pieces=st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 4)), min_size=0, max_size=30
        ),
        stretch=st.sampled_from([1, 60]),
        dim=st.sampled_from([None, 1, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_run_slice_loop(self, pieces, stretch, dim):
        # ``pieces`` are (gap before the run, run length); ``stretch`` puts the
        # list in the fragmented (gather/scatter) or the long-run (slices) regime.
        starts, stops, cursor = [], [], 0
        for gap, length in pieces:
            cursor += gap + 1
            starts.append(cursor)
            cursor += length * stretch - 1
            stops.append(cursor)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        shape = (cursor + 3,) if dim is None else (cursor + 3, dim)
        src = np.random.default_rng(0).random(shape)
        got = np.zeros(shape)
        expected = np.zeros(shape)
        copy_runs(got, src, starts, stops)
        _copy_runs_reference(expected, src, starts, stops)
        assert np.array_equal(got, expected)

    def test_both_regimes_are_exercised(self):
        # mean run of 2 rows x 32 bytes gathers; 200 rows x 32 bytes slices
        from repro.op2 import intervals

        for length, long_runs in ((2, False), (200, True)):
            starts = np.arange(0, 5 * 300, 300, dtype=np.int64)
            stops = starts + length - 1
            mean_bytes = length * 4 * 8
            assert (mean_bytes >= intervals._LONG_RUN_BYTES) is long_runs
            src = np.random.default_rng(1).random((1500, 4))
            got = np.zeros_like(src)
            expected = np.zeros_like(src)
            copy_runs(got, src, starts, stops)
            _copy_runs_reference(expected, src, starts, stops)
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# The halo property: interval-exact cross-shard accesses
# ---------------------------------------------------------------------------
class TestHaloProperty:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_halo_runs_equal_cross_shard_accesses(self, data):
        """For any partition of a renumbered mesh, the halo computed from the
        map's interval-set chunk summaries is exactly the set of accessed
        elements outside the shard's owned cut: no element missed, no owned
        element duplicated."""
        n_nodes = data.draw(st.integers(1, 40), label="n_nodes")
        n_edges = data.draw(st.integers(1, 60), label="n_edges")
        num_shards = data.draw(st.integers(1, 5), label="num_shards")
        # A renumbered mesh is just an arbitrary map: draw raw connectivity.
        values = data.draw(
            st.lists(
                st.integers(0, n_nodes - 1), min_size=n_edges, max_size=n_edges
            ),
            label="map_values",
        )
        edges = op_decl_set(n_edges, "edges")
        nodes = op_decl_set(n_nodes, "nodes")
        opmap = op_decl_map(edges, nodes, 1, np.array(values), "e2n")

        partition = ShardPartition(num_shards)
        cuts = partition.cuts(edges.set_id, edges.size)
        node_cuts = partition.cuts(nodes.set_id, nodes.size)
        assert cuts[0] == 0 and cuts[-1] == n_edges

        for shard in range(num_shards):
            start, stop = int(cuts[shard]), int(cuts[shard + 1])
            if start >= stop:
                continue
            accessed = opmap.chunk_summary(0, start, stop)
            owned_lo, owned_hi = int(node_cuts[shard]), int(node_cuts[shard + 1]) - 1
            owned = accessed.clip(owned_lo, owned_hi)
            halo = (
                accessed
                if owned is None
                else accessed.difference(owned)
            )
            expected = {int(values[i]) for i in range(start, stop)}
            expected_halo = {
                x for x in expected if not owned_lo <= x <= owned_hi
            }
            # No owned element duplicated into the halo...
            assert _elements(halo) == expected_halo
            # ...and no accessed element missed: owned + halo == accessed.
            assert _elements(owned) | _elements(halo) == expected

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_is_a_partition(self, data):
        """``split`` pieces are disjoint, within their cuts, and union back
        to the original runs -- the property shard planning relies on."""
        elements = set(
            data.draw(
                st.lists(st.integers(0, 99), min_size=1, max_size=40, unique=True),
                label="elements",
            )
        )
        runs = _from_elements(elements)
        num_cuts = data.draw(st.integers(1, 6), label="num_cuts")
        cuts = np.linspace(0, 100, num_cuts + 1).astype(np.int64)
        pieces = runs.split(list(cuts))
        seen: set[int] = set()
        for k, piece in enumerate(pieces):
            got = _elements(piece)
            assert not (got & seen)  # disjoint
            assert all(cuts[k] <= x < cuts[k + 1] for x in got)  # within cut
            seen |= got
        assert seen == elements  # nothing lost


# ---------------------------------------------------------------------------
# HaloDirectory bookkeeping
# ---------------------------------------------------------------------------
class TestHaloDirectory:
    def test_initial_reads_source_from_home(self):
        directory = HaloDirectory(2)
        directory.register_dat(7, 100)
        needed = IntervalSet.from_range(10, 19)
        fetches, deps, missing = directory.plan_read(7, 0, needed)
        assert fetches == [(directory.home, needed)]
        assert deps == set()
        assert _elements(missing) == set(range(10, 20))

    def test_valid_runs_cost_only_a_dependency(self):
        directory = HaloDirectory(2)
        directory.register_dat(7, 100)
        directory.mark_valid(7, 0, IntervalSet.from_range(10, 19), ready=42)
        fetches, deps, missing = directory.plan_read(
            7, 0, IntervalSet.from_range(12, 25)
        )
        assert deps == {42}
        assert _elements(missing) == set(range(20, 26))
        assert [(src, _elements(runs)) for src, runs in fetches] == [
            (directory.home, set(range(20, 26)))
        ]

    def test_record_write_moves_freshness_and_invalidates(self):
        directory = HaloDirectory(2)
        directory.register_dat(7, 100)
        directory.mark_valid(7, 1, IntervalSet.from_range(0, 99), ready=None)
        written = IntervalSet.from_range(40, 59)
        directory.record_write(7, 0, written, merge_id=9)
        # Shard 1 lost validity of the written runs and must fetch them
        # from the writer, depending on the writer's merge.
        fetches, deps, missing = directory.plan_read(
            7, 1, IntervalSet.from_range(50, 69)
        )
        assert deps == {9}
        assert [(src, _elements(runs)) for src, runs in fetches] == [
            (0, set(range(50, 60)))
        ]
        assert _elements(missing) == set(range(50, 60))
        # The writer itself reads its own commit without any fetch.
        fetches0, deps0, missing0 = directory.plan_read(
            7, 0, IntervalSet.from_range(45, 55)
        )
        assert fetches0 == []
        assert deps0 == {9}
        assert missing0 is None

    def test_fresh_remote_and_parent_sync(self):
        directory = HaloDirectory(2)
        directory.register_dat(7, 100)
        directory.record_write(7, 0, IntervalSet.from_range(0, 49), merge_id=1)
        directory.record_write(7, 1, IntervalSet.from_range(50, 99), merge_id=2)
        remote = {
            holder: _elements(runs) for holder, runs in directory.fresh_remote(7)
        }
        assert remote == {0: set(range(0, 50)), 1: set(range(50, 100))}
        directory.parent_synced(7)
        assert directory.fresh_remote(7) == []
        # Worker copies stay valid after the sync: re-reads fetch nothing.
        fetches, _deps, missing = directory.plan_read(
            7, 0, IntervalSet.from_range(0, 49)
        )
        assert fetches == [] and missing is None

    def test_quiesce_compacts_without_losing_freshness(self):
        directory = HaloDirectory(2)
        directory.register_dat(7, 100)
        for base in range(0, 40, 10):
            directory.record_write(
                7, 0, IntervalSet.from_range(base, base + 9), merge_id=base
            )
        directory.quiesce()
        remote = dict(directory.fresh_remote(7))
        assert _elements(remote[0]) == set(range(0, 40))
        fetches, deps, _ = directory.plan_read(7, 1, IntervalSet.from_range(0, 39))
        assert deps == set()  # ready ids dropped after the drain
        assert [(src, _elements(runs)) for src, runs in fetches] == [
            (0, set(range(0, 40)))
        ]


# ---------------------------------------------------------------------------
# Sharded arena: per-shard segments, version threading
# ---------------------------------------------------------------------------
class TestShardedArena:
    def test_attach_preserves_dat_version(self):
        """Worker-side dats must carry the parent's version: rebuilding at
        version 0 made worker cache keys diverge from the parent's."""
        nodes = op_decl_set(16, "nodes")
        dat = op_decl_dat(nodes, 1, "double", np.arange(16.0), "d")
        dat.bump_version()
        dat.bump_version()
        arena = ShardedArena(2, name_prefix="test-shards")
        try:
            spec = arena.adopt_dat(dat)
            assert spec["version"] == dat.version == 2
            segments = []
            worker_spec = {**spec, "segment": spec["segments"][0]}
            attached = attach_dat(worker_spec, {}, segments)
            assert attached.version == 2
            detach_all(segments)
        finally:
            arena.release()

    def test_shard_views_are_distinct_segments(self):
        nodes = op_decl_set(8, "nodes")
        dat = op_decl_dat(nodes, 1, "double", np.arange(8.0), "d")
        arena = ShardedArena(2, name_prefix="test-shards")
        try:
            arena.adopt_dat(dat)
            home = arena.shard_view(dat.dat_id, arena.home_shard)
            assert np.array_equal(home[:, 0], np.arange(8.0))
            shard0 = arena.shard_view(dat.dat_id, 0)
            shard0[3] = 99.0
            # Writes to one shard's segment never alias another's.
            assert home[3, 0] == 3.0
            assert arena.shard_view(dat.dat_id, 1)[3, 0] != 99.0
            # The dat's parent-side data is the home view.
            assert dat.data is home
        finally:
            arena.release()

    def test_release_hands_data_back_to_private_memory(self):
        nodes = op_decl_set(8, "nodes")
        dat = op_decl_dat(nodes, 1, "double", np.arange(8.0), "d")
        arena = ShardedArena(2, name_prefix="test-shards")
        arena.adopt_dat(dat)
        arena.shard_view(dat.dat_id, arena.home_shard)[5] = 50.0
        arena.release()
        assert dat.data[5, 0] == 50.0  # home contents survived the release
        dat.data[0] = 1.0  # and the array is ordinary private memory again


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

    def test_halo_traffic_strictly_below_whole_dat_traffic(self):
        _, context = self._run("sharded")
        stats = context.executor.halo_stats()
        assert stats["halo_fetches"] > 0
        assert 0 < stats["halo_bytes"] < stats["whole_dat_bytes"]

    def test_capabilities_advertise_partitioned_dats(self):
        from repro.engines import engine_capabilities

        caps = engine_capabilities("sharded")
        assert caps.partitioned_dats
        assert not caps.shared_address_space
        assert not engine_capabilities("processes").partitioned_dats
