"""Interval-set dependency tracking: IntervalSet, map summaries, renumbering.

Covers the exact chunk access summaries (``repro.op2.intervals``), their
cache on :class:`~repro.op2.map.OpMap`, the interval-set vs ``[min, max]``
tracker modes, the version-evicting plan cache, the mesh renumbering
utilities that stress all of it, and the count-based gate that a steady
time step asks the session's interval algebra nothing new.
"""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.airfoil import generate_mesh, renumber_mesh, reverse_cuthill_mckee, run_airfoil
from repro.apps.airfoil.kernels import ADT_CALC, RES_CALC, UPDATE
from repro.core import DependencyTracker
from repro.errors import MeshError, OP2Error, OP2MappingError
from repro.op2 import datapath
from repro.op2 import map as map_module
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_RW,
    OP_WRITE,
    IntervalSet,
    Kernel,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_plan_get,
)
from repro.op2.access import AccessMode
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.par_loop import ParLoop
from repro.op2.plan import clear_plan_cache, plan_cache_size
from repro.session import Session


# ---------------------------------------------------------------------------
# IntervalSet
# ---------------------------------------------------------------------------
class TestIntervalSet:
    def test_from_targets_builds_disjoint_runs(self):
        s = IntervalSet.from_targets([7, 3, 4, 5, 9, 9, 0])
        assert s.runs() == [(0, 0), (3, 5), (7, 7), (9, 9)]
        assert s.lo == 0 and s.hi == 9
        assert s.num_runs == 4 and s.count == 6

    def test_from_targets_merges_contiguous(self):
        s = IntervalSet.from_targets(np.arange(10, 20))
        assert s.runs() == [(10, 19)]

    def test_empty_targets_rejected(self):
        with pytest.raises(OP2Error):
            IntervalSet.from_targets(np.empty(0, dtype=np.int64))

    def test_from_range_validates(self):
        with pytest.raises(OP2Error):
            IntervalSet.from_range(5, 4)
        assert IntervalSet.from_range(3, 3).runs() == [(3, 3)]

    def test_overlap_and_disjoint(self):
        evens = IntervalSet.from_targets(np.arange(0, 100, 2))
        odds = IntervalSet.from_targets(np.arange(1, 100, 2))
        assert evens.isdisjoint(odds)
        assert not evens.overlaps(odds)
        assert evens.overlaps(IntervalSet.from_range(10, 11))
        # ...while the hulls of course overlap
        assert evens.hull().overlaps(odds.hull())

    def test_overlaps_range_and_contains(self):
        s = IntervalSet.from_targets([2, 3, 10, 11])
        assert s.overlaps_range(4, 10)
        assert not s.overlaps_range(4, 9)
        assert s.contains(11) and not s.contains(5)

    def test_hull_spans_everything(self):
        s = IntervalSet.from_targets([0, 50, 99])
        hull = s.hull()
        assert hull.runs() == [(0, 99)]
        assert hull.hull() is hull  # single-run hull is idempotent

    def test_block_mask_fast_path_agrees_with_exact_test(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = IntervalSet.from_targets(rng.integers(0, 500, size=rng.integers(1, 40)))
            b = IntervalSet.from_targets(rng.integers(0, 500, size=rng.integers(1, 40)))
            exact = bool(set(np.concatenate([np.arange(lo, hi + 1) for lo, hi in a.runs()]))
                         & set(np.concatenate([np.arange(lo, hi + 1) for lo, hi in b.runs()])))
            assert a.overlaps(b) == exact
            assert b.overlaps(a) == exact

    def test_equality_and_hash(self):
        a = IntervalSet.from_targets([1, 2, 3])
        b = IntervalSet.from_range(1, 3)
        assert a == b and hash(a) == hash(b)
        assert a != IntervalSet.from_range(1, 4)


# ---------------------------------------------------------------------------
# OpMap.chunk_summary cache
# ---------------------------------------------------------------------------
class TestChunkSummaryCache:
    def _map(self, values, to_size=16):
        edges = op_decl_set(len(values), "edges")
        cells = op_decl_set(to_size, "cells")
        return op_decl_map(edges, cells, 1, np.asarray(values).reshape(-1, 1), "m")

    def test_summary_matches_targets(self):
        mapping = self._map([3, 1, 9, 9, 2, 14])
        assert mapping.chunk_summary(0, 0, 3).runs() == [(1, 1), (3, 3), (9, 9)]
        assert mapping.chunk_summary(0, 3, 6).runs() == [(2, 2), (9, 9), (14, 14)]

    def test_summary_is_cached_and_version_invalidated(self):
        mapping = self._map([0, 1, 2, 3])
        first = mapping.chunk_summary(0, 0, 4)
        assert mapping.chunk_summary(0, 0, 4) is first  # cache hit
        mapping.set_values(np.asarray([3, 2, 1, 0]).reshape(-1, 1))
        second = mapping.chunk_summary(0, 0, 4)
        assert second is not first
        assert second.runs() == [(0, 3)]

    def test_summary_validates_slot_and_range(self):
        mapping = self._map([0, 1, 2, 3])
        with pytest.raises(OP2MappingError):
            mapping.chunk_summary(1, 0, 4)
        with pytest.raises(OP2MappingError):
            mapping.chunk_summary(0, 2, 2)
        with pytest.raises(OP2MappingError):
            mapping.chunk_summary(0, 0, 5)


# ---------------------------------------------------------------------------
# DependencyTracker: interval sets vs [min, max]
# ---------------------------------------------------------------------------
def _indirect_loops(map_values, num_cells):
    """A writer and a reader loop over the same dat through the same map."""
    edges = op_decl_set(len(map_values), "edges")
    cells = op_decl_set(num_cells, "cells")
    mapping = op_decl_map(edges, cells, 1, np.asarray(map_values).reshape(-1, 1), "m")
    dat = op_decl_dat(cells, 1, "double", None, "d")
    kernel = Kernel(name="k", elemental=lambda a: None)
    writer = ParLoop(kernel, "writer", edges, [op_arg_dat(dat, 0, mapping, 1, "double", OP_WRITE)])
    reader = ParLoop(kernel, "reader", edges, [op_arg_dat(dat, 0, mapping, 1, "double", OP_READ)])
    return writer, reader


class TestTrackerIntervalSets:
    def test_interleaved_targets_false_edge_killed(self):
        """Chunk 0 writes even cells, chunk 1 writes odd cells: the hulls
        overlap (false edge in [min,max] mode) but the sets are disjoint."""
        values = list(range(0, 40, 2)) + list(range(1, 40, 2))
        writer, reader = _indirect_loops(values, 40)
        exact = DependencyTracker(interval_sets=True)
        coarse = DependencyTracker(interval_sets=False)
        for tracker in (exact, coarse):
            tracker.record_chunk(writer, 0, 0, 20, task_id=0)
            tracker.record_chunk(writer, 0, 20, 40, task_id=1)
        # the reader chunk [20, 40) touches only odd cells -> only task 1
        assert exact.chunk_dependencies(reader, 20, 40, loop_seq=1) == [1]
        assert coarse.chunk_dependencies(reader, 20, 40, loop_seq=1) == [0, 1]

    def test_mode_names(self):
        assert DependencyTracker().mode == "interval-set"
        assert DependencyTracker(interval_sets=False).mode == "minmax"
        assert DependencyTracker(chunk_granularity=False).mode == "loop-granular"

    def test_loop_granular_ablation_ignores_intervals(self):
        values = list(range(0, 40, 2)) + list(range(1, 40, 2))
        writer, reader = _indirect_loops(values, 40)
        tracker = DependencyTracker(chunk_granularity=False, interval_sets=True)
        tracker.record_chunk(writer, 0, 0, 20, task_id=0)
        tracker.record_chunk(writer, 0, 20, 40, task_id=1)
        assert tracker.chunk_dependencies(reader, 20, 40, loop_seq=1) == [0, 1]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_disjoint_target_sets_get_no_edge(self, data):
        """Hypothesis: chunks whose indirect target sets are disjoint never
        get an edge under interval sets, and ``[min, max]`` mode always
        yields a superset of the interval-set edges."""
        num_cells = data.draw(st.integers(8, 64))
        side = data.draw(st.lists(st.booleans(), min_size=num_cells, max_size=num_cells))
        group_a = [i for i in range(num_cells) if side[i]]
        group_b = [i for i in range(num_cells) if not side[i]]
        assume(group_a and group_b)
        chunk = data.draw(st.integers(1, 12))
        targets_a = data.draw(
            st.lists(st.sampled_from(group_a), min_size=chunk, max_size=chunk)
        )
        targets_b = data.draw(
            st.lists(st.sampled_from(group_b), min_size=chunk, max_size=chunk)
        )
        writer, reader = _indirect_loops(targets_a + targets_b, num_cells)

        exact = DependencyTracker(interval_sets=True)
        coarse = DependencyTracker(interval_sets=False)
        for tracker in (exact, coarse):
            tracker.record_chunk(writer, 0, 0, chunk, task_id=0)
            tracker.record_chunk(writer, 0, chunk, 2 * chunk, task_id=1)
        # disjoint targets: the reader of the B half never waits for the A writer
        deps_exact = exact.chunk_dependencies(reader, chunk, 2 * chunk, loop_seq=1)
        deps_coarse = coarse.chunk_dependencies(reader, chunk, 2 * chunk, loop_seq=1)
        assert 0 not in deps_exact
        assert deps_exact == [1]
        assert set(deps_exact) <= set(deps_coarse)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_minmax_mode_is_superset_for_arbitrary_maps(self, data):
        num_cells = data.draw(st.integers(4, 64))
        num_edges = data.draw(st.integers(4, 32))
        values = data.draw(
            st.lists(
                st.integers(0, num_cells - 1), min_size=num_edges, max_size=num_edges
            )
        )
        split = data.draw(st.integers(1, num_edges - 1))
        writer, reader = _indirect_loops(values, num_cells)
        exact = DependencyTracker(interval_sets=True)
        coarse = DependencyTracker(interval_sets=False)
        for tracker in (exact, coarse):
            tracker.record_chunk(writer, 0, 0, split, task_id=0)
            tracker.record_chunk(writer, 0, split, num_edges, task_id=1)
        for start, stop in ((0, split), (split, num_edges), (0, num_edges)):
            deps_exact = exact.chunk_dependencies(reader, start, stop, loop_seq=1)
            deps_coarse = coarse.chunk_dependencies(reader, start, stop, loop_seq=1)
            assert set(deps_exact) <= set(deps_coarse)


# ---------------------------------------------------------------------------
# IntervalSet.union and per-dat multi-slot merging
# ---------------------------------------------------------------------------
class TestIntervalSetUnion:
    def test_union_merges_overlapping_and_touching_runs(self):
        a = IntervalSet.from_targets([0, 1, 2, 10, 11])
        b = IntervalSet.from_targets([3, 4, 11, 12, 20])
        assert a.union(b).runs() == [(0, 4), (10, 12), (20, 20)]
        assert b.union(a).runs() == [(0, 4), (10, 12), (20, 20)]

    def test_union_of_disjoint_sets_keeps_runs(self):
        evens = IntervalSet.from_targets([0, 2, 4])
        odds = IntervalSet.from_targets([7, 9])
        assert evens.union(odds).runs() == [(0, 0), (2, 2), (4, 4), (7, 7), (9, 9)]

    def test_union_with_contained_set_is_identity(self):
        outer = IntervalSet.from_range(0, 100)
        inner = IntervalSet.from_targets([5, 50, 99])
        assert outer.union(inner).runs() == [(0, 100)]

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.integers(0, 200), min_size=1, max_size=30),
        b=st.lists(st.integers(0, 200), min_size=1, max_size=30),
    )
    def test_union_equals_element_union(self, a, b):
        union = IntervalSet.from_targets(a).union(IntervalSet.from_targets(b))
        expected = IntervalSet.from_targets(a + b)
        assert union == expected
        # ... and the coarse bitmap stays consistent with the exact runs
        assert union.block_mask == expected.block_mask


class TestTrackerMultiSlotMerging:
    """A dat accessed through two map slots contributes one merged record."""

    @staticmethod
    def _two_slot_loops(num_edges=16, num_cells=32):
        edges = op_decl_set(num_edges, "edges")
        cells = op_decl_set(num_cells, "cells")
        values = np.stack(
            [np.arange(num_edges), np.arange(num_edges) + num_cells // 2], axis=1
        )
        mapping = op_decl_map(edges, cells, 2, values, "two_slot")
        dat = op_decl_dat(cells, 1, "double", None, "d")
        kernel = Kernel(name="k2", elemental=lambda a, b: None)
        inc = ParLoop(
            kernel,
            "inc_both_ends",
            edges,
            [
                op_arg_dat(dat, 0, mapping, 1, "double", AccessMode.INC),
                op_arg_dat(dat, 1, mapping, 1, "double", AccessMode.INC),
            ],
        )
        reader = ParLoop(
            kernel,
            "read_both_ends",
            edges,
            [
                op_arg_dat(dat, 0, mapping, 1, "double", OP_READ),
                op_arg_dat(dat, 1, mapping, 1, "double", OP_READ),
            ],
        )
        return inc, reader, dat

    def test_one_record_per_dat_and_access(self):
        inc, _reader, dat = self._two_slot_loops()
        tracker = DependencyTracker()
        tracker.record_chunk(inc, 0, 0, 8, task_id=0)
        records = tracker.writer_records(dat.dat_id)
        assert len(records) == 1  # one union record, not one per slot
        # the union covers both endpoints' targets: [0, 8) and [16, 24)
        assert records[0].intervals.runs() == [(0, 7), (16, 23)]

    def test_merged_summaries_produce_same_edges_as_per_slot(self):
        """The union record must yield exactly the edges the per-slot records
        produced: reader chunks overlapping either slot's targets depend on
        the increment chunk, disjoint ones do not."""
        inc, reader, _dat = self._two_slot_loops()
        tracker = DependencyTracker()
        tracker.record_chunk(inc, 0, 0, 8, task_id=0)
        tracker.record_chunk(inc, 0, 8, 16, task_id=1)
        # reader chunk [0, 8) touches cells [0, 8) + [16, 24): only task 0
        assert tracker.chunk_dependencies(reader, 0, 8, loop_seq=1) == [0]
        assert tracker.chunk_dependencies(reader, 8, 16, loop_seq=1) == [1]
        assert tracker.chunk_dependencies(reader, 0, 16, loop_seq=1) == [0, 1]

    def test_mixed_access_modes_keep_separate_records(self):
        """READ and INC on the same dat must not merge into one record --
        their treatment in the dependency rules differs."""
        num_edges, num_cells = 8, 32
        edges = op_decl_set(num_edges, "edges")
        cells = op_decl_set(num_cells, "cells")
        values = np.stack(
            [np.arange(num_edges), np.arange(num_edges) + 16], axis=1
        )
        mapping = op_decl_map(edges, cells, 2, values, "mixed")
        dat = op_decl_dat(cells, 1, "double", None, "d")
        kernel = Kernel(name="kmixed", elemental=lambda a, b: None)
        loop = ParLoop(
            kernel,
            "read_one_inc_other",
            edges,
            [
                op_arg_dat(dat, 0, mapping, 1, "double", OP_READ),
                op_arg_dat(dat, 1, mapping, 1, "double", AccessMode.INC),
            ],
        )
        tracker = DependencyTracker()
        tracker.record_chunk(loop, 0, 0, num_edges, task_id=0)
        # The INC slot alone forms the writer layer: had the READ slot been
        # merged in, the record would span [0, 7] too.  (The READ record is
        # displaced into the previous layer when the accumulation starts,
        # exactly as the per-slot tracker did.)
        assert len(tracker.writer_records(dat.dat_id)) == 1
        assert tracker.writer_records(dat.dat_id)[0].intervals.runs() == [(16, 23)]
        assert tracker.reader_records(dat.dat_id) == []


# ---------------------------------------------------------------------------
# Plan cache eviction
# ---------------------------------------------------------------------------
class TestPlanCacheEviction:
    def test_renumbering_evicts_superseded_plan(self):
        clear_plan_cache()
        edges = op_decl_set(32, "edges")
        cells = op_decl_set(32, "cells")
        mapping = op_decl_map(edges, cells, 1, np.arange(32).reshape(-1, 1), "m")
        dat = op_decl_dat(cells, 1, "double", None, "d")
        arg = op_arg_dat(dat, 0, mapping, 1, "double", AccessMode.INC)
        first = op_plan_get("loop", edges, 8, [arg])
        assert plan_cache_size() == 1
        rng = np.random.default_rng(0)
        for _ in range(5):
            mapping.set_values(rng.permutation(32).reshape(-1, 1))
            plan = op_plan_get("loop", edges, 8, [arg])
            assert plan is not first
            assert plan_cache_size() == 1  # superseded versions evicted

    def test_same_version_still_hits_cache(self):
        clear_plan_cache()
        edges = op_decl_set(16, "edges")
        cells = op_decl_set(16, "cells")
        mapping = op_decl_map(edges, cells, 1, np.arange(16).reshape(-1, 1), "m")
        dat = op_decl_dat(cells, 1, "double", None, "d")
        arg = op_arg_dat(dat, 0, mapping, 1, "double", AccessMode.INC)
        first = op_plan_get("loop", edges, 4, [arg])
        assert op_plan_get("loop", edges, 4, [arg]) is first


# ---------------------------------------------------------------------------
# Mesh renumbering utilities
# ---------------------------------------------------------------------------
class TestMeshRenumbering:
    def test_reverse_cuthill_mckee_is_bijection_and_reduces_bandwidth(self):
        mesh = generate_mesh(12, 8)
        shuffled = renumber_mesh(mesh, method="shuffle", seed=1)
        perm = reverse_cuthill_mckee(shuffled.num_cells, shuffled.edge_cells)
        assert sorted(perm.tolist()) == list(range(shuffled.num_cells))
        bandwidth = lambda ec: int(np.abs(ec[:, 0] - ec[:, 1]).max())  # noqa: E731
        assert bandwidth(perm[shuffled.edge_cells]) < bandwidth(shuffled.edge_cells)

    @pytest.mark.parametrize("method", ["shuffle", "scramble", "reverse", "rcm"])
    def test_renumbered_mesh_is_valid(self, method):
        mesh = generate_mesh(10, 6)
        renumbered = renumber_mesh(mesh, method=method, seed=7)
        renumbered.validate()
        assert renumbered.num_cells == mesh.num_cells
        assert renumbered.num_edges == mesh.num_edges
        # same geometry: the multiset of node coordinates is unchanged
        original = np.sort(mesh.node_coords.view("f8,f8").reshape(-1), order=["f0", "f1"])
        permuted = np.sort(renumbered.node_coords.view("f8,f8").reshape(-1), order=["f0", "f1"])
        assert np.array_equal(original, permuted)

    def test_unknown_method_rejected(self):
        with pytest.raises(MeshError):
            renumber_mesh(generate_mesh(4, 4), method="sort-of-random")

    def test_shuffle_keeps_iteration_order_scramble_does_not(self):
        mesh = generate_mesh(10, 6)
        shuffled = renumber_mesh(mesh, method="shuffle", seed=3)
        scrambled = renumber_mesh(mesh, method="scramble", seed=3)
        # shuffle permutes ids only: edge k still connects the same two
        # geometric cells, so the per-edge multisets match after renumbering
        assert shuffled.num_edges == scrambled.num_edges
        assert not np.array_equal(shuffled.edge_cells, scrambled.edge_cells)

    def test_solver_result_equal_up_to_cell_permutation(self):
        """Renumbering changes nothing physical: the solution on the shuffled
        mesh is the original solution with rows permuted."""
        base = generate_mesh(10, 6)
        with active_context(serial_context()):
            reference = run_airfoil(generate_mesh(10, 6), niter=2, rk_steps=2)
        shuffled = renumber_mesh(base, method="shuffle", seed=5)
        with active_context(serial_context()):
            renumbered = run_airfoil(
                renumber_mesh(generate_mesh(10, 6), method="shuffle", seed=5),
                niter=2,
                rk_steps=2,
            )
        # recover the cell permutation used by the renumbering
        rng = np.random.default_rng(5)
        rng.permutation(base.num_nodes)  # node draw happens first
        cell_perm = rng.permutation(base.num_cells)
        assert np.allclose(renumbered.q[cell_perm], reference.q, rtol=1e-10, atol=1e-12)
        assert np.allclose(renumbered.rms_history, reference.rms_history, rtol=1e-10)
        assert shuffled.num_cells == base.num_cells


# ---------------------------------------------------------------------------
# Steady state: every set operation of a repeated step is a memo hit
# ---------------------------------------------------------------------------
class TestSteadyStepsAreMemoHits:
    """Counts, not timings: from the third step on a time-stepping chain
    misses the session's interval algebra zero times, and only a renumbered
    map makes it miss again -- once."""

    STEPS = 4

    @staticmethod
    def _mesh():
        return renumber_mesh(generate_mesh(24, 16), method="shuffle", seed=3)

    @staticmethod
    def _renumber_edges(mesh):
        # a consistent edge renumbering: both edge maps, same permutation
        perm = np.random.default_rng(1).permutation(mesh.pedge.values.shape[0])
        mesh.pedge.set_values(mesh.pedge.values[perm])
        mesh.pecell.set_values(mesh.pecell.values[perm])

    def _chain(self, context, session=None):
        """2 x STEPS steps with an edge renumbering in the middle; returns the
        final ``q`` and the per-step miss deltas."""
        clear_plan_cache()
        mesh = self._mesh()
        misses = []

        def missed():
            return 0 if session is None else session.stats()["interval_cache"]["misses"]

        with active_context(context):
            for step in range(2 * self.STEPS):
                if step == self.STEPS:
                    self._renumber_edges(mesh)
                before = missed()
                run_airfoil(mesh, niter=1, rk_steps=2)
                misses.append(missed() - before)
        return mesh.p_q.data.copy(), misses

    def test_misses_vanish_halo_repeats_and_renumbering_misses_once(self):
        reference, _ = self._chain(serial_context())
        final = {}
        for engine in ("processes", "sharded"):
            with Session(name=f"steady-{engine}") as session:
                context = hpx_context(engine=engine, num_threads=3, session=session)
                final[engine], misses = self._chain(context, session)
                stats = session.stats()["interval_cache"]
            before, after = misses[: self.STEPS], misses[self.STEPS :]
            assert before[0] > 0, engine
            assert before[2:] == [0] * (self.STEPS - 2), (engine, misses)
            # the renumbered maps hand out new summary objects: misses
            # reappear, and are gone again two steps later
            assert after[0] > 0, (engine, misses)
            assert after[2:] == [0] * (self.STEPS - 2), (engine, misses)
            assert stats["hits"] > 10 * stats["misses"], engine
            assert 0 < stats["interned"] <= stats["entries"], engine
            assert stats["bytes"] > 0, engine
            # multi-stream increments round differently from serial on every
            # engine (as before this change); the engines agree bit for bit
            assert np.allclose(final[engine], reference, rtol=1e-12, atol=0.0), engine
        assert np.array_equal(final["sharded"], final["processes"])

    def test_session_close_drops_the_tables(self):
        session = Session(name="steady-close")
        algebra = session.interval_algebra
        algebra.union(IntervalSet.from_range(0, 3), IntervalSet.from_range(9, 12))
        assert session.stats()["interval_cache"]["entries"] == 1
        session.close()
        stats = algebra.stats()
        assert stats["entries"] == stats["interned"] == stats["bytes"] == 0
        assert stats["misses"] == 1  # counters survive for diagnostics


class TestSteadyStepsBuildNoScatterSchedules:
    """Counts, not timings: a map's scatter schedules (occurrence ranks of a
    chunk-slot's targets) are built the first time a process meets the
    chunk-slot and never again until ``set_values`` replaces the connectivity
    -- then exactly once more.  ``sharded`` pins chunks to workers, so all its
    builds fall into the first step; ``processes`` hands a chunk to whichever
    worker is idle, so a worker may meet a chunk-slot a step or two later, but
    no process ever builds the same one twice.  Every schedule applied is
    checked against the index it is applied to, so one computed for the old
    connectivity cannot go unnoticed."""

    STEPS = 4
    WORKERS = 3

    def _chain(self, context, drain_builds):
        # large enough that res_calc's scatter buffers exceed the small-block
        # crossover; the edge renumbering scatters duplicates into every chunk
        clear_plan_cache()
        mesh = generate_mesh(120, 80)
        per_step = []
        with active_context(context):
            for step in range(2 * self.STEPS):
                if step == self.STEPS:
                    TestSteadyStepsAreMemoHits._renumber_edges(mesh)
                run_airfoil(mesh, niter=1, rk_steps=2)
                per_step.append(drain_builds())
        return mesh.p_q.data.copy(), per_step

    def test_no_process_builds_a_schedule_twice_and_renumbering_rebuilds_once(
        self, monkeypatch
    ):
        # fork-inherited, so worker-side builds and applications count too
        fork = multiprocessing.get_context("fork")
        built = fork.SimpleQueue()
        applied = fork.Value("i", 0)
        build_ranks = datapath.occurrence_ranks
        apply_rounds = datapath._scatter_add_rounds

        def logging_build(index):
            built.put((os.getpid(), zlib.crc32(index.tobytes())))
            return build_ranks(index)

        def checked_rounds(data, index, buffer, ranks):
            expected = build_ranks(index)
            assert (ranks is None) == (expected is None)
            assert ranks is None or np.array_equal(ranks, expected)
            if ranks is not None:
                with applied.get_lock():
                    applied.value += 1
            apply_rounds(data, index, buffer, ranks)

        def drain_builds():
            records = []
            while not built.empty():
                records.append(built.get())
            return records

        monkeypatch.setattr(map_module, "occurrence_ranks", logging_build)
        monkeypatch.setattr(datapath, "_scatter_add_rounds", checked_rounds)

        reference, serial = self._chain(serial_context(), drain_builds)
        # whole-range blocks: the two ``pecell`` slots, once per connectivity
        assert [len(step) for step in serial] == [2, 0, 0, 0, 2, 0, 0, 0]
        for engine in ("processes", "sharded"):
            applied.value = 0
            with Session(name=f"schedules-{engine}") as session:
                context = hpx_context(
                    engine=engine, num_threads=self.WORKERS, session=session
                )
                final, per_step = self._chain(context, drain_builds)
            before = [r for step in per_step[: self.STEPS] for r in step]
            after = [r for step in per_step[self.STEPS :] for r in step]
            for records in (before, after):
                chunk_slots = {digest for _pid, digest in records}
                assert chunk_slots, engine
                assert len(records) == len(set(records)), (engine, "rebuilt", per_step)
                assert len(records) <= self.WORKERS * len(chunk_slots), engine
            # the renumbered maps share no schedule with the old connectivity
            assert not {d for _p, d in before} & {d for _p, d in after}, engine
            assert per_step[self.STEPS], (engine, "renumbering must rebuild")
            if engine == "sharded":  # pinned chunks: step one only
                counts = [len(step) for step in per_step]
                assert counts[1 : self.STEPS] == [0] * (self.STEPS - 1), counts
                assert counts[self.STEPS + 1 :] == [0] * (self.STEPS - 1), counts
                assert counts[self.STEPS] == counts[0], counts
            assert applied.value > 0, engine  # multi-round schedules were in use
            assert np.allclose(final, reference, rtol=1e-12, atol=0.0), engine


class TestComputePhaseAllocatesBlocksNotChunks:
    """Bytes, not timings: after one warm-up, preparing and committing a
    steady chunk allocates nothing that scales with it.  Gathers, ``_idx``
    and the generated block form's temporaries reuse per-thread scratch, the
    whole-chunk staging comes back from the free-list, and the commit's
    rounds gather into scratch; what is left is a round's row list (< 32 KB)
    and Python objects.  Allocating gathers, temporaries and staging afresh
    costs a second ``res_calc`` chunk 10.8 MB here, ``adt_calc`` 2.6 MB and
    ``update`` 1.3 MB."""

    #: bytes a steady prepare+commit may hold beyond what was live before it
    STEADY_BYTES = 64 << 10

    @staticmethod
    def _loops(mesh):
        rms = np.zeros(1)
        return {
            "res_calc": ParLoop(
                RES_CALC,
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
            ),
            "adt_calc": ParLoop(
                ADT_CALC,
                "adt_calc",
                mesh.cells,
                [
                    *(op_arg_dat(mesh.p_x, k, mesh.pcell, 2, "double", OP_READ) for k in range(4)),
                    op_arg_dat(mesh.p_q, -1, OP_ID, 4, "double", OP_READ),
                    op_arg_dat(mesh.p_adt, -1, OP_ID, 1, "double", OP_WRITE),
                ],
            ),
            "update": ParLoop(
                UPDATE,
                "update",
                mesh.cells,
                [
                    op_arg_dat(mesh.p_qold, -1, OP_ID, 4, "double", OP_READ),
                    op_arg_dat(mesh.p_q, -1, OP_ID, 4, "double", OP_WRITE),
                    op_arg_dat(mesh.p_res, -1, OP_ID, 4, "double", OP_RW),
                    op_arg_dat(mesh.p_adt, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(rms, 1, "double", OP_INC),
                ],
            ),
        }

    @pytest.mark.parametrize("name", ["res_calc", "adt_calc", "update"])
    def test_a_steady_chunk_allocates_nothing_after_warm_up(self, name):
        clear_plan_cache()
        mesh = generate_mesh(260, 200).declare()
        assert mesh.num_edges >= 100_000 and mesh.num_edges > 4 * datapath.COMPUTE_BLOCK_ROWS
        loops = self._loops(mesh)
        loops["adt_calc"].execute_all()  # ``update`` divides by ``adt``
        loop = loops[name]
        rows = loop.iterset.size
        loop.prepare_block(0, rows)()  # warm-up: scratch, pooled staging, schedules
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            loop.prepare_block(0, rows)()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= self.STEADY_BYTES, (name, peak - before)
        assert np.isfinite(mesh.p_res.data).all() and np.isfinite(mesh.p_adt.data).all()
