"""Tests for execution, ready-queue and chunk-size policies and prefetching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChunkingError, PolicyError, PrefetchError
from repro.runtime.chunking import (
    AutoChunkSize,
    ChunkSizePolicy,
    DynamicChunkSize,
    GuidedChunkSize,
    PersistentAutoChunkSize,
    PersistentChunkRegistry,
    StaticChunkSize,
    split_into_chunks,
)
from repro.runtime.policies import (
    ExecutionPolicy,
    FifoQueue,
    ReadyQueuePolicy,
    WeightedRoundRobin,
    execution_policy_table,
    par,
    par_task,
    par_vec,
    seq,
    seq_task,
    task,
)
from repro.runtime.prefetching import PrefetcherContext, make_prefetcher_context
from repro.sim.cache import CacheConfig, CacheModel


class TestExecutionPolicies:
    def test_table_matches_paper_table1(self):
        table = execution_policy_table()
        rows = {row["policy"]: row for row in table}
        assert rows["seq"]["description"] == "sequential execution"
        assert rows["par"]["description"] == "parallel execution"
        assert rows["par_vec"]["description"] == "parallel and vectorized execution"
        assert rows["seq(task)"]["description"] == "sequential and asynchronous execution"
        assert rows["par(task)"]["description"] == "parallel and asynchronous execution"
        assert rows["par_vec"]["implemented_by"] == "Parallelism TS"
        assert rows["par(task)"]["implemented_by"] == "HPX"
        assert len(table) == 5

    def test_task_modifier(self):
        assert not par.is_task
        assert par(task).is_task
        assert par_task.is_task and seq_task.is_task
        assert par(task).label == "par(task)"

    def test_task_modifier_rejects_other_markers(self):
        with pytest.raises(PolicyError):
            par("task")  # type: ignore[arg-type]

    def test_policies_are_frozen_values(self):
        assert seq == ExecutionPolicy(name="seq", parallel=False)
        assert par_vec.vectorized

    @pytest.mark.parametrize(
        "policy, label, description, implemented_by",
        [
            (seq, "seq", "sequential execution", "Parallelism TS, HPX"),
            (par, "par", "parallel execution", "Parallelism TS, HPX"),
            (par_vec, "par_vec", "parallel and vectorized execution", "Parallelism TS"),
            (seq_task, "seq(task)", "sequential and asynchronous execution", "HPX"),
            (par_task, "par(task)", "parallel and asynchronous execution", "HPX"),
            (par_vec(task), "par_vec(task)",
             "parallel, vectorized and asynchronous execution", "HPX"),
        ],
    )
    def test_each_policy_describes_its_row(self, policy, label, description, implemented_by):
        assert policy.describe() == {
            "policy": label,
            "description": description,
            "implemented_by": implemented_by,
        }

    def test_task_variant_keeps_the_base_policy(self):
        assert par(task) == par_task and seq(task) == seq_task
        assert par_task(task) == par_task
        assert par_task.parallel and not seq_task.parallel
        assert par_vec(task).vectorized and par_vec(task).is_task

    def test_task_marker_is_a_singleton(self):
        assert type(task)() is task

    def test_policies_cannot_be_mutated(self):
        with pytest.raises(AttributeError):
            par.is_task = True  # type: ignore[misc]
        assert not par.is_task


class TestReadyQueues:
    def test_fifo_ignores_keys(self):
        queue = FifoQueue()
        for item, key in [("a0", "a"), ("b0", "b"), ("a1", "a"), ("n0", None)]:
            queue.push(item, key)
        assert len(queue) == 4
        assert [queue.pop() for _ in range(4)] == ["a0", "b0", "a1", "n0"]

    @pytest.mark.parametrize("factory", [FifoQueue, WeightedRoundRobin])
    def test_empty_queue_is_falsy_and_pop_raises(self, factory):
        queue = factory()
        assert not queue and len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()
        queue.push("x")
        assert queue and len(queue) == 1

    @pytest.mark.parametrize("factory", [FifoQueue, WeightedRoundRobin])
    def test_every_pushed_item_pops_exactly_once(self, factory):
        queue = factory()
        pushed = [(f"{key}{i}", key) for i in range(5) for key in "abc"]
        for item, key in pushed:
            queue.push(item, key)
        popped = [queue.pop() for _ in range(len(pushed))]
        assert sorted(popped) == sorted(item for item, _ in pushed)
        assert len(queue) == 0

    def test_base_policy_is_abstract(self):
        queue = ReadyQueuePolicy()
        with pytest.raises(NotImplementedError):
            queue.push("x")
        with pytest.raises(NotImplementedError):
            queue.pop()
        with pytest.raises(NotImplementedError):
            len(queue)

    def test_round_robin_rejects_a_nonpositive_default_weight(self):
        with pytest.raises(PolicyError):
            WeightedRoundRobin(default_weight=0)

    def test_round_robin_clamps_weights_to_one(self):
        queue = WeightedRoundRobin({"zero": 0, "negative": -3, "three": 3}, default_weight=2)
        assert queue.weight("zero") == 1
        assert queue.weight("negative") == 1
        assert queue.weight("three") == 3
        assert queue.weight("unknown") == 2

    def test_round_robin_reads_weights_live(self):
        weights = {"a": 1, "b": 1}
        queue = WeightedRoundRobin(weights)
        for i in range(6):
            queue.push(f"a{i}", "a")
            queue.push(f"b{i}", "b")
        assert [queue.pop() for _ in range(4)] == ["a0", "b0", "a1", "b1"]
        weights["a"] = 3  # retuned while in use
        assert [queue.pop() for _ in range(4)] == ["a2", "a3", "a4", "b2"]

    def test_round_robin_reports_queued_items_per_key(self):
        queue = WeightedRoundRobin()
        for item, key in [("a0", "a"), ("a1", "a"), ("b0", "b"), ("n0", None)]:
            queue.push(item, key)
        assert queue.queued_by_key() == {"a": 2, "b": 1, None: 1}
        queue.pop()
        assert queue.queued_by_key() == {"a": 1, "b": 1, None: 1}


class TestChunkPolicies:
    def test_split_into_chunks_sums_to_total(self):
        assert split_into_chunks(10, 3) == [3, 3, 3, 1]
        assert split_into_chunks(9, 3) == [3, 3, 3]
        assert split_into_chunks(0, 3) == []
        with pytest.raises(ChunkingError):
            split_into_chunks(5, 0)
        with pytest.raises(ChunkingError):
            split_into_chunks(-1, 1)

    def test_static_chunk_size(self):
        assert StaticChunkSize(4).chunk_sizes(10, 2) == [4, 4, 2]
        with pytest.raises(ChunkingError):
            StaticChunkSize(0)

    def test_auto_count_based(self):
        sizes = AutoChunkSize(chunks_per_worker=2).chunk_sizes(100, 5)
        assert sum(sizes) == 100
        assert len(sizes) == pytest.approx(10, abs=1)

    def test_auto_time_based_targets_duration(self):
        auto = AutoChunkSize(target_chunk_seconds=1e-3)
        size = auto.determine_chunk_size(100_000, 4, time_per_iteration=1e-6)
        assert size == 1000

    def test_auto_never_leaves_workers_idle(self):
        auto = AutoChunkSize(target_chunk_seconds=10.0)  # huge target
        sizes = auto.chunk_sizes(100, 4, time_per_iteration=1e-6)
        assert len(sizes) >= 4

    def test_guided_sizes_decrease(self):
        sizes = GuidedChunkSize().chunk_sizes(1000, 4)
        assert sum(sizes) == 1000
        assert sizes[0] >= sizes[-1]

    def test_dynamic_chunks(self):
        policy = DynamicChunkSize(chunk_size=100)
        assert policy.dynamic_assignment
        assert sum(policy.chunk_sizes(1050, 8)) == 1050

    def test_persistent_registry_establish_once(self):
        registry = PersistentChunkRegistry()
        assert registry.target_chunk_seconds is None
        assert registry.establish_target("first", 2e-3) == 2e-3
        assert registry.establish_target("second", 9e-3) == 2e-3  # unchanged
        assert registry.anchor_loop == "first"
        registry.reset()
        assert registry.target_chunk_seconds is None

    def test_persistent_registry_validation(self):
        registry = PersistentChunkRegistry()
        with pytest.raises(ChunkingError):
            registry.establish_target("x", 0.0)
        with pytest.raises(ChunkingError):
            registry.register_measurement("x", -1.0)

    def test_persistent_auto_equalises_chunk_durations(self):
        """The heart of Fig. 12: dependent loops get chunks of equal duration."""
        registry = PersistentChunkRegistry()
        policy = PersistentAutoChunkSize(registry=registry)
        # First (anchor) loop: 1 us per iteration.
        first = policy.chunk_sizes(100_000, 8, time_per_iteration=1e-6, loop_key="first")
        target = registry.target_chunk_seconds
        assert target == pytest.approx(first[0] * 1e-6)
        # Second loop is 4x as expensive per iteration -> chunks 4x smaller.
        second = policy.chunk_sizes(100_000, 8, time_per_iteration=4e-6, loop_key="second")
        assert second[0] == pytest.approx(first[0] / 4, rel=0.05)
        # ... but equal duration.
        assert second[0] * 4e-6 == pytest.approx(first[0] * 1e-6, rel=0.05)

    def test_persistent_auto_without_timing_falls_back_to_auto(self):
        policy = PersistentAutoChunkSize(registry=PersistentChunkRegistry())
        sizes = policy.chunk_sizes(1000, 4)
        assert sum(sizes) == 1000

    def test_persistent_auto_uses_registered_measurement(self):
        registry = PersistentChunkRegistry()
        registry.register_measurement("loop", 1e-6)
        policy = PersistentAutoChunkSize(registry=registry)
        sizes = policy.chunk_sizes(100_000, 8, loop_key="loop")
        assert sum(sizes) == 100_000


_CHUNKERS = {
    "static": lambda: StaticChunkSize(7),
    "auto": AutoChunkSize,
    "guided": GuidedChunkSize,
    "dynamic": lambda: DynamicChunkSize(chunk_size=13),
    "persistent_auto": lambda: PersistentAutoChunkSize(registry=PersistentChunkRegistry()),
}


class TestEveryChunkPolicy:
    @pytest.mark.parametrize("name", sorted(_CHUNKERS))
    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=5000),
        workers=st.integers(min_value=1, max_value=16),
        per_iteration=st.one_of(st.none(), st.floats(min_value=1e-8, max_value=1e-3)),
    )
    def test_chunks_are_positive_and_cover_the_loop(self, name, total, workers, per_iteration):
        policy: ChunkSizePolicy = _CHUNKERS[name]()
        sizes = policy.chunk_sizes(total, workers, time_per_iteration=per_iteration, loop_key="l")
        assert sum(sizes) == total
        assert all(size > 0 for size in sizes)

    @pytest.mark.parametrize("name", sorted(_CHUNKERS))
    def test_invalid_sizes_are_rejected(self, name):
        policy = _CHUNKERS[name]()
        with pytest.raises(ChunkingError):
            policy.chunk_sizes(-1, 4)
        with pytest.raises(ChunkingError):
            policy.chunk_sizes(10, 0)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AutoChunkSize(chunks_per_worker=0),
            lambda: AutoChunkSize(target_chunk_seconds=0.0),
            lambda: AutoChunkSize(min_chunk=0),
            lambda: GuidedChunkSize(min_chunk=0),
            lambda: DynamicChunkSize(chunk_size=0),
        ],
    )
    def test_invalid_parameters_are_rejected(self, factory):
        with pytest.raises(ChunkingError):
            factory()

    def test_guided_tail_respects_min_chunk(self):
        sizes = GuidedChunkSize(min_chunk=10).chunk_sizes(95, 4)
        assert sum(sizes) == 95
        assert all(size >= 10 for size in sizes[:-1])

    def test_auto_never_makes_more_chunks_than_iterations(self):
        assert AutoChunkSize().chunk_sizes(3, 8) == [1, 1, 1]
        assert AutoChunkSize().determine_chunk_size(0, 8) == 1

    def test_persistent_chain_shares_one_registry(self):
        registry = PersistentChunkRegistry()
        first = PersistentAutoChunkSize(registry=registry)
        second = PersistentAutoChunkSize(registry=registry)
        first.chunk_sizes(10_000, 4, time_per_iteration=1e-6, loop_key="a")
        sizes = second.chunk_sizes(10_000, 4, time_per_iteration=2e-6, loop_key="b")
        assert registry.anchor_loop == "a"
        assert sizes[0] * 2e-6 == pytest.approx(registry.target_chunk_seconds, rel=0.01)
        assert second.chunk_sizes(0, 4) == []


class TestPrefetcherContext:
    def test_iteration_covers_range_and_prefetches_ahead(self):
        data_a = np.arange(100, dtype=np.float64)
        data_b = np.arange(100, dtype=np.float64)
        ctx = make_prefetcher_context(0, 100, 10, data_a, data_b)
        indices = list(ctx)
        assert indices == list(range(100))
        assert ctx.stats.issued == 2 * 100
        # The last `distance` iterations have nothing left to prefetch.
        assert ctx.stats.beyond_range == 2 * 10
        assert ctx.stats.accuracy == pytest.approx(0.9)

    def test_validation(self):
        data = np.zeros(10)
        with pytest.raises(PrefetchError):
            make_prefetcher_context(5, 0, 1, data)
        with pytest.raises(PrefetchError):
            make_prefetcher_context(0, 10, 0, data)
        with pytest.raises(PrefetchError):
            make_prefetcher_context(0, 10, 1)
        with pytest.raises(PrefetchError):
            PrefetcherContext(0, 10, 1, [object()])

    def test_mixed_container_types_supported(self):
        """'It works with any data types even ... different type for each container'."""
        floats = np.zeros(50, dtype=np.float64)
        ints = np.zeros(50, dtype=np.int32)
        wide = np.zeros((50, 4), dtype=np.float64)
        plain = list(range(50))
        ctx = make_prefetcher_context(0, 50, 5, floats, ints, wide, plain)
        assert ctx.num_containers == 4
        assert ctx.bytes_per_iteration() == 8 + 4 + 32 + 8
        list(ctx)

    def test_cache_observes_prefetches(self):
        cache = CacheModel(CacheConfig(capacity_bytes=4096, line_bytes=64))
        data = np.arange(256, dtype=np.float64)
        ctx = make_prefetcher_context(0, 256, 8, data, cache=cache)
        list(ctx)
        assert cache.stats.prefetches_issued > 0
        assert cache.stats.prefetch_hits > 0
        # Prefetching ahead means most demand accesses hit.
        assert cache.stats.miss_rate < 0.2

    def test_chunk_respects_bounds(self):
        data = np.zeros(20)
        ctx = make_prefetcher_context(0, 20, 2, data)
        assert list(ctx.chunk(5, 10)) == [5, 6, 7, 8, 9]
        with pytest.raises(PrefetchError):
            list(ctx.chunk(15, 25))

    def test_distance_beyond_the_range_prefetches_nothing(self):
        data = np.zeros(5)
        ctx = make_prefetcher_context(0, 5, 10, data)
        assert list(ctx) == [0, 1, 2, 3, 4]
        assert ctx.stats.issued == 5 and ctx.stats.beyond_range == 5
        assert ctx.stats.useful == 0 and ctx.stats.accuracy == 0.0

    def test_empty_range(self):
        ctx = make_prefetcher_context(3, 3, 1, np.zeros(4))
        assert len(ctx) == 0 and list(ctx) == []
        assert ctx.stats.accuracy == 0.0

    def test_prefetch_for_counts_containers(self):
        ctx = make_prefetcher_context(2, 8, 2, np.zeros(8), np.zeros(8))
        assert len(ctx) == 6 and ctx.indices() == range(2, 8)
        assert ctx.prefetch_for(2) == 2
        assert ctx.prefetch_for(6) == 0
        assert (ctx.stats.issued, ctx.stats.useful, ctx.stats.beyond_range) == (4, 2, 2)

    def test_containers_occupy_disjoint_cache_regions(self):
        a = np.zeros(4096)
        b = np.zeros(4096)
        ctx = make_prefetcher_context(0, 4096, 1, a, b)
        end_of_a = ctx._address(0, len(a) - 1) + a.itemsize
        assert ctx._address(1, 0) >= end_of_a

    def test_non_array_containers_use_element_bytes(self):
        ctx = PrefetcherContext(0, 4, 1, [[1, 2, 3, 4]], element_bytes=16)
        assert ctx.bytes_per_iteration() == 16
        assert ctx._address(0, 3) - ctx._address(0, 2) == 16

    def test_chunked_walk_over_prefetcher_context_computes_correctly(self):
        a = np.arange(1000, dtype=np.float64)
        b = np.arange(1000, dtype=np.float64) * 2
        out = np.zeros(1000)
        ctx = make_prefetcher_context(0, 1000, 15, a, b, out)
        for start in range(0, 1000, 128):
            for i in ctx.chunk(start, min(start + 128, 1000)):
                out[i] = a[i] + b[i]
        np.testing.assert_allclose(out, a + b)
        assert ctx.stats.elements_touched == 3 * 1000
