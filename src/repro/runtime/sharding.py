"""Sharded sets across address spaces: owned + halo partitions per worker.

The ``processes`` engine shares one coherent ``multiprocessing.shared_memory``
segment per dat, so every worker sees every element -- convenient, but it
caps the design at one box and ships no information about *which* elements a
chunk actually needs.  The chunk-DAG already knows: the dependency tracker's
per-(dat, access) :class:`~repro.op2.intervals.IntervalSet` summaries are an
exact element-granular footprint of every chunk.  This module turns those
summaries into a distributed-memory execution model on the same seam:

* **Partitioning** (:class:`ShardPartition`): each :class:`~repro.op2.set.OpSet`
  is cut into ``num_workers`` contiguous *owned* ranges; a chunk is pinned to
  the worker owning its start index.  Ownership is advisory placement -- data
  freshness follows actual writes, so chunks straddling cuts and indirect
  dats need no special-casing.
* **Per-shard storage** (:class:`~repro.op2.shm.ShardedArena`): every dat gets
  one full-extent segment per worker plus a parent-owned *home* segment.
  Global element numbering stays valid in every address space; the OS backs
  pages lazily, so each worker's physical footprint is its owned region plus
  halo.
* **Interval-exact halo exchange** (:class:`HaloDirectory`): the parent keeps,
  per dat, which shard holds the freshest copy of every run (``fresh``) and
  which runs each shard has locally valid (``valid``).  A chunk's missing
  runs -- and only those -- ride inside its compute/merge RPC as *halo
  entries*, batched with any deferred declarations, and are applied
  worker-side before the gather/commit.  READ/RW halo lands at compute time
  (WAR edges protect the source until the reader commits); increment halo
  lands at *merge* time, because same-loop increment chunks are ordered only
  by the merge chain and the fetched base values must already include every
  earlier commit.

The engine is bit-identical to serial execution: chunk decomposition, merge
chaining and reduction fold order are exactly the ``processes`` engine's, and
halo copies move committed values only, along dependency edges the tracker
already enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.engines.base import EngineCapabilities
from repro.op2.intervals import IntervalAlgebra, IntervalSet, copy_runs
from repro.runtime.process_pool import ProcessChunkEngine, ProcessPool

__all__ = ["ShardPartition", "HaloDirectory", "ShardedChunkEngine"]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
class ShardPartition:
    """Contiguous equal cuts of each set across ``num_shards`` workers."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._cuts: dict[int, np.ndarray] = {}

    def cuts(self, set_id: int, size: int) -> np.ndarray:
        """The ``num_shards + 1`` cut offsets partitioning ``[0, size)``."""
        cached = self._cuts.get(set_id)
        if cached is None:
            cached = np.linspace(0, size, self.num_shards + 1).astype(np.int64)
            self._cuts[set_id] = cached
        return cached

    def shard_of(self, set_id: int, size: int, index: int) -> int:
        """The shard owning element ``index`` of the set."""
        cuts = self.cuts(set_id, size)
        shard = int(np.searchsorted(cuts, index, side="right")) - 1
        return min(max(shard, 0), self.num_shards - 1)


# ---------------------------------------------------------------------------
# Halo directory
# ---------------------------------------------------------------------------
@dataclass
class _FreshEntry:
    """Runs whose freshest copy lives on ``holder`` (committed by ``ready``)."""

    runs: IntervalSet
    holder: int
    ready: Optional[int]


@dataclass
class _ValidEntry:
    """Runs a shard holds locally current (available once ``ready`` ran)."""

    runs: IntervalSet
    ready: Optional[int]


class HaloDirectory:
    """Parent-side bookkeeping of where every run of every dat is current.

    Two structures per dat, both lists of interval runs:

    * ``fresh``: a partition of ``[0, size)`` into entries ``(runs, holder,
      ready)`` -- the shard holding the latest committed value of each run
      and the merge task that commits it.  Initially everything is fresh on
      the *home* shard (the parent's segment).
    * ``valid[shard]``: entries ``(runs, ready)`` -- runs whose local copy on
      ``shard`` matches ``fresh`` (either written there or fetched), current
      once task ``ready`` completed.

    ``plan_read`` computes the *minimal* fetch for a chunk: runs the shard
    already holds valid cost nothing (only a dependency on the task that made
    them valid); the rest is sourced per fresh entry.  ``record_write``
    moves freshness to the writing shard and invalidates every other shard's
    overlapping runs.

    All set algebra goes through ``algebra`` (the owning session's, shared
    with the dependency tracker; a private one when omitted).  The directory
    of a time-stepping chain returns to the same *values* every step; the
    algebra interns results, so it returns to the same *objects*, and from
    the second step on planning a chunk's halo is dictionary hits only.
    """

    def __init__(self, num_shards: int, algebra: Optional[IntervalAlgebra] = None) -> None:
        self.num_shards = num_shards
        self.home = num_shards
        self.algebra = algebra if algebra is not None else IntervalAlgebra()
        self._fresh: dict[int, list[_FreshEntry]] = {}
        self._valid: dict[int, dict[int, list[_ValidEntry]]] = {}

    def register_dat(self, dat_id: int, size: int) -> None:
        """(Re-)register a dat: everything fresh and valid on home only.

        Also the reset path for re-adopted dats (a fresh segment family means
        every worker copy is gone) and for parent writes detected by version
        reconciliation.
        """
        if size > 0:
            full = self.algebra.from_range(0, size - 1)
            self._fresh[dat_id] = [_FreshEntry(full, self.home, None)]
            self._valid[dat_id] = {self.home: [_ValidEntry(full, None)]}
        else:
            self._fresh[dat_id] = []
            self._valid[dat_id] = {self.home: []}

    def known(self, dat_id: int) -> bool:
        """True once ``dat_id`` has been registered."""
        return dat_id in self._fresh

    def parent_write(self, dat_id: int, size: int) -> None:
        """The parent mutated the dat's home view: all worker copies stale."""
        self.register_dat(dat_id, size)

    def plan_read(
        self, dat_id: int, shard: int, needed: IntervalSet
    ) -> tuple[list[tuple[int, IntervalSet]], set[int], Optional[IntervalSet]]:
        """Minimal fetch plan for ``shard`` to read ``needed`` runs.

        Returns ``(fetches, deps, missing)``: per-source fetch runs, the task
        ids the reader must wait for (producers of sourced runs and of
        already-valid overlapping runs), and the runs that were missing
        locally -- the caller marks them valid with the fetching task's id
        once it is known.
        """
        algebra = self.algebra
        deps: set[int] = set()
        missing: Optional[IntervalSet] = needed
        for entry in self._valid.get(dat_id, {}).get(shard, []):
            if missing is None:
                break
            if not algebra.overlaps(entry.runs, missing):
                continue
            if entry.ready is not None:
                deps.add(entry.ready)
            missing = algebra.difference(missing, entry.runs)
        fetches: list[tuple[int, IntervalSet]] = []
        if missing is not None:
            for entry in self._fresh.get(dat_id, []):
                part = algebra.intersection(entry.runs, missing)
                if part is None:
                    continue
                if entry.holder == shard:
                    # The invariant "fresh on s implies valid on s" makes
                    # this unreachable; degrade to a dependency, never a
                    # self-copy.
                    if entry.ready is not None:
                        deps.add(entry.ready)
                    continue
                if entry.ready is not None:
                    deps.add(entry.ready)
                fetches.append((entry.holder, part))
        return fetches, deps, missing

    def mark_valid(
        self, dat_id: int, shard: int, runs: Optional[IntervalSet], ready: Optional[int]
    ) -> None:
        """Record that ``shard`` holds ``runs`` current once ``ready`` ran."""
        if runs is None:
            return
        self._valid.setdefault(dat_id, {}).setdefault(shard, []).append(
            _ValidEntry(runs, ready)
        )

    def record_write(
        self, dat_id: int, shard: int, runs: IntervalSet, merge_id: Optional[int]
    ) -> None:
        """``shard`` commits ``runs`` at ``merge_id``: freshness moves there."""
        difference = self.algebra.difference
        fresh = []
        for entry in self._fresh.get(dat_id, []):
            remainder = difference(entry.runs, runs)
            if remainder is not None:
                fresh.append(_FreshEntry(remainder, entry.holder, entry.ready))
        fresh.append(_FreshEntry(runs, shard, merge_id))
        self._fresh[dat_id] = fresh
        valid = self._valid.setdefault(dat_id, {})
        for other, entries in valid.items():
            if other == shard:
                continue
            valid[other] = [
                _ValidEntry(remainder, entry.ready)
                for entry in entries
                if (remainder := difference(entry.runs, runs)) is not None
            ]
        valid.setdefault(shard, []).append(_ValidEntry(runs, merge_id))

    def fresh_remote(self, dat_id: int) -> list[tuple[int, IntervalSet]]:
        """Fresh runs *not* held by home: what a parent sync must copy in."""
        return [
            (entry.holder, entry.runs)
            for entry in self._fresh.get(dat_id, [])
            if entry.holder != self.home
        ]

    def parent_synced(self, dat_id: int) -> None:
        """Home caught up: everything fresh on home; worker copies stay valid."""
        entries = self._fresh.get(dat_id)
        if not entries:
            return
        full = entries[0].runs
        for entry in entries[1:]:
            full = self.algebra.union(full, entry.runs)
        self._fresh[dat_id] = [_FreshEntry(full, self.home, None)]
        valid = self._valid.setdefault(dat_id, {})
        valid[self.home] = [_ValidEntry(full, None)]
        self._compact_valid(dat_id)

    def quiesce(self) -> None:
        """After a drain: every recorded task completed, so ready ids are
        moot -- drop them and compact entry lists (they grow per chunk
        between drains)."""
        for dat_id, entries in self._fresh.items():
            by_holder: dict[int, IntervalSet] = {}
            for entry in entries:
                held = by_holder.get(entry.holder)
                by_holder[entry.holder] = (
                    entry.runs if held is None else self.algebra.union(held, entry.runs)
                )
            self._fresh[dat_id] = [
                _FreshEntry(runs, holder, None) for holder, runs in by_holder.items()
            ]
            self._compact_valid(dat_id)

    def _compact_valid(self, dat_id: int) -> None:
        valid = self._valid.get(dat_id, {})
        for shard, entries in valid.items():
            if len(entries) <= 1 and all(e.ready is None for e in entries):
                continue
            merged: Optional[IntervalSet] = None
            for entry in entries:
                merged = (
                    entry.runs if merged is None else self.algebra.union(merged, entry.runs)
                )
            valid[shard] = [] if merged is None else [_ValidEntry(merged, None)]

    def dat_ids(self) -> list[int]:
        """Registered dat ids (diagnostics)."""
        return sorted(self._fresh)


def _wire_entries(
    dat_id: int, fetches: list[tuple[int, IntervalSet]]
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Fetch plan -> picklable RPC halo entries (inclusive run endpoints)."""
    return [(dat_id, src, runs.starts, runs.stops) for src, runs in fetches]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class ShardedChunkEngine(ProcessChunkEngine):
    """Parent-side driver of ``engine="sharded"``.

    Extends :class:`ProcessChunkEngine` with per-shard dat segments, chunk
    pinning by set partition, interval-exact halo exchange planned at
    submission (memoised through ``algebra``, so a repeated step plans from
    dictionary hits), and deferred (batched) declaration delivery.  The
    parent's view of a dat is only current after :meth:`sync_parent_dats`;
    contexts call it at drain points via the ``partitioned_dats`` capability.
    """

    capabilities = EngineCapabilities(
        shared_address_space=False,
        needs_kernel_registry=True,
        supports_global_write=False,
        separate_merge_channel=True,
        partitioned_dats=True,
    )

    def __init__(
        self,
        num_workers: int,
        *,
        name: str = "hpx-chunk-shards",
        trace: bool = False,
        start_method: Optional[str] = None,
        prefer_vectorized: bool = True,
        algebra: Optional[IntervalAlgebra] = None,
    ) -> None:
        from repro.op2.shm import ShardedArena

        # Deliberately not super().__init__(): the arena type differs.
        self.arena = ShardedArena(num_workers, name_prefix=name)
        self.pool = ProcessPool(
            num_workers, name=name, trace=trace, start_method=start_method
        )
        self.prefer_vectorized = prefer_vectorized
        self._loop_keys: dict[tuple, str] = {}
        self._active: Optional[tuple[Any, str, list, Callable[[list], None]]] = None
        self.partition = ShardPartition(num_workers)
        self.directory = HaloDirectory(num_workers, algebra)
        #: dat_id -> live OpDat (sync targets, byte accounting)
        self._dats: dict[int, Any] = {}
        #: dat_id -> arena adoption epoch the directory state belongs to
        self._dat_epochs: dict[int, int] = {}
        #: dat_id -> version the parent is expected to report if it has not
        #: written the dat since the engine last looked
        self._expected_versions: dict[int, int] = {}
        #: halo accounting: exact bytes shipped vs the whole-dat counterfactual
        self._halo_bytes = 0
        self._whole_dat_bytes = 0
        self._halo_fetches = 0

    # -- declarations (deferred / per-worker) ----------------------------------
    def _declare(self, declarations: list[dict]) -> None:
        # Dat families differ per worker (each attaches its own segment);
        # maps are identical everywhere.  Either way the messages are
        # *queued*: they ride ahead of the next chunk RPC per worker in one
        # batch, keeping declaration round trips off the submission path.
        for index in range(self.pool.num_workers):
            specs = [
                {**spec, "segment": spec["segments"][index]}
                if spec.get("segments")
                else spec
                for spec in declarations
            ]
            self.pool.queue_message(index, ("declare", specs))

    def _register(self, loop_key: str, spec: dict) -> None:
        self.pool.queue_broadcast(("register_loop", loop_key, spec))

    # -- parent-write reconciliation -------------------------------------------
    def _track_dats(self, loop: Any) -> None:
        """Register/refresh directory state for the loop's dats.

        Detects (a) re-adopted dats -- a new segment family invalidates every
        worker copy -- and (b) parent-side writes between loops, via the dat
        version counter: any version the engine did not predict means the
        parent (or an eager fallback loop) mutated the home view.
        """
        for arg in loop.args:
            dat = arg.dat
            if dat is None:
                continue
            dat_id = dat.dat_id
            self._dats[dat_id] = dat
            epoch = self.arena.epoch("dat", dat_id)
            if self._dat_epochs.get(dat_id) != epoch or not self.directory.known(
                dat_id
            ):
                self._dat_epochs[dat_id] = epoch
                self.directory.register_dat(dat_id, dat.dataset.size)
                self._expected_versions[dat_id] = dat.version
            elif self._expected_versions.get(dat_id) != dat.version:
                self.directory.parent_write(dat_id, dat.dataset.size)
                self._expected_versions[dat_id] = dat.version

    def _finish_active_loop(self) -> None:
        """Fold the finished loop's version bumps into the expectations.

        The pipeline bumps each written dat once per writing argument *after*
        submitting all chunks, so the engine predicts those bumps here -- at
        the next loop switch or drain -- and treats any other movement as a
        parent write.
        """
        if self._active is None:
            return
        loop = self._active[0]
        self._active = None
        for arg in loop.args:
            if arg.dat is not None and arg.access.writes:
                dat_id = arg.dat.dat_id
                if dat_id in self._expected_versions:
                    self._expected_versions[dat_id] += 1

    # -- chunk submission --------------------------------------------------------
    def _arg_summary(self, arg: Any, start: int, stop: int) -> IntervalSet:
        if arg.is_indirect:
            return arg.map.chunk_summary(arg.map_index, start, stop)
        return self.directory.algebra.from_range(start, stop - 1)

    def submit_loop_chunk(
        self,
        loop: Any,
        start: int,
        stop: int,
        *,
        deps: Iterable[int] = (),
        after: Optional[int] = None,
    ) -> tuple[int, int]:
        from repro.op2.access import AccessMode

        if self._active is None or self._active[0] is not loop:
            self._finish_active_loop()
            loop_key, gbl_values, apply_deltas = self._prepare_loop(loop)
            self._track_dats(loop)
            self._active = (loop, loop_key, gbl_values, apply_deltas)
        _, loop_key, gbl_values, apply_deltas = self._active

        iterset = loop.iterset
        shard = self.partition.shard_of(iterset.set_id, iterset.size, start)

        # Per-dat access footprints of this chunk, split by *when* the halo
        # must land: READ/RW gathers happen at compute time, increment bases
        # at merge time, WRITE-only footprints fetch nothing.
        union = self.directory.algebra.union
        compute_needs: dict[int, IntervalSet] = {}
        merge_needs: dict[int, IntervalSet] = {}
        writes: dict[int, IntervalSet] = {}
        for arg in loop.args:
            if arg.dat is None or start >= stop:
                continue
            summary = self._arg_summary(arg, start, stop)
            dat_id = arg.dat.dat_id
            access = arg.access
            if access in (AccessMode.READ, AccessMode.RW):
                held = compute_needs.get(dat_id)
                compute_needs[dat_id] = summary if held is None else union(held, summary)
            if access.is_reduction:
                held = merge_needs.get(dat_id)
                merge_needs[dat_id] = summary if held is None else union(held, summary)
            if access.writes:
                held = writes.get(dat_id)
                writes[dat_id] = summary if held is None else union(held, summary)

        compute_deps: set[int] = set(deps)
        merge_deps: set[int] = set()
        halo: list[tuple] = []
        merge_halo: list[tuple] = []
        mark_compute: list[tuple[int, IntervalSet]] = []
        mark_merge: list[tuple[int, IntervalSet]] = []
        for dat_id, needed in compute_needs.items():
            fetches, plan_deps, missing = self.directory.plan_read(
                dat_id, shard, needed
            )
            compute_deps |= plan_deps
            halo.extend(_wire_entries(dat_id, fetches))
            self._account(dat_id, fetches)
            if missing is not None:
                mark_compute.append((dat_id, missing))
        for dat_id, needed in merge_needs.items():
            fetches, plan_deps, missing = self.directory.plan_read(
                dat_id, shard, needed
            )
            merge_deps |= plan_deps
            merge_halo.extend(_wire_entries(dat_id, fetches))
            self._account(dat_id, fetches)
            if missing is not None:
                mark_merge.append((dat_id, missing))

        compute_id, merge_id = self.pool.submit_loop_chunk(
            loop_key,
            start,
            stop,
            gbl_values=gbl_values,
            prefer_vectorized=self.prefer_vectorized,
            deps=sorted(compute_deps),
            after=after,
            on_deltas=apply_deltas,
            worker=shard,
            halo=tuple(halo),
            merge_halo=tuple(merge_halo),
            extra_merge_deps=sorted(merge_deps),
        )

        for dat_id, missing in mark_compute:
            self.directory.mark_valid(dat_id, shard, missing, compute_id)
        for dat_id, missing in mark_merge:
            self.directory.mark_valid(dat_id, shard, missing, merge_id)
        for dat_id, written in writes.items():
            self.directory.record_write(dat_id, shard, written, merge_id)
        return compute_id, merge_id

    def _account(self, dat_id: int, fetches: list[tuple[int, IntervalSet]]) -> None:
        if not fetches:
            return
        dat = self._dats[dat_id]
        element_bytes = dat.dtype.itemsize * dat.dim
        self._halo_bytes += sum(runs.count for _src, runs in fetches) * element_bytes
        # The counterfactual a coherent single-segment engine pays: the whole
        # dat crosses to the consuming address space whenever any of it must.
        self._whole_dat_bytes += dat.dataset.size * element_bytes
        self._halo_fetches += len(fetches)

    def halo_stats(self) -> dict[str, int]:
        """Exact halo traffic vs the whole-dat counterfactual (bytes)."""
        return {
            "halo_bytes": self._halo_bytes,
            "whole_dat_bytes": self._whole_dat_bytes,
            "halo_fetches": self._halo_fetches,
        }

    # -- parent synchronisation --------------------------------------------------
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain, then make the parent's home views coherent.

        The coherent-after-drain contract is what applications already rely
        on under ``processes`` (reading ``dat.data`` after a reduction
        barrier), so a drain lands every worker-fresh run in the home
        segments.  These are parent-side segment-to-segment copies, not
        worker halo traffic; worker-side valid runs stay intact, so
        steady-state loops re-fetch nothing afterwards.
        """
        self.pool.wait_all(timeout=timeout)
        self._finish_active_loop()
        # Every outstanding task completed: readiness ids are history, and
        # the per-chunk entry lists can be collapsed.
        self.directory.quiesce()
        self._sync_home()

    def sync_parent_dats(self) -> None:
        """Bring the parent's home views up to date with worker commits.

        Called by contexts at parent-observation points (drains before eager
        fallback loops, chain finish/abort); equivalent to a drain.
        """
        if self.pool.is_shutdown:
            return
        self.wait_all()

    def _sync_home(self) -> None:
        for dat_id in self.directory.dat_ids():
            remote = self.directory.fresh_remote(dat_id)
            if remote:
                home = self.arena.shard_view(dat_id, self.arena.home_shard)
                for holder, runs in remote:
                    source = self.arena.shard_view(dat_id, holder)
                    copy_runs(home, source, runs.starts, runs.stops)
            self.directory.parent_synced(dat_id)

    def shutdown(self, wait: bool = True) -> None:
        """Drain, stop workers, land fresh runs in the parent, release."""
        try:
            self.pool.shutdown(wait=wait)
        finally:
            try:
                # Best-effort on failure paths: an aborted run's values are
                # unspecified, but the home view must still be consistent
                # enough for the arena to hand back.
                self._finish_active_loop()
                self._sync_home()
            except Exception:  # pragma: no cover - defensive
                pass
            self.arena.release()
