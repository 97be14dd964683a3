"""Chunk-granular loop interleaving (Figs. 10-11 of the paper).

Because every loop's output dat is a future, a *consumer* loop does not have
to wait for the whole *producer* loop -- only for the chunks that actually
produced the data it reads.  :class:`DependencyTracker` maintains, per dat,
which chunk-tasks last wrote which elements (and which have read them
since), and answers "which existing tasks must chunk ``[start, stop)`` of
this new loop wait for?".

Dependencies are computed on element
:class:`~repro.op2.intervals.IntervalSet` summaries: a chunk's indirect
accesses through a map are decomposed into sorted disjoint runs (computed
once per chunk per map slot and cached on the :class:`~repro.op2.map.OpMap`
keyed by its version counter), so chunks whose target sets are disjoint get
no edge even on shuffled or renumbered meshes.  A dat accessed through
several map slots with the same access mode contributes one *union*
interval set per chunk rather than one summary per slot -- same edges,
fewer overlapping records to test against.  Every union and overlap test
goes through an :class:`~repro.op2.intervals.IntervalAlgebra` (the owning
session's, shared with the sharded engine's halo directory), so a
time-stepping chain -- which repeats the same tests on the same summary
objects every step -- answers them from a dictionary after the first step.
``interval_sets=False``
falls back to the single conservative ``[min, max]`` hull per chunk -- the
original representation, kept as the comparison baseline for the
renumbered-mesh benchmarks; its edges are always a superset of the
interval-set edges.

Overlapping accesses ⇒ dependency, with one important exception:
**increment-on-increment never orders** -- OP_INC accumulations commute, so
two chunks that both increment a dat (whether they belong to the same loop
or to consecutive accumulation loops such as ``res_calc`` followed by
``bres_calc``) may run concurrently in the model.  A later *reader* of the
dat still depends on every chunk of the accumulation layer.  Real engines
ask for ``strict_commit_order``, which orders increments of consecutive
loops after all (see the class).

An *owner chunk* (``owner=(parts, k)``) is summarised from the loop's
:class:`~repro.op2.map.OwnerPlan`: its rows for what it reads, the targets
it owns for what it increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.op2.access import AccessMode
from repro.op2.args import OpArg
from repro.op2.intervals import IntervalAlgebra, IntervalSet
from repro.op2.par_loop import ParLoop

__all__ = ["AccessRecord", "DependencyTracker"]


@dataclass(frozen=True)
class AccessRecord:
    """A task's access to one dat, summarised as an element interval set."""

    task_id: int
    intervals: IntervalSet
    #: program-order sequence of the loop the chunk belongs to (-1 when unknown)
    loop_seq: int = -1

    @property
    def lo(self) -> int:
        """Smallest element touched."""
        return self.intervals.lo

    @property
    def hi(self) -> int:
        """Largest element touched."""
        return self.intervals.hi


@dataclass
class _DatHistory:
    """Per-dat record of the last writer layer and readers since then.

    ``prev_writers`` / ``prev_readers`` hold the layer the current one
    displaced.  They are what chunks of the *current* layer are ordered
    against: a chunk of a new writing loop starts before its fellow chunks
    have covered the dat, so its true producers (RAW/WAW) and the readers it
    must not overtake (WAR) live in the displaced layer.  Without them the
    dependency DAG permits reorderings that a real threaded execution turns
    into wrong answers -- eager execution masked this.
    """

    #: sequence number of the loop that started the current writer layer
    writer_loop_seq: int = -1
    #: True while the current writer layer is an OP_INC accumulation
    accumulating: bool = False
    writers: list[AccessRecord] = field(default_factory=list)
    readers: list[AccessRecord] = field(default_factory=list)
    prev_writers: list[AccessRecord] = field(default_factory=list)
    prev_readers: list[AccessRecord] = field(default_factory=list)


class DependencyTracker:
    """Tracks chunk-level data dependencies across loops.

    Parameters
    ----------
    chunk_granularity:
        When ``True`` (the paper's design) dependencies are interval-overlap
        based; when ``False`` a consumer chunk depends on *every* recorded
        writer/reader chunk of the dats it touches (loop-granular edges --
        the ablation baseline).
    interval_sets:
        When ``True`` (default) indirect chunk accesses are summarised
        exactly as disjoint runs; when ``False`` each chunk keeps only its
        conservative ``[min, max]`` hull, reproducing the original tracker
        for comparison on renumbered meshes.
    strict_commit_order:
        Extra edges engines that really defer need, because every chunk
        commits its own effects as it finishes: (a) increment chunks depend
        on overlapping increment chunks of *earlier loops* in the same
        accumulation layer (chunks of one loop own disjoint targets), keeping
        floating-point accumulation in program order; (b) pure readers
        depend on overlapping writers of the displaced layer, covering
        ranges the current layer has not (yet) written; (c) overlapping
        WRITE chunks of one loop keep chunk order (WAW).  The simulator
        leaves them off: increments commute mathematically, and successive
        writer layers cover the dats they rewrite, so the modelled makespans
        keep the paper's relaxed DAG.
    algebra:
        The memoised interval algebra every union and overlap test goes
        through -- the owning session's when built by the pipeline; a
        private one when omitted.
    """

    def __init__(
        self,
        *,
        chunk_granularity: bool = True,
        interval_sets: bool = True,
        strict_commit_order: bool = False,
        algebra: Optional[IntervalAlgebra] = None,
    ) -> None:
        self.chunk_granularity = chunk_granularity
        self.interval_sets = interval_sets
        self.strict_commit_order = strict_commit_order
        self.algebra = algebra if algebra is not None else IntervalAlgebra()
        self._history: dict[int, _DatHistory] = {}

    def _history_for(self, dat_id: int) -> _DatHistory:
        return self._history.setdefault(dat_id, _DatHistory())

    def _summary_for_arg(
        self, loop: ParLoop, arg: OpArg, start: int, stop: int, owner: Optional[tuple[int, int]]
    ) -> Optional[IntervalSet]:
        """:meth:`ParLoop.chunk_summary`, collapsed to its hull in
        ``[min, max]`` mode -- for an owner chunk's increment, the hull of
        every target its rows reach: a hull cannot say which of them it owns.
        """
        summary = loop.chunk_summary(
            arg, start, stop, owner, self.algebra, reach=not self.interval_sets
        )
        if summary is None or self.interval_sets:
            return summary
        # interned by its endpoints: ``summary.hull()`` would be a new object
        # per call, and the memo is keyed on operand identity
        return self.algebra.from_range(summary.lo, summary.hi)

    @property
    def mode(self) -> str:
        """Human-readable dependency-edge mode (used in backend reports)."""
        if not self.chunk_granularity:
            return "loop-granular"
        return "interval-set" if self.interval_sets else "minmax"

    def access_groups(
        self, loop: ParLoop, start: int, stop: int, owner: Optional[tuple[int, int]] = None
    ) -> list[tuple[int, AccessMode, IntervalSet]]:
        """Public view of a chunk's merged per-``(dat, access)`` summaries.

        The pipeline attaches these to its ``analyze``-stage artifact so
        observers (prefetchers, tests) can see exactly the interval sets the
        dependency edges were derived from.  The unions are memoised by the
        algebra, so asking again for a chunk already analysed costs one
        dictionary hit per argument.
        """
        return self._access_groups(loop, start, stop, owner)

    def _access_groups(
        self, loop: ParLoop, start: int, stop: int, owner: Optional[tuple[int, int]] = None
    ) -> list[tuple[int, AccessMode, IntervalSet]]:
        """The chunk's accesses, merged per ``(dat, access mode)``.

        A dat accessed through several map slots with the same access mode
        (e.g. ``res_calc`` incrementing ``res`` via both edge endpoints)
        contributes *one* union :class:`IntervalSet` instead of one summary
        per slot: the edge tests below see the same overlaps (a union
        intersects a record iff some slot summary does) but run once per dat
        rather than once per slot, and each chunk leaves one access record
        per dat behind instead of several overlapping ones.  Groups keep the
        first-appearance order of the underlying arguments.
        """
        groups: dict[tuple[int, AccessMode], IntervalSet] = {}
        order: list[tuple[int, AccessMode]] = []
        for arg in loop.args:
            if arg.is_global:
                continue
            assert arg.dat is not None
            key = (arg.dat.dat_id, arg.access)
            summary = self._summary_for_arg(loop, arg, start, stop, owner)
            if summary is None:
                continue
            merged = groups.get(key)
            if merged is None:
                groups[key] = summary
                order.append(key)
            else:
                groups[key] = self.algebra.union(merged, summary)
        return [(dat_id, access, groups[dat_id, access]) for dat_id, access in order]

    # -- querying dependencies ----------------------------------------------------
    def chunk_dependencies(
        self,
        loop: ParLoop,
        start: int,
        stop: int,
        *,
        loop_seq: int = -1,
        owner: Optional[tuple[int, int]] = None,
    ) -> list[int]:
        """Task ids a chunk ``[start, stop)`` of ``loop`` must wait for.

        Standard RAW/WAR/WAW handling on access summaries, except that
        increment chunks never depend on the other chunks of the same
        accumulation layer (increments commute).  Every chunk is additionally
        ordered against the overlapping records of the layer its own layer
        displaced (``prev_writers`` / ``prev_readers``): those are the true
        producers of the values it observes and the readers it must not
        overtake while the current layer is still being laid down.
        """
        deps: set[int] = set()
        for dat_id, access, summary in self._access_groups(loop, start, stop, owner):
            history = self._history_for(dat_id)
            same_layer = history.writer_loop_seq == loop_seq and loop_seq >= 0
            if access is AccessMode.INC:
                # An increment joins the accumulation layer: it must wait for
                # whatever *non-increment* writer produced the current values
                # (and for readers, WAR), but not for fellow increments.
                if not history.accumulating:
                    deps.update(self._matching(history.writers, summary))
                else:
                    if self.strict_commit_order:
                        # Threaded determinism: order this chunk after increment
                        # chunks contributed by *earlier* loops of the layer.
                        deps.update(
                            record.task_id
                            for record in self._matching_records(history.writers, summary)
                            if record.loop_seq != loop_seq
                        )
                    # Joining an existing accumulation layer: the non-INC
                    # writer it displaced is this chunk's true producer.
                    deps.update(self._matching(history.prev_writers, summary))
                    deps.update(self._matching(history.prev_readers, summary))
                deps.update(self._matching(history.readers, summary))
                continue
            if access.reads or access.writes:
                if self.strict_commit_order or not (
                    same_layer and access.writes and not access.reads
                ):
                    # (strict: a WRITE chunk also follows the overlapping
                    # WRITE chunks of its own loop -- WAW in chunk order)
                    deps.update(self._matching(history.writers, summary))
                if self.strict_commit_order and not access.writes:
                    # Pure readers also stay ordered against the displaced
                    # layer: the current layer may not (yet) cover this range,
                    # in which case the true producer is a prev-layer writer.
                    deps.update(self._matching(history.prev_writers, summary))
            if access.writes:
                deps.update(self._matching(history.readers, summary))
                if same_layer:
                    # Later chunks of the loop that displaced the layer: their
                    # producers (RAW/WAW) and the readers they must not
                    # overtake (WAR) live in the displaced layer, which
                    # ``history.writers``/``readers`` no longer contain.
                    deps.update(self._matching(history.prev_writers, summary))
                    deps.update(self._matching(history.prev_readers, summary))
        return sorted(deps)

    def _matching(
        self, records: Sequence[AccessRecord], summary: IntervalSet
    ) -> list[int]:
        return [record.task_id for record in self._matching_records(records, summary)]

    def _matching_records(
        self, records: Sequence[AccessRecord], summary: IntervalSet
    ) -> list[AccessRecord]:
        if self.chunk_granularity:
            overlaps = self.algebra.overlaps
            return [record for record in records if overlaps(record.intervals, summary)]
        return list(records)

    # -- recording a scheduled chunk -------------------------------------------------
    def record_chunk(
        self,
        loop: ParLoop,
        loop_seq: int,
        start: int,
        stop: int,
        task_id: int,
        owner: Optional[tuple[int, int]] = None,
    ) -> None:
        """Record the accesses of a chunk just added to the task graph.

        ``loop_seq`` is the loop's position in program order.  The first
        chunk of a new *non-increment* writing loop starts a fresh writer
        layer for each dat it writes; the displaced layer is retained as
        ``prev_writers`` / ``prev_readers`` so later chunks of the new layer
        stay ordered against it (older layers' constraints survive
        transitively through already-recorded edges).  Increment chunks
        extend the current accumulation layer instead.

        Must be called *after* :meth:`chunk_dependencies` for the same chunk.
        """
        for dat_id, access, summary in self._access_groups(loop, start, stop, owner):
            history = self._history_for(dat_id)
            record = AccessRecord(task_id=task_id, intervals=summary, loop_seq=loop_seq)
            if access is AccessMode.INC:
                if not history.accumulating:
                    # Begin a new accumulation layer on top of whatever was
                    # there before.
                    history.prev_writers = history.writers
                    history.prev_readers = history.readers
                    history.writers = []
                    history.readers = []
                    history.accumulating = True
                history.writer_loop_seq = loop_seq
                history.writers.append(record)
            elif access.writes:
                if history.writer_loop_seq != loop_seq or history.accumulating:
                    history.prev_writers = history.writers
                    history.prev_readers = history.readers
                    history.writers = []
                    history.readers = []
                    history.accumulating = False
                    history.writer_loop_seq = loop_seq
                history.writers.append(record)
            elif access.reads:
                history.readers.append(record)

    # -- statistics ---------------------------------------------------------------------
    def tracked_dats(self) -> int:
        """Number of dats with recorded access history."""
        return len(self._history)

    def writer_records(self, dat_id: int) -> list[AccessRecord]:
        """Current writer layer of a dat (for tests/inspection)."""
        return list(self._history_for(dat_id).writers)

    def reader_records(self, dat_id: int) -> list[AccessRecord]:
        """Reader records since the last writer layer of a dat."""
        return list(self._history_for(dat_id).readers)

    def is_accumulating(self, dat_id: int) -> bool:
        """True while the dat's current writer layer is an OP_INC accumulation."""
        return self._history_for(dat_id).accumulating
