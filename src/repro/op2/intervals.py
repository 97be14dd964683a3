"""Interval sets: exact summaries of a chunk's indirect element accesses.

The dependency tracker (:mod:`repro.core.interleaving`) needs to know which
elements of a dat a chunk of iterations touches through a map.  A single
conservative ``[min, max]`` interval is exact for contiguous numberings but
collapses to "almost everything" on shuffled or renumbered meshes, producing
false dependency edges that serialize chunks the paper's design would
overlap.  :class:`IntervalSet` stores the accessed elements as *sorted
disjoint inclusive runs* instead, so disjointness survives arbitrary
renumbering.

Every operation is whole-array NumPy; none loops over runs in Python:

* ``union`` is a stable sort plus a running-maximum scan,
* ``intersection`` is a ``searchsorted`` range expansion -- for each run of
  one set, the contiguous range of the other set's runs it meets, expanded
  to pairs with ``repeat``/``arange`` and clipped with ``maximum``/``minimum``
  -- and ``difference`` is the same kernel applied to the complement,
* ``overlaps`` is a hull test, then a coarse **block bitmap** (one bit per
  ``2**BLOCK_SHIFT`` consecutive elements, held in an arbitrary-precision
  int, computed on first use from a difference array) that rejects most
  disjoint pairs with a single ``&``, then one ``searchsorted``.

An :class:`IntervalSet` is immutable: its arrays are read-only and its
element count, content hash and bitmap are computed at most once.  That is
what lets :class:`IntervalAlgebra` *intern* results by value and *memoise*
operations on operand identity, so a time-stepping loop chain -- which asks
the same set-algebra questions every step -- pays for each answer once.
The methods of :class:`IntervalSet` stay the pure reference the memo is
tested against.

:meth:`IntervalSet.hull` collapses a set back to its ``[min, max]`` envelope
-- the representation the tracker's ablation mode and the renumbered-mesh
benchmarks compare against.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import OP2Error

__all__ = ["IntervalSet", "IntervalAlgebra", "BLOCK_SHIFT"]

#: granularity of the coarse bitmap: one bit per 64 elements
BLOCK_SHIFT = 6


def _expand(first: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenation of the ranges ``[first[i], first[i] + counts[i])``."""
    offsets = np.cumsum(counts) - counts
    return np.arange(total) + np.repeat(first - offsets, counts)


def _intersect_runs(
    a_starts: np.ndarray, a_stops: np.ndarray, b_starts: np.ndarray, b_stops: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Runs covered by both sorted disjoint run lists (``None`` when empty)."""
    if len(b_starts) < len(a_starts):  # fewer searchsorted queries
        a_starts, a_stops, b_starts, b_stops = b_starts, b_stops, a_starts, a_stops
    # Run i of ``a`` meets exactly the runs [first[i], last[i]) of ``b``: those
    # ending at or after its start and beginning at or before its stop.
    first = np.searchsorted(b_stops, a_starts, side="left")
    counts = np.searchsorted(b_starts, a_stops, side="right") - first
    total = int(counts.sum())
    if total == 0:
        return None
    a_index = np.repeat(np.arange(len(a_starts)), counts)
    b_index = _expand(first, counts, total)
    return (
        np.maximum(a_starts[a_index], b_starts[b_index]),
        np.minimum(a_stops[a_index], b_stops[b_index]),
    )


class IntervalSet:
    """Sorted disjoint inclusive ``[lo, hi]`` runs over set-element indices.

    Immutable: the constructor takes ownership of ``starts``/``stops`` and
    marks them read-only.
    """

    __slots__ = ("starts", "stops", "_count", "_hash", "_block_mask")

    def __init__(self, starts: np.ndarray, stops: np.ndarray) -> None:
        # One dtype, so equal sets have equal bytes (the content hash).
        self.starts = np.asarray(starts, dtype=np.int64)
        self.stops = np.asarray(stops, dtype=np.int64)
        self.starts.setflags(write=False)
        self.stops.setflags(write=False)
        self._count: Optional[int] = None
        self._hash: Optional[int] = None
        self._block_mask: Optional[int] = None

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_targets(
        cls, targets: Union[np.ndarray, Sequence[int], Iterable[int]]
    ) -> "IntervalSet":
        """Build the exact run decomposition of an array of target indices."""
        unique = np.unique(np.asarray(targets, dtype=np.int64))
        if unique.size == 0:
            raise OP2Error("an IntervalSet needs at least one target element")
        breaks = np.nonzero(np.diff(unique) > 1)[0]
        starts = unique[np.concatenate(([0], breaks + 1))]
        stops = unique[np.concatenate((breaks, [unique.size - 1]))]
        return cls(starts, stops)

    @classmethod
    def from_range(cls, lo: int, hi: int) -> "IntervalSet":
        """A single inclusive run ``[lo, hi]``."""
        if hi < lo or lo < 0:
            raise OP2Error(f"invalid interval [{lo}, {hi}]")
        return cls(np.asarray([lo], dtype=np.int64), np.asarray([hi], dtype=np.int64))

    # -- views ---------------------------------------------------------------------
    @property
    def lo(self) -> int:
        """Smallest element covered."""
        return int(self.starts[0])

    @property
    def hi(self) -> int:
        """Largest element covered."""
        return int(self.stops[-1])

    @property
    def num_runs(self) -> int:
        """Number of disjoint runs."""
        return len(self.starts)

    @property
    def count(self) -> int:
        """Total number of elements covered."""
        if self._count is None:
            self._count = int(np.sum(self.stops - self.starts + 1))
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes held by the run arrays."""
        return self.starts.nbytes + self.stops.nbytes

    @property
    def block_mask(self) -> int:
        """Bitmap with one bit set per coarse block any run intersects."""
        if self._block_mask is None:
            lo = self.starts >> BLOCK_SHIFT
            hi = self.stops >> BLOCK_SHIFT
            # Difference array over blocks: +1 where a run enters, -1 past
            # where it leaves; a positive running sum marks a covered block.
            size = int(hi[-1]) + 2
            delta = np.bincount(lo, minlength=size) - np.bincount(hi + 1, minlength=size)
            covered = np.cumsum(delta[:-1]) > 0
            self._block_mask = int.from_bytes(
                np.packbits(covered, bitorder="little").tobytes(), "little"
            )
        return self._block_mask

    def hull(self) -> "IntervalSet":
        """The single ``[min, max]`` interval spanning this set."""
        if self.num_runs == 1:
            return self
        return IntervalSet.from_range(self.lo, self.hi)

    # -- set algebra ---------------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The set covering every element of ``self`` and ``other``.

        Adjacent and overlapping runs are coalesced, so the result is again a
        canonical sorted-disjoint-run decomposition.  Used by the dependency
        tracker to merge the per-slot summaries of a dat accessed through
        several map slots into one record.
        """
        starts = np.concatenate([self.starts, other.starts])
        stops = np.concatenate([self.stops, other.stops])
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        stops = stops[order]
        # A run begins wherever the gap to everything before it is >= 2
        # (touching runs [a, b] and [b + 1, c] coalesce into [a, c]).
        reach = np.maximum.accumulate(stops)
        new_run = np.empty(len(starts), dtype=bool)
        new_run[0] = True
        new_run[1:] = starts[1:] > reach[:-1] + 1
        first = np.nonzero(new_run)[0]
        last = np.concatenate((first[1:] - 1, [len(starts) - 1]))
        return IntervalSet(starts[first], reach[last])

    def intersection(self, other: "IntervalSet") -> Optional["IntervalSet"]:
        """Elements covered by both sets, or ``None`` when they are disjoint.

        Returning ``None`` for the empty result keeps the invariant that every
        live :class:`IntervalSet` covers at least one element (callers treat
        ``None`` as the empty set), matching :meth:`from_targets`.
        """
        if not self._may_overlap(other):
            return None
        runs = _intersect_runs(self.starts, self.stops, other.starts, other.stops)
        return None if runs is None else IntervalSet(*runs)

    def difference(self, other: "IntervalSet") -> Optional["IntervalSet"]:
        """Elements of ``self`` not covered by ``other`` (``None`` when empty)."""
        if not self._may_overlap(other):
            return self
        # self - other == self & complement(other): the gaps of ``other``,
        # extended to cover everything below and above it, are themselves a
        # sorted disjoint run list (only the first gap can be empty).
        gap_starts = np.concatenate(([0], other.stops + 1))
        gap_stops = np.concatenate((other.starts - 1, [max(self.hi, other.hi) + 1]))
        if gap_stops[0] < 0:
            gap_starts, gap_stops = gap_starts[1:], gap_stops[1:]
        runs = _intersect_runs(self.starts, self.stops, gap_starts, gap_stops)
        return None if runs is None else IntervalSet(*runs)

    # -- overlap tests -------------------------------------------------------------
    def _may_overlap(self, other: "IntervalSet") -> bool:
        """False only when the hulls or the coarse bitmaps prove disjointness."""
        return bool(
            self.stops[-1] >= other.starts[0]
            and other.stops[-1] >= self.starts[0]
            and self.block_mask & other.block_mask
        )

    def overlaps(self, other: "IntervalSet") -> bool:
        """True if the two sets share at least one element."""
        if not self._may_overlap(other):
            return False
        # For each run of ``other``, the candidate partner in ``self`` is the
        # run with the largest start <= other's stop; runs are disjoint and
        # sorted, so its stop is also the largest among all candidates.
        idx = np.searchsorted(self.starts, other.stops, side="right")
        has_candidate = idx > 0
        if not np.any(has_candidate):
            return False
        return bool(
            np.any(self.stops[idx[has_candidate] - 1] >= other.starts[has_candidate])
        )

    def overlaps_range(self, lo: int, hi: int) -> bool:
        """True if the inclusive range ``[lo, hi]`` intersects this set."""
        idx = int(np.searchsorted(self.starts, hi, side="right"))
        return idx > 0 and int(self.stops[idx - 1]) >= lo

    def contains(self, element: int) -> bool:
        """True if ``element`` is covered by some run."""
        return self.overlaps_range(element, element)

    def isdisjoint(self, other: "IntervalSet") -> bool:
        """True if the two sets share no element."""
        return not self.overlaps(other)

    # -- equality / debugging -------------------------------------------------------
    def runs(self) -> list[tuple[int, int]]:
        """The runs as a list of inclusive ``(lo, hi)`` tuples."""
        return list(zip(self.starts.tolist(), self.stops.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalSet)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.stops, other.stops)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.starts.tobytes(), self.stops.tobytes()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.runs()[:4])
        suffix = ", ..." if self.num_runs > 4 else ""
        return f"IntervalSet({shown}{suffix}; runs={self.num_runs})"


class IntervalAlgebra:
    """Hash-consed, memoised :class:`IntervalSet` operations.

    Two tables, both holding strong references:

    * the **intern table** maps a set's *value* to one canonical object, so
      every result this object hands out is ``is``-identical to every earlier
      result with the same runs;
    * the **memo** maps ``(operation, id(a), id(b))`` to ``(result, a, b)``.
      Keeping the operands alive inside the entry is what makes the identity
      key sound: an ``id()`` cannot be recycled while its entry exists.

    A time-stepping loop chain is value-periodic (the dependency history
    returns to the same sets every step), interning turns
    that into identity-periodic, and from the second period on every
    operation is one dictionary hit.  Nothing is ever invalidated: sets are
    immutable, so a cached answer stays true; a renumbered map simply yields
    new summary objects, whose operations miss once and whose predecessors
    age out when the table -- at :data:`MAX_ENTRIES` memo entries or
    :data:`MAX_BYTES` of interned runs, both constants -- is cleared
    wholesale.

    The hit path takes no lock.  A miss computes outside the lock and
    publishes under it; two threads missing the same key both compute, and
    the later publication wins -- the results are equal, so either is
    correct.  The hit counter is updated unlocked and may undercount under
    contention; misses, entries and bytes are exact.
    """

    #: memo entries held before the tables are cleared.  An Airfoil chain
    #: settles at ~500 entries on 4 workers and ~5000 on 16; an entry about
    #: tiny sets costs ~600 bytes, so a session serving one-off requests
    #: (new maps every time, no hits) plateaus at ~5 MB.
    MAX_ENTRIES = 1 << 13
    #: bytes of interned run arrays held before the tables are cleared
    MAX_BYTES = 256 << 20

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memo: dict[tuple, tuple] = {}
        self._interned: dict[IntervalSet, IntervalSet] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0

    # -- operations ------------------------------------------------------------------
    def union(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoised :meth:`IntervalSet.union`."""
        return self._apply(IntervalSet.union, a, b)

    def intersection(self, a: IntervalSet, b: IntervalSet) -> Optional[IntervalSet]:
        """Memoised :meth:`IntervalSet.intersection`."""
        return self._apply(IntervalSet.intersection, a, b)

    def difference(self, a: IntervalSet, b: IntervalSet) -> Optional[IntervalSet]:
        """Memoised :meth:`IntervalSet.difference`."""
        return self._apply(IntervalSet.difference, a, b)

    def overlaps(self, a: IntervalSet, b: IntervalSet) -> bool:
        """Memoised :meth:`IntervalSet.overlaps`."""
        return self._apply(IntervalSet.overlaps, a, b)

    def from_range(self, lo: int, hi: int) -> IntervalSet:
        """The interned single run ``[lo, hi]``."""
        key = ("range", lo, hi)
        entry = self._memo.get(key)
        if entry is not None:
            self._hits += 1
            return entry[0]
        return self._publish(key, IntervalSet.from_range(lo, hi))

    def _apply(self, op: Callable[..., Any], a: IntervalSet, b: IntervalSet) -> Any:
        key = (op, id(a), id(b))
        entry = self._memo.get(key)
        if entry is not None:
            self._hits += 1
            return entry[0]
        return self._publish(key, op(a, b), a, b)

    def _publish(self, key: tuple, result: Any, *operands: IntervalSet) -> Any:
        with self._lock:
            self._misses += 1
            if len(self._memo) >= self.MAX_ENTRIES or self._bytes >= self.MAX_BYTES:
                self._drop()
            if isinstance(result, IntervalSet):
                canonical = self._interned.get(result)
                if canonical is None:
                    self._interned[result] = canonical = result
                    self._bytes += result.nbytes
                result = canonical
            self._memo[key] = (result, *operands)
        return result

    def _drop(self) -> None:
        # Fresh dicts, not .clear(): a lock-free reader keeps a consistent
        # (if stale) table under its feet.
        self._memo = {}
        self._interned = {}
        self._bytes = 0

    # -- diagnostics / lifecycle -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        """``hits``/``misses`` since creation; ``entries``/``interned``/``bytes`` now."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._memo),
                "interned": len(self._interned),
                "bytes": self._bytes,
            }

    def clear(self) -> None:
        """Drop every memo entry and interned set (counters survive)."""
        with self._lock:
            self._drop()
