"""``op_map``: connectivity between two sets.

A map of dimension ``dim`` from set *A* to set *B* associates with every
element of *A* exactly ``dim`` elements of *B* (e.g. every edge maps to its 2
end nodes, every cell maps to its 4 corner nodes).  Maps are validated at
declaration time: every target index must lie inside the target set, which is
how OP2 catches malformed meshes early.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Sequence

import numpy as np

from repro.errors import OP2DeclarationError, OP2MappingError
from repro.op2.datapath import occurrence_ranks
from repro.op2.intervals import IntervalSet
from repro.op2.set import OpSet

__all__ = ["OpMap", "op_decl_map"]

_map_ids = itertools.count()

#: cap on cached per-chunk entries (target summaries, scatter schedules) per
#: map (chunk boundaries are stable across time-step iterations, so real
#: workloads stay far below this)
_SUMMARY_CACHE_LIMIT = 16384

_MISSING = object()


class OpMap:
    """A mapping from ``from_set`` to ``to_set`` with ``dim`` targets per element."""

    __slots__ = (
        "map_id",
        "from_set",
        "to_set",
        "dim",
        "values",
        "name",
        "_version",
        "_chunk_summaries",
        "_scatter_ranks",
        "_scatter_ranks_bytes",
        "_scatter_ranks_lock",
    )

    def __init__(
        self,
        from_set: OpSet,
        to_set: OpSet,
        dim: int,
        values: Sequence[int] | np.ndarray,
        name: str = "",
    ) -> None:
        if not isinstance(from_set, OpSet) or not isinstance(to_set, OpSet):
            raise OP2DeclarationError("op_map endpoints must be OpSet instances")
        if dim <= 0:
            raise OP2DeclarationError(f"map dimension must be positive, got {dim}")
        self.map_id = next(_map_ids)
        self.from_set = from_set
        self.to_set = to_set
        self.dim = dim
        self.name = name or f"map_{self.map_id}"
        self._version = 0
        self._reset_caches()
        self.values = self._validated(values)

    def _reset_caches(self) -> None:
        """(Re)create every per-map cache; the one place they are declared.

        Used by ``__init__``, :meth:`set_values` and the worker-side rebuild
        in :mod:`repro.op2.shm`, so a new cache cannot be forgotten by any.
        """
        #: (version, slot, start, stop) -> targets touched by that chunk-slot
        self._chunk_summaries: dict[tuple[int, int, int, int], IntervalSet] = {}
        #: (version, slot, start, stop) -> occurrence ranks, ``None`` = no duplicates
        self._scatter_ranks: dict[tuple[int, int, int, int], Optional[np.ndarray]] = {}
        self._scatter_ranks_bytes = 0
        self._scatter_ranks_lock = threading.Lock()

    def _validated(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        array = np.asarray(values, dtype=np.int64)
        expected = self.from_set.size * self.dim
        if array.size != expected:
            raise OP2MappingError(
                f"map {self.name!r}: expected {expected} entries "
                f"({self.from_set.size} elements x dim {self.dim}), got {array.size}"
            )
        array = array.reshape(self.from_set.size, self.dim)
        if self.from_set.size and self.to_set.size == 0:
            raise OP2MappingError(
                f"map {self.name!r}: target set {self.to_set.name!r} is empty"
            )
        if array.size:
            lo, hi = int(array.min()), int(array.max())
            if lo < 0 or hi >= self.to_set.size:
                raise OP2MappingError(
                    f"map {self.name!r}: indices [{lo}, {hi}] fall outside target set "
                    f"{self.to_set.name!r} of size {self.to_set.size}"
                )
        array = array.copy()
        array.setflags(write=False)
        return array

    # -- versioning (mirrors OpDat.bump_version; folded into plan cache keys) -----
    @property
    def version(self) -> int:
        """Monotonic counter, bumped whenever the map's values are replaced."""
        return self._version

    def bump_version(self) -> int:
        """Record that the map's connectivity has changed."""
        self._version += 1
        return self._version

    def chunk_summary(self, map_index: int, start: int, stop: int) -> IntervalSet:
        """Interval set of target elements touched by slot ``map_index`` of
        iterations ``[start, stop)``.

        Cached keyed on the version counter, so the scan over ``values`` is
        paid once per (chunk, slot) per connectivity -- time-stepping loops
        re-ask for the same chunks every iteration.
        """
        if not 0 <= map_index < self.dim:
            raise OP2MappingError(
                f"map {self.name!r}: slot {map_index} outside [0, {self.dim})"
            )
        if not 0 <= start < stop <= self.from_set.size:
            raise OP2MappingError(
                f"map {self.name!r}: chunk [{start}, {stop}) outside "
                f"[0, {self.from_set.size})"
            )
        key = (self._version, map_index, start, stop)
        summary = self._chunk_summaries.get(key)
        if summary is None:
            summary = IntervalSet.from_targets(self.values[start:stop, map_index])
            if len(self._chunk_summaries) >= _SUMMARY_CACHE_LIMIT:
                self._chunk_summaries.clear()
            self._chunk_summaries[key] = summary
        return summary

    def scatter_ranks(self, map_index: int, start: int, stop: int) -> Optional[np.ndarray]:
        """The scatter schedule of slot ``map_index`` over ``[start, stop)``.

        ``None`` when the chunk-slot hits no target twice; otherwise the
        :func:`~repro.op2.datapath.occurrence_ranks` of its targets (at most
        one byte per row unless a target is hit more than 256 times).  Built
        once per (chunk, slot) per connectivity and dropped with it; the
        stored arrays of one map stay within one byte per map entry -- a
        schedule that would exceed that evicts the others first.
        """
        key = (self._version, map_index, start, stop)
        ranks = self._scatter_ranks.get(key, _MISSING)
        if ranks is _MISSING:
            ranks = occurrence_ranks(self.values[start:stop, map_index])
            cost = 0 if ranks is None else ranks.nbytes
            with self._scatter_ranks_lock:  # compute threads share the map
                if key not in self._scatter_ranks:
                    if (
                        self._scatter_ranks_bytes + cost > self.values.size
                        or len(self._scatter_ranks) >= _SUMMARY_CACHE_LIMIT
                    ):
                        self._scatter_ranks.clear()
                        self._scatter_ranks_bytes = 0
                    self._scatter_ranks[key] = ranks
                    self._scatter_ranks_bytes += cost
        return ranks  # type: ignore[return-value]

    def set_values(self, values: Sequence[int] | np.ndarray) -> None:
        """Replace the connectivity (validated); bumps the version so cached
        execution plans, chunk summaries and scatter schedules computed from
        the old connectivity are recomputed.

        Deferred engines gather through the *live* ``values`` array when a
        chunk executes, so replacing it must be ordered after every loop
        already submitted: the innermost active context (this thread) is
        drained first, making mid-run renumbering safe under every engine.
        """
        from repro.op2.context import drain_active_context

        drain_active_context()
        self.values = self._validated(values)
        self._reset_caches()
        self.bump_version()

    def targets(self, element: int) -> np.ndarray:
        """The ``dim`` target indices of ``element`` of the source set."""
        return self.values[element]

    def column(self, index: int) -> np.ndarray:
        """All target indices for map slot ``index`` (one per source element)."""
        if not 0 <= index < self.dim:
            raise OP2MappingError(
                f"map {self.name!r}: slot {index} outside [0, {self.dim})"
            )
        return self.values[:, index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpMap) and other.map_id == self.map_id

    def __hash__(self) -> int:
        return hash(("OpMap", self.map_id))

    def __repr__(self) -> str:
        return (
            f"OpMap(name={self.name!r}, {self.from_set.name}->{self.to_set.name}, "
            f"dim={self.dim})"
        )


def op_decl_map(
    from_set: OpSet,
    to_set: OpSet,
    dim: int,
    values: Sequence[int] | np.ndarray,
    name: str = "",
) -> OpMap:
    """Declare a map (C API: ``op_decl_map``)."""
    return OpMap(from_set, to_set, dim, values, name)
