"""``op_map``: connectivity between two sets.

A map of dimension ``dim`` from set *A* to set *B* associates with every
element of *A* exactly ``dim`` elements of *B* (e.g. every edge maps to its 2
end nodes, every cell maps to its 4 corner nodes).  Maps are validated at
declaration time: every target index must lie inside the target set, which is
how OP2 catches malformed meshes early.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.errors import OP2DeclarationError, OP2MappingError
from repro.op2.datapath import occurrence_ranks
from repro.op2.intervals import IntervalSet
from repro.op2.set import OpSet

__all__ = ["OpMap", "OwnerPlan", "op_decl_map"]

_map_ids = itertools.count()

#: cap on cached per-chunk entries (target summaries, repeat answers) per
#: map (chunk boundaries are stable across time-step iterations, so real
#: workloads stay far below this)
_SUMMARY_CACHE_LIMIT = 16384


class OpMap:
    """A mapping from ``from_set`` to ``to_set`` with ``dim`` targets per element.

    ``values`` is ``(n, dim)`` int64, read-only, range-checked and
    column-major, so every slot ``values[:, s]`` -- what the data path
    gathers through and scatter-adds by -- is contiguous; every array that
    becomes ``values`` keeps that order.
    """

    __slots__ = (
        "map_id",
        "from_set",
        "to_set",
        "dim",
        "values",
        "name",
        "_version",
        "_chunk_summaries",
        "_repeats",
        "_owner_plans",
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
        #: (version, slot, start, stop) -> whether that chunk-slot repeats a target
        self._repeats: dict[tuple[int, int, int, int], bool] = {}
        #: (version, slots, parts) -> owner-computes partition of the targets
        self._owner_plans: dict[tuple[int, tuple[int, ...], int], OwnerPlan] = {}

    def _validated(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        array = np.asarray(values, dtype=np.int64)
        expected = self.from_set.size * self.dim
        if array.size != expected:
            raise OP2MappingError(
                f"map {self.name!r}: expected {expected} entries "
                f"({self.from_set.size} elements x dim {self.dim}), got {array.size}"
            )
        array = np.array(array.reshape(self.from_set.size, self.dim), order="F")
        self.check_targets(array)
        array.setflags(write=False)
        return array

    def check_targets(self, array: np.ndarray) -> None:
        """Raise unless every value of ``array`` indexes the target set.

        The data path's gathers clip their indices, which would silently
        clamp a bad one: every array that becomes ``values`` --
        declared, replaced by :meth:`set_values`, attached in a worker -- is
        checked here and made read-only.
        """
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

    def repeats(self, map_index: int, start: int, stop: int) -> bool:
        """Whether slot ``map_index`` hits a target twice over ``[start, stop)``:
        the detector of duplicate indirect WRITE/RW targets, for its one
        caller, ``ParLoop._scatter_conflicts`` (increments commit without).

        Answered by :func:`~repro.op2.datapath.occurrence_ranks` once per
        (chunk, slot) per connectivity; only the answer is kept.
        """
        key = (self._version, map_index, start, stop)
        repeated = self._repeats.get(key)
        if repeated is None:
            repeated = occurrence_ranks(self.values[start:stop, map_index]) is not None
            if len(self._repeats) >= _SUMMARY_CACHE_LIMIT:
                self._repeats.clear()
            self._repeats[key] = repeated
        return repeated

    def owner_plan(self, slots: tuple[int, ...], parts: int) -> "OwnerPlan":
        """The owner-computes partition of the targets of ``slots`` into
        ``parts`` ranges (:class:`OwnerPlan`), built once per connectivity.

        Every process builds its own from its view of ``values``: a worker
        needs only ``(slots, parts)`` to find a chunk's rows.
        """
        key = (self._version, slots, parts)
        plan = self._owner_plans.get(key)
        if plan is None:
            plan = OwnerPlan(self, slots, parts)
            if len(self._owner_plans) >= 8:  # a handful of chunk counts per map
                self._owner_plans.clear()
            self._owner_plans[key] = plan
        return plan

    def set_values(self, values: Sequence[int] | np.ndarray) -> None:
        """Replace the connectivity (validated); bumps the version so cached
        execution plans, chunk summaries, repeat answers and owner plans
        computed from the old connectivity are recomputed.

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


class OwnerPlan:
    """Owner-computes partition of a map's targets into ``parts`` ranges.

    Target ``t`` belongs to range ``t * parts // size``, so range ``k`` is
    ``[bounds[k], bounds[k + 1])``.  Chunk ``k`` of a loop incrementing
    through ``slots`` of the map runs every row that touches range ``k``
    and commits only the targets in it:

    * ``rows[k]``: its *home* rows -- those whose target through
      ``slots[0]`` lies in range ``k``, so every row has exactly one home
      chunk -- then its *guest* rows, each part ascending; ``homes[k]``
      counts the home rows.  A row's global-reduction contribution comes
      from its home chunk only.
    * ``commits[k][j]``: for ``slots[j]``, the positions in ``rows[k]``
      whose target lies in range ``k``, ordered by row.  Committing slot by
      slot in this order gives every target the sequence of additions a
      whole-set commit gives it.

    Rows and positions are ``int32`` while the map's entries can be counted
    in it.  The plan keeps no reference to the map's values (an arena may
    replace the array, same content): methods that read them take them.
    """

    __slots__ = (
        "target_set", "slots", "parts", "bounds", "rows", "homes", "commits", "_summaries",
    )

    def __init__(self, opmap: OpMap, slots: tuple[int, ...], parts: int) -> None:
        size = opmap.to_set.size
        values = opmap.values
        dtype = np.int32 if values.size < 2**31 else np.intp
        self.target_set = opmap.to_set
        self.slots = slots
        self.parts = parts
        self.bounds = [-(-k * size // parts) for k in range(parts + 1)]
        owners = [values[:, slot] * parts // max(size, 1) for slot in slots]
        self.rows: list[np.ndarray] = []
        self.homes: list[int] = []
        self.commits: list[list[np.ndarray]] = []
        for part in range(parts):
            home = owners[0] == part
            touch = home.copy()
            for owner in owners[1:]:
                touch |= owner == part
            home_rows = np.flatnonzero(home)
            rows = np.concatenate([home_rows, np.flatnonzero(touch & ~home)]).astype(dtype)
            commits = []
            for owner in owners:
                positions = np.flatnonzero(owner[rows] == part).astype(dtype)
                commits.append(positions[np.argsort(rows[positions], kind="stable")])
            self.rows.append(rows)
            self.homes.append(home_rows.size)
            self.commits.append(commits)
        self._summaries: dict[tuple, Optional[IntervalSet]] = {}

    def targets(self, values: np.ndarray, part: int, j: int) -> np.ndarray:
        """Targets in the map's ``values`` that chunk ``part`` commits
        through ``slots[j]``, in commit order."""
        return values[self.rows[part][self.commits[part][j]], self.slots[j]]

    def summary(
        self, part: int, opmap: Optional[OpMap] = None, slot: int = 0, owned: bool = False
    ) -> Optional[IntervalSet]:
        """What chunk ``part`` touches (``None``: nothing), built once: its
        rows, without ``opmap``; else the targets its rows reach through
        ``slot`` of ``opmap`` -- or, ``owned``, those of them it commits."""
        key = (part, None if opmap is None else (opmap.map_id, opmap.version), slot, owned)
        if key not in self._summaries:
            if opmap is None:
                touched = self.rows[part]
            elif owned:
                touched = self.targets(opmap.values, part, self.slots.index(slot))
            else:
                touched = opmap.values[self.rows[part], slot]
            self._summaries[key] = IntervalSet.from_targets(touched) if touched.size else None
        return self._summaries[key]


def op_decl_map(
    from_set: OpSet,
    to_set: OpSet,
    dim: int,
    values: Sequence[int] | np.ndarray,
    name: str = "",
) -> OpMap:
    """Declare a map (C API: ``op_decl_map``)."""
    return OpMap(from_set, to_set, dim, values, name)
