"""Shared-memory storage for ``op_dat`` / ``op_map`` arrays.

The multiprocess execution backend keeps every dat's backing array in a
:mod:`multiprocessing.shared_memory` segment so worker processes gather and
scatter *in place* -- chunk tasks cross the process boundary as a few bytes
of metadata (kernel name, segment names, iteration range), never as pickled
array payloads.

Parent side, :class:`SharedMemoryArena` *adopts* live :class:`~repro.op2.dat.OpDat`
and :class:`~repro.op2.map.OpMap` objects: it allocates a segment, copies the
array in, and swaps the object's array for a view of the segment, so the
application keeps using the same ``OpDat`` objects unchanged.  Worker side,
:func:`attach_dat` / :func:`attach_map` rebuild equivalent objects from the
declaration specs, viewing the same physical memory by segment name.
:meth:`SharedMemoryArena.release` reverses the adoption -- data is copied
back into private arrays and every segment is unlinked -- so dats outlive the
worker pool exactly as they would a threaded run.
"""

from __future__ import annotations

import secrets
from typing import Any, Optional, TYPE_CHECKING

import numpy as np
from multiprocessing import shared_memory

from repro.errors import OP2BackendError
from repro.op2.dat import OpDat
from repro.op2.map import OpMap
from repro.op2.set import OpSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.session import Session

__all__ = [
    "SharedMemoryArena",
    "attach_segment",
    "attach_dat",
    "attach_map",
    "detach_all",
]


def _new_segment(nbytes: int, prefix: str) -> shared_memory.SharedMemory:
    """Allocate a fresh segment with a collision-resistant name."""
    name = f"{prefix}-{secrets.token_hex(6)}"
    # Zero-size arrays (empty sets) still need a valid segment to attach to.
    return shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))


class SharedMemoryArena:
    """Parent-side owner of the shared-memory segments backing a run.

    One arena belongs to one worker-pool lifetime: segments are created as
    loops first touch each dat/map, and :meth:`release` tears all of them
    down after the pool has been stopped.
    """

    def __init__(
        self, *, name_prefix: str = "op2", session: Optional["Session"] = None
    ) -> None:
        self._prefix = name_prefix
        self._segments: list[shared_memory.SharedMemory] = []
        #: adopted objects by id (strong refs: their views must not outlive
        #: us) together with the adopted view -- when the object's backing
        #: array is rebound (e.g. ``OpMap.set_values``), the identity check
        #: triggers re-adoption into a fresh segment
        self._dats: dict[int, tuple[OpDat, np.ndarray]] = {}
        self._maps: dict[int, tuple[OpMap, np.ndarray]] = {}
        #: bumped on every (re-)adoption; folded into worker loop signatures
        #: so loops re-register against the replacement segment
        self._epochs: dict[tuple[str, int], int] = {}
        self._released = False
        # Register with the owning session so Session.close() can release
        # any segments a crashed run left behind.
        if session is not None:
            session.track_arena(self)

    # -- adoption ---------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """Number of live segments the arena owns."""
        return len(self._segments)

    def _adopt_array(self, array: np.ndarray, kind: str) -> tuple[str, np.ndarray]:
        segment = _new_segment(array.nbytes, f"{self._prefix}-{kind}")
        view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._segments.append(segment)
        return segment.name, view

    @staticmethod
    def _set_spec(opset: OpSet) -> dict[str, Any]:
        return {"set_id": opset.set_id, "size": opset.size, "name": opset.name}

    def adopt_dat(self, dat: OpDat) -> Optional[dict[str, Any]]:
        """Move ``dat``'s array into shared memory; returns the declaration
        spec for workers, or ``None`` when the adopted view is still current.

        A dat whose ``data`` was rebound since adoption (the array object
        changed, not merely its contents) is re-adopted into a fresh segment
        so workers never compute on the stale one.
        """
        if self._released:
            raise OP2BackendError("shared-memory arena already released")
        record = self._dats.get(dat.dat_id)
        if record is not None and dat.data is record[1]:
            return None
        segment_name, view = self._adopt_array(dat.data, "dat")
        dat.data = view
        key = ("dat", dat.dat_id)
        self._epochs[key] = self._epochs.get(key, -1) + 1
        spec = {
            "kind": "dat",
            "dat_id": dat.dat_id,
            "segment": segment_name,
            "shape": dat.data.shape,
            "dtype": dat.dtype.str,
            "dim": dat.dim,
            "name": dat.name,
            "version": dat.version,
            "set": self._set_spec(dat.dataset),
        }
        self._dats[dat.dat_id] = (dat, view)
        return spec

    def adopt_map(self, opmap: OpMap) -> Optional[dict[str, Any]]:
        """Move ``opmap``'s connectivity into shared memory (read-only view).

        ``set_values`` rebinds the map's array (and bumps its version); the
        identity check catches that and re-adopts into a fresh segment, so a
        renumbered map is re-declared to workers instead of leaving them on
        the stale connectivity.
        """
        if self._released:
            raise OP2BackendError("shared-memory arena already released")
        record = self._maps.get(opmap.map_id)
        if record is not None and opmap.values is record[1]:
            return None
        segment_name, view = self._adopt_array(opmap.values, "map")
        view.setflags(write=False)
        opmap.values = view
        key = ("map", opmap.map_id)
        self._epochs[key] = self._epochs.get(key, -1) + 1
        spec = {
            "kind": "map",
            "map_id": opmap.map_id,
            "segment": segment_name,
            "shape": opmap.values.shape,
            "dtype": opmap.values.dtype.str,
            "dim": opmap.dim,
            "name": opmap.name,
            "version": opmap.version,
            "from_set": self._set_spec(opmap.from_set),
            "to_set": self._set_spec(opmap.to_set),
        }
        self._maps[opmap.map_id] = (opmap, view)
        return spec

    def epoch(self, kind: str, object_id: int) -> int:
        """Adoption epoch of a dat/map (-1 if never adopted); bumps on
        re-adoption, letting loop signatures track segment replacements."""
        return self._epochs.get((kind, object_id), -1)

    def dat_ids(self) -> list[int]:
        """Ids of every dat the arena has hosted (survives release)."""
        return sorted(object_id for kind, object_id in self._epochs if kind == "dat")

    # -- teardown ---------------------------------------------------------------
    def release(self) -> None:
        """Copy adopted arrays back to private memory and unlink every segment.

        After release the adopted dats/maps are ordinary in-memory objects
        again (the application keeps using them as if the run had been
        threaded), and the segment names stop resolving system-wide.
        """
        if self._released:
            return
        self._released = True
        for dat, _view in self._dats.values():
            dat.data = np.array(dat.data)
        for opmap, _view in self._maps.values():
            values = np.array(opmap.values)
            values.setflags(write=False)
            opmap.values = values
        # Drop the recorded views (stale ones included) so close() succeeds.
        self._dats.clear()
        self._maps.clear()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # a stray view still references the buffer
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - defensive
                pass
        self._segments.clear()


# ---------------------------------------------------------------------------
# Worker side: attach by segment name
# ---------------------------------------------------------------------------
def attach_segment(
    spec: dict[str, Any],
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a declared segment and view it as the declared array.

    Attaching registers the segment name with the resource tracker a second
    time; that is deliberate and harmless: CPython hands every child (fork
    *and* spawn alike) the parent's tracker fd, registrations dedupe in the
    tracker's cache, and the parent's ``unlink`` unregisters the name once.
    Workers must NOT unregister themselves -- doing so would strip the
    parent's registration out from under its live segment.
    """
    segment = shared_memory.SharedMemory(name=spec["segment"])
    view: np.ndarray = np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
    )
    return segment, view


def _attach_set(spec: dict[str, Any], sets: dict[int, OpSet]) -> OpSet:
    opset = sets.get(spec["set_id"])
    if opset is None:
        opset = OpSet(spec["size"], spec["name"])
        sets[spec["set_id"]] = opset
    return opset


def attach_dat(
    spec: dict[str, Any],
    sets: dict[int, OpSet],
    segments: list[shared_memory.SharedMemory],
) -> OpDat:
    """Rebuild an :class:`OpDat` over the parent's shared segment.

    Construction bypasses ``OpDat.__init__`` (which would allocate and copy a
    private array) -- the parent already validated the declaration; the worker
    only needs an object of the right shape pointing at shared storage.
    """
    segment, view = attach_segment(spec)
    segments.append(segment)
    dat = object.__new__(OpDat)
    dat.dat_id = spec["dat_id"]
    dat.dataset = _attach_set(spec["set"], sets)
    dat.dim = spec["dim"]
    dat.dtype = np.dtype(spec["dtype"])
    dat.data = view
    dat.name = spec["name"]
    # Thread the parent's dat version through so worker-side signature and
    # cache keys match the parent's across address spaces.
    dat._version = spec["version"]
    dat._args = {}
    return dat


def attach_map(
    spec: dict[str, Any],
    sets: dict[int, OpSet],
    segments: list[shared_memory.SharedMemory],
) -> OpMap:
    """Rebuild an :class:`OpMap` over the parent's shared segment (read-only,
    range-checked like a declaration)."""
    segment, view = attach_segment(spec)
    segments.append(segment)
    view.setflags(write=False)
    opmap = object.__new__(OpMap)
    opmap.map_id = spec["map_id"]
    opmap.from_set = _attach_set(spec["from_set"], sets)
    opmap.to_set = _attach_set(spec["to_set"], sets)
    opmap.dim = spec["dim"]
    opmap.name = spec["name"]
    opmap.check_targets(view)
    opmap.values = view
    opmap._version = spec["version"]
    opmap._reset_caches()
    return opmap


def detach_all(segments: list[shared_memory.SharedMemory]) -> None:
    """Close (never unlink) every attached segment; the parent owns them."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view outlived the worker loop
            pass
    segments.clear()
