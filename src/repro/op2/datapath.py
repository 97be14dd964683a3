"""The chunk data path: indirect gathers, private staging, the ordered commit.

Every vectorised block of a loop -- :meth:`ParLoop._prepare_vectorized`, a small
chunk's host stub, a slab -- moves indirect data through this module: a
:class:`BlockStage` (a stub calls its helpers straight-line) hands out the
block's map columns, gathered copies and private scatter buffers, and commits
them argument by argument in row order (:meth:`BlockStage.commit`, or the
closure :meth:`BlockStage.committer` returns).  An owner chunk
(:class:`~repro.op2.map.OwnerPlan`) runs the rows touching the targets it owns
and commits only those, so every target receives a whole-set commit's additions.

Three things are deliberately confined here (``tests/test_chunk_data_path.py``
greps ``src/`` for strays):

* **Sub-blocks.**  The NumPy block form of a kernel is a chain of whole-array
  temporaries, so a chunk's compute phase runs in sub-blocks of
  :data:`COMPUTE_BLOCK_ROWS` rows (:meth:`BlockStage.sub_blocks`): gathered
  READ copies and the kernel's temporaries are block-sized and stay in L2 --
  what the paper's prefetching iterator does for a chunk's working set.  The
  private INC/WRITE/RW buffers and the commit stay whole-chunk, so no dat
  changes by a bit whatever the block size.

* **Gathers** are ``np.take(data, index, axis=0)``, a row-copy loop, instead
  of ``data[index]``, which goes through NumPy's general fancy-indexing
  iterator (2-6x slower at Airfoil sizes); map values are column-major, so
  a slot's index is contiguous.  A sub-block's gathers, its
  ``_idx`` and a generated block form's temporaries live in per-thread
  scratch (:func:`kernel_scratch`), grown on demand to the largest sub-block
  the thread has run, so a steady sub-block allocates nothing.  The gathers
  pass ``mode="clip"``: with ``out=``, ``mode="raise"`` buffers through a
  fresh temporary, and clipping never changes a row because every index is
  an :class:`~repro.op2.map.OpMap` value -- range-checked and read-only at
  declaration, at ``set_values`` and in ``attach_map``.  Whole-chunk staging
  comes from a bounded free-list that the committer refills after its last
  commit.  Below :data:`SCRATCH_MIN_ROWS` rows it is plain allocation.

* **Scatter-adds** ``data[index[i]] += buffer[i]`` *for i in order* -- the
  meaning of ``np.add.at`` -- run as one 1-D ``np.add.at`` per column, in
  column order, with the map column itself as the index.  Each (target,
  column) element receives its increments in row order, which is what the
  2-D ``np.add.at`` does, so the result is bit-identical, not merely close.
  NumPy's 1-D ``add.at`` has a fast path (since 1.25) that the 2-D one
  lacks, and INC staging is column-major, so the index and every buffer
  column it walks are contiguous: on the 2-core reference box (NumPy 2.4)
  a 400x300 ``res_calc`` commit (239 300 x 4 increments) takes ~3.2 ms
  against ~4.4 ms with a strided index and a row-major buffer, and no
  schedule is built or stored for it.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Optional

import numpy as np

from repro.op2.access import AccessMode

if TYPE_CHECKING:  # pragma: no cover - args imports map, which imports this module
    from repro.op2.args import OpArg
    from repro.op2.map import OwnerPlan

__all__ = [
    "COMPUTE_BLOCK_ROWS",
    "SCRATCH_MIN_ROWS",
    "STAGING_POOL_BYTES",
    "BlockStage",
    "fold_reduction",
    "gather_rows",
    "kernel_scratch",
    "neutral",
    "occurrence_ranks",
    "stage_scatter_add",
]

#: Rows per piece of a pooled WRITE/RW gather and of an owner chunk's
#: commit, so the index copy and the picked increments stay block-sized:
#: 8192 rows x 4 doubles (256 KB) stay in L2.
_PIECE_ROWS = 8192

#: Most rows per sub-block of a chunk's compute phase (gather -> block form ->
#: private buffers); a chunk splits into as few equal sub-blocks as hold it.
#: Measured on the 2-core reference box, Airfoil 400x300, ten rotating rounds,
#: median step in ms on serial/threads/processes/sharded (fixed-size blocks):
#: whole chunk 164/112/119/137, 4096 rows 105/179/79/91, 8192 101/121/80/94,
#: 16384 95/85/76/88, 32768 102/86/79/91.  Below 16384 ``threads`` loses to
#: whole chunks: its two workers queue for the GIL between ever shorter ufuncs.
COMPUTE_BLOCK_ROWS = 16384

#: Sub-blocks of at least this many rows use per-thread scratch (gathers,
#: ``_idx``, block-form temporaries; an owner chunk's commit by its rows)
#: and chunks of at least this many rows pooled staging; smaller ones
#: allocate plainly.  Measured on the 2-core reference box, serial Airfoil
#: steps: at 48x32 (a 3 100-row ``res_calc``) plain allocation faults no
#: page and costs no time, at 120x80 (9 520-row sub-blocks) it costs 1 568
#: faults per step and ~1 ms of ~7.  Scratch stays with its thread, so a
#: thread that only runs small blocks -- a service's light requests -- pins
#: none, and scratch lookups stay off the small blocks' path.
SCRATCH_MIN_ROWS = 8192

#: Byte cap of one process's free-list of whole-chunk staging buffers.  It
#: holds a 400x300 Airfoil step's ``res_calc`` INC staging (2 x 7.6 MB) for
#: two chunk layouts at once, e.g. a serial and a ``threads`` chain.
STAGING_POOL_BYTES = 48 << 20


class _Scratch:
    """One thread's reusable buffers: per key, one byte array grown on demand
    to the largest request and carved into the arrays asked for.  The arrays
    handed out last are kept, so the steady sub-blocks' repeated requests are
    one lookup each."""

    def __init__(self) -> None:
        self._flat: dict[Hashable, np.ndarray] = {}
        self._carved: dict[Hashable, dict[tuple, tuple[np.ndarray, ...]]] = {}
        self._iota = np.arange(0)

    def carve(
        self, key: Hashable, *specs: tuple[tuple[int, ...], type]
    ) -> tuple[np.ndarray, ...]:
        """Uninitialised arrays, one per ``(shape, dtype)``, side by side in
        ``key``'s buffer; valid until ``key`` is asked for again."""
        carved = self._carved.setdefault(key, {})
        arrays = carved.get(specs)
        if arrays is not None:
            return arrays
        nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
        aligned = [-(-n // 64) * 64 for n in nbytes]
        flat = self._flat.get(key)
        if flat is None or flat.size < sum(aligned):
            flat = self._flat[key] = np.empty(sum(aligned), dtype=np.uint8)
            carved.clear()  # views of the old buffer
        if len(carved) >= 16:  # shapes of one-off tails
            carved.clear()
        start, views = 0, []
        for (shape, dtype), n, size in zip(specs, nbytes, aligned):
            views.append(flat[start : start + n].view(dtype).reshape(shape))
            start += size
        arrays = carved[specs] = tuple(views)
        return arrays

    def buffer(self, key: Hashable, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """One uninitialised array, valid until ``key`` is asked for again."""
        return self.carve(key, (shape, dtype))[0]

    def arange(self, lo: int, hi: int) -> np.ndarray:
        """``np.arange(lo, hi)`` in the ``"index"`` buffer, which a gather
        only needs while it runs (:func:`_take_rows`)."""
        rows = hi - lo
        if self._iota.size < rows:
            self._iota = np.arange(rows)
        return np.add(self._iota[:rows], lo, out=self.buffer("index", (rows,), np.intp))


_local = threading.local()


def _thread_scratch() -> _Scratch:
    """The calling thread's scratch (the one accessor, kept to this module).

    Only blocks of at least :data:`SCRATCH_MIN_ROWS` rows use it, so a
    thread that never runs one -- a service's light requests -- has none.
    """
    scratch = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = _Scratch()
    return scratch


#: the flags of a block form that needs none
_NO_FLAGS = np.empty((0, 0), dtype=np.bool_)


def kernel_scratch(rows: int, floats: int, flags: int) -> tuple[np.ndarray, np.ndarray]:
    """Work vectors of a generated block form: ``(floats, rows)`` float64 and
    ``(flags, rows)`` bool (any empty array when ``flags`` is 0).

    From :data:`SCRATCH_MIN_ROWS` rows up they are the calling thread's
    scratch, valid until its next block form asks, i.e. until this one
    returns; below, fresh arrays.
    """
    if rows < SCRATCH_MIN_ROWS:
        bools = np.empty((flags, rows), dtype=np.bool_) if flags else _NO_FLAGS
        return np.empty((floats, rows)), bools
    work = ((floats, rows), np.float64), ((flags, rows), np.bool_)
    return _thread_scratch().carve("work", *work)  # type: ignore[return-value]


def _take_rows(
    scratch: _Scratch, data: np.ndarray, index: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``np.take(data, index, axis=0, out=out)`` without allocating.

    NumPy copies an index that is not a writeable C-contiguous array -- a
    map column, contiguous but read-only -- into a fresh array before
    taking; here it is copied into scratch instead, the ``"index"`` buffer
    that a sub-block's ``_idx`` takes once its gathers are done.
    """
    if not index.flags.carray:
        contiguous = scratch.buffer("index", index.shape, index.dtype)
        np.copyto(contiguous, index)
        index = contiguous
    return np.take(data, index, axis=0, out=out, mode="clip")


class _StagingPool:
    """Bounded free-list of whole-chunk staging buffers, by shape and dtype.

    A compute thread takes, the thread committing the chunk gives back --
    different threads in a ``processes`` worker -- hence the lock.  A buffer
    that would push the pool past :data:`STAGING_POOL_BYTES` empties it.
    Layout is part of the key: a column-major INC buffer never comes back
    as a row-major WRITE/RW one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[tuple[tuple[int, ...], np.dtype, bool], list[np.ndarray]] = {}
        self.nbytes = 0

    def take(
        self, shape: tuple[int, ...], dtype: np.dtype, order: str = "C"
    ) -> Optional[np.ndarray]:
        # keyed by C-contiguity, which a buffer of one column has in either order
        key = (shape, np.dtype(dtype), order == "C" or shape[1] == 1)
        with self._lock:
            stack = self._free.get(key)
            if not stack:
                return None
            buffer = stack.pop()
            self.nbytes -= buffer.nbytes
        return buffer

    def give(self, buffers: list[np.ndarray]) -> None:
        with self._lock:
            for buffer in buffers:
                if self.nbytes + buffer.nbytes > STAGING_POOL_BYTES:
                    self._free.clear()
                    self.nbytes = 0
                    if buffer.nbytes > STAGING_POOL_BYTES:
                        continue
                key = (buffer.shape, buffer.dtype, buffer.flags.c_contiguous)
                self._free.setdefault(key, []).append(buffer)
                self.nbytes += buffer.nbytes


_staging = _StagingPool()


def _reset_after_fork() -> None:
    """A forked worker starts with empty scratch and an empty pool: the
    parent's buffers would only be copied on first write, and a lock held by
    another parent thread at the fork would never be released."""
    global _local, _staging
    _local = threading.local()
    _staging = _StagingPool()


os.register_at_fork(after_in_child=_reset_after_fork)


def gather_rows(data: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A fresh ``(len(index), ...)`` copy of ``data``'s rows at ``index``."""
    return data.take(index, axis=0)


def occurrence_ranks(index: np.ndarray) -> Optional[np.ndarray]:
    """Rank of each entry among the entries with the same value, in order.

    ``ranks[i]`` is the number of ``j < i`` with ``index[j] == index[i]``.
    Returns ``None`` when every value is distinct (all ranks zero), otherwise
    an unsigned array in the smallest dtype that holds the largest rank --
    ``uint8`` unless some value occurs more than 256 times.  Only
    :meth:`~repro.op2.map.OpMap.repeats` builds them, to detect duplicate
    indirect WRITE/RW targets; no commit needs them.
    """
    n = index.size
    if n < 2:
        return None
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=group_start[1:])
    if group_start.all():
        return None
    starts = np.flatnonzero(group_start)
    sizes = np.diff(starts, append=n)
    within_group = np.arange(n) - np.repeat(starts, sizes)
    ranks = np.empty(n, dtype=np.min_scalar_type(int(sizes.max()) - 1))
    ranks[order] = within_group
    return ranks


def _each(commits: list[Callable[[], None]]) -> None:
    for commit in commits:
        commit()


def stage_scatter_add(
    data: np.ndarray, index: np.ndarray, buffer: np.ndarray
) -> Callable[[], None]:
    """The commit ``data[index[i]] += buffer[i]`` (in order), to be run later.

    Bit-identical to ``np.add.at(data, index, buffer)`` at the time of the
    call: one 1-D ``np.add.at`` per column, in column order, each taking
    ``index`` and ``buffer[:, c]`` as they are (``np.add.at`` copies
    neither) -- a map column and a column-major INC buffer, both contiguous.
    """
    if buffer.shape[1] == 1:
        return partial(np.add.at, data[:, 0], index, buffer[:, 0])
    return partial(
        _each,
        [partial(np.add.at, data[:, c], index, buffer[:, c]) for c in range(buffer.shape[1])],
    )


def neutral(access: AccessMode, like: np.ndarray) -> np.ndarray:
    """A buffer shaped like ``like`` holding the neutral element of ``access``
    (an integer's extremes for an integer MIN/MAX, which has no infinity)."""
    if access is AccessMode.INC:
        return np.zeros(like.shape, like.dtype)
    buffer = np.empty(like.shape, like.dtype)
    if like.dtype.kind in "iu":
        info = np.iinfo(like.dtype)
        buffer.fill(info.max if access is AccessMode.MIN else info.min)
    else:
        buffer.fill(np.inf if access is AccessMode.MIN else -np.inf)
    return buffer


def fold_reduction(access: AccessMode, target: np.ndarray, buffer: np.ndarray) -> None:
    """Fold a reduction partial ``buffer`` into ``target``."""
    if access is AccessMode.INC:
        target += buffer
    elif access is AccessMode.MIN:
        np.minimum(target, buffer, out=target)
    else:
        np.maximum(target, buffer, out=target)


def _equal_pieces(
    start: int, stop: int, most: int, split: Optional[int] = None
) -> list[tuple[int, int]]:
    """``[lo, hi)`` pieces of ``[start, stop)``: as few as hold at most
    ``most`` rows each, their sizes equal to a row -- or, given ``split``,
    those of ``[start, split)`` followed by those of ``[split, stop)``."""
    if split is not None:
        return _equal_pieces(start, split, most) + _equal_pieces(split, stop, most)
    count = -(-(stop - start) // most)
    if count == 1:  # the common case, a chunk of one sub-block: no generator
        return [(start, stop)]
    rows = stop - start
    return [(start + rows * k // count, start + rows * (k + 1) // count) for k in range(count)]


def _commit(
    commits: list[Callable[[], None]], pooled: list[np.ndarray], folds: list[tuple]
) -> None:
    for commit in commits:
        commit()
    commits.clear()
    for access, target, buffer in folds:
        fold_reduction(access, target, buffer)
    if pooled:
        _staging.give(pooled)
        pooled.clear()


def _map_rows(
    column: tuple[np.ndarray, int], rows: np.ndarray, scratch: Optional[_Scratch]
) -> np.ndarray:
    """``values[rows, slot]`` for ``column = (values, slot)`` and ascending
    ``rows``: a view of the (contiguous) column for consecutive rows, else a
    gather from it -- into ``scratch``'s ``"targets"`` buffer when given,
    with ``rows`` cast to ``intp`` there so ``np.take`` copies nothing.
    """
    values, slot = column
    if rows[-1] - rows[0] == rows.size - 1:
        return values[rows[0] : rows[-1] + 1, slot]
    if scratch is None:
        return values[:, slot].take(rows)
    positions, index = scratch.carve("targets", (rows.shape, np.intp), (rows.shape, np.intp))
    np.copyto(positions, rows)
    return np.take(values[:, slot], positions, out=index, mode="clip")


def _owned_scatter_add(
    data: np.ndarray,
    buffer: np.ndarray,
    values: np.ndarray,
    plan: "OwnerPlan",
    part: int,
    slot: int,
) -> None:
    """Owner chunk ``part``'s commit of the increments in ``buffer`` through
    ``slot``: the rows whose targets it owns, in row order, picked and
    scatter-added block by block.  A block of consecutive rows -- most of a
    chunk on a well-numbered mesh -- is sliced, not picked.  Picks go column
    by column into a column-major scratch block: ``np.take(..., axis=0)``
    would copy the whole column-major ``buffer`` first."""
    j = plan.slots.index(slot)
    positions, rows, homes = plan.commits[part][j], plan.rows[part], plan.homes[part]
    scratch = _thread_scratch() if positions.size >= SCRATCH_MIN_ROWS else _Scratch()
    for lo in range(0, positions.size, _PIECE_ROWS):
        chosen = positions[lo : lo + _PIECE_ROWS]
        # ordered by row, hence by position among home or among guest rows
        first, last = int(chosen[0]), int(chosen[-1])
        if last - first == chosen.size - 1 and (chosen.max() < homes or chosen.min() >= homes):
            picked, at = buffer[first : last + 1], rows[first : last + 1]
        else:
            columns, at, index = scratch.carve(
                "picked",
                ((buffer.shape[1], chosen.size), buffer.dtype),
                ((chosen.size,), rows.dtype),
                ((chosen.size,), np.intp),
            )
            picked = columns.T
            np.copyto(index, chosen)
            for c in range(buffer.shape[1]):
                np.take(buffer[:, c], index, out=columns[c], mode="clip")
            np.take(rows, index, out=at, mode="clip")
        targets = _map_rows((values, slot), at, scratch)  # ``at`` ascends
        stage_scatter_add(data, targets, picked)()


class BlockStage:
    """Private staging of the indirect and global arguments of one block.

    The caller declares, per argument and in argument order, what its kernel
    form consumes, runs the kernel, and then either commits at once
    (:meth:`commit`, which hands back the global-reduction partials) or
    hands :meth:`committer`'s closure to whoever orders the commits.  The
    closure keeps the scatter buffers alive, nothing else of the stage, and
    returns pooled staging to the free-list after its last commit; a stage
    that is never committed (an aborted context) never returns its buffers.

    Two kinds of caller.  The compiled slab takes whole-chunk pieces --
    :meth:`index`, and the buffers :meth:`private` and :meth:`reduction`
    return -- and walks them element by element.  The NumPy block form runs
    once per :meth:`sub_blocks` item over views of the same whole-chunk
    buffers (plus :meth:`direct`, :meth:`gathered` and :meth:`live`
    arguments), so only the staging, never a kernel temporary, scales with
    the chunk.  Either way the commit is the whole chunk's, argument by
    argument in row order.

    An *owner chunk* (``owner=(plan, k)``, an
    :class:`~repro.op2.map.OwnerPlan` part) runs the rows ``plan.rows[k]``
    instead of ``[start, stop)``: its only writes are indirect INC, every
    view is a gather, and each INC argument commits only the targets the
    chunk owns.  Its global reductions see the home rows only: the guest
    rows run in sub-blocks of their own against throwaway buffers.

    A contiguous chunk of fewer than :data:`SCRATCH_MIN_ROWS` rows is
    *eager* -- every chunk of a light request: its loop runs it through the
    kernel's host stub (:func:`repro.translator.blockform.host_stub`), and
    the stage only takes the stub's effects (:meth:`adopt`) to commit later.

    Lifetimes: a gathered READ view and ``_idx`` live until the block form
    returns (the next sub-block reuses their scratch); staging lives until
    its commit.
    """

    def __init__(self, start: int, stop: int, owner: Optional[tuple] = None) -> None:
        #: the chunk's rows for an owner chunk, ``None`` for ``[start, stop)``
        self.rows: Optional[np.ndarray] = None
        self._owner = owner
        if owner is not None:
            plan, part = owner
            self.rows = plan.rows[part]
            start, stop = 0, self.rows.size  # positions in ``rows``
        self.start = start
        self.stop = stop
        #: the chunk runs through its loop's host stub
        self.eager = owner is None and stop - start < SCRATCH_MIN_ROWS
        self._commits: list[Callable[[], None]] = []
        #: staging buffers the committer returns to the free-list
        self._pooled: list[np.ndarray] = []
        #: per declared argument: the array of the chunk's rows a sub-block
        #: slices, a global's array, or ``(data, column)``: a gather made per
        #: sub-block -- for an owner chunk ``column`` is ``(values, slot)``
        #: of the map, or ``None`` for a direct argument
        self._views: list = []
        #: positions of live globals in ``_views``
        self._live: list[int] = []
        #: (position in ``_views``, access, chunk buffer) per global reduction
        self._reductions: list[tuple[int, AccessMode, np.ndarray]] = []
        #: (access, global, chunk buffer) per global reduction, for the committer
        self._global_folds: list[tuple[AccessMode, np.ndarray, np.ndarray]] = []

    def index(self, arg: OpArg) -> np.ndarray:
        """The block's targets of an indirect argument: a view of the map column."""
        assert arg.map is not None
        return arg.map.values[self.start : self.stop, arg.map_index]  # type: ignore[union-attr]

    def live(self, arg: OpArg) -> None:
        """Global READ/WRITE/RW: every sub-block sees the live global array."""
        assert arg.gbl_data is not None
        self._live.append(len(self._views))
        self._views.append(arg.gbl_data)

    def direct(self, arg: OpArg) -> None:
        """Direct dat, any access: the ``dat.data[lo:hi]`` view (a gather of
        the rows, made per sub-block, for an owner chunk: it only reads)."""
        assert arg.dat is not None
        if self.rows is not None:
            self._views.append((arg.dat.data, None))
        else:
            self._views.append(arg.dat.data[self.start : self.stop])

    def gathered(self, arg: OpArg) -> None:
        """Indirect READ: a gathered ``(rows, dim)`` copy, made per sub-block."""
        assert arg.dat is not None and arg.map is not None
        values = arg.map.values  # type: ignore[union-attr]
        if self.rows is not None:
            self._views.append((arg.dat.data, (values, arg.map_index)))
            return
        self._views.append((arg.dat.data, values[:, arg.map_index]))

    def private(self, arg: OpArg) -> np.ndarray:
        """Indirect INC/WRITE/RW: the whole-chunk buffer the kernel works on.

        INC gets zeros, column-major so that every column the kernel writes
        and the commit reads is contiguous, scatter-added at commit by
        :func:`stage_scatter_add` (an owner chunk adds the rows whose
        targets it owns, slot by slot in row order); no schedule is built
        for it.  WRITE/RW get the gathered rows, row-major, assigned back at
        commit (callers only vectorise blocks whose WRITE/RW targets are
        distinct).  From :data:`SCRATCH_MIN_ROWS` rows up the buffer is a
        pooled one of the same layout, zero-filled or gathered into.
        """
        assert arg.dat is not None and arg.map is not None
        data = arg.dat.data
        shape = (self.stop - self.start, arg.dim)
        pooled = shape[0] >= SCRATCH_MIN_ROWS
        order = "F" if arg.access is AccessMode.INC else "C"
        buffer = _staging.take(shape, arg.dat.dtype, order) if pooled else None
        if arg.access is AccessMode.INC:
            if buffer is None:
                buffer = np.zeros(shape, dtype=arg.dat.dtype, order="F")
            else:
                buffer.fill(0)
            if self._owner is None:
                commit = stage_scatter_add(data, self.index(arg), buffer)
            else:
                plan, part = self._owner
                values = arg.map.values  # type: ignore[union-attr]
                commit = partial(
                    _owned_scatter_add, data, buffer, values, plan, part, arg.map_index
                )
            self._commits.append(commit)
        else:
            assert self._owner is None, "owner chunks only increment"
            index = self.index(arg)
            if buffer is None:
                buffer = gather_rows(data, index)
            else:  # in pieces, so the index copy stays block-sized
                scratch = _thread_scratch()
                for lo in range(0, shape[0], _PIECE_ROWS):
                    piece = slice(lo, lo + _PIECE_ROWS)
                    _take_rows(scratch, data, index[piece], buffer[piece])
            self._commits.append(partial(operator.setitem, data, index, buffer))
        if pooled:
            self._pooled.append(buffer)
        self._views.append(buffer)
        return buffer

    def reduction(self, arg: OpArg) -> np.ndarray:
        """Global INC/MIN/MAX: a neutral buffer, the chunk's partial result.

        A sub-block works on a neutral buffer of its own, folded into the
        chunk's in row order, so a block form may assign its partial result
        (``gmin[0] = x.min()``) as well as accumulate into it.  A sub-block
        that is the whole chunk works on the chunk's buffer itself.
        """
        assert arg.gbl_data is not None
        buffer = neutral(arg.access, arg.gbl_data)
        self._reductions.append((len(self._views), arg.access, buffer))
        self._global_folds.append((arg.access, arg.gbl_data, buffer))
        self._views.append(buffer)
        return buffer

    def _sub_block_views(
        self, lo: int, hi: int, scratch: Optional[_Scratch], guest: bool = False
    ) -> list:
        """The views of rows ``[lo, hi)``: slices of the chunk's rows, gathers
        made now (into ``scratch`` unless it is ``None``), globals whole, and
        neutral reduction buffers unless the rows are the whole chunk (and
        not guests)."""
        first, last = lo - self.start, hi - self.start
        # an owner chunk's rows ascend within a sub-block (home, guests apart)
        rows = None if self.rows is None else self.rows[lo:hi]
        views = []
        for position, view in enumerate(self._views):
            if type(view) is not tuple:
                view = view[first:last]
            else:
                data, column = view
                if rows is None:
                    index = column[lo:hi]
                elif column is None:  # a direct argument (read only)
                    if rows[-1] - rows[0] == rows.size - 1:  # consecutive rows
                        views.append(data[rows[0] : rows[-1] + 1])
                        continue
                    index = rows
                else:
                    index = _map_rows(column, rows, scratch)
                if scratch is None:
                    view = gather_rows(data, index)
                else:
                    shape = (hi - lo, *data.shape[1:])
                    out = scratch.buffer(("gathered", position), shape, data.dtype)
                    view = _take_rows(scratch, data, index, out)
            views.append(view)
        for position in self._live:
            views[position] = self._views[position]
        whole = (lo, hi) == (self.start, self.stop) and not guest
        for position, access, buffer in self._reductions:
            views[position] = buffer if whole else neutral(access, buffer)
        return views

    def sub_blocks(self) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        """``(_idx, views)`` per sub-block: as few as hold at most
        :data:`COMPUTE_BLOCK_ROWS` rows each, of equal size to a row (an
        owner chunk's home and guest rows apart).

        ``_idx`` is the sub-block's global iteration rows, ``views`` one
        entry per declared argument.  The consumer runs the block form on
        them before asking for the next item: from :data:`SCRATCH_MIN_ROWS`
        rows up, ``_idx`` and the gathered views are the thread's scratch,
        which the next sub-block overwrites.  Equal sub-blocks keep
        that scratch small: a 19 040-row chunk is two of 9 520 rows, not
        16 384 and a 2 656-row tail.
        """
        homes = None
        if self._owner is not None:  # each part ascending: a run is a slice
            plan, part = self._owner
            homes = plan.homes[part]
        for lo, hi in _equal_pieces(self.start, self.stop, COMPUTE_BLOCK_ROWS, homes):
            guest = homes is not None and lo >= homes
            scratch = _thread_scratch() if hi - lo >= SCRATCH_MIN_ROWS else None
            views = self._sub_block_views(lo, hi, scratch, guest)  # gathers before _idx
            if self.rows is not None:
                idx = self.rows[lo:hi]
            else:
                idx = np.arange(lo, hi) if scratch is None else scratch.arange(lo, hi)
            yield idx, views
            if guest:  # a guest row's reductions count in its home chunk
                continue
            for position, access, buffer in self._reductions:
                if views[position] is not buffer:
                    fold_reduction(access, buffer, views[position])

    def adopt(self, commits: list[Callable[[], None]], folds: list[tuple]) -> None:
        """Take a host stub's staged dat commits and ``(access, global, partial)`` folds."""
        self._commits = commits
        self._global_folds = folds

    def committer(self) -> Callable[[], None]:
        """The closure applying every staged effect, in argument order, and
        folding the global reductions into their globals, then returning the
        pooled staging to the free-list."""
        return partial(_commit, self._commits, self._pooled, self._global_folds)

    def commit(self) -> list[np.ndarray]:
        """Apply the staged dat effects now; return the global-reduction
        partials, in declaration order, for the caller to fold."""
        _commit(self._commits, self._pooled, [])
        return [buffer for _access, _target, buffer in self._global_folds]
