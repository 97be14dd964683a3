"""The chunk data path: indirect gathers, private staging, the ordered commit.

Every vectorised block of a parallel loop -- :meth:`ParLoop._prepare_vectorized`
and the translator's slabs alike -- moves indirect data through this module:
a :class:`BlockStage` hands out the block's map columns, gathered copies and
private scatter buffers, and :meth:`BlockStage.committer` returns the closure
that commits them (in deterministic chunk order on the deferred engines).

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
  iterator (2-6x slower at Airfoil sizes).  The index is the strided map
  column itself, a view: a contiguous copy makes a 120k-row gather 0.15 ms
  faster, but a megabyte-sized allocation living from staging to commit
  between the blocks' 4 MB buffers fragments the allocator's arenas and cost
  +11% peak RSS on the large Airfoil benchmark.

* **Scatter-adds** ``data[index[i]] += buffer[i]`` *for i in order* -- the
  meaning of ``np.add.at`` -- run as conflict-free rounds.  Round ``r`` holds
  the rows that are the ``r``-th occurrence of their target, in input order
  (:func:`occurrence_ranks`).  Inside a round every target is unique, so it is
  a gather, one vector add and a row assignment; across rounds each target
  receives its increments in exactly the original order.  The sequence of
  floating-point additions per target is therefore the one ``np.add.at``
  performs and the result is bit-identical, not merely close.  The ranks are
  owned by the map (:meth:`OpMap.scatter_ranks`): nothing is stored for a
  chunk-slot without duplicates, at most one byte per row otherwise.

Below :data:`SCATTER_ROUNDS_MIN_SIZE` buffer entries a block keeps
``np.add.at`` and asks for no ranks: building them costs several ``add.at``
calls and only pays off on maps that repeat across steps, which small
per-request problems do not.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.op2.access import AccessMode

if TYPE_CHECKING:  # pragma: no cover - args imports map, which imports this module
    from repro.op2.args import OpArg

__all__ = [
    "COMPUTE_BLOCK_ROWS",
    "SCATTER_ROUNDS_MIN_SIZE",
    "BlockStage",
    "gather_rows",
    "occurrence_ranks",
    "reduction_neutral",
    "stage_scatter_add",
]

#: Scatter buffers with fewer entries (rows x dim) than this commit through
#: ``np.add.at``.  Measured on the 2-core reference box (median of 200 calls,
#: every target hit twice, shuffled): at 4096 entries a steady two-round
#: commit is 34-45 us against 40-74 us for ``add.at`` (a wash for dim 1), at
#: 8192 it is 46-66 against 83-92 us and the gap widens from there; building
#: ranks cold costs 1.6-9x one ``add.at`` at every size, which a 300-row block
#: on a fresh map (one request of the service mix) never earns back.
SCATTER_ROUNDS_MIN_SIZE = 8192

#: Rows per step of a scatter-add round.  The rounds need a gathered copy of
#: the rows they update; 8192 rows x 4 doubles (256 KB) keep it in L2 -- a
#: whole 120k-row Airfoil chunk at once measured 1.1-2.3x slower.
_ROUND_BLOCK_ROWS = 8192

#: Rows per sub-block of a chunk's compute phase (gather -> block form ->
#: private buffers).  Measured on the 2-core reference box, Airfoil 400x300,
#: ten rotating rounds, median step in ms on serial/threads/processes/sharded:
#: whole chunk 164/112/119/137, 4096 rows 105/179/79/91, 8192 101/121/80/94,
#: 16384 95/85/76/88, 32768 102/86/79/91.  Below 16384 ``threads`` loses to
#: whole chunks: its two workers queue for the GIL between ever shorter ufuncs.
COMPUTE_BLOCK_ROWS = 16384


def gather_rows(data: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A fresh ``(len(index), ...)`` copy of ``data``'s rows at ``index``."""
    return np.take(data, index, axis=0)


def occurrence_ranks(index: np.ndarray) -> Optional[np.ndarray]:
    """Rank of each entry among the entries with the same value, in order.

    ``ranks[i]`` is the number of ``j < i`` with ``index[j] == index[i]``.
    Returns ``None`` when every value is distinct (all ranks zero), otherwise
    an unsigned array in the smallest dtype that holds the largest rank --
    ``uint8`` unless some value occurs more than 256 times.
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


def _add_distinct(data: np.ndarray, targets: np.ndarray, increments: np.ndarray) -> None:
    """``data[targets] += increments`` for pairwise distinct ``targets``."""
    current = np.take(data, targets, axis=0)
    current += increments
    data[targets] = current


def _scatter_add_rounds(
    data: np.ndarray, index: np.ndarray, buffer: np.ndarray, ranks: Optional[np.ndarray]
) -> None:
    """The rounds, taken over blocks of rows so temporaries stay cache-sized.

    Ranks ascend in row order per target, so within a block equal targets
    carry different ranks (each rank's rows are conflict-free) and blocks in
    row order keep every target's increments in order.  A block whose ranks
    are all zero -- most of them on a mesh -- is a single round.
    """
    for lo in range(0, index.size, _ROUND_BLOCK_ROWS):
        block = slice(lo, lo + _ROUND_BLOCK_ROWS)
        last = 0 if ranks is None else int(ranks[block].max())
        if last == 0:
            _add_distinct(data, index[block], buffer[block])
            continue
        for rank in range(last + 1):
            rows = np.flatnonzero(ranks[block] == rank)
            _add_distinct(
                data, np.take(index[block], rows), np.take(buffer[block], rows, axis=0)
            )


def stage_scatter_add(
    data: np.ndarray,
    index: np.ndarray,
    buffer: np.ndarray,
    ranks_of: Callable[[], Optional[np.ndarray]],
) -> Callable[[], None]:
    """The commit ``data[index[i]] += buffer[i]`` (in order), to be run later.

    Bit-identical to ``np.add.at(data, index, buffer)`` at the time of the
    call.  ``ranks_of`` supplies :func:`occurrence_ranks` of ``index`` and is
    consulted now -- together with the index, so the two cannot drift apart
    -- and only for blocks of at least :data:`SCATTER_ROUNDS_MIN_SIZE` entries.
    """
    if buffer.size < SCATTER_ROUNDS_MIN_SIZE:
        return partial(np.add.at, data, index, buffer)
    return partial(_scatter_add_rounds, data, index, buffer, ranks_of())


def reduction_neutral(arg: OpArg) -> np.ndarray:
    """A private buffer holding the neutral element of a global reduction."""
    assert arg.gbl_data is not None
    if arg.access is AccessMode.MIN:
        return np.full_like(arg.gbl_data, np.inf)
    if arg.access is AccessMode.MAX:
        return np.full_like(arg.gbl_data, -np.inf)
    return np.zeros_like(arg.gbl_data)


def _fold_reduction(access: AccessMode, target: np.ndarray, buffer: np.ndarray) -> None:
    if access is AccessMode.INC:
        target += buffer
    elif access is AccessMode.MIN:
        np.minimum(target, buffer, out=target)
    else:
        np.maximum(target, buffer, out=target)


def _commit(commits: list[Callable[[], None]]) -> None:
    for commit in commits:
        commit()


class BlockStage:
    """Private staging of the indirect and global arguments of one block.

    The caller declares, per argument and in argument order, what its kernel
    form consumes, runs the kernel, and hands :meth:`committer`'s closure to
    whoever orders the commits.  The closure keeps the scatter buffers alive,
    nothing else of the stage.

    Two kinds of caller.  The compiled slab takes whole-chunk pieces --
    :meth:`index`, and the buffers :meth:`private` and :meth:`reduction`
    return -- and walks them element by element.  The NumPy block form runs
    once per :meth:`sub_blocks` item over views of the same whole-chunk
    buffers (plus :meth:`direct`, :meth:`gathered` and :meth:`live`
    arguments), so only the staging, never a kernel temporary, scales with
    the chunk.  Either way the commit is the whole chunk's, argument by
    argument in row order.
    """

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        self._commits: list[Callable[[], None]] = []
        #: per declared argument: the view of global rows ``[lo, hi)``
        self._views: list[Callable[[int, int], np.ndarray]] = []
        #: (position in ``_views``, access, chunk buffer) per global reduction
        self._reductions: list[tuple[int, AccessMode, np.ndarray]] = []

    def index(self, arg: OpArg) -> np.ndarray:
        """The block's targets of an indirect argument: a view of the map column."""
        assert arg.map is not None
        return arg.map.values[self.start : self.stop, arg.map_index]  # type: ignore[union-attr]

    def live(self, arg: OpArg) -> None:
        """Global READ/WRITE/RW: every sub-block sees the live global array."""
        array = arg.gbl_data
        assert array is not None
        self._views.append(lambda lo, hi: array)

    def direct(self, arg: OpArg) -> None:
        """Direct dat, any access: the ``dat.data[lo:hi]`` view."""
        assert arg.dat is not None
        data = arg.dat.data
        self._views.append(lambda lo, hi: data[lo:hi])

    def gathered(self, arg: OpArg) -> None:
        """Indirect READ: a gathered ``(rows, dim)`` copy, made per sub-block."""
        assert arg.dat is not None and arg.map is not None
        data, column = arg.dat.data, arg.map.values[:, arg.map_index]  # type: ignore[union-attr]
        self._views.append(lambda lo, hi: gather_rows(data, column[lo:hi]))

    def private(self, arg: OpArg) -> np.ndarray:
        """Indirect INC/WRITE/RW: the whole-chunk buffer the kernel works on.

        INC gets zeros, scatter-added at commit; WRITE/RW get the gathered
        rows, assigned back at commit (callers only vectorise blocks whose
        WRITE/RW targets are distinct).
        """
        assert arg.dat is not None and arg.map is not None
        data, index = arg.dat.data, self.index(arg)
        if arg.access is AccessMode.INC:
            buffer = np.zeros((self.stop - self.start, arg.dim), dtype=arg.dat.dtype)
            ranks_of = partial(
                arg.map.scatter_ranks, arg.map_index, self.start, self.stop  # type: ignore[union-attr]
            )
            self._commits.append(stage_scatter_add(data, index, buffer, ranks_of))
        else:
            buffer = gather_rows(data, index)
            self._commits.append(partial(operator.setitem, data, index, buffer))
        start = self.start
        self._views.append(lambda lo, hi: buffer[lo - start : hi - start])
        return buffer

    def reduction(self, arg: OpArg) -> np.ndarray:
        """Global INC/MIN/MAX: a neutral buffer folded into the global at commit.

        A sub-block works on a neutral buffer of its own, folded into the
        chunk's in row order, so a block form may assign its partial result
        (``gmin[0] = x.min()``) as well as accumulate into it.  A sub-block
        that is the whole chunk works on the chunk's buffer itself.
        """
        assert arg.gbl_data is not None
        buffer = reduction_neutral(arg)
        self._commits.append(partial(_fold_reduction, arg.access, arg.gbl_data, buffer))
        self._reductions.append((len(self._views), arg.access, buffer))
        chunk = (self.start, self.stop)
        self._views.append(
            lambda lo, hi: buffer if (lo, hi) == chunk else reduction_neutral(arg)
        )
        return buffer

    def sub_blocks(self) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        """``(_idx, views)`` per sub-block of :data:`COMPUTE_BLOCK_ROWS` rows.

        ``_idx`` is the sub-block's global iteration range, ``views`` one
        entry per declared argument.  The consumer runs the block form on
        them before asking for the next item.
        """
        for lo in range(self.start, self.stop, COMPUTE_BLOCK_ROWS):
            hi = min(lo + COMPUTE_BLOCK_ROWS, self.stop)
            views = [view(lo, hi) for view in self._views]
            yield np.arange(lo, hi), views
            for position, access, buffer in self._reductions:
                if views[position] is not buffer:
                    _fold_reduction(access, buffer, views[position])

    def committer(self) -> Callable[[], None]:
        """The closure applying every staged effect, in argument order."""
        return partial(_commit, self._commits)
