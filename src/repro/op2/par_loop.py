"""``op_par_loop``: the parallel loop over a set.

A :class:`ParLoop` bundles a kernel, the iteration set and the argument
descriptors, validates their consistency (maps must start at the iteration
set, direct dats must live on it, ...), and knows how to *numerically*
execute any contiguous block of its iteration range -- the primitive every
backend builds on.  The module-level :func:`op_par_loop` dispatches the loop
to whatever execution context is currently active (serial, OpenMP-style or
HPX-style).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import OP2AccessError, OP2Error
from repro.op2.access import AccessMode
from repro.op2.args import OpArg
from repro.op2.context import get_active_context
from repro.op2.dat import OpDat
from repro.op2.datapath import BlockStage, fold_reduction, neutral
from repro.op2.intervals import IntervalAlgebra, IntervalSet
from repro.op2.kernel import Kernel
from repro.op2.map import OpMap, OwnerPlan
from repro.op2.set import OpSet
from repro.sim.cost import KernelProfile

__all__ = ["LoopChunk", "ParLoop", "op_par_loop"]

#: a partial result of a chunk: (argument position, reduction buffer)
Partials = list[tuple[int, np.ndarray]]

#: the global accesses a block stages as a reduction
_REDUCTIONS = (AccessMode.INC, AccessMode.MIN, AccessMode.MAX)
#: the accesses that modify their data (``AccessMode.writes``)
_WRITES = (AccessMode.WRITE, AccessMode.RW, *_REDUCTIONS)
#: the accesses that assign their data
_ASSIGNS = (AccessMode.WRITE, AccessMode.RW)


class ParLoop:
    """A validated parallel loop invocation."""

    def __init__(self, kernel: Kernel, name: str, iterset: OpSet, args: Sequence[OpArg]) -> None:
        if kernel.__class__ is not Kernel and not isinstance(kernel, Kernel):
            raise OP2Error(f"op_par_loop needs a Kernel, got {kernel!r}")
        if iterset.__class__ is not OpSet and not isinstance(iterset, OpSet):
            raise OP2Error(f"op_par_loop needs an OpSet to iterate over, got {iterset!r}")
        if not args:
            raise OP2Error(f"loop {name!r}: at least one argument is required")
        self.kernel = kernel
        self.name = name or kernel.name
        self.iterset = iterset
        self.args = tuple(args)
        # The arguments are an immutable tuple: validate and classify them
        # once, here, instead of on every execution.
        written: list[OpDat] = []
        assigned: list[OpArg] = []
        #: some global argument is written (a reduction target)
        self.has_global_reduction = False
        #: some global argument is WRITE/RW: its kernel must observe prior
        #: iterations, so the loop's blocks cannot be privatised
        self.has_global_write = False
        key = ""
        for position, arg in enumerate(self.args):
            key += arg.code
            access = arg.access
            if arg.is_global:
                self.has_global_reduction |= access in _WRITES
                self.has_global_write |= access in _ASSIGNS
                continue
            if (arg.dat.dataset if arg.is_direct else arg.map.from_set) is not iterset:  # type: ignore[union-attr]
                self._validate(position, arg)
            if access in _WRITES:
                written += (arg.dat,)  # type: ignore[arg-type]
                if arg.is_indirect and access in _ASSIGNS:
                    assigned.append(arg)
        self._written = tuple(written)
        #: indirect WRITE/RW arguments, whose duplicate targets serialise a block
        self._assigned_scatters = tuple(assigned)
        #: the argument signature the kernel's host stub is generated for
        self.stub_key = key

    # -- validation -------------------------------------------------------------
    def _validate(self, position: int, arg: OpArg) -> None:
        """Reject a dat argument whose set is not the iteration set object's equal."""
        if arg.is_direct:
            found, what, where = arg.dat.dataset, f"direct dat {arg.dat.name!r} lives", "on"  # type: ignore[union-attr]
        else:
            found, what, where = arg.map.from_set, f"map {arg.map.name!r} starts", "at"  # type: ignore[union-attr]
        if found != self.iterset:
            raise OP2AccessError(
                f"loop {self.name!r} arg {position}: {what} {where} {found.name!r}, "
                f"not {where} the iteration set {self.iterset.name!r}"
            )

    # -- classification ------------------------------------------------------------
    @property
    def is_direct(self) -> bool:
        """True when no argument goes through a map."""
        return all(not arg.is_indirect for arg in self.args)

    @property
    def has_indirect_increment(self) -> bool:
        """True when some argument increments data through a map (needs colouring)."""
        return any(
            arg.is_indirect and arg.access in (AccessMode.INC, AccessMode.RW, AccessMode.WRITE)
            for arg in self.args
        )

    @property
    def reduction_positions(self) -> list[int]:
        """Positions of the global reduction (INC/MIN/MAX) arguments."""
        return [
            position
            for position, arg in enumerate(self.args)
            if arg.is_global and arg.access in _REDUCTIONS
        ]

    # -- chunking ----------------------------------------------------------------------
    @cached_property
    def _increments(self) -> tuple[Optional[tuple[OpMap, tuple[int, ...]]], Optional[str]]:
        """Whether chunks may own the targets of the loop's indirect INC:
        the map and slots they partition by (``None`` when nothing is
        incremented through a map), and why they cannot (``None``: they can).
        """
        increments = [a for a in self.args if a.is_indirect and a.access is AccessMode.INC]
        others = [a for a in self.args if not a.is_global and a not in increments]
        if not increments:
            return None, None
        opmap = increments[0].map
        assert isinstance(opmap, OpMap)
        owner = (opmap, tuple(dict.fromkeys(arg.map_index for arg in increments)))
        incremented = {arg.dat.dat_id for arg in increments}  # type: ignore[union-attr]
        if any(arg.access.writes for arg in others):
            return owner, "mixed_writes"
        if any(arg.map is not opmap for arg in increments):
            return owner, "inc_maps"
        if any(arg.dat.dat_id in incremented for arg in others):  # type: ignore[union-attr]
            return owner, "read_inc"
        return owner, None

    def chunk_shape(self, prefer_vectorized: bool = True) -> tuple[str, Optional[str]]:
        """How the loop's iterations may be cut into chunks that commit
        their own effects: ``("rows", None)`` -- contiguous row ranges;
        ``("owner", None)`` -- owner chunks (:meth:`owner_plan`), for a loop
        whose only dat writes are indirect INC through one map; or
        ``("single", reason)`` -- one chunk, because a WRITE/RW global must
        observe every prior iteration (``"global_write"``), or the loop
        increments through a map but cannot own its targets: INC mixed with
        another dat write (``"mixed_writes"``), INC through several maps
        (``"inc_maps"``), a dat both read and incremented (``"read_inc"``),
        or no block form to run owner rows with (``"no_block_form"``).
        """
        if self.has_global_write:
            return "single", "global_write"
        owner, reason = self._increments
        if owner is None:
            return "rows", None
        if reason is not None:
            return "single", reason
        if self.kernel.vectorized is None or not prefer_vectorized:
            return "single", "no_block_form"
        return "owner", None

    def owner_plan(self, parts: int) -> OwnerPlan:
        """The owner-computes partition of the incremented targets into
        ``parts`` chunks (built by, and cached on, the map)."""
        owner, _reason = self._increments
        assert owner is not None
        opmap, slots = owner
        return opmap.owner_plan(slots, parts)

    def chunk_summary(
        self,
        arg: OpArg,
        start: int,
        stop: int,
        owner: Optional[tuple[int, int]],
        algebra: IntervalAlgebra,
        *,
        reach: bool = False,
    ) -> Optional[IntervalSet]:
        """Elements of ``arg``'s dat a chunk touches (``None``: none).

        Rows ``[start, stop)`` touch one run of a direct dat (interned by
        ``algebra``) and the map's cached summary of an indirect one.  Owner
        chunk ``owner = (parts, k)`` touches what its rows read and the
        targets it increments -- with ``reach``, every target its rows reach
        through the map, owned or not.
        """
        if owner is None:
            if arg.is_direct:
                return algebra.from_range(start, stop - 1)
            return arg.map.chunk_summary(arg.map_index, start, stop)  # type: ignore[union-attr]
        parts, part = owner
        plan = self.owner_plan(parts)
        if arg.is_direct:
            return plan.summary(part)
        owned = arg.access is AccessMode.INC and not reach
        return plan.summary(part, arg.map, arg.map_index, owned)  # type: ignore[arg-type]

    # -- cost model -------------------------------------------------------------------
    def kernel_profile(self) -> KernelProfile:
        """Derive the machine-model profile of one loop iteration."""
        bytes_read = 0.0
        bytes_written = 0.0
        containers = 0
        for arg in self.args:
            if arg.is_global:
                continue
            containers += 1
            per_iter = float(arg.bytes_per_iteration)
            if arg.is_indirect:
                bytes_read += 8.0  # the map entry itself is read (never written)
            if arg.access.reads:
                bytes_read += per_iter
            if arg.access.writes:
                bytes_written += per_iter
        return KernelProfile(
            name=self.kernel.name,
            cycles_per_element=self.kernel.cycles_per_element,
            bytes_read_per_element=bytes_read,
            bytes_written_per_element=bytes_written,
            num_containers=max(containers, 1),
            reuse_fraction=self.kernel.reuse_fraction,
            imbalance=self.kernel.imbalance,
        )

    # -- numerical execution --------------------------------------------------------------
    def execute_block(self, start: int, stop: int, *, prefer_vectorized: bool = True) -> None:
        """Execute iterations ``[start, stop)`` of the loop.

        Uses the kernel's vectorised form when available (and allowed),
        otherwise loops over elements calling the elemental form.  Both paths
        produce identical results; the property tests assert this.
        """
        if not 0 <= start <= stop <= self.iterset.size:
            raise OP2Error(
                f"loop {self.name!r}: block [{start}, {stop}) outside "
                f"[0, {self.iterset.size})"
            )
        if start == stop:
            return
        if not self._use_vectorized(start, stop, prefer_vectorized):
            self._execute_block_elemental(start, stop)
            return
        stage = BlockStage(start, stop)
        if stage.eager:  # the stub applies its effects as it goes
            self._host_stub()(None, start, stop, *self.args)
        else:
            self._run_sub_blocks(stage).committer()()

    def _use_vectorized(self, start: int, stop: int, prefer_vectorized: bool) -> bool:
        return (
            prefer_vectorized
            and self.kernel.vectorized is not None
            and not (self._assigned_scatters and self._scatter_conflicts(start, stop))
        )

    def _scatter_conflicts(self, start: int, stop: int) -> bool:
        """True when an indirect WRITE/RW argument hits the same target twice.

        The vectorised scatter-back (a row assignment of the gathered
        buffer) resolves duplicate targets as *last assignment wins on the
        gathered values*, whereas the elemental path lets later iterations
        observe earlier writes.  Blocks with duplicate WRITE/RW targets
        therefore fall back to the elemental path so both paths stay
        identical.  :meth:`OpMap.repeats` keeps the answer per connectivity:
        time-stepping loops re-ask for the same blocks every iteration.
        """
        for arg in self._assigned_scatters:
            if arg.map.repeats(arg.map_index, start, stop):  # type: ignore[union-attr]
                return True
        return False

    # elemental path ------------------------------------------------------------------
    def _execute_block_elemental(
        self, start: int, stop: int, partials: Partials = ()  # type: ignore[assignment]
    ) -> None:
        """Element by element; reductions go into ``partials``' buffers
        instead of the live globals when given."""
        kernel = self.kernel.elemental
        for element in range(start, stop):
            views = [self._element_view(arg, element) for arg in self.args]
            for position, buffer in partials:
                views[position] = buffer
            kernel(*views)

    @staticmethod
    def _element_view(arg: OpArg, element: int) -> np.ndarray:
        if arg.is_global:
            assert arg.gbl_data is not None
            return arg.gbl_data
        assert arg.dat is not None
        if arg.is_direct:
            return arg.dat.data[element]
        assert arg.map is not None
        target = int(arg.map.values[element, arg.map_index])  # type: ignore[union-attr]
        return arg.dat.data[target]

    # vectorised path ------------------------------------------------------------------
    def _prepare_vectorized(
        self, start: int, stop: int, owner: Optional[tuple[int, int]] = None
    ) -> BlockStage:
        """Run the block form over rows ``[start, stop)`` -- or owner chunk
        ``owner = (parts, k)`` -- into private buffers; return the staged block.

        The block form is called once per sub-block of the chunk -- row ranges
        ``[lo, hi)`` of :data:`repro.op2.datapath.COMPUTE_BLOCK_ROWS` rows, in
        row order -- so it must treat rows independently.  Its first argument,
        ``_idx``, is the sub-block's global iteration range
        ``arange(lo, hi)``; then one view per ``op_arg``:

        * direct dat, any access: the ``dat.data[lo:hi]`` view (writes go
          straight through);
        * indirect dat, READ: a gathered ``(hi - lo, dim)`` copy, made for the
          sub-block;
        * indirect dat, INC: rows ``[lo, hi)`` of the chunk's zero-filled
          private buffer the kernel adds increments into, scatter-added
          afterwards in row order -- the additions ``np.add.at`` would
          perform, bit for bit, one 1-D ``np.add.at`` per column (see
          :mod:`repro.op2.datapath`);
        * indirect dat, WRITE/RW: rows ``[lo, hi)`` of the chunk's gathered
          copy, written back afterwards;
        * global READ/WRITE/RW: the live global array, so WRITE assigns and RW
          observes the previous value exactly like the elemental path;
        * global INC/MIN/MAX: a zero/neutral buffer of the sub-block's own,
          folded into the chunk's in row order and from there into the global
          afterwards (so INC sums are grouped by sub-block and chunk: equal to
          the elemental path's to rounding, MIN/MAX exactly).

        The returned stage's :meth:`~BlockStage.committer` applies the whole
        chunk's indirect scatters and global reductions; :meth:`run_chunk`
        commits the scatters and hands the reductions back.  An owner chunk
        gathers its direct arguments too, and commits only its own targets.
        An eager chunk (:attr:`BlockStage.eager`) runs through the kernel's
        host stub instead: the same views, commits and folds, straight-line.
        """
        if owner is None:
            stage = BlockStage(start, stop)
        else:
            stage = BlockStage(0, 0, (self.owner_plan(owner[0]), owner[1]))
        if stage.eager:
            self._host_stub()(stage, start, stop, *self.args)
            return stage
        return self._run_sub_blocks(stage)

    def _host_stub(self) -> Callable[..., None]:
        """The kernel's host stub for this loop: ``stub(stage, start, stop, *args)``."""
        stub = getattr(self.kernel.vectorized, "stubs", {}).get(self.stub_key)
        if stub is None:
            from repro.translator.blockform import host_stub  # imports this module
            stub = host_stub(self.kernel.vectorized, self.stub_key)  # type: ignore[arg-type]
        return stub

    def _run_sub_blocks(self, stage: BlockStage) -> BlockStage:
        """Declare the arguments to ``stage`` and run the block form over
        its sub-blocks; the generic route of a chunk."""
        for arg in self.args:
            if arg.is_global:
                if arg.access in _REDUCTIONS:
                    stage.reduction(arg)
                else:  # READ / WRITE / RW observe (and mutate) the live value
                    stage.live(arg)
            elif arg.is_direct:
                stage.direct(arg)
            elif arg.access is AccessMode.READ:
                stage.gathered(arg)
            else:  # INC / WRITE / RW on an indirect dat
                stage.private(arg)

        block_form = self.kernel.vectorized
        assert block_form is not None
        for idx, views in stage.sub_blocks():
            block_form(idx, *views)
        return stage

    # chunks --------------------------------------------------------------------------
    def run_chunk(
        self,
        start: int,
        stop: int,
        owner: Optional[tuple[int, int]] = None,
        *,
        prefer_vectorized: bool = True,
    ) -> Partials:
        """Run one chunk and commit its dat effects now; return its
        global-reduction partials, ``(argument position, buffer)``, for the
        caller to fold in chunk order.

        The chunk is rows ``[start, stop)`` or, given ``owner = (parts, k)``,
        owner chunk ``k`` of :meth:`owner_plan` ``(parts)``.  This is what an
        engine task runs: the lowering only cuts chunks that can commit
        concurrently (:meth:`chunk_shape`), and the dependency edges order
        the rest.
        """
        positions = self.reduction_positions
        if owner is not None or self._use_vectorized(start, stop, prefer_vectorized):
            if owner is None and start == stop:
                return []
            return list(zip(positions, self._prepare_vectorized(start, stop, owner).commit()))
        partials = [
            (p, neutral(self.args[p].access, self.args[p].gbl_data))  # type: ignore[arg-type]
            for p in positions
        ]
        self._execute_block_elemental(start, stop, partials)
        return partials

    def fold_partials(self, partials: Partials) -> None:
        """Fold one chunk's :meth:`run_chunk` partials into the globals."""
        for position, buffer in partials:
            arg = self.args[position]
            fold_reduction(arg.access, arg.gbl_data, buffer)  # type: ignore[arg-type]

    def prepare_block(
        self, start: int, stop: int, *, prefer_vectorized: bool = True
    ) -> Callable[[], None]:
        """Compute ``[start, stop)`` now where safe; return the commit closure.

        The compute part (gather + kernel) stages every scatter and reduction
        in private buffers, and the returned closure commits them; calling
        it at once is plain block execution.  Blocks that cannot be
        privatised (no vectorised form, a global WRITE/RW argument whose
        kernel must observe prior iterations, or duplicate WRITE/RW scatter
        targets) return a closure performing the *entire* block execution.
        """
        if start == stop:
            return lambda: None
        if not self._use_vectorized(start, stop, prefer_vectorized) or self.has_global_write:
            return lambda: self.execute_block(
                start, stop, prefer_vectorized=prefer_vectorized
            )
        return self._prepare_vectorized(start, stop).committer()

    def execute_all(self, *, prefer_vectorized: bool = True) -> None:
        """Execute the full iteration range (the pipeline's inline route)."""
        self.execute_block(0, self.iterset.size, prefer_vectorized=prefer_vectorized)
        for dat in self._written:
            dat.bump_version()

    def _mark_outputs_modified(self) -> None:
        for dat in self._written:
            dat.bump_version()

    def output_dat(self) -> Optional[OpDat]:
        """The loop's primary output dat (last written dat argument).

        The paper's redesigned ``op_par_loop`` returns this dat as a future
        (Fig. 9: ``p_qold = op_par_loop_save_soln(...)``).
        """
        return self._written[-1] if self._written else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParLoop({self.name!r}, over={self.iterset.name!r}, "
            f"args={[arg.describe() for arg in self.args]})"
        )


@dataclass(eq=False)
class LoopChunk:
    """One chunk of a loop as one engine task: it runs, commits its own dat
    effects and leaves its reduction partials in ``partials[position]``.

    Engines that run closures call it; engines that dispatch by kernel name
    ship ``(loop, start, stop, owner)`` to a worker and hand the reply to
    :meth:`deliver`.  ``owner`` is ``(parts, k)`` for owner chunk ``k``;
    ``run`` replaces ``loop.run_chunk`` in process (a compiled slab).
    """

    loop: ParLoop
    start: int
    stop: int
    owner: Optional[tuple[int, int]]
    partials: list[Optional[Partials]]
    position: int
    prefer_vectorized: bool = True
    run: Optional[Callable[[], Partials]] = None

    def __call__(self) -> None:
        if self.run is not None:
            self.deliver(self.run())
        else:
            self.deliver(
                self.loop.run_chunk(
                    self.start, self.stop, self.owner, prefer_vectorized=self.prefer_vectorized
                )
            )

    def deliver(self, partials: Optional[Partials]) -> None:
        """Record the chunk's partials (folded later, in chunk order)."""
        if partials:
            self.partials[self.position] = partials


def op_par_loop(kernel: Kernel, name: str, iterset: OpSet, *args: OpArg) -> Any:
    """Execute (or schedule) a parallel loop on the active execution context.

    Returns whatever the active context returns: ``None`` for the serial and
    OpenMP-style contexts, a shared future of the output dat for the
    HPX-style context.
    """
    return get_active_context().execute(ParLoop(kernel, name, iterset, args))
