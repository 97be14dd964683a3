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

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import OP2AccessError, OP2Error
from repro.op2.access import AccessMode
from repro.op2.args import OpArg
from repro.op2.context import get_active_context
from repro.op2.dat import OpDat
from repro.op2.datapath import BlockStage
from repro.op2.kernel import Kernel
from repro.op2.set import OpSet
from repro.sim.cost import KernelProfile

__all__ = ["ParLoop", "op_par_loop"]

#: the global accesses a block stages as a reduction
_REDUCTIONS = (AccessMode.INC, AccessMode.MIN, AccessMode.MAX)
#: the accesses that modify their data (``AccessMode.writes``)
_WRITES = (AccessMode.WRITE, AccessMode.RW, *_REDUCTIONS)
#: the accesses that assign their data
_ASSIGNS = (AccessMode.WRITE, AccessMode.RW)


class ParLoop:
    """A validated parallel loop invocation."""

    def __init__(self, kernel: Kernel, name: str, iterset: OpSet, args: Sequence[OpArg]) -> None:
        if not isinstance(kernel, Kernel):
            raise OP2Error(f"op_par_loop needs a Kernel, got {kernel!r}")
        if not isinstance(iterset, OpSet):
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
        for position, arg in enumerate(self.args):
            access = arg.access
            if arg.is_global:
                self.has_global_reduction |= access in _WRITES
                self.has_global_write |= access in _ASSIGNS
                continue
            if (arg.dat.dataset if arg.is_direct else arg.map.from_set) is not iterset:  # type: ignore[union-attr]
                self._validate(position, arg)
            if access in _WRITES:
                written.append(arg.dat)  # type: ignore[arg-type]
                if arg.is_indirect and access in _ASSIGNS:
                    assigned.append(arg)
        self._written = tuple(written)
        #: indirect WRITE/RW arguments, whose duplicate targets serialise a block
        self._assigned_scatters = tuple(assigned)

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

    def dats_written(self) -> list[OpDat]:
        """Dats the loop modifies."""
        return list(self._written)

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
        if self._use_vectorized(start, stop, prefer_vectorized):
            self._prepare_vectorized(start, stop)()
        else:
            self._execute_block_elemental(start, stop)

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
        identical.  The answer is whether the map holds a scatter schedule
        for the chunk-slot (:meth:`OpMap.scatter_ranks`, built once per
        connectivity) -- time-stepping loops re-ask for the same blocks every
        iteration.
        """
        for arg in self._assigned_scatters:
            if arg.map.scatter_ranks(arg.map_index, start, stop) is not None:  # type: ignore[union-attr]
                return True
        return False

    # elemental path ------------------------------------------------------------------
    def _execute_block_elemental(self, start: int, stop: int) -> None:
        kernel = self.kernel.elemental
        for element in range(start, stop):
            views = [self._element_view(arg, element) for arg in self.args]
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
    def _prepare_vectorized(self, start: int, stop: int) -> Callable[[], None]:
        """Run the block form into private buffers; return the merge closure.

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
          perform, bit for bit, run as conflict-free rounds (see
          :mod:`repro.op2.datapath`);
        * indirect dat, WRITE/RW: rows ``[lo, hi)`` of the chunk's gathered
          copy, written back afterwards;
        * global READ/WRITE/RW: the live global array, so WRITE assigns and RW
          observes the previous value exactly like the elemental path;
        * global INC/MIN/MAX: a zero/neutral buffer of the sub-block's own,
          folded into the chunk's in row order and from there into the global
          afterwards (so INC sums are grouped by sub-block and chunk: equal to
          the elemental path's to rounding, MIN/MAX exactly).

        The returned closure applies the whole chunk's indirect scatters and
        global reductions; calling it immediately reproduces plain block
        execution, while the threaded engines defer it so merges happen in
        deterministic chunk order (see :meth:`prepare_block`).
        """
        stage = BlockStage(start, stop)
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
        return stage.committer()

    # deferred execution (threaded engines) ---------------------------------------------
    def prepare_block(
        self, start: int, stop: int, *, prefer_vectorized: bool = True
    ) -> Callable[[], None]:
        """Compute ``[start, stop)`` now where safe; return the merge closure.

        This is the primitive of the threaded execution engines: the compute
        part (gather + kernel) may run concurrently with other chunks of the
        same loop because all scatters and reductions are staged in private
        buffers, and the returned closure -- which commits those effects --
        must be invoked in ascending chunk order so results stay identical to
        sequential block execution.

        Blocks that cannot be privatised (no vectorised form, a global
        WRITE/RW argument whose kernel must observe prior iterations, or
        duplicate WRITE/RW scatter targets) return a closure performing the
        *entire* block execution, pushing the compute into the ordered merge
        phase where it is race-free.
        """
        if start == stop:
            return lambda: None
        if not self._use_vectorized(start, stop, prefer_vectorized) or self.has_global_write:
            return lambda: self.execute_block(
                start, stop, prefer_vectorized=prefer_vectorized
            )
        return self._prepare_vectorized(start, stop)

    def execute_all(self, *, prefer_vectorized: bool = True) -> None:
        """Execute the full iteration range (the pipeline's inline route)."""
        self.execute_block(0, self.iterset.size, prefer_vectorized=prefer_vectorized)
        self._mark_outputs_modified()

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


def op_par_loop(kernel: Kernel, name: str, iterset: OpSet, *args: OpArg) -> Any:
    """Execute (or schedule) a parallel loop on the active execution context.

    Returns whatever the active context returns: ``None`` for the serial and
    OpenMP-style contexts, a shared future of the output dat for the
    HPX-style context.
    """
    return get_active_context().execute(ParLoop(kernel, name, iterset, args))
