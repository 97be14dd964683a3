"""The grain gate: a loop chain too small to pay for tasks never becomes tasks.

The paper's ``auto_chunk_size`` / ``persistent_auto_chunk_size`` exist for
grain control -- a task must carry enough work to amortise its spawn.  The
same rule one level up: a *loop* whose whole-set serial execution takes less
than :data:`GRAIN_THRESHOLD_SECONDS` costs more to chunk, track, submit and
drain than to run, on every deferred engine (``docs/perf/pr-24.txt`` holds
the mesh-size sweep the value was read from).

A deferring context therefore starts :data:`INLINE`: each loop takes the
pipeline's inline route (the whole set on the submitting thread), nothing is
lowered, tracked or submitted, and no engine is acquired.  The first loop whose
*measured* inline time reaches the threshold flips the context -- once, for
the rest of its life -- to :data:`DEFERRED`, before that loop executes; from
then on every loop takes the plan → analyze → schedule → submit path.  Two
states and no per-loop choice: mixing inline and deferred loops measured
worse than either extreme on the partitioned engine (every inline write
invalidates the shards' copies), and since ``INLINE`` strictly precedes
``DEFERRED`` nothing is ever pending when a loop runs inline, so the gate
never inserts a drain.

The serial reference is the same gate *pinned* INLINE: it never asks.

The measurement is the session's :class:`~repro.session.LoopCostTable`:
every run of the inline route, whatever its reason, records the CPU time
of the executing thread under :func:`cost_key` -- CPU time, because a wall
clock also counts waiting for the GIL or a core, and a wrongly "heavy" loop
stays deferred (it is never measured inline again).  Sampling stops once a
loop shape has ``LoopCostTable.SETTLED_SAMPLES`` samples, so a steady serial
chain pays a dictionary lookup per loop, not two clock reads and a locked
update.  The threshold is a constant in seconds rather than a multiple of a
probed engine overhead because probing an engine means spinning it up -- the
cost the gate exists to avoid.

Tests substitute :func:`should_defer` (the pipeline resolves it through this
module at every call); there is deliberately no configuration knob.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.stages import LoopRecord
    from repro.op2.par_loop import ParLoop

__all__ = [
    "GRAIN_THRESHOLD_SECONDS",
    "INLINE",
    "DEFERRED",
    "SERIAL",
    "GATE",
    "MODEL",
    "GLOBAL_WRITE",
    "cost_key",
    "should_defer",
    "GrainGate",
]

#: measured whole-set inline CPU seconds at or above which a loop is worth tasks
GRAIN_THRESHOLD_SECONDS = 0.020

INLINE = "inline"
DEFERRED = "deferred"

# why a loop took the inline route (``LoopRecord.reason``): the serial
# reference, a gate still INLINE, an engine that defers nothing (the stages
# ran for the modelled DAG), a WRITE/RW global the engine cannot host
SERIAL, GATE, MODEL, GLOBAL_WRITE = "serial", "gate", "model", "global_write"


def cost_key(loop: "ParLoop", prefer_vectorized: bool) -> tuple:
    """What identifies a loop's inline cost: kernel content, rows, kernel form."""
    return (loop.kernel.fingerprint, loop.iterset.size, prefer_vectorized)


def should_defer(
    loop: "ParLoop", phase: int, cost: Optional[tuple[float, int]]
) -> bool:
    """Whether ``loop`` (the context's ``phase``-th) is heavy enough for tasks.

    ``cost`` is the session's ``(min seconds, samples)`` for the loop, or
    ``None``.  One sample is not evidence -- a first execution pays one-off
    set-up (``res_calc``'s scatter-schedule build) -- so the decision needs
    two and uses their minimum.  Guessing "inline" wrongly costs one
    serial-speed execution once per session; guessing "deferred" wrongly
    costs a pool spin-up and a context stuck at tens of ms per request.
    """
    if cost is None or cost[1] < 2:
        return False
    return cost[0] >= GRAIN_THRESHOLD_SECONDS


class GrainGate:
    """One context's gate state: ``INLINE`` until a loop flips it, then
    ``DEFERRED``; a *pinned* gate (the serial reference) never flips."""

    __slots__ = ("state", "reason", "flip_phase", "flip_loop")

    def __init__(self, *, pinned: bool = False) -> None:
        self.state = INLINE
        #: the inline reason of the loops the gate admits
        self.reason = SERIAL if pinned else GATE
        #: phase and name of the loop that flipped the gate (None while INLINE)
        self.flip_phase: Optional[int] = None
        self.flip_loop: Optional[str] = None

    @property
    def pinned(self) -> bool:
        """The serial reference's gate, which never asks."""
        return self.reason == SERIAL

    def admit_inline(
        self, loop: "ParLoop", phase: int, cost: Optional[tuple[float, int]]
    ) -> bool:
        """Whether the loop runs inline, given its ``cost`` entry (may flip
        the gate, before the loop runs)."""
        if self.state != INLINE:
            return False
        if self.reason == SERIAL or not should_defer(loop, phase, cost):
            return True
        self.state = DEFERRED
        self.flip_phase, self.flip_loop = phase, loop.name
        return False

    def describe(self, records: Sequence["LoopRecord"]) -> dict[str, Any]:
        """The ``details["grain"]`` entry of the backend report: the state,
        the loops the gate kept inline and those that ran as tasks, and every
        inline loop of the context by reason."""
        by_reason = Counter(r.reason for r in records if r.submission == INLINE)
        return {
            "state": self.state,
            "pinned": self.pinned,
            "inline_loops": by_reason[self.reason],
            "deferred_loops": sum(r.submission == DEFERRED for r in records),
            "inline_by_reason": dict(by_reason),
            "flip_phase": self.flip_phase,
            "flip_loop": self.flip_loop,
            "threshold_seconds": GRAIN_THRESHOLD_SECONDS,
        }
