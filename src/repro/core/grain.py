"""The grain gate: a loop chain too small to pay for tasks never becomes tasks.

The paper's ``auto_chunk_size`` / ``persistent_auto_chunk_size`` exist for
grain control -- a task must carry enough work to amortise its spawn.  The
same rule one level up: a *loop* whose whole-set serial execution takes less
than :data:`GRAIN_THRESHOLD_SECONDS` costs more to chunk, track, submit and
drain than to run, on every deferred engine (``docs/perf/pr-24.txt`` holds
the mesh-size sweep the value was read from).

A deferring context therefore starts :data:`INLINE`: each loop runs through
the serial reference path on the submitting thread, nothing is lowered,
tracked or submitted, and no engine is acquired.  The first loop whose
*measured* inline time reaches the threshold flips the context -- once, for
the rest of its life -- to :data:`DEFERRED`, before that loop executes; from
then on every loop takes the plan → analyze → schedule → submit path.  Two
states and no per-loop choice: mixing inline and deferred loops measured
worse than either extreme on the partitioned engine (every inline write
invalidates the shards' copies), and since ``INLINE`` strictly precedes
``DEFERRED`` nothing is ever pending when a loop runs inline, so the gate
never inserts a drain.

The measurement is the session's :class:`~repro.session.LoopCostTable`:
every whole-set inline run (serial contexts, eager loops of non-deferred
engines, the global-WRITE fallback, gate-inline loops) records the CPU time
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

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.par_loop import ParLoop
    from repro.session import LoopCostTable

__all__ = [
    "GRAIN_THRESHOLD_SECONDS",
    "INLINE",
    "DEFERRED",
    "cost_key",
    "should_defer",
    "GrainGate",
]

#: measured whole-set inline CPU seconds at or above which a loop is worth tasks
GRAIN_THRESHOLD_SECONDS = 0.020

INLINE = "inline"
DEFERRED = "deferred"


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
    """One context's gate state: ``INLINE`` until a loop flips it, then ``DEFERRED``."""

    __slots__ = ("state", "flip_phase", "flip_loop", "inline_loops", "deferred_loops")

    def __init__(self) -> None:
        self.state = INLINE
        #: phase and name of the loop that flipped the gate (None while INLINE)
        self.flip_phase: Optional[int] = None
        self.flip_loop: Optional[str] = None
        self.inline_loops = 0
        self.deferred_loops = 0

    def admit_inline(
        self, loop: "ParLoop", phase: int, costs: "LoopCostTable", prefer_vectorized: bool
    ) -> bool:
        """Count the loop and say whether it runs inline (may flip the gate)."""
        if self.state == INLINE:
            if not should_defer(
                loop, phase, costs.lookup(cost_key(loop, prefer_vectorized))
            ):
                self.inline_loops += 1
                return True
            self.state = DEFERRED
            self.flip_phase, self.flip_loop = phase, loop.name
        self.deferred_loops += 1
        return False

    def describe(self) -> dict[str, Any]:
        """The ``details["grain"]`` entry of the backend report."""
        return {
            "state": self.state,
            "inline_loops": self.inline_loops,
            "deferred_loops": self.deferred_loops,
            "flip_phase": self.flip_phase,
            "flip_loop": self.flip_loop,
            "threshold_seconds": GRAIN_THRESHOLD_SECONDS,
        }
