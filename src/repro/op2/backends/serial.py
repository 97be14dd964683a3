"""Serial reference backend.

Executes every ``op_par_loop`` immediately, in program order, over the whole
iteration set.  It is the ground truth the parallel backends are compared
against in the correctness tests, and the default context when no other
context is active.

The context is the shared :class:`~repro.core.pipeline.LoopPipeline` with
no schedule policy: its grain gate is pinned INLINE, so every loop takes the
inline route (reason ``serial``) -- nothing lowered, analyzed, scheduled or
simulated, no stage event fired, and so no machine to simulate on.
``config=`` takes the same :class:`~repro.engines.RunConfig` as the parallel
contexts; only ``prefer_vectorized`` matters, but a mistyped engine name
still gets the registry's uniform error.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pipeline import LoopPipeline
from repro.engines import RunConfig
from repro.op2.context import ExecutionContext, resolve_context
from repro.session import Session

__all__ = ["serial_context"]


def serial_context(
    *,
    prefer_vectorized: Optional[bool] = None,
    config: Optional[RunConfig] = None,
    session: Optional[Session] = None,
) -> ExecutionContext:
    """Immediate, sequential execution of every loop."""
    run_config, session = resolve_context(config, session, prefer_vectorized=prefer_vectorized)
    return ExecutionContext(
        "serial", LoopPipeline(run_config=run_config, policy=None, session=session)
    )
