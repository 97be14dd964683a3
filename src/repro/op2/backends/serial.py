"""Serial reference backend.

Executes every ``op_par_loop`` immediately, in program order, over the whole
iteration set.  It is the ground truth the parallel backends are compared
against in the correctness tests, and the default context when no other
context is active.

The context is the shared :class:`~repro.core.pipeline.LoopPipeline` with
no schedule policy: its grain gate is pinned INLINE, so every loop takes the
inline route (reason ``serial``) -- nothing lowered, analyzed, scheduled or
simulated, no stage event fired.  ``config=`` takes the same
:class:`~repro.engines.RunConfig` as the parallel contexts; only
``prefer_vectorized`` matters, but a mistyped engine name still gets the
registry's uniform error.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.pipeline import LoopPipeline
from repro.engines import RunConfig
from repro.errors import OP2BackendError
from repro.op2.context import BackendReport, ExecutionContext, register_backend
from repro.op2.par_loop import ParLoop
from repro.session import Session

__all__ = ["SerialContext", "serial_context"]


class SerialContext(ExecutionContext):
    """Immediate, sequential execution of every loop."""

    backend_name = "serial"

    def __init__(
        self,
        *,
        prefer_vectorized: Optional[bool] = None,
        config: Optional[RunConfig] = None,
        session: Optional[Session] = None,
    ) -> None:
        super().__init__(session)
        if config is not None and not isinstance(config, RunConfig):
            raise OP2BackendError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        self.pipeline = LoopPipeline(
            run_config=config if config is not None else RunConfig(),
            policy=None,
            prefer_vectorized=prefer_vectorized,
            session=self.session,
        )

    def execute(self, loop: ParLoop) -> Any:
        """Run the loop to completion; returns ``None``."""
        self.pipeline.run(loop)
        self.loop_count += 1
        return None

    @property
    def prefer_vectorized(self) -> bool:
        """Whether kernels prefer their vectorized form."""
        return self.pipeline.prefer_vectorized

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent between the first loop and finish()."""
        return self.pipeline.wall_seconds

    def finish(self) -> None:
        """Fold the wall clock (nothing to drain or simulate)."""
        self.pipeline.finish()

    def report(self) -> BackendReport:
        """Report with loop count and wall time only (nothing is simulated)."""
        return self.pipeline.build_report(self.backend_name)


def serial_context(**kwargs: Any) -> SerialContext:
    """Factory for :class:`SerialContext` (registered as backend ``"serial"``)."""
    return SerialContext(**kwargs)


register_backend("serial", serial_context, overwrite=True)
