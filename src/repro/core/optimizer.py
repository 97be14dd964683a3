"""The four runtime optimisations a run switches on.

:class:`OptimizationConfig` is what the HPX context's schedule policy reads,
derived from the run's :class:`~repro.engines.RunConfig` (the one place a
caller says how loops execute); the benchmark harness sweeps the RunConfig
fields to reproduce the paper's figures and ablations:

* ``async_tasking`` -- execute loops as dataflow nodes (off = behave like a
  barrier backend even under the HPX context; used only for sanity ablations).
* ``interleaving`` -- chunk-granular dependencies between loops (off = a
  consumer chunk depends on *all* chunks of the producing loop, i.e.
  loop-granular edges).
* ``persistent_chunking`` -- the ``persistent_auto_chunk_size`` policy
  (off = plain ``auto_chunk_size``).
* ``prefetching`` + ``prefetch_distance_factor`` -- the prefetching iterator
  (modelled in each chunk's cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import DEFAULTS
from repro.errors import OP2BackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines import RunConfig

__all__ = ["OptimizationConfig"]


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the paper's four techniques are active."""

    async_tasking: bool = True
    interleaving: bool = True
    persistent_chunking: bool = False
    prefetching: bool = False
    prefetch_distance_factor: int = DEFAULTS.prefetch_distance_factor

    def __post_init__(self) -> None:
        if self.prefetch_distance_factor <= 0:
            raise OP2BackendError("prefetch_distance_factor must be positive")
        if self.prefetching and not self.async_tasking:
            # The paper's prefetcher is specifically the combination of
            # thread-based prefetching *with* asynchronous task execution.
            raise OP2BackendError("prefetching requires async_tasking")

    @classmethod
    def from_run_config(cls, run_config: "RunConfig") -> "OptimizationConfig":
        """The techniques a :class:`~repro.engines.RunConfig` switches on."""
        policy = run_config.chunking
        persistent = (
            policy == "persistent_auto" or getattr(policy, "name", "") == "persistent_auto"
        )
        return cls(
            async_tasking=run_config.async_tasking,
            interleaving=run_config.interleave,
            persistent_chunking=persistent,
            prefetching=run_config.prefetch,
            prefetch_distance_factor=(
                run_config.prefetch_distance_factor
                if run_config.prefetch_distance_factor is not None
                else DEFAULTS.prefetch_distance_factor
            ),
        )

    def describe(self) -> str:
        """Short label used in benchmark tables."""
        parts = []
        parts.append("dataflow" if self.async_tasking else "no-dataflow")
        parts.append("interleave" if self.interleaving else "loop-granular")
        parts.append("persistent-chunks" if self.persistent_chunking else "auto-chunks")
        if self.prefetching:
            parts.append(f"prefetch(d={self.prefetch_distance_factor})")
        return "+".join(parts)
