"""The paper's contribution: OP2 redesigned on top of the HPX-style runtime.

The four runtime optimisation techniques of the paper map to submodules:

1. **Asynchronous tasking via futures/dataflow** --
   :func:`~repro.op2.args.op_arg_dat` accepting the future a loop returned
   (Fig. 7) and the :class:`~repro.core.policies.DataflowSchedulePolicy`
   (``op_par_loop`` as a dataflow node returning a future of its output dat,
   Figs. 8-9).
2. **Loop interleaving** -- :mod:`repro.core.interleaving`: chunk-granular
   dependency tracking between loops, so chunks of dependent loops overlap
   (Figs. 10-11).
3. **Dynamic chunk sizing** -- :mod:`repro.core.persistent_chunking`: the
   ``persistent_auto_chunk_size`` execution-policy parameter that gives every
   dependent loop chunks of equal *duration* (Fig. 12).
4. **Data prefetching** -- :mod:`repro.core.prefetch_integration`: the
   prefetching iterator over a loop's containers (Figs. 13-14).

All four combine in the shared loop-lowering pipeline
(:mod:`repro.core.pipeline`, schedule policies in :mod:`repro.core.policies`,
stage artifacts in :mod:`repro.core.stages`):
every backend context lowers loops through the same plan → analyze →
schedule → submit stages, parameterised only by a schedule policy and the
configured engine's capabilities -- behind the grain gate
(:mod:`repro.core.grain`), which keeps a loop chain too small to pay for
tasks inline and off the engines.  :mod:`repro.core.executor` wraps the
dataflow policy as the ``hpx`` OP2 backend; :mod:`repro.core.optimizer`
derives from the run's ``RunConfig`` which technique is on (the ablation
benchmarks sweep those fields).
"""

from repro.core.optimizer import OptimizationConfig
from repro.core.executor import HPXContext, hpx_context
from repro.core.interleaving import AccessRecord, DependencyTracker
from repro.core.persistent_chunking import ChunkPlanner
from repro.core.pipeline import LoopPipeline
from repro.core.policies import (
    ColorForkJoinSchedulePolicy,
    DataflowSchedulePolicy,
    SchedulePolicy,
)
from repro.core.prefetch_integration import build_prefetch_spec, make_loop_prefetcher
from repro.core.stages import (
    PIPELINE_STAGES,
    AnalyzedChunk,
    AnalyzedLoop,
    ChunkRange,
    ChunkSchedule,
    ChunkTaskSpec,
    LoopRecord,
    LoweredLoop,
    ReductionPlan,
    StageEvent,
)

__all__ = [
    "OptimizationConfig",
    "HPXContext",
    "hpx_context",
    "AccessRecord",
    "DependencyTracker",
    "ChunkPlanner",
    "build_prefetch_spec",
    "make_loop_prefetcher",
    "LoopPipeline",
    "SchedulePolicy",
    "DataflowSchedulePolicy",
    "ColorForkJoinSchedulePolicy",
    "PIPELINE_STAGES",
    "ChunkRange",
    "LoweredLoop",
    "AnalyzedChunk",
    "AnalyzedLoop",
    "ChunkTaskSpec",
    "ReductionPlan",
    "ChunkSchedule",
    "LoopRecord",
    "StageEvent",
]
