"""HPX backend: the paper's redesign of OP2 on the asynchronous runtime.

Inside

.. code-block:: python

    with active_context(hpx_context(config=RunConfig(engine="threads",
                                                     num_threads=32,
                                                     chunking="persistent_auto",
                                                     prefetch=True))) as ctx:
        airfoil.run(...)          # op_par_loop calls dispatch to ctx
    report = ctx.report()

every ``op_par_loop`` call

* executes numerically (bit-identical to the serial backend),
* returns a shared future of its output dat (usable as an input of later
  loops, Fig. 9/10), and
* contributes one chunk-task per chunk to a dependency DAG with
  chunk-granular edges to the loops it depends on.

``ctx.report()`` then simulates that DAG on the machine model in DATAFLOW
mode (no global barriers), yielding the makespan/bandwidth numbers the
benchmark harness compares against the OpenMP-style baseline.

The context is the shared :class:`~repro.core.pipeline.LoopPipeline` (plan →
analyze → schedule → submit) under the
:class:`~repro.core.policies.DataflowSchedulePolicy`, behind the grain gate.
The pipeline never branches on the engine's *name*: every behaviour
difference -- whether chunks are deferred onto the engine at all, whether the
dependency tracker adds strict-commit edges, whether a loop writing a
non-reduction global must fall back to the inline route inside a drained
window -- derives from the engine's :class:`~repro.engines.
EngineCapabilities`.  Registering a new engine via
:func:`repro.engines.register_engine` therefore makes it available here with
no changes to this module.

The built-in engines: ``simulate`` models the DAG while loops run inline;
``threads`` runs chunks on a :class:`~repro.runtime.pool_executor.
PoolExecutor` of OS workers, each chunk committing its own effects;
``processes`` runs them on worker processes over shared-memory dats
(:class:`~repro.runtime.process_pool.ProcessChunkEngine`), past the GIL.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.pipeline import build_dataflow_pipeline
from repro.engines import RunConfig
from repro.op2.context import ExecutionContext, resolve_context, resolve_machine
from repro.runtime.chunking import ChunkSizePolicy
from repro.session import Session
from repro.sim.machine import Machine

__all__ = ["hpx_context", "RunConfig"]


def hpx_context(
    *,
    machine: Union[Machine, str, None] = None,
    config: Optional[RunConfig] = None,
    engine: Optional[str] = None,
    num_threads: Optional[int] = None,
    chunking: Union[str, ChunkSizePolicy, None] = None,
    prefetch: Optional[bool] = None,
    prefetch_distance_factor: Optional[int] = None,
    interleave: Optional[bool] = None,
    interval_sets: Optional[bool] = None,
    async_tasking: Optional[bool] = None,
    prefer_vectorized: Optional[bool] = None,
    session: Optional[Session] = None,
) -> ExecutionContext:
    """Dataflow execution of OP2 loops with the paper's four optimisations."""
    run_config, session = resolve_context(
        config,
        session,
        engine=engine,
        num_threads=num_threads,
        chunking=chunking,
        prefetch=prefetch,
        prefetch_distance_factor=prefetch_distance_factor,
        interleave=interleave,
        interval_sets=interval_sets,
        async_tasking=async_tasking,
        prefer_vectorized=prefer_vectorized,
    )
    pipeline = build_dataflow_pipeline(run_config, resolve_machine(machine), session=session)
    return ExecutionContext("hpx", pipeline)
