"""The HPX execution context: OP2 loops on the asynchronous runtime.

:class:`HPXContext` is the backend the paper proposes.  Inside

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
  loops, Fig. 9/10),
* contributes one chunk-task per chunk to a dependency DAG with
  chunk-granular edges to the loops it depends on, and

``ctx.report()`` then simulates that DAG on the machine model in DATAFLOW
mode (no global barriers), yielding the makespan/bandwidth numbers the
benchmark harness compares against the OpenMP-style baseline.

The context itself is a thin adapter: all lowering lives in the shared
:class:`~repro.core.pipeline.LoopPipeline` (plan → analyze → schedule →
submit) under the :class:`~repro.core.pipeline.DataflowSchedulePolicy`.  The
pipeline never branches on the engine's *name*: every behaviour difference --
whether chunks are deferred onto the engine at all, whether the dependency
tracker adds strict-commit edges, whether a loop writing a non-reduction
global must fall back to the inline route inside a drained window,
which submission style is used -- derives from the engine's
:class:`~repro.engines.EngineCapabilities`.  Registering a new engine via
:func:`repro.engines.register_engine` therefore makes it available here with
no changes to this module.

The built-in engines: ``simulate`` models the DAG while loops run inline;
``threads`` runs chunks on a :class:`~repro.runtime.pool_executor.
PoolExecutor` of OS workers with deterministic chunk-order merges;
``processes`` runs them on worker processes over shared-memory dats
(:class:`~repro.runtime.process_pool.ProcessChunkEngine`), past the GIL.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.config import DEFAULTS
from repro.core.optimizer import OptimizationConfig
from repro.core.pipeline import build_dataflow_pipeline
from repro.core.stages import LoopRecord
from repro.engines import ExecutionEngine, RunConfig, resolve_run_config
from repro.errors import OP2BackendError
from repro.op2.context import BackendReport, ExecutionContext, register_backend
from repro.op2.dat import OpDat
from repro.op2.par_loop import ParLoop
from repro.runtime.chunking import ChunkSizePolicy
from repro.runtime.future import SharedFuture
from repro.session import Session
from repro.sim.machine import Machine

__all__ = ["HPXContext", "hpx_context"]


class HPXContext(ExecutionContext):
    """Dataflow execution of OP2 loops with the paper's four optimisations."""

    backend_name = "hpx"

    def __init__(
        self,
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
    ) -> None:
        super().__init__(session)
        if config is not None and not isinstance(config, RunConfig):
            raise OP2BackendError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        run_config = resolve_run_config(
            config,
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
        self.run_config = run_config

        if machine is None:
            machine = Machine(DEFAULTS.machine_preset)
        elif isinstance(machine, str):
            machine = Machine(machine)
        self.machine = machine
        self.num_threads = run_config.num_threads

        optimization = OptimizationConfig.from_run_config(run_config)
        self.config = optimization

        self.pipeline = build_dataflow_pipeline(
            run_config, machine, optimization, session=self.session
        )
        self.loop_futures: dict[str, SharedFuture[OpDat]] = {}

    # -- loop execution ----------------------------------------------------------------
    def execute(self, loop: ParLoop) -> SharedFuture[OpDat]:
        """Execute (or schedule) one loop; returns a shared future of its output dat."""
        future = self.pipeline.run(loop)
        assert future is not None  # the dataflow policy always yields futures
        self.loop_futures[f"{loop.name}@{self.loop_count}"] = future
        self.loop_count += 1
        return future

    # -- pipeline views ----------------------------------------------------------------
    @property
    def capabilities(self):
        """Capability record of the configured engine."""
        return self.pipeline.capabilities

    @property
    def executor(self) -> Optional[ExecutionEngine]:
        """The engine of the current run (``None`` before any deferred loop)."""
        return self.pipeline.executor

    @property
    def task_graph(self):
        """The accumulated chunk-task DAG."""
        return self.pipeline.task_graph

    @property
    def tracker(self):
        """The chunk-granular dependency tracker."""
        return self.pipeline.policy.tracker

    @property
    def planner(self):
        """The chunk planner."""
        return self.pipeline.policy.planner

    @property
    def loop_records(self) -> list[LoopRecord]:
        """Per-loop chunking/dependency records."""
        return self.pipeline.records

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent between the first loop and finish()."""
        return self.pipeline.wall_seconds

    # -- lifecycle / reporting ---------------------------------------------------------
    def abort(self) -> None:
        """Cancel unstarted chunk tasks and stop the engine (deferred engines)."""
        self.pipeline.abort()

    def finish(self) -> None:
        """Drain the engine (deferred engines) and simulate the accumulated DAG."""
        self.pipeline.finish()

    def report(self) -> BackendReport:
        """Report including the simulated DATAFLOW schedule and chunk statistics."""
        return self.pipeline.build_report(self.backend_name)


def hpx_context(**kwargs: Any) -> HPXContext:
    """Factory for :class:`HPXContext` (registered as backend ``"hpx"``)."""
    return HPXContext(**kwargs)


register_backend("hpx", hpx_context, overwrite=True)
