"""OpenMP-style baseline backend.

This is the code the stock OP2 translator generates (Fig. 4 of the paper):
every ``op_par_loop`` becomes a ``#pragma omp parallel for`` over the plan's
blocks, and -- crucially -- there is an **implicit global barrier at the end
of every loop**, because "the outputs of the computations ... cannot be
passed to the outside of the loop" and "the threads inside the loop must wait
to synchronize before exiting the loop".

The context is a thin adapter over the shared
:class:`~repro.core.pipeline.LoopPipeline`: colouring is expressed as the
:class:`~repro.core.policies.ColorForkJoinSchedulePolicy`, *a schedule
policy*, not a separate lowering path.  The policy lowers each loop via the
colouring plan, executes blocks colour by colour (what makes indirect
increments race-free in the real OpenMP code), contributes one simulated
task per block with every colour as its own fork/join phase, and later
simulates the graph in ``BARRIER`` mode -- modelling the fork/join and
barrier overheads and the load-imbalance amplification the paper attributes
to the OpenMP design.

Like the HPX context, the baseline selects its numerical substrate from the
:mod:`repro.engines` registry -- but it negotiates by *capability*, not by
name: the defining property of the fork/join design is the shared-address-
space barrier per loop, so any engine advertising
``shared_address_space=False`` (e.g. the multiprocess engine) is rejected,
while every shared-memory engine -- including third-party registrations --
is accepted.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.config import DEFAULTS
from repro.core.pipeline import LoopPipeline
from repro.core.policies import ColorForkJoinSchedulePolicy
from repro.engines import ExecutionEngine, RunConfig, resolve_run_config
from repro.errors import OP2BackendError
from repro.op2.context import BackendReport, ExecutionContext, register_backend
from repro.op2.par_loop import ParLoop
from repro.session import Session
from repro.sim.machine import Machine
from repro.sim.scheduler_sim import OmpSchedule

__all__ = ["OpenMPContext", "openmp_context"]


class OpenMPContext(ExecutionContext):
    """Fork/join execution with a global barrier after every loop.

    With a deferred engine (e.g. ``engine="threads"``) each colour's blocks
    really run on the engine -- one fork/join phase per colour with a barrier
    in between, exactly the structure of the generated OpenMP code -- with
    per-block private buffers merged in block order so results match the
    sequential colour-by-colour execution bit for bit.
    """

    backend_name = "openmp"

    def __init__(
        self,
        *,
        machine: Union[Machine, str, None] = None,
        config: Optional[RunConfig] = None,
        engine: Optional[str] = None,
        num_threads: Optional[int] = None,
        block_size: int = 256,
        omp_schedule: Union[OmpSchedule, str] = OmpSchedule.STATIC,
        prefer_vectorized: Optional[bool] = None,
        execution: Optional[str] = None,
        session: Optional[Session] = None,
    ) -> None:
        super().__init__(session)
        if config is not None and not isinstance(config, RunConfig):
            raise OP2BackendError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        run_config = resolve_run_config(
            config,
            execution=execution,
            engine=engine,
            num_threads=num_threads,
            prefer_vectorized=prefer_vectorized,
        )
        self.run_config = run_config
        if machine is None:
            machine = Machine(DEFAULTS.machine_preset)
        elif isinstance(machine, str):
            machine = Machine(machine)
        self.machine = machine
        self.num_threads = run_config.num_threads
        self.pipeline = LoopPipeline(
            run_config=run_config,
            policy=ColorForkJoinSchedulePolicy(block_size=block_size, omp_schedule=omp_schedule),
            machine=machine,
            session=self.session,
        )

    # -- loop execution -----------------------------------------------------------
    def execute(self, loop: ParLoop) -> Any:
        """Execute the loop block-by-block and record its tasks; returns ``None``.

        Loops with indirect increments execute (and are timed) colour by
        colour, exactly as the OP2 OpenMP code generator emits them: one
        ``#pragma omp parallel for`` over the blocks of each colour, with an
        implicit barrier between colours and after the loop.
        """
        self.pipeline.run(loop)
        self.loop_count += 1
        return None

    # -- pipeline views -----------------------------------------------------------
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
        """The accumulated block-task graph."""
        return self.pipeline.task_graph

    @property
    def block_size(self) -> int:
        """Block size handed to the colouring planner."""
        return self.pipeline.policy.block_size

    @property
    def omp_schedule(self) -> OmpSchedule:
        """The modelled ``omp schedule(...)`` clause."""
        return self.pipeline.policy.omp_schedule

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent between the first loop and finish()."""
        return self.pipeline.wall_seconds

    # -- lifecycle / reporting ----------------------------------------------------
    def abort(self) -> None:
        """Cancel unstarted block tasks and stop the engine (deferred engines)."""
        self.pipeline.abort()

    def finish(self) -> None:
        """Drain the engine (deferred engines) and simulate the graph in BARRIER mode."""
        self.pipeline.finish()

    def report(self) -> BackendReport:
        """Report including the simulated BARRIER schedule."""
        return self.pipeline.build_report(self.backend_name)


def openmp_context(**kwargs: Any) -> OpenMPContext:
    """Factory for :class:`OpenMPContext` (registered as backend ``"openmp"``)."""
    return OpenMPContext(**kwargs)


register_backend("openmp", openmp_context, overwrite=True)
