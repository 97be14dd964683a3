"""OpenMP-style baseline backend.

This is the code the stock OP2 translator generates (Fig. 4 of the paper):
every ``op_par_loop`` becomes a ``#pragma omp parallel for`` over the plan's
blocks, and -- crucially -- there is an **implicit global barrier at the end
of every loop**, because "the outputs of the computations ... cannot be
passed to the outside of the loop" and "the threads inside the loop must wait
to synchronize before exiting the loop".

The context is the shared :class:`~repro.core.pipeline.LoopPipeline` under
the :class:`~repro.core.policies.ColorForkJoinSchedulePolicy`: colouring is
*a schedule policy*, not a separate lowering path.  The policy lowers each
loop via the colouring plan, executes blocks colour by colour (what makes
indirect increments race-free in the real OpenMP code), contributes one
simulated task per block with every colour as its own fork/join phase, and
later simulates the graph in ``BARRIER`` mode -- modelling the fork/join and
barrier overheads and the load-imbalance amplification the paper attributes
to the OpenMP design.  With a deferred engine (e.g. ``engine="threads"``)
each colour's blocks really run on the engine, one fork/join phase per
colour with a barrier in between.

Like the HPX context, the baseline selects its numerical substrate from the
:mod:`repro.engines` registry -- but it negotiates by *capability*, not by
name: the defining property of the fork/join design is the shared-address-
space barrier per loop, so any engine advertising
``shared_address_space=False`` (e.g. the multiprocess engine) is rejected,
while every shared-memory engine -- including third-party registrations --
is accepted.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.pipeline import LoopPipeline
from repro.core.policies import ColorForkJoinSchedulePolicy
from repro.engines import RunConfig
from repro.op2.context import ExecutionContext, resolve_context, resolve_machine
from repro.session import Session
from repro.sim.machine import Machine

__all__ = ["openmp_context"]


def openmp_context(
    *,
    machine: Union[Machine, str, None] = None,
    config: Optional[RunConfig] = None,
    engine: Optional[str] = None,
    num_threads: Optional[int] = None,
    prefer_vectorized: Optional[bool] = None,
    session: Optional[Session] = None,
) -> ExecutionContext:
    """Fork/join execution with a global barrier after every loop."""
    run_config, session = resolve_context(
        config,
        session,
        engine=engine,
        num_threads=num_threads,
        prefer_vectorized=prefer_vectorized,
    )
    pipeline = LoopPipeline(
        run_config=run_config,
        policy=ColorForkJoinSchedulePolicy(),
        machine=resolve_machine(machine),
        session=session,
    )
    return ExecutionContext("openmp", pipeline)
