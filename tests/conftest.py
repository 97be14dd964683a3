"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.apps.airfoil.airfoil as airfoil_app
import repro.apps.jacobi as jacobi_app
from repro.config import SMALL_TEST_MACHINE
from repro.op2.par_loop import op_par_loop
from repro.op2.plan import clear_plan_cache
from repro.session import Session
from repro.sim.machine import Machine


@pytest.fixture(autouse=True)
def _clean_state():
    """Keep shared state (plan cache, kernel namespace) isolated per test.

    The default session's kernel namespace is snapshotted before and restored
    after every test: a test registering a same-named kernel (deliberately or
    not) can no longer displace a module-level kernel for every later test in
    the process -- the leak the multiprocess engine's by-name dispatch turns
    into a hard error.
    """
    clear_plan_cache()
    kernels = Session.default().kernel_snapshot()
    yield
    Session.default().restore_kernels(kernels)
    clear_plan_cache()


class _ChunkIdLog(dict):
    """A ``pool_chunk_ids`` that also remembers what the pipeline forgets."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: dict[int, int] = {}

    def __setitem__(self, sim_id: int, pool_id: int) -> None:
        super().__setitem__(sim_id, pool_id)
        self.seen[sim_id] = pool_id


@pytest.fixture
def log_chunk_ids():
    """Install a whole-run ``sim id -> engine task id`` log on a context.

    The pipeline drops the ids of completed chunks at every drain; the
    DAG-enforcement tests check every edge of the run, so they log the ids
    as they are recorded: after ``install(context)`` the whole run's mapping
    is ``context.pipeline.pool_chunk_ids.seen``.
    """

    def install(context) -> None:
        context.pipeline.pool_chunk_ids = _ChunkIdLog()

    return install


@pytest.fixture
def small_machine() -> Machine:
    """A 4-core / 8-thread machine that keeps simulations fast."""
    return Machine(SMALL_TEST_MACHINE)


@pytest.fixture
def paper_machine() -> Machine:
    """The paper's 16-core / 32-thread testbed."""
    return Machine("paper-testbed")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy RNG."""
    return np.random.default_rng(42)


@pytest.fixture
def loop_futures(monkeypatch: pytest.MonkeyPatch) -> list:
    """Every future ``op_par_loop`` returns to the Jacobi and Airfoil apps."""
    futures: list = []

    def recording(*args, **kwargs):
        futures.append(op_par_loop(*args, **kwargs))
        return futures[-1]

    for app in (jacobi_app, airfoil_app):
        monkeypatch.setattr(app, "op_par_loop", recording)
    return futures
