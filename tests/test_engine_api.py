"""The pluggable execution-engine seam: registry, capabilities, RunConfig.

Covers the four contracts of the engine API:

* **registry round-trip** -- a third-party engine registered via
  ``register_engine`` is discoverable, constructible through ``RunConfig``,
  and removable again;
* **capability negotiation** -- contexts derive drain points, the
  global-write parent fallback and engine rejection from
  ``EngineCapabilities`` flags, never from engine names;
* **third-party execution** -- a toy engine written entirely in this file
  runs the Jacobi application serial-identically without modifying any
  ``repro`` module;
* **one way to name an engine** -- ``engine=`` / ``RunConfig``;
  ``execution=`` is rejected like any unknown keyword.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

import numpy as np
import pytest

from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.engines import (
    EngineCapabilities,
    ExecutionEngine,
    RunConfig,
    available_engines,
    engine_capabilities,
    make_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import OP2BackendError
from repro.op2 import (
    OP_ID,
    OP_RW,
    OP_WRITE,
    Kernel,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_set,
    op_par_loop,
)
from repro.op2.par_loop import LoopChunk
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache


class ToyInlineEngine:
    """A minimal third-party engine: runs every task at submission.

    Implements the :class:`~repro.engines.ExecutionEngine` protocol with no
    help from ``repro`` internals -- submission order equals completion
    order, so dependencies (ids of already-finished tasks) are trivially
    satisfied and results match sequential chunked execution exactly.
    """

    capabilities = EngineCapabilities()

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config
        self.trace_events = None
        self._ids = itertools.count()
        self._shutdown = False
        self.chunks_submitted = 0
        self.wait_all_calls = 0

    @property
    def num_workers(self) -> int:
        return 1

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        # every chunk of a loop is one task that commits its own effects
        if isinstance(fn, LoopChunk):
            self.chunks_submitted += 1
        fn()
        return next(self._ids)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        self.wait_all_calls += 1

    def cancel_pending(self) -> None:
        pass

    def shutdown(self, wait: bool = True) -> None:
        self._shutdown = True


@pytest.fixture
def toy_engine():
    """Register the toy engine for one test and clean the registry up after."""
    name = "toy-inline"
    instances: list[ToyInlineEngine] = []

    def factory(config: RunConfig) -> ToyInlineEngine:
        engine = ToyInlineEngine(config)
        instances.append(engine)
        return engine

    register_engine(name, factory, capabilities=ToyInlineEngine.capabilities)
    try:
        yield name, instances
    finally:
        unregister_engine(name)


def _run_jacobi(factory, **kwargs):
    clear_plan_cache()
    problem = build_ring_problem(num_nodes=300)
    context = factory(**kwargs)
    with active_context(context):
        result = run_jacobi(problem, iterations=10)
    return result, context


# ---------------------------------------------------------------------------
# Registry round-trip
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_engines_registered(self):
        assert {"simulate", "threads", "processes"} <= set(available_engines())
        assert engine_capabilities("simulate").deferred is False
        assert engine_capabilities("threads").shared_address_space is True
        processes = engine_capabilities("processes")
        assert processes.needs_kernel_registry is True
        assert processes.supports_global_write is False

    def test_round_trip(self, toy_engine):
        name, instances = toy_engine
        assert name in available_engines()
        assert engine_capabilities(name) is ToyInlineEngine.capabilities
        engine = make_engine(RunConfig(engine=name, num_threads=3))
        assert isinstance(engine, ToyInlineEngine)
        assert engine.config.num_threads == 3
        assert instances == [engine]
        unregister_engine(name)
        assert name not in available_engines()
        register_engine(name, lambda config: ToyInlineEngine(config),
                        capabilities=ToyInlineEngine.capabilities)

    def test_protocol_conformance(self, toy_engine):
        name, _ = toy_engine
        assert isinstance(make_engine(RunConfig(engine=name)), ExecutionEngine)

    def test_capabilities_can_come_from_the_factory(self):
        register_engine("toy-class", ToyInlineEngine)  # class carries capabilities
        try:
            assert engine_capabilities("toy-class") is ToyInlineEngine.capabilities
        finally:
            unregister_engine("toy-class")

    def test_factory_without_capabilities_rejected(self):
        with pytest.raises(OP2BackendError, match="EngineCapabilities"):
            register_engine("toy-capless", lambda config: None)

    def test_duplicate_registration_rejected(self, toy_engine):
        name, _ = toy_engine
        with pytest.raises(OP2BackendError, match="already registered"):
            register_engine(name, ToyInlineEngine)

    def test_builtin_engines_cannot_be_unregistered(self):
        with pytest.raises(OP2BackendError, match="built-in"):
            unregister_engine("threads")

    def test_builtin_name_collision_detected_before_builtins_load(self):
        """Registering a builtin name in a fresh interpreter (before any
        lookup lazily loads the builtins) must collide loudly instead of
        being silently clobbered by the builtin self-registration later."""
        import subprocess
        import sys

        code = (
            "from repro.engines import register_engine, EngineCapabilities\n"
            "from repro.errors import OP2BackendError\n"
            "try:\n"
            "    register_engine('threads', lambda config: None,\n"
            "                    capabilities=EngineCapabilities())\n"
            "except OP2BackendError as exc:\n"
            "    assert 'already registered' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('builtin name was silently shadowed')\n"
        )
        subprocess.run(
            [sys.executable, "-B", "-c", code], check=True, env={"PYTHONPATH": "src"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        )

    def test_context_module_rejects_unknown_attribute(self):
        """The engine list is ``available_engines()``; there is no module tuple."""
        import repro.op2.context as context_module

        with pytest.raises(AttributeError, match="no attribute 'EXECUTION_MODES'"):
            context_module.EXECUTION_MODES


# ---------------------------------------------------------------------------
# Uniform unknown-engine error
# ---------------------------------------------------------------------------
class TestUnknownEngineError:
    MATCH = r"unknown execution engine 'bogus'; registered engines: \["

    def test_hpx_context(self):
        with pytest.raises(OP2BackendError, match=self.MATCH):
            hpx_context(engine="bogus")

    def test_openmp_context(self):
        with pytest.raises(OP2BackendError, match=self.MATCH):
            openmp_context(engine="bogus")

    def test_serial_context_via_config(self):
        with pytest.raises(OP2BackendError, match=self.MATCH):
            serial_context(config=RunConfig(engine="bogus"))

    def test_error_lists_registered_engines(self):
        with pytest.raises(OP2BackendError) as excinfo:
            hpx_context(engine="bogus")
        for name in available_engines():
            assert name in str(excinfo.value)


# ---------------------------------------------------------------------------
# Capability negotiation
# ---------------------------------------------------------------------------
class TestCapabilityNegotiation:
    def test_openmp_rejects_engines_without_shared_address_space(self):
        # Rejection is by capability: the message names the flag, not a list
        # of banned engine names.
        with pytest.raises(OP2BackendError, match="shared_address_space"):
            openmp_context(engine="processes")

    def test_openmp_rejects_by_name_dispatch_engines(self):
        """The baseline submits block closures, so an engine that only takes
        by-name kernel dispatch is rejected at construction -- not with an
        AttributeError mid-run."""

        class ByNameEngine(ToyInlineEngine):
            capabilities = EngineCapabilities(needs_kernel_registry=True)

        register_engine("toy-by-name", ByNameEngine)
        try:
            with pytest.raises(OP2BackendError, match="needs_kernel_registry"):
                openmp_context(engine="toy-by-name")
        finally:
            unregister_engine("toy-by-name")

    def test_openmp_accepts_third_party_shared_memory_engine(self, toy_engine):
        name, instances = toy_engine
        result, context = _run_jacobi(openmp_context, engine=name, num_threads=2)
        reference, _ = _run_jacobi(serial_context)
        assert np.array_equal(result.u, reference.u)
        assert context.report().details["execution"] == name
        assert instances and instances[0].chunks_submitted > 0

    def test_tracker_strictness_follows_capabilities(self, toy_engine):
        name, _ = toy_engine
        def tracker(**kwargs):
            return hpx_context(**kwargs).pipeline.policy.tracker

        assert tracker(engine=name).strict_commit_order is True
        assert tracker().strict_commit_order is False
        assert tracker(engine="threads").strict_commit_order is True

    def test_global_write_capability_forces_parent_eager_path(self):
        """supports_global_write=False must route WRITE-global loops around
        the engine: the loop runs inline in the drained parent and the
        engine sees none of its chunks."""

        class NoGlobalWriteEngine(ToyInlineEngine):
            capabilities = EngineCapabilities(supports_global_write=False)

        register_engine("toy-no-gwrite", NoGlobalWriteEngine)
        try:
            outcome = self._run_global_write_loop("toy-no-gwrite")
            assert outcome["chunks_submitted_by_global_write_loop"] == 0
        finally:
            unregister_engine("toy-no-gwrite")

    def test_global_write_capable_engine_keeps_the_loop(self):
        register_engine("toy-gwrite", ToyInlineEngine)
        try:
            outcome = self._run_global_write_loop("toy-gwrite")
            assert outcome["chunks_submitted_by_global_write_loop"] > 0
        finally:
            unregister_engine("toy-gwrite")

    @staticmethod
    def _run_global_write_loop(engine_name: str) -> dict:
        clear_plan_cache()
        cells = op_decl_set(128, "cells")
        dat = op_decl_dat(cells, 1, "double", np.arange(128.0), "d")
        total = np.zeros(1)

        def scale_elem(d, g):
            d[0] = d[0] * 2.0
            g[0] = d[0]

        def scale_vec(_idx, d, g):
            d[:, 0] *= 2.0
            g[0] = d[-1, 0]

        kernel = Kernel(
            name=f"global_write_{engine_name.replace('-', '_')}",
            elemental=scale_elem,
            vectorized=scale_vec,
        )
        context = hpx_context(engine=engine_name, num_threads=2)
        with active_context(context):
            op_par_loop(
                kernel,
                "global_write",
                cells,
                op_arg_dat(dat, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(total, 1, "double", OP_WRITE),
            )
            engine = context.executor
            submitted = engine.chunks_submitted if engine is not None else 0
        assert np.allclose(dat.data[:, 0], np.arange(128.0) * 2.0)
        return {"chunks_submitted_by_global_write_loop": submitted}

    def test_report_carries_engine_name_and_capabilities(self, toy_engine):
        name, _ = toy_engine
        _result, context = _run_jacobi(hpx_context, engine=name, num_threads=2)
        details = context.report().details
        assert details["execution"] == name
        assert details["engine"] == name
        assert details["engine_capabilities"]["deferred"] is True


# ---------------------------------------------------------------------------
# Third-party engine end to end
# ---------------------------------------------------------------------------
class TestThirdPartyEngine:
    def test_toy_engine_runs_jacobi_serial_identically(self, toy_engine):
        name, instances = toy_engine
        reference, _ = _run_jacobi(serial_context)
        result, context = _run_jacobi(
            hpx_context, config=RunConfig(engine=name, num_threads=2)
        )
        assert np.array_equal(result.u, reference.u)
        assert result.u_max_history == reference.u_max_history
        assert np.allclose(result.u_sum_history, reference.u_sum_history, rtol=1e-12)
        # The run really went through the toy engine, chunk by chunk, and
        # the reduction drain points queried it.
        assert instances and instances[0].chunks_submitted > 0
        assert instances[0].wait_all_calls > 0
        assert context.report().details["execution"] == name


# ---------------------------------------------------------------------------
# One way to name an engine
# ---------------------------------------------------------------------------
class TestEngineIsTheOnlySpelling:
    @pytest.mark.parametrize("factory", [hpx_context, openmp_context])
    def test_execution_kwarg_is_rejected(self, factory):
        with pytest.raises(TypeError, match="execution"):
            factory(execution="threads")

    def test_experiment_config_names_engines_only(self):
        from repro.bench.harness import ExperimentConfig

        with pytest.raises(TypeError, match="execution"):
            ExperimentConfig(backend="hpx", execution="threads")  # type: ignore[call-arg]
        assert ExperimentConfig(backend="hpx", engine="threads").label().endswith("[threads]")
