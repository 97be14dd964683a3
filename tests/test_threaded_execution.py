"""Integration tests of ``engine="threads"``: real pools, real DAG edges.

The threaded engine must (a) reproduce the serial backend's numbers --
bit-identically for loops with a single scatter stream, to tight tolerance
when a loop carries several scatter streams whose commit interleaving differs
from unchunked execution -- (b) be deterministic run to run, and (c) honour
every dependency edge of the chunk DAG at runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.bench.harness import (
    AirfoilWorkload,
    ExperimentConfig,
    run_airfoil_experiment,
    run_renumbered_sweep,
    run_thread_sweep,
    run_wallclock_comparison,
)
from repro.errors import OP2BackendError
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.plan import clear_plan_cache
from repro.runtime.future import HandleFuture


def _run_airfoil(factory, prepare=None, **kwargs):
    clear_plan_cache()
    mesh = generate_mesh(30, 20)
    context = factory(**kwargs)
    if prepare is not None:
        prepare(context)
    with active_context(context):
        result = run_airfoil(mesh, niter=2, rk_steps=2)
    return result, context


def _run_jacobi(factory, **kwargs):
    clear_plan_cache()
    problem = build_ring_problem(num_nodes=500)
    context = factory(**kwargs)
    with active_context(context):
        result = run_jacobi(problem, iterations=15)
    return result, context


class TestHPXThreads:
    def test_rejects_unknown_execution_mode(self):
        with pytest.raises(OP2BackendError):
            hpx_context(engine="warp-drive")

    def test_airfoil_matches_serial(self):
        reference, _ = _run_airfoil(serial_context)
        threaded, context = _run_airfoil(hpx_context, num_threads=4, engine="threads")
        assert np.allclose(threaded.q, reference.q, rtol=1e-12, atol=1e-14)
        assert np.allclose(threaded.rms_history, reference.rms_history, rtol=1e-12)
        report = context.report()
        assert report.details["execution"] == "threads"
        assert report.wall_seconds > 0.0
        assert report.makespan_seconds > 0.0  # simulated makespan alongside

    def test_airfoil_is_deterministic_across_runs(self):
        first, _ = _run_airfoil(hpx_context, num_threads=4, engine="threads")
        second, _ = _run_airfoil(hpx_context, num_threads=4, engine="threads")
        assert np.array_equal(first.q, second.q)
        assert first.rms_history == second.rms_history

    @pytest.mark.parametrize("method", ["shuffle", "scramble", "rcm"])
    def test_airfoil_matches_serial_on_renumbered_mesh(self, method):
        """Parity must survive meshes whose numbering defeats [min, max]
        summaries: the interval-set DAG has fewer edges, never too few."""

        def make_mesh():
            return renumber_mesh(generate_mesh(30, 20), method=method, seed=11)

        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_airfoil(make_mesh(), niter=2, rk_steps=2)
        clear_plan_cache()
        context = hpx_context(num_threads=4, engine="threads")
        with active_context(context):
            threaded = run_airfoil(make_mesh(), niter=2, rk_steps=2)
        assert np.allclose(threaded.q, reference.q, rtol=1e-12, atol=1e-14)
        assert np.allclose(threaded.rms_history, reference.rms_history, rtol=1e-12)
        assert context.report().details["dependency_mode"] == "interval-set"

    def test_jacobi_bit_identical_to_serial(self):
        """Single scatter stream per loop => bit-identical to the serial run."""
        reference, _ = _run_jacobi(serial_context)
        threaded, _ = _run_jacobi(hpx_context, num_threads=4, engine="threads")
        assert np.array_equal(threaded.u, reference.u)
        assert threaded.u_max_history == reference.u_max_history
        assert np.allclose(threaded.u_sum_history, reference.u_sum_history, rtol=1e-12)

    def test_dag_edges_enforced_at_runtime(self, log_chunk_ids):
        """No chunk ever starts before its producer chunks completed.

        Uses the pool's event trace: for every dependency edge of the
        simulated chunk DAG, the producer's merge task must have finished
        before the consumer's compute task started (e.g. an INC consumer
        chunk never runs before the chunks that accumulated its inputs).
        """
        _, context = _run_airfoil(
            hpx_context, prepare=log_chunk_ids, num_threads=4, engine="threads"
        )
        trace = context.executor.trace_events
        assert trace, "threaded run must produce a pool trace"
        start_at = {tid: n for n, (kind, tid) in enumerate(trace) if kind == "start"}
        done_at = {tid: n for n, (kind, tid) in enumerate(trace) if kind == "done"}
        pool_ids = context.pipeline.pool_chunk_ids.seen
        checked = 0
        for task in context.task_graph.tasks:
            if task.task_id not in pool_ids:
                continue
            compute_id, _merge_id = pool_ids[task.task_id]
            for dep in task.deps:
                if dep not in pool_ids:
                    continue
                _dep_compute, dep_merge = pool_ids[dep]
                assert done_at[dep_merge] < start_at[compute_id], (
                    f"chunk {task.name} started before producer merge {dep}"
                )
                checked += 1
        assert checked > 100  # the airfoil DAG has plenty of edges

    def test_future_handle_is_available_without_blocking(self):
        clear_plan_cache()
        mesh = generate_mesh(20, 14)
        with active_context(hpx_context(num_threads=2, engine="threads")):
            result = run_airfoil(mesh, niter=1, rk_steps=2, chain_futures=True)
        reference, _ = (None, None)
        clear_plan_cache()
        mesh2 = generate_mesh(20, 14)
        with active_context(serial_context()):
            reference = run_airfoil(mesh2, niter=1, rk_steps=2)
        assert np.allclose(result.q, reference.q, rtol=1e-12, atol=1e-14)

    def test_loop_future_completes_with_output_dat(self):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        with active_context(hpx_context(num_threads=2, engine="threads")) as ctx:
            run_jacobi(problem, iterations=1)
            future = next(iter(ctx.loop_futures.values()))
            assert isinstance(future, HandleFuture)
            assert future.get(timeout=10.0) is future.handle

    def test_kernel_failure_surfaces_instead_of_hanging(self):
        """A raising kernel must propagate; futures break rather than hang."""
        from repro.op2 import OP_ID, OP_INC, OP_READ, Kernel, op_arg_dat, op_arg_gbl
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(256, "cells")
        dat = op_decl_dat(cells, 1, "double", np.ones(256), "d")
        g = np.zeros(1)

        def bad(_idx, d, gbl):
            raise ValueError("kernel exploded")

        kernel = Kernel(name="bad", elemental=lambda d, gbl: None, vectorized=bad)
        with pytest.raises(ValueError, match="kernel exploded"):
            with active_context(hpx_context(num_threads=2, engine="threads")):
                op_par_loop(
                    kernel,
                    "bad",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(g, 1, "double", OP_INC),  # reduction forces sync
                )

    def test_abort_on_application_error_stops_pool(self):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        context = hpx_context(num_threads=2, engine="threads")
        with pytest.raises(RuntimeError, match="app failed"):
            with active_context(context):
                run_jacobi(problem, iterations=1)
                raise RuntimeError("app failed")
        assert context.executor is not None and context.executor.is_shutdown

    def test_context_reusable_after_report(self):
        """finish() drains and retires the pool; new loops get a fresh one."""
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        context = hpx_context(num_threads=2, engine="threads")
        with active_context(context):
            run_jacobi(problem, iterations=1)
        first = context.report().loops_executed
        with active_context(context):
            run_jacobi(problem, iterations=1)
        assert context.report().loops_executed == first + 2


class TestOpenMPThreads:
    def test_rejects_unknown_execution_mode(self):
        with pytest.raises(OP2BackendError):
            openmp_context(engine="nope")

    def test_airfoil_bit_identical_to_sequential_colour_execution(self):
        simulated, _ = _run_airfoil(openmp_context, num_threads=4)
        pooled, context = _run_airfoil(openmp_context, num_threads=4, engine="threads")
        assert np.array_equal(pooled.q, simulated.q)
        report = context.report()
        assert report.details["execution"] == "threads"
        assert report.wall_seconds > 0.0

    def test_airfoil_matches_serial(self):
        reference, _ = _run_airfoil(serial_context)
        pooled, _ = _run_airfoil(openmp_context, num_threads=4, engine="threads")
        assert np.allclose(pooled.q, reference.q, rtol=1e-10, atol=1e-12)


class TestHarness:
    WORKLOAD = AirfoilWorkload(nx=30, ny=20, niter=1, rk_steps=2)

    def test_threads_experiment_is_numerically_correct(self):
        config = ExperimentConfig(
            backend="hpx", num_threads=4, engine="threads", workload=self.WORKLOAD
        )
        result = run_airfoil_experiment(config)
        assert result.numerically_correct
        assert result.wall_seconds > 0.0
        assert result.runtime_seconds > 0.0
        assert config.label().endswith("[threads]")

    def test_wallclock_comparison_reports_all_execution_modes(self):
        config = ExperimentConfig(
            backend="hpx", num_threads=4, workload=self.WORKLOAD
        )
        comparison = run_wallclock_comparison(config)
        assert set(comparison) == {
            "simulate", "threads", "processes", "compiled", "sharded"
        }
        for entry in comparison.values():
            assert entry["makespan_seconds"] > 0.0
            assert entry["wall_seconds"] > 0.0
            assert entry["numerically_correct"] == 1.0
        # The compiled engine is the only one lowering kernels, so only its
        # entry should report artifact-cache traffic.
        assert comparison["compiled"]["details"]["artifact_cache_misses"] > 0
        assert comparison["simulate"]["details"]["artifact_cache_misses"] == 0

    def test_wallclock_comparison_respects_execution_subset(self):
        config = ExperimentConfig(
            backend="hpx", num_threads=4, workload=self.WORKLOAD
        )
        comparison = run_wallclock_comparison(config, engines=("simulate",))
        assert set(comparison) == {"simulate"}

    def test_wallclock_comparison_persists_bench_json(self, tmp_path):
        """persist_path= leaves a BENCH_*.json trajectory file behind."""
        import json

        config = ExperimentConfig(
            backend="hpx", num_threads=4, workload=self.WORKLOAD
        )
        path = tmp_path / "BENCH_pipeline.json"
        comparison = run_wallclock_comparison(
            config,
            engines=("simulate", "threads"),
            include_serial=True,
            persist_path=path,
        )
        assert set(comparison) == {"serial", "simulate", "threads"}
        assert comparison["serial"]["wall_seconds"] > 0.0
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "wallclock_comparison"
        assert payload["workload"]["nx"] == self.WORKLOAD.nx
        assert set(payload["series"]) == {"serial", "simulate", "threads"}
        for entry in payload["series"].values():
            assert entry["numerically_correct"] == 1.0

    def test_thread_sweep_cross_checks_by_default(self):
        """The harness docstring promise: every sweep point is checked
        against the serial reference and the outcome recorded."""
        config = ExperimentConfig(backend="hpx", workload=self.WORKLOAD)
        times, _bandwidth = run_thread_sweep(config, threads=(1, 2))
        assert times.correct == {1: True, 2: True}
        assert times.all_correct

    def test_renumbered_sweep_reports_edge_counts_per_mode(self):
        config = ExperimentConfig(
            backend="hpx", num_threads=4, engine="threads", workload=self.WORKLOAD
        )
        sweep = run_renumbered_sweep(config, renumberings=("shuffle",), seed=2)
        assert set(sweep) == {"none", "shuffle"}
        for modes in sweep.values():
            assert set(modes) == {"interval_set", "minmax"}
            for entry in modes.values():
                assert entry["dependency_edges"] > 0
                assert entry["numerically_correct"] == 1.0
            # interval sets only ever remove edges
            assert (
                modes["interval_set"]["dependency_edges"]
                <= modes["minmax"]["dependency_edges"]
            )

    def test_renumbered_sweep_rejects_non_hpx_backend(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            run_renumbered_sweep(ExperimentConfig(backend="openmp"))
