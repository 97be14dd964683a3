"""Integration tests of ``engine="processes"``: the shared-memory
multiprocess chunk-DAG engine.

The contract mirrors the threaded engine's: serial-matching numerics (and
*bit-identical* to the threaded engine, which makes the same chunking
decisions and commits merges in the same order), runtime enforcement of
every dependency edge, fail-fast error propagation, and clean teardown --
worker processes joined, shared-memory segments unlinked, dats handed back
to ordinary parent memory.
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
)
from repro.errors import OP2Error
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import BackendReport, active_context
from repro.op2.plan import clear_plan_cache
from repro.runtime.process_pool import ProcessPool


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


class TestProcessPool:
    def test_parent_side_tasks_share_the_dependency_namespace(self):
        pool = ProcessPool(2)
        try:
            order = []
            first = pool.gate.submit(lambda: order.append("first"))
            pool.gate.submit(lambda: order.append("second"), deps=[first])
            pool.gate.wait_all(timeout=10.0)
            assert order == ["first", "second"]
        finally:
            pool.shutdown(wait=False)

    def test_shutdown_joins_worker_processes(self):
        pool = ProcessPool(2)
        pool.shutdown(wait=True)
        assert pool.gate.is_shutdown
        for handle in pool._workers:
            assert not handle.process.is_alive()


class TestHPXProcesses:
    def test_airfoil_matches_serial(self):
        reference, _ = _run_airfoil(serial_context)
        processed, context = _run_airfoil(
            hpx_context, num_threads=4, engine="processes"
        )
        assert np.allclose(processed.q, reference.q, rtol=1e-12, atol=1e-14)
        assert np.allclose(processed.rms_history, reference.rms_history, rtol=1e-12)
        report = context.report()
        assert report.details["execution"] == "processes"
        assert report.details["workers"] == 4
        assert report.details["shared_dats"] > 0
        assert report.wall_seconds > 0.0
        assert report.makespan_seconds > 0.0

    def test_airfoil_bit_identical_to_threaded_engine(self):
        """Same chunk plan, same commits, same numbers -- the process
        boundary must not change a single bit."""
        threaded, _ = _run_airfoil(hpx_context, num_threads=4, engine="threads")
        processed, _ = _run_airfoil(hpx_context, num_threads=4, engine="processes")
        assert np.array_equal(processed.q, threaded.q)
        assert processed.rms_history == threaded.rms_history

    @pytest.mark.parametrize("method", ["shuffle", "rcm"])
    def test_airfoil_matches_serial_on_renumbered_mesh(self, method):
        def make_mesh():
            return renumber_mesh(generate_mesh(30, 20), method=method, seed=11)

        clear_plan_cache()
        with active_context(serial_context()):
            reference = run_airfoil(make_mesh(), niter=2, rk_steps=2)
        clear_plan_cache()
        context = hpx_context(num_threads=4, engine="processes")
        with active_context(context):
            processed = run_airfoil(make_mesh(), niter=2, rk_steps=2)
        assert np.allclose(processed.q, reference.q, rtol=1e-12, atol=1e-14)
        assert np.allclose(processed.rms_history, reference.rms_history, rtol=1e-12)
        assert context.report().details["dependency_mode"] == "interval-set"

    def test_jacobi_bit_identical_to_serial(self):
        reference, _ = _run_jacobi(serial_context)
        processed, _ = _run_jacobi(hpx_context, num_threads=4, engine="processes")
        assert np.array_equal(processed.u, reference.u)
        assert processed.u_max_history == reference.u_max_history
        assert np.allclose(
            processed.u_sum_history, reference.u_sum_history, rtol=1e-12
        )

    def test_dag_edges_enforced_at_runtime(self, log_chunk_ids):
        """For every DAG edge the producer's RPC stub (its chunk ran and
        committed) must have finished before the consumer's stub started."""
        _, context = _run_airfoil(
            hpx_context, prepare=log_chunk_ids, num_threads=4, engine="processes"
        )
        trace = context.executor.trace_events
        assert trace, "process run must produce a gate-pool trace"
        start_at = {tid: n for n, (kind, tid) in enumerate(trace) if kind == "start"}
        done_at = {tid: n for n, (kind, tid) in enumerate(trace) if kind == "done"}
        pool_ids = context.pipeline.pool_chunk_ids.seen
        checked = 0
        for task in context.task_graph.tasks:
            if task.task_id not in pool_ids:
                continue
            for dep in task.deps:
                if dep not in pool_ids:
                    continue
                assert done_at[pool_ids[dep]] < start_at[pool_ids[task.task_id]], (
                    f"chunk {task.name} started before producer {dep}"
                )
                checked += 1
        assert checked > 100

    def test_segments_released_after_finish(self):
        from multiprocessing import shared_memory

        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        context = hpx_context(num_threads=2, engine="processes")
        with active_context(context):
            run_jacobi(problem, iterations=1)
            engine = context.executor
            segment_names = [segment.name for segment in engine.arena._segments]
            assert segment_names  # dats really lived in shared memory
            assert problem.p_u.data.base is not None  # a view, not an owner
        # finish() released the arena: dats are private arrays again and the
        # segments are unlinked system-wide.
        assert problem.p_u.data.base is None
        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        # ... and the data survived the hand-back
        assert np.isfinite(problem.p_u.data).all()

    def test_kernel_failure_surfaces_instead_of_hanging(self):
        from repro.op2 import OP_ID, OP_INC, OP_READ, Kernel, op_arg_dat, op_arg_gbl
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(256, "cells")
        dat = op_decl_dat(cells, 1, "double", np.ones(256), "d")
        g = np.zeros(1)

        def bad(_idx, d, gbl):
            raise ValueError("kernel exploded")

        kernel = Kernel(
            name="bad_process_kernel", elemental=lambda d, gbl: None, vectorized=bad
        )
        with pytest.raises(ValueError, match="kernel exploded"):
            with active_context(hpx_context(num_threads=2, engine="processes")):
                op_par_loop(
                    kernel,
                    "bad_process_kernel",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(g, 1, "double", OP_INC),  # reduction forces sync
                )

    def test_unresolvable_kernel_fails_fast(self):
        """A kernel the worker cannot resolve by name must raise, not hang.

        Kernels declared after the pool forked are absent from the worker's
        registry; with no importable defining module the worker reports the
        registry miss back to the parent.
        """
        from repro.op2 import OP_ID, OP_INC, OP_READ, Kernel, op_arg_dat, op_arg_gbl
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(128, "cells")
        dat = op_decl_dat(cells, 1, "double", np.ones(128), "d")
        g = np.zeros(1)
        context = hpx_context(num_threads=2, engine="processes")
        with active_context(context):
            # Force the pool (and its forked registries) into existence first.
            op_par_loop(
                Kernel(name="warmup_kernel", elemental=lambda d, gbl: None,
                       vectorized=lambda _idx, d, gbl: None),
                "warmup",
                cells,
                op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
                op_arg_gbl(g, 1, "double", OP_INC),
            )

            def elemental(d, gbl):  # defined post-fork: unknown to workers
                return None

            elemental.__module__ = None  # no import hint either
            late = Kernel(name="late_unregistered_kernel", elemental=elemental)
            with pytest.raises(OP2Error, match="not registered"):
                op_par_loop(
                    late,
                    "late",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(g, 1, "double", OP_INC),
                )

    def test_abort_on_application_error_stops_pool_and_workers(self):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        context = hpx_context(num_threads=2, engine="processes")
        with pytest.raises(RuntimeError, match="app failed"):
            with active_context(context):
                run_jacobi(problem, iterations=1)
                raise RuntimeError("app failed")
        assert context.executor is not None and context.executor.is_shutdown
        for handle in context.executor.pool._workers:
            assert not handle.process.is_alive()
        # abort released the arena too: dats are usable parent memory again
        assert problem.p_u.data.base is None

    def test_context_reusable_after_report(self):
        clear_plan_cache()
        problem = build_ring_problem(num_nodes=64)
        context = hpx_context(num_threads=2, engine="processes")
        with active_context(context):
            run_jacobi(problem, iterations=1)
        first = context.report().loops_executed
        with active_context(context):
            run_jacobi(problem, iterations=1)
        assert context.report().loops_executed == first + 2

    def test_set_values_after_adoption_redeclares_map(self):
        """Renumbering an adopted map (``set_values``) must reach the
        workers: the arena re-adopts the rebound array into a fresh segment
        and the loop re-registers, instead of workers silently gathering
        through the stale connectivity."""
        from repro.op2 import (
            OP_ID,
            OP_READ,
            OP_WRITE,
            Kernel,
            op_arg_dat,
            op_decl_dat,
            op_decl_map,
            op_decl_set,
            op_par_loop,
        )

        clear_plan_cache()
        nodes = op_decl_set(64, "nodes")
        elems = op_decl_set(64, "elems")
        forward = np.arange(64, dtype=np.int64)
        gather_map = op_decl_map(elems, nodes, 1, forward, "gather_map")
        src = op_decl_dat(nodes, 1, "double", np.arange(64.0) * 10.0, "src")
        dst = op_decl_dat(elems, 1, "double", None, "dst")

        def gather_elem(s, d):
            d[0] = s[0]

        def gather_vec(_idx, s, d):
            d[:, 0] = s[:, 0]

        kernel = Kernel(
            name="gather_copy_kernel", elemental=gather_elem, vectorized=gather_vec
        )

        def run_once():
            op_par_loop(
                kernel,
                "gather_copy",
                elems,
                op_arg_dat(src, 0, gather_map, 1, "double", OP_READ),
                op_arg_dat(dst, -1, OP_ID, 1, "double", OP_WRITE),
            )

        context = hpx_context(num_threads=2, engine="processes")
        with active_context(context):
            run_once()
            gather_map.set_values(forward[::-1].copy())
            run_once()
        assert np.array_equal(dst.data[:, 0], (np.arange(64.0) * 10.0)[::-1])

    def test_displaced_kernel_name_fails_loudly_in_parent(self):
        """Dispatch is by name: submitting a kernel whose name now resolves
        to a *different* kernel object must raise, not run the wrong code."""
        from repro.errors import OP2BackendError
        from repro.op2 import OP_ID, OP_WRITE, Kernel, op_arg_dat
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(32, "cells")
        dat = op_decl_dat(cells, 1, "double", None, "d")

        def first_elem(d):
            d[0] = 1.0

        def second_elem(d):
            d[0] = 2.0

        original = Kernel(name="duplicate_name_kernel", elemental=first_elem)
        Kernel(name="duplicate_name_kernel", elemental=second_elem)  # displaces it
        with pytest.raises(OP2BackendError, match="different kernel object"):
            with active_context(hpx_context(num_threads=2, engine="processes")):
                op_par_loop(
                    original,
                    "dup",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_WRITE),
                )

    def test_post_fork_kernel_shadowing_detected_in_worker(self):
        """A same-named kernel defined after the pool forked shadows the
        worker-side registry entry; the source fingerprint catches it."""
        from repro.errors import OP2BackendError
        from repro.op2 import OP_ID, OP_WRITE, Kernel, op_arg_dat
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(32, "cells")
        dat = op_decl_dat(cells, 1, "double", None, "d")

        def pre_fork_elem(d):
            d[0] = 1.0

        Kernel(name="shadowed_process_kernel", elemental=pre_fork_elem)
        context = hpx_context(num_threads=2, engine="processes")
        with pytest.raises(OP2BackendError, match="one kernel source"):
            with active_context(context):
                # Force the fork (workers inherit the pre-fork binding).
                op_par_loop(
                    Kernel(name="shadow_warmup_kernel", elemental=pre_fork_elem),
                    "warmup",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_WRITE),
                )

                def post_fork_elem(d):
                    d[0] = 2.0

                shadowing = Kernel(
                    name="shadowed_process_kernel", elemental=post_fork_elem
                )
                op_par_loop(
                    shadowing,
                    "shadowed",
                    cells,
                    op_arg_dat(dat, -1, OP_ID, 1, "double", OP_WRITE),
                )

    def test_spawn_start_method_resolves_kernels_by_import(self):
        """Spawn workers start with an empty registry and must rebuild it by
        importing the kernel's defining module (repro.apps.jacobi here)."""
        clear_plan_cache()
        reference_problem = build_ring_problem(num_nodes=200)
        with active_context(serial_context()):
            reference = run_jacobi(reference_problem, iterations=2)

        from repro.runtime.process_pool import ProcessChunkEngine

        clear_plan_cache()
        problem = build_ring_problem(num_nodes=200)
        context = hpx_context(num_threads=2, engine="processes")
        engine = ProcessChunkEngine(
            2, name="spawn-parity", trace=True, start_method="spawn"
        )
        context._executor = engine
        with active_context(context):
            result = run_jacobi(problem, iterations=2)
        assert np.array_equal(result.u, reference.u)
        assert result.u_max_history == reference.u_max_history

    def test_openmp_backend_rejects_processes(self):
        from repro.errors import OP2BackendError

        with pytest.raises(OP2BackendError, match="processes"):
            openmp_context(engine="processes")


class TestHarnessProcesses:
    WORKLOAD = AirfoilWorkload(nx=30, ny=20, niter=1, rk_steps=2)

    def test_processes_experiment_is_numerically_correct(self):
        config = ExperimentConfig(
            backend="hpx", num_threads=4, engine="processes", workload=self.WORKLOAD
        )
        result = run_airfoil_experiment(config)
        assert result.numerically_correct
        assert result.wall_seconds > 0.0
        assert config.label().endswith("[processes]")


class TestBackendReportEdges:
    def test_zero_edge_schedule_is_not_mistaken_for_missing_schedule(self):
        """A genuinely dependency-free schedule must report 0 edges, not fall
        back to whatever edge total the details carry."""
        from repro.sim.machine import Machine
        from repro.sim.scheduler_sim import ScheduleMode, TaskGraph, simulate_schedule
        from repro.sim.cost import ChunkCost

        graph = TaskGraph()
        for index in range(2):
            graph.add(
                name=f"independent#{index}",
                loop_name="independent",
                phase=0,
                chunk_index=index,
                cost=ChunkCost(
                    compute_seconds=1e-6,
                    memory_seconds=1e-6,
                    overhead_seconds=0.0,
                    bytes_moved=64.0,
                    elements=8,
                ),
            )
        schedule = simulate_schedule(
            graph, Machine("paper-testbed"), 2, ScheduleMode.DATAFLOW
        )
        assert schedule.dependency_edges == 0
        report = BackendReport(
            backend="hpx",
            num_threads=2,
            loops_executed=1,
            schedule=schedule,
            details={"total_dependencies": 99},  # stale tracker total
        )
        assert report.dependency_edges == 0

    def test_fallback_to_details_without_schedule(self):
        report = BackendReport(
            backend="hpx",
            num_threads=2,
            loops_executed=1,
            schedule=None,
            details={"total_dependencies": 7},
        )
        assert report.dependency_edges == 7

    def test_zero_edge_processes_run_reports_zero(self):
        """End to end: a single direct loop has no cross-chunk dependencies
        in the relaxed DAG the simulator scores."""
        from repro.op2 import OP_ID, OP_READ, OP_WRITE, Kernel, op_arg_dat
        from repro.op2 import op_decl_dat, op_decl_set, op_par_loop

        clear_plan_cache()
        cells = op_decl_set(4096, "cells")
        src = op_decl_dat(cells, 1, "double", np.arange(4096.0), "src")
        dst = op_decl_dat(cells, 1, "double", None, "dst")

        def copy_vec(_idx, s, d):
            d[:, 0] = s[:, 0]

        kernel = Kernel(
            name="copy_direct_kernel",
            elemental=lambda s, d: d.__setitem__(0, s[0]),
            vectorized=copy_vec,
        )
        context = hpx_context(num_threads=2, engine="processes")
        with active_context(context):
            op_par_loop(
                kernel,
                "copy_direct",
                cells,
                op_arg_dat(src, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(dst, -1, OP_ID, 1, "double", OP_WRITE),
            )
        report = context.report()
        assert report.schedule is not None
        assert report.dependency_edges == 0
        assert np.array_equal(dst.data[:, 0], src.data[:, 0])
