"""Tests for the paper's core contribution (repro.core) and the applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.aero import build_grid_problem, run_aero
from repro.apps.airfoil import GAS_CONSTANTS, generate_mesh, run_airfoil
from repro.apps.airfoil.kernels import ADT_CALC, ALL_KERNELS, RES_CALC, SAVE_SOLN, UPDATE
from repro.apps.jacobi import build_ring_problem, run_jacobi
from repro.core import (
    DependencyTracker,
    OptimizationConfig,
    build_prefetch_spec,
    hpx_context,
    make_loop_prefetcher,
)
from repro.core.persistent_chunking import ChunkPlanner
from repro.engines import RunConfig
from repro.errors import MeshError, OP2BackendError
from repro.op2 import OP_ID, OP_INC, OP_READ, OP_RW, OP_WRITE, Kernel, op_arg_dat, op_decl_dat, op_decl_map, op_decl_set
from repro.op2.backends import openmp_context, serial_context
from repro.op2.context import active_context
from repro.op2.par_loop import ParLoop
from repro.op2.plan import clear_plan_cache
from repro.runtime.future import SharedFuture, make_ready_future
from repro.sim.cost import KernelCostModel
from repro.sim.scheduler_sim import ScheduleMode
from repro.translator.blockform import BlockForm


# ---------------------------------------------------------------------------
# OptimizationConfig
# ---------------------------------------------------------------------------
class TestOptimizationConfig:
    def test_derived_from_run_config(self):
        config = OptimizationConfig.from_run_config(
            RunConfig(chunking="persistent_auto", prefetch=True, prefetch_distance_factor=10)
        )
        assert config.persistent_chunking and config.prefetching
        assert config.prefetch_distance_factor == 10
        assert config.describe() == "dataflow+interleave+persistent-chunks+prefetch(d=10)"
        assert not OptimizationConfig.from_run_config(RunConfig()).persistent_chunking

    def test_prefetch_requires_async(self):
        with pytest.raises(OP2BackendError):
            OptimizationConfig(async_tasking=False, prefetching=True)
        with pytest.raises(OP2BackendError):
            hpx_context(prefetch=True, async_tasking=False)


# ---------------------------------------------------------------------------
# Dependency tracker (interleaving)
# ---------------------------------------------------------------------------
class TestDependencyTracker:
    def _loops(self):
        cells = op_decl_set(100, "cells")
        q = op_decl_dat(cells, 1, "double", None, "q")
        qold = op_decl_dat(cells, 1, "double", None, "qold")
        identity = Kernel(name="copy", elemental=lambda a, b: None)
        writer = ParLoop(identity, "writer", cells, [
            op_arg_dat(q, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(qold, -1, OP_ID, 1, "double", OP_WRITE),
        ])
        reader = ParLoop(identity, "reader", cells, [
            op_arg_dat(qold, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(q, -1, OP_ID, 1, "double", OP_RW),
        ])
        return cells, q, qold, writer, reader

    def test_raw_dependency_only_on_overlapping_chunks(self):
        _, _, qold, writer, reader = self._loops()
        tracker = DependencyTracker()
        # writer loop: two chunks [0,50) and [50,100)
        assert tracker.chunk_dependencies(writer, 0, 50, loop_seq=0) == []
        tracker.record_chunk(writer, 0, 0, 50, task_id=0)
        tracker.record_chunk(writer, 0, 50, 100, task_id=1)
        # reader chunk [0,25) only depends on writer chunk 0
        assert tracker.chunk_dependencies(reader, 0, 25, loop_seq=1) == [0]
        assert tracker.chunk_dependencies(reader, 50, 75, loop_seq=1) == [1]

    def test_loop_granular_mode_depends_on_everything(self):
        _, _, _, writer, reader = self._loops()
        tracker = DependencyTracker(chunk_granularity=False)
        tracker.record_chunk(writer, 0, 0, 50, task_id=0)
        tracker.record_chunk(writer, 0, 50, 100, task_id=1)
        assert tracker.chunk_dependencies(reader, 0, 10, loop_seq=1) == [0, 1]

    def test_war_dependency(self):
        _, q, _, writer, reader = self._loops()
        tracker = DependencyTracker()
        # "writer" loop READS q -> later loop writing q gets a WAR edge.
        tracker.record_chunk(writer, 0, 0, 100, task_id=0)
        deps = tracker.chunk_dependencies(reader, 0, 100, loop_seq=1)
        assert 0 in deps

    def test_inc_on_inc_does_not_serialize(self):
        cells = op_decl_set(40, "cells")
        edges = op_decl_set(40, "edges")
        mapping = op_decl_map(edges, cells, 1, np.arange(40) % 40, "m")
        res = op_decl_dat(cells, 1, "double", None, "res")
        kernel = Kernel(name="inc", elemental=lambda a: None)
        loop = ParLoop(kernel, "inc", edges, [op_arg_dat(res, 0, mapping, 1, "double", OP_INC)])
        tracker = DependencyTracker()
        assert tracker.chunk_dependencies(loop, 0, 20, loop_seq=0) == []
        tracker.record_chunk(loop, 0, 0, 20, task_id=0)
        # second INC chunk of the same accumulation: no dependency on the first
        assert tracker.chunk_dependencies(loop, 20, 40, loop_seq=0) == []
        tracker.record_chunk(loop, 0, 20, 40, task_id=1)
        assert tracker.is_accumulating(res.dat_id)
        # a later reader depends on both accumulation chunks
        reader = ParLoop(kernel, "read", cells, [op_arg_dat(res, -1, OP_ID, 1, "double", OP_READ)])
        assert tracker.chunk_dependencies(reader, 0, 40, loop_seq=1) == [0, 1]


# ---------------------------------------------------------------------------
# Chunk planner / futures args / prefetch integration
# ---------------------------------------------------------------------------
class TestChunkPlanner:
    def test_persistent_vs_auto(self, paper_machine):
        model = KernelCostModel(paper_machine)
        cells = op_decl_set(100_000, "cells")
        q = op_decl_dat(cells, 4, "double", None, "q")
        cheap = ParLoop(SAVE_SOLN, "save", cells, [
            op_arg_dat(q, -1, OP_ID, 4, "double", OP_RW)])
        expensive_kernel = Kernel(name="expensive", elemental=lambda a: None,
                                  cycles_per_element=SAVE_SOLN.cycles_per_element * 8)
        expensive = ParLoop(expensive_kernel, "work", cells, [
            op_arg_dat(q, -1, OP_ID, 4, "double", OP_RW)])

        auto = ChunkPlanner(model, 16, policy="auto")
        persistent = ChunkPlanner(model, 16, policy="persistent_auto")
        assert not auto.is_persistent and persistent.is_persistent

        auto_cheap, auto_costly = auto.plan_chunks(cheap), auto.plan_chunks(expensive)
        assert sum(auto_cheap) == 100_000 and sum(auto_costly) == 100_000

        anchor = persistent.plan_chunks(cheap)
        matched = persistent.plan_chunks(expensive)
        # durations match: chunk sizes shrink for the more expensive loop
        assert matched[0] < anchor[0]
        t_cheap = persistent.time_per_iteration(cheap.kernel_profile())
        t_costly = persistent.time_per_iteration(expensive.kernel_profile())
        assert anchor[0] * t_cheap == pytest.approx(matched[0] * t_costly, rel=0.15)

    def test_unknown_policy_rejected(self, paper_machine):
        from repro.errors import ChunkingError

        with pytest.raises(ChunkingError):
            ChunkPlanner(KernelCostModel(paper_machine), 4, policy="bogus")


class TestFutureArgsAndPrefetchIntegration:
    def test_op_arg_dat_from_shared_future(self):
        """Fig. 7: ``op_arg_dat`` takes the future a previous loop returned."""
        cells = op_decl_set(10, "cells")
        q = op_decl_dat(cells, 1, "double", None, "q")
        future = make_ready_future(q).share()
        arg = op_arg_dat(future, -1, OP_ID, 1, "double", OP_WRITE)
        assert arg.dat is q

    def test_build_prefetch_spec_defaults(self):
        spec = build_prefetch_spec(True)
        assert spec.enabled and spec.distance_factor == 15
        assert not build_prefetch_spec(False).enabled

    def test_make_loop_prefetcher_covers_all_containers(self):
        cells = op_decl_set(50, "cells")
        nodes = op_decl_set(20, "nodes")
        mapping = op_decl_map(cells, nodes, 1, np.arange(50) % 20, "m")
        direct = op_decl_dat(cells, 2, "double", None, "direct")
        indirect = op_decl_dat(nodes, 1, "double", None, "indirect")
        kernel = Kernel(name="k", elemental=lambda a, b: None)
        loop = ParLoop(kernel, "k", cells, [
            op_arg_dat(direct, -1, OP_ID, 2, "double", OP_RW),
            op_arg_dat(indirect, 0, mapping, 1, "double", OP_READ),
        ])
        ctx = make_loop_prefetcher(loop, 0, 50, distance_factor=5)
        assert ctx.num_containers == 2
        assert len(ctx) == 50


# ---------------------------------------------------------------------------
# HPX context behaviour
# ---------------------------------------------------------------------------
class TestHPXContext:
    def test_loops_return_shared_futures_of_output_dats(self):
        cells = op_decl_set(64, "cells")
        q = op_decl_dat(cells, 1, "double", np.ones((64, 1)), "q")
        qold = op_decl_dat(cells, 1, "double", None, "qold")
        copy = Kernel(
            name="copy",
            elemental=lambda a, b: b.__setitem__(slice(None), a),
        )
        with active_context(hpx_context(num_threads=4, machine="small-test")) as ctx:
            from repro.op2.par_loop import op_par_loop

            future = op_par_loop(
                copy, "copy", cells,
                op_arg_dat(q, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(qold, -1, OP_ID, 1, "double", OP_WRITE),
            )
            assert isinstance(future, SharedFuture)
            assert future.get() is qold
        np.testing.assert_allclose(qold.data, q.data)
        report = ctx.report()
        assert report.backend == "hpx"
        assert report.schedule is not None
        assert report.schedule.mode is ScheduleMode.DATAFLOW
        assert report.details["total_chunks"] >= 1

    def test_async_tasking_off_simulates_barrier_mode(self):
        cells = op_decl_set(64, "cells")
        q = op_decl_dat(cells, 1, "double", None, "q")
        bump = Kernel(name="bump", elemental=lambda a: a.__iadd__(1))
        with active_context(hpx_context(num_threads=4, machine="small-test",
                                        async_tasking=False, prefetch=False)) as ctx:
            from repro.op2.par_loop import op_par_loop

            op_par_loop(bump, "bump", cells, op_arg_dat(q, -1, OP_ID, 1, "double", OP_RW))
        assert ctx.report().schedule.mode is ScheduleMode.BARRIER

    def test_run_config_is_the_only_config(self):
        context = hpx_context(config=RunConfig(prefetch=True), num_threads=2,
                              machine="small-test")
        assert context.config.prefetching and context.run_config.num_threads == 2
        with pytest.raises(OP2BackendError, match="must be a RunConfig"):
            hpx_context(config=OptimizationConfig())  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Airfoil application
# ---------------------------------------------------------------------------
class TestAirfoilMesh:
    def test_generate_mesh_counts(self):
        mesh = generate_mesh(10, 6)
        assert mesh.num_cells == 60
        assert mesh.num_nodes == 11 * 7
        assert mesh.num_edges == 10 * 5 + 9 * 6
        assert mesh.num_bedges == 2 * 10 + 2 * 6
        mesh.validate()

    def test_declare_builds_op2_objects(self):
        mesh = generate_mesh(6, 4).declare()
        assert mesh.is_declared
        assert mesh.cells.size == 24
        assert mesh.pcell.dim == 4
        assert mesh.p_q.data.shape == (24, 4)
        np.testing.assert_allclose(mesh.p_q.data[0], GAS_CONSTANTS.qinf)

    def test_invalid_mesh_sizes(self):
        with pytest.raises(MeshError):
            generate_mesh(1, 5)
        with pytest.raises(MeshError):
            generate_mesh(5, 5, channel_pinch=0.95)

    def test_boundary_flags(self):
        mesh = generate_mesh(8, 5)
        assert set(np.unique(mesh.bound)) == {1, 2}
        # walls (flag 1) along top/bottom: 2 * nx of them
        assert int((mesh.bound == 1).sum()) == 2 * 8


class TestJacobiRing:
    @pytest.mark.parametrize("num_nodes", [3, 4, 300, 1000])
    def test_edge_map_equals_the_loop_form(self, num_nodes):
        """Edge 2n runs node n -> n + 1, edge 2n + 1 runs n -> n - 1 (mod N)."""
        expected = np.empty((2 * num_nodes, 2), dtype=np.int64)
        for node in range(num_nodes):
            expected[2 * node] = (node, (node + 1) % num_nodes)
            expected[2 * node + 1] = (node, (node - 1) % num_nodes)
        problem = build_ring_problem(num_nodes)
        assert problem.ppedge.values.dtype == expected.dtype
        assert np.array_equal(problem.ppedge.values, expected)


class TestAirfoilKernels:
    """The block forms are generated from the elemental source
    (:func:`repro.translator.blockform.block_form`): dats agree bit for bit."""

    def test_all_kernels_have_a_generated_block_form(self):
        for kernel in ALL_KERNELS:
            assert isinstance(kernel.vectorized, BlockForm)

    def test_qinf_is_physical(self):
        qinf = GAS_CONSTANTS.qinf
        assert qinf[0] == pytest.approx(1.0)
        assert qinf[3] > 0.0

    def test_save_soln_forms_agree(self, rng):
        q = rng.random((16, 4))
        qold_a, qold_b = np.zeros((16, 4)), np.zeros((16, 4))
        for row in range(16):
            SAVE_SOLN.elemental(q[row], qold_a[row])
        SAVE_SOLN.vectorized(np.arange(16), q, qold_b)
        assert np.array_equal(qold_a, qold_b)

    def test_adt_calc_forms_agree(self, rng):
        n = 12
        x = [rng.random((n, 2)) for _ in range(4)]
        q = np.tile(GAS_CONSTANTS.qinf, (n, 1)) * rng.uniform(0.9, 1.1, (n, 1))
        adt_a, adt_b = np.zeros((n, 1)), np.zeros((n, 1))
        for row in range(n):
            ADT_CALC.elemental(x[0][row], x[1][row], x[2][row], x[3][row], q[row], adt_a[row])
        ADT_CALC.vectorized(np.arange(n), x[0], x[1], x[2], x[3], q, adt_b)
        assert np.array_equal(adt_a, adt_b)
        assert np.all(adt_a > 0)

    def test_res_calc_conserves_flux(self, rng):
        """Interior fluxes are antisymmetric: what leaves one cell enters the other."""
        n = 8
        x1, x2 = rng.random((n, 2)), rng.random((n, 2))
        q1 = np.tile(GAS_CONSTANTS.qinf, (n, 1)) * rng.uniform(0.95, 1.05, (n, 1))
        q2 = np.tile(GAS_CONSTANTS.qinf, (n, 1)) * rng.uniform(0.95, 1.05, (n, 1))
        adt1, adt2 = rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (n, 1))
        res1, res2 = np.zeros((n, 4)), np.zeros((n, 4))
        RES_CALC.vectorized(np.arange(n), x1, x2, q1, q2, adt1, adt2, res1, res2)
        assert np.array_equal(res1, -res2)

    def test_update_forms_agree_and_reset_res(self, rng):
        n = 10
        qold = rng.random((n, 4)) + 1.0
        q_a, q_b = qold.copy(), qold.copy()
        res_a = rng.random((n, 4))
        res_b = res_a.copy()
        adt = rng.uniform(0.5, 1.5, (n, 1))
        rms_a, rms_b = np.zeros(1), np.zeros(1)
        for row in range(n):
            UPDATE.elemental(qold[row], q_a[row], res_a[row], adt[row], rms_a)
        UPDATE.vectorized(np.arange(n), qold, q_b, res_b, adt, rms_b)
        assert np.array_equal(q_a, q_b)
        assert np.all(res_a == 0) and np.all(res_b == 0)
        assert rms_a[0] == pytest.approx(rms_b[0])


class TestApplicationsAcrossBackends:
    """Integration: every backend produces bit-identical results on every app."""

    def _contexts(self):
        return [
            ("serial", lambda: serial_context()),
            ("openmp", lambda: openmp_context(num_threads=8, machine="small-test")),
            ("hpx", lambda: hpx_context(num_threads=8, machine="small-test")),
            ("hpx-full", lambda: hpx_context(num_threads=8, machine="small-test",
                                             chunking="persistent_auto", prefetch=True)),
        ]

    def test_airfoil_backends_agree(self):
        results = {}
        for name, factory in self._contexts():
            clear_plan_cache()
            mesh = generate_mesh(20, 12)
            with active_context(factory()):
                results[name] = run_airfoil(mesh, niter=2)
        reference = results["serial"]
        assert reference.loops_issued == 2 * (1 + 4 * 2)
        assert reference.final_rms > 0
        for name, result in results.items():
            np.testing.assert_allclose(result.q, reference.q, err_msg=name)
            assert result.rms_history == pytest.approx(reference.rms_history)

    def test_airfoil_rms_decreases_over_iterations(self):
        mesh = generate_mesh(24, 16)
        with active_context(serial_context()):
            result = run_airfoil(mesh, niter=5)
        assert result.rms_history[-1] < result.rms_history[0]

    def test_airfoil_chained_futures_matches_plain(self):
        clear_plan_cache()
        mesh_a = generate_mesh(16, 10)
        with active_context(hpx_context(num_threads=4, machine="small-test")):
            plain = run_airfoil(mesh_a, niter=1)
        clear_plan_cache()
        mesh_b = generate_mesh(16, 10)
        with active_context(hpx_context(num_threads=4, machine="small-test")):
            chained = run_airfoil(mesh_b, niter=1, chain_futures=True)
        np.testing.assert_allclose(plain.q, chained.q)

    def test_jacobi_backends_agree_and_converge(self):
        results = {}
        for name, factory in self._contexts():
            problem = build_ring_problem(500, seed=3)
            with active_context(factory()):
                results[name] = run_jacobi(problem, iterations=5)
        reference = results["serial"]
        for name, result in results.items():
            np.testing.assert_allclose(result.u, reference.u, err_msg=name)

    def test_aero_backends_agree_and_residual_decreases(self):
        results = {}
        for name, factory in self._contexts():
            problem = build_grid_problem(12, 12, seed=5)
            with active_context(factory()):
                results[name] = run_aero(problem, sweeps=6)
        reference = results["serial"]
        assert reference.residual_history[-1] < reference.residual_history[0]
        for name, result in results.items():
            np.testing.assert_allclose(result.phi, reference.phi, err_msg=name)
