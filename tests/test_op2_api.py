"""Tests for the OP2 API: sets, maps, dats, args, kernels, plans, par_loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    OP2AccessError,
    OP2DeclarationError,
    OP2Error,
    OP2MappingError,
    OP2PlanError,
)
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    OP_WRITE,
    Kernel,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_par_loop,
    op_plan_get,
)
from repro.op2.context import ExecutionContext, active_context
from repro.op2.backends import hpx_context, openmp_context, serial_context
from repro.op2.par_loop import ParLoop
from repro.op2.plan import clear_plan_cache, plan_cache_size
from repro.session import Session


@pytest.fixture
def ring():
    """A small ring mesh: 10 nodes, 10 edges (edge i connects node i and i+1)."""
    nodes = op_decl_set(10, "nodes")
    edges = op_decl_set(10, "edges")
    mapping = [[i, (i + 1) % 10] for i in range(10)]
    pedge = op_decl_map(edges, nodes, 2, np.array(mapping), "pedge")
    node_val = op_decl_dat(nodes, 1, "double", np.arange(10.0).reshape(10, 1), "node_val")
    edge_val = op_decl_dat(edges, 1, "double", np.ones((10, 1)), "edge_val")
    accum = op_decl_dat(nodes, 1, "double", None, "accum")
    return nodes, edges, pedge, node_val, edge_val, accum


class TestAccessModes:
    def test_read_write_classification(self):
        assert OP_READ.reads and not OP_READ.writes
        assert OP_WRITE.writes and not OP_WRITE.reads
        assert OP_RW.reads and OP_RW.writes
        assert OP_INC.reads and OP_INC.writes and OP_INC.is_reduction
        assert OP_MIN.is_reduction and OP_MAX.is_reduction

    def test_op_id_is_singleton(self):
        from repro.op2.access import IdentityMap

        assert IdentityMap() is OP_ID


class TestDeclarations:
    def test_set(self):
        cells = op_decl_set(100, "cells")
        assert len(cells) == 100
        with pytest.raises(OP2DeclarationError):
            op_decl_set(-1)

    def test_map_validation(self):
        a = op_decl_set(4, "a")
        b = op_decl_set(3, "b")
        good = op_decl_map(a, b, 2, [[0, 1], [1, 2], [2, 0], [0, 2]], "good")
        assert good.dim == 2
        np.testing.assert_array_equal(good.targets(1), [1, 2])
        np.testing.assert_array_equal(good.column(0), [0, 1, 2, 0])
        with pytest.raises(OP2MappingError):
            op_decl_map(a, b, 2, [[0, 1], [1, 3], [2, 0], [0, 2]])  # 3 out of range
        with pytest.raises(OP2MappingError):
            op_decl_map(a, b, 2, [[0, 1]])  # wrong length
        with pytest.raises(OP2DeclarationError):
            op_decl_map(a, b, 0, [])
        with pytest.raises(OP2MappingError):
            good.column(5)

    def test_map_values_are_read_only(self):
        a, b = op_decl_set(2, "a"), op_decl_set(2, "b")
        mapping = op_decl_map(a, b, 1, [0, 1], "m")
        with pytest.raises(ValueError):
            mapping.values[0, 0] = 1

    def test_dat_creation_and_types(self):
        cells = op_decl_set(5, "cells")
        dat = op_decl_dat(cells, 4, "double", np.zeros((5, 4)), "q")
        assert dat.dtype == np.float64
        assert dat.bytes_per_element == 32
        assert dat.nbytes == 5 * 32
        int_dat = op_decl_dat(cells, 1, "int", None, "flags")
        assert int_dat.dtype == np.int32
        with pytest.raises(OP2DeclarationError):
            op_decl_dat(cells, 1, "quaternion")
        with pytest.raises(OP2DeclarationError):
            op_decl_dat(cells, 0, "double")
        with pytest.raises(OP2DeclarationError):
            op_decl_dat("cells", 1, "double")  # type: ignore[arg-type]

    def test_dat_versioning_and_mutation(self):
        cells = op_decl_set(3, "cells")
        dat = op_decl_dat(cells, 2, "double", np.ones((3, 2)), "d")
        version = dat.version
        dat.set_data(np.zeros((3, 2)))
        assert dat.version == version + 1
        dat.zero()
        assert np.all(dat.data == 0)
        copy = dat.copy_data()
        copy[0, 0] = 99
        assert dat.data[0, 0] == 0


class TestArgs:
    def test_direct_arg(self, ring):
        _, _, _, node_val, _, _ = ring
        arg = op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_READ)
        assert arg.is_direct and not arg.is_indirect and not arg.is_global
        assert arg.bytes_per_iteration == 8
        assert "OP_ID" in arg.describe()

    def test_indirect_arg(self, ring):
        _, _, pedge, node_val, _, _ = ring
        arg = op_arg_dat(node_val, 1, pedge, 1, "double", OP_READ)
        assert arg.is_indirect

    @pytest.mark.parametrize(
        "idx,map_key,dim,type_name,access,error",
        [
            (0, "id", 1, "double", OP_READ, "direct arguments"),   # direct with idx != -1
            (-1, "pedge", 1, "double", OP_READ, "map index"),      # indirect with idx -1
            (5, "pedge", 1, "double", OP_READ, "map index"),       # idx out of range
            (-1, "id", 2, "double", OP_READ, "dim"),               # wrong dim
            (-1, "id", 1, "int", OP_READ, "type"),                 # wrong dtype
            (-1, "id", 1, "double", OP_MIN, "OP_MIN"),             # MIN on a dat
        ],
    )
    def test_invalid_args_rejected(self, ring, idx, map_key, dim, type_name, access, error):
        _, _, pedge, node_val, _, _ = ring
        map_ = OP_ID if map_key == "id" else pedge
        with pytest.raises(OP2AccessError):
            op_arg_dat(node_val, idx, map_, dim, type_name, access)

    def test_map_target_set_must_match_dat_set(self, ring):
        nodes, edges, pedge, _, edge_val, _ = ring
        with pytest.raises(OP2AccessError):
            op_arg_dat(edge_val, 0, pedge, 1, "double", OP_READ)  # pedge targets nodes

    def test_global_arg(self):
        total = np.zeros(1)
        arg = op_arg_gbl(total, 1, "double", OP_INC)
        assert arg.is_global
        with pytest.raises(OP2AccessError):
            op_arg_gbl(3.0, 1, "double", OP_INC)  # writable global must be an array
        assert op_arg_gbl(3.0, 1, "double", OP_READ).is_global
        with pytest.raises(OP2AccessError):
            op_arg_gbl(np.zeros(2), 1, "double", OP_INC)  # dim mismatch

    def test_future_dat_accepted(self, ring):
        from repro.runtime.future import make_ready_future

        _, _, _, node_val, _, _ = ring
        arg = op_arg_dat(make_ready_future(node_val), -1, OP_ID, 1, "double", OP_READ)
        assert arg.dat is node_val


class TestKernel:
    def test_decorator(self):
        from repro.op2.kernel import kernel

        @kernel("double_it", cycles_per_element=3)
        def double_it(x):
            x[0] *= 2

        assert isinstance(double_it, Kernel)
        assert double_it.name == "double_it"
        value = np.array([2.0])
        double_it(value)
        assert value[0] == 4.0

    def test_validation(self):
        with pytest.raises(OP2Error):
            Kernel(name="bad", elemental="not callable")  # type: ignore[arg-type]
        with pytest.raises(OP2Error):
            Kernel(name="bad", elemental=lambda x: x, cycles_per_element=0)
        with pytest.raises(OP2Error):
            Kernel(name="bad", elemental=lambda x: x, reuse_fraction=2.0)


class TestPlans:
    def test_direct_loop_single_colour(self, ring):
        nodes, _, _, node_val, _, _ = ring
        arg = op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_RW)
        plan = op_plan_get("direct", nodes, 4, [arg])
        plan.validate()
        assert plan.nblocks == 3
        assert plan.ncolors == 1
        assert plan.block_range(2) == (8, 10)

    def test_indirect_increment_needs_multiple_colours(self, ring):
        _, edges, pedge, node_val, edge_val, accum = ring
        args = [
            op_arg_dat(edge_val, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(accum, 0, pedge, 1, "double", OP_INC),
            op_arg_dat(accum, 1, pedge, 1, "double", OP_INC),
        ]
        plan = op_plan_get("indirect", edges, 2, args)
        plan.validate()
        assert plan.ncolors > 1
        # No two blocks of the same colour touch the same node.
        for color in range(plan.ncolors):
            touched: set[int] = set()
            for block in plan.blocks_of_color(color):
                start, stop = plan.block_range(int(block))
                nodes_touched = set(pedge.values[start:stop].ravel().tolist())
                assert touched.isdisjoint(nodes_touched)
                touched |= nodes_touched

    def test_plan_is_cached(self, ring):
        nodes, _, _, node_val, _, _ = ring
        arg = op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_RW)
        clear_plan_cache()
        first = op_plan_get("x", nodes, 4, [arg])
        second = op_plan_get("y", nodes, 4, [arg])
        assert first is second
        assert plan_cache_size() == 1
        third = op_plan_get("z", nodes, 5, [arg])
        assert third is not first

    def test_invalid_block_size(self, ring):
        nodes, _, _, node_val, _, _ = ring
        arg = op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_RW)
        with pytest.raises(OP2PlanError):
            op_plan_get("bad", nodes, 0, [arg])

    def test_empty_set_plan(self):
        empty = op_decl_set(0, "empty")
        dat = op_decl_dat(op_decl_set(1, "one"), 1, "double")
        plan = op_plan_get("empty", empty, 4, [op_arg_dat(dat, -1, OP_ID, 1, "double", OP_READ)])
        assert plan.nblocks == 0 and plan.ncolors == 0


class TestParLoop:
    def _scatter_kernel(self):
        def scatter(weight, value, target):
            target[0] += weight[0] * value[0]

        return Kernel(name="scatter", elemental=scatter)

    def test_loop_validation(self, ring):
        nodes, edges, pedge, node_val, edge_val, accum = ring
        kernel = self._scatter_kernel()
        with pytest.raises(OP2Error):
            ParLoop(kernel, "empty", edges, [])
        with pytest.raises(OP2AccessError):
            # direct arg whose dat lives on a different set
            ParLoop(kernel, "bad", edges,
                    [op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_READ)])
        with pytest.raises(OP2AccessError):
            # indirect arg whose map starts from a different set
            ParLoop(kernel, "bad", nodes,
                    [op_arg_dat(node_val, 0, pedge, 1, "double", OP_READ)])
        with pytest.raises(OP2Error):
            ParLoop("not a kernel", "bad", edges, [])  # type: ignore[arg-type]

    def test_loop_classification_and_profile(self, ring):
        _, edges, pedge, node_val, edge_val, accum = ring
        loop = ParLoop(
            self._scatter_kernel(),
            "scatter",
            edges,
            [
                op_arg_dat(edge_val, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(node_val, 0, pedge, 1, "double", OP_READ),
                op_arg_dat(accum, 1, pedge, 1, "double", OP_INC),
            ],
        )
        assert not loop.is_direct
        assert loop.has_indirect_increment
        assert loop.output_dat() is accum
        profile = loop.kernel_profile()
        assert profile.num_containers == 3
        assert profile.bytes_read_per_element > 0
        assert profile.bytes_written_per_element > 0

    def test_execute_block_bounds_checked(self, ring):
        _, edges, _, _, edge_val, _ = ring
        loop = ParLoop(
            self._scatter_kernel().__class__(name="id", elemental=lambda a: None),
            "id", edges, [op_arg_dat(edge_val, -1, OP_ID, 1, "double", OP_READ)],
        )
        with pytest.raises(OP2Error):
            loop.execute_block(5, 100)

    def test_elemental_matches_vectorized(self, ring):
        """The two kernel forms must produce identical numerical results."""
        nodes, edges, pedge, node_val, edge_val, accum = ring

        def scatter(weight, value, target):
            target[0] += weight[0] * value[0]

        def scatter_vec(_idx, weight, value, target):
            target[:, 0] += weight[:, 0] * value[:, 0]

        kernel = Kernel(name="scatter", elemental=scatter, vectorized=scatter_vec)
        args = lambda out: [  # noqa: E731
            op_arg_dat(edge_val, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(node_val, 0, pedge, 1, "double", OP_READ),
            op_arg_dat(out, 1, pedge, 1, "double", OP_INC),
        ]
        out_elem = op_decl_dat(nodes, 1, "double", None, "out1")
        out_vec = op_decl_dat(nodes, 1, "double", None, "out2")
        ParLoop(kernel, "s", edges, args(out_elem)).execute_all(prefer_vectorized=False)
        ParLoop(kernel, "s", edges, args(out_vec)).execute_all(prefer_vectorized=True)
        np.testing.assert_allclose(out_elem.data, out_vec.data)

    def test_op_par_loop_uses_default_serial_context(self, ring):
        nodes, edges, pedge, node_val, edge_val, accum = ring
        op_par_loop(
            self._scatter_kernel(),
            "scatter",
            edges,
            op_arg_dat(edge_val, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(node_val, 0, pedge, 1, "double", OP_READ),
            op_arg_dat(accum, 1, pedge, 1, "double", OP_INC),
        )
        # every node accumulates contributions from its two incident edges
        expected = np.zeros((10, 1))
        for edge in range(10):
            expected[(edge + 1) % 10, 0] += node_val.data[edge, 0]
        np.testing.assert_allclose(accum.data, expected)

    def test_global_reduction_modes(self, ring):
        nodes, _, _, node_val, _, _ = ring

        def reducer(value, total, biggest, smallest):
            total[0] += value[0]
            biggest[0] = max(biggest[0], value[0])
            smallest[0] = min(smallest[0], value[0])

        total = np.zeros(1)
        biggest = np.full(1, -np.inf)
        smallest = np.full(1, np.inf)
        op_par_loop(
            Kernel(name="reduce", elemental=reducer),
            "reduce",
            nodes,
            op_arg_dat(node_val, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(total, 1, "double", OP_INC),
            op_arg_gbl(biggest, 1, "double", OP_MAX),
            op_arg_gbl(smallest, 1, "double", OP_MIN),
        )
        assert total[0] == pytest.approx(sum(range(10)))
        assert biggest[0] == 9.0 and smallest[0] == 0.0


def _extremes(value, smallest, biggest):
    smallest[0] = min(smallest[0], value[0])
    biggest[0] = max(biggest[0], value[0])


#: at module scope: ``processes`` workers resolve kernels by name
EXTREMES = Kernel(name="extremes", elemental=_extremes)


def _integer_extremes(context, typ):
    dtype = np.dtype({"int": np.int32, "long": np.int64}[typ])
    cells = op_decl_set(10, "cells")
    values = np.array([3, -7, 12, 5, -2, 40, 0, 9, -11, 8], dtype=dtype)
    if dtype == np.int64:  # beyond what an int32 or a float64 holds exactly
        values[[2, 8]] = [2**62 + 1, -(2**62) - 1]
    value = op_decl_dat(cells, 1, typ, values.reshape(10, 1), "value")
    smallest, biggest = np.array([5], dtype=dtype), np.array([-5], dtype=dtype)
    with active_context(context):
        op_par_loop(
            EXTREMES,
            "extremes",
            cells,
            op_arg_dat(value, -1, OP_ID, 1, typ, OP_READ),
            op_arg_gbl(smallest, 1, typ, OP_MIN),
            op_arg_gbl(biggest, 1, typ, OP_MAX),
        )
    return smallest, biggest


class TestIntegerMinMaxReductions:
    """An integer MIN/MAX global starts each chunk's partial at the dtype's
    extreme (an integer has no infinity) and equals ``serial`` on every
    deferred engine."""

    @pytest.mark.parametrize("typ", ["int", "long"])
    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    def test_integer_min_and_max_equal_serial(self, engine, typ):
        expected = _integer_extremes(serial_context(), typ)
        with Session(name=f"extremes-{engine}") as session:
            context = hpx_context(engine=engine, num_threads=2, session=session)
            smallest, biggest = _integer_extremes(context, typ)
        assert smallest.dtype == expected[0].dtype and biggest.dtype == expected[1].dtype
        assert np.array_equal(smallest, expected[0]) and np.array_equal(biggest, expected[1])


class TestExecutionContexts:
    def test_factories_label_one_context_class(self):
        contexts = [factory() for factory in (serial_context, openmp_context, hpx_context)]
        assert {type(context) for context in contexts} == {ExecutionContext}
        assert [context.backend for context in contexts] == ["serial", "openmp", "hpx"]

    def test_context_stack_nesting(self, ring):
        nodes, *_ = ring
        outer = serial_context()
        inner = serial_context()
        from repro.op2.context import get_active_context

        with active_context(outer):
            assert get_active_context() is outer
            with active_context(inner):
                assert get_active_context() is inner
            assert get_active_context() is outer
        assert get_active_context() is not outer
