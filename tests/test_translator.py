"""Tests for the source-to-source translator."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.apps.airfoil import generate_mesh
from repro.apps.airfoil.kernels import ADT_CALC, BRES_CALC, RES_CALC, SAVE_SOLN, UPDATE
from repro.apps.jacobi import RES_KERNEL, UPDATE_KERNEL, build_ring_problem
from repro.errors import (
    TranslatorCodegenError,
    TranslatorError,
    TranslatorLoweringError,
    TranslatorParseError,
)
from repro.op2 import Kernel, op_decl_dat, op_decl_map, op_decl_set
from repro.op2.backends import hpx_context, serial_context
from repro.op2.context import ExecutionContext, active_context
from repro.op2.plan import clear_plan_cache
from repro.translator import (
    SlabArg,
    block_form,
    analyse_kernel,
    build_slab,
    emit_module,
    emit_slab_module,
    run_slab,
    op2_translate,
    parse_kernel,
    parse_source,
    slab_signature,
    stub_key,
)
from repro.translator.blockform import render_stub
from repro.translator.codegen import validate_identifier, wrapper_name
from repro.translator.ir import ArgDescriptor, LoopSite
from repro.translator.parser import extract_calls, split_top_level, strip_comments

AIRFOIL_SOURCE = """
// Airfoil.cpp (abridged to its OP2 call sites)
op_decl_set(nnode, nodes, "nodes");
op_decl_set(ncell, cells, "cells");
op_decl_set(nedge, edges, "edges");
op_decl_map(edges, cells, 2, ecell, pecell, "pecell");
op_decl_map(cells, nodes, 4, cell, pcell, "pcell");
op_decl_dat(cells, 4, "double", q, p_q, "p_q");
op_decl_dat(cells, 4, "double", qold, p_qold, "p_qold");
op_decl_dat(cells, 1, "double", adt, p_adt, "p_adt");
op_decl_dat(cells, 4, "double", res, p_res, "p_res");

op_par_loop(save_soln, "save_soln", cells,
    op_arg_dat(p_q,    -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_qold, -1, OP_ID, 4, "double", OP_WRITE));

op_par_loop(adt_calc, "adt_calc", cells,
    op_arg_dat(p_x, 0, pcell, 2, "double", OP_READ),
    op_arg_dat(p_q, -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_adt, -1, OP_ID, 1, "double", OP_WRITE));

op_par_loop(res_calc, "res_calc", edges,
    op_arg_dat(p_q,   0, pecell, 4, "double", OP_READ),
    op_arg_dat(p_adt, 0, pecell, 1, "double", OP_READ),
    op_arg_dat(p_res, 0, pecell, 4, "double", OP_INC),
    op_arg_dat(p_res, 1, pecell, 4, "double", OP_INC));

op_par_loop(update, "update", cells,
    op_arg_dat(p_qold, -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_q,    -1, OP_ID, 4, "double", OP_RW),
    op_arg_dat(p_res,  -1, OP_ID, 4, "double", OP_RW),
    op_arg_dat(p_adt,  -1, OP_ID, 1, "double", OP_READ),
    op_arg_gbl(&rms, 1, "double", OP_INC));
"""

JACOBI_SOURCE = """
op_par_loop(res, "res", edges,
    op_arg_dat(p_A, -1, OP_ID, 1, "double", OP_READ),
    op_arg_dat(p_u, 0, ppedge, 1, "double", OP_READ),
    op_arg_dat(p_du, 1, ppedge, 1, "double", OP_INC));
op_par_loop(jac_update, "jac_update", nodes,
    op_arg_dat(p_r, -1, OP_ID, 1, "double", OP_READ),
    op_arg_dat(p_du, -1, OP_ID, 1, "double", OP_RW),
    op_arg_dat(p_u, -1, OP_ID, 1, "double", OP_RW),
    op_arg_gbl(&u_sum, 1, "double", OP_INC),
    op_arg_gbl(&u_max, 1, "double", OP_MAX));
"""

#: Airfoil's five loops with ``run_airfoil``'s argument lists
AIRFOIL_RUN_SOURCE = """
op_par_loop(save_soln, "save_soln", cells,
    op_arg_dat(p_q,    -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_qold, -1, OP_ID, 4, "double", OP_WRITE));
op_par_loop(adt_calc, "adt_calc", cells,
    op_arg_dat(p_x, 0, pcell, 2, "double", OP_READ),
    op_arg_dat(p_x, 1, pcell, 2, "double", OP_READ),
    op_arg_dat(p_x, 2, pcell, 2, "double", OP_READ),
    op_arg_dat(p_x, 3, pcell, 2, "double", OP_READ),
    op_arg_dat(p_q, -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_adt, -1, OP_ID, 1, "double", OP_WRITE));
op_par_loop(res_calc, "res_calc", edges,
    op_arg_dat(p_x, 0, pedge, 2, "double", OP_READ),
    op_arg_dat(p_x, 1, pedge, 2, "double", OP_READ),
    op_arg_dat(p_q, 0, pecell, 4, "double", OP_READ),
    op_arg_dat(p_q, 1, pecell, 4, "double", OP_READ),
    op_arg_dat(p_adt, 0, pecell, 1, "double", OP_READ),
    op_arg_dat(p_adt, 1, pecell, 1, "double", OP_READ),
    op_arg_dat(p_res, 0, pecell, 4, "double", OP_INC),
    op_arg_dat(p_res, 1, pecell, 4, "double", OP_INC));
op_par_loop(bres_calc, "bres_calc", bedges,
    op_arg_dat(p_x, 0, pbedge, 2, "double", OP_READ),
    op_arg_dat(p_x, 1, pbedge, 2, "double", OP_READ),
    op_arg_dat(p_q, 0, pbecell, 4, "double", OP_READ),
    op_arg_dat(p_adt, 0, pbecell, 1, "double", OP_READ),
    op_arg_dat(p_res, 0, pbecell, 4, "double", OP_INC),
    op_arg_dat(p_bound, -1, OP_ID, 1, "int", OP_READ));
op_par_loop(update, "update", cells,
    op_arg_dat(p_qold, -1, OP_ID, 4, "double", OP_READ),
    op_arg_dat(p_q,    -1, OP_ID, 4, "double", OP_RW),
    op_arg_dat(p_res,  -1, OP_ID, 4, "double", OP_RW),
    op_arg_dat(p_adt,  -1, OP_ID, 1, "double", OP_READ),
    op_arg_gbl(&rms, 1, "double", OP_INC));
"""


class TestParserHelpers:
    def test_strip_comments(self):
        text = "a /* gone */ b // also gone\nc"
        cleaned = strip_comments(text)
        assert "gone" not in cleaned and "a" in cleaned and "c" in cleaned

    def test_split_top_level_respects_nesting(self):
        parts = split_top_level('a, f(b, c), "x,y", d')
        assert parts == ["a", "f(b, c)", '"x,y"', "d"]
        with pytest.raises(TranslatorParseError):
            split_top_level("f(a, b")

    def test_extract_calls_balanced(self):
        calls = list(extract_calls("foo(1, bar(2, 3)) baz foo(4)", "foo"))
        assert [text for _line, text in calls] == ["1, bar(2, 3)", "4"]


class TestParser:
    def test_parse_airfoil_source(self):
        program = parse_source(AIRFOIL_SOURCE, source_name="Airfoil.cpp")
        assert len(program) == 4
        assert [loop.name for loop in program.loops] == [
            "save_soln", "adt_calc", "res_calc", "update"]
        assert program.sets == ["nodes", "cells", "edges"]
        assert program.maps == ["pecell", "pcell"]
        assert "p_q" in program.dats

    def test_loop_site_details(self):
        program = parse_source(AIRFOIL_SOURCE)
        res_calc = program.loop("res_calc")
        assert res_calc.iteration_set == "edges"
        assert res_calc.has_indirect_increment
        assert not res_calc.is_direct
        save = program.loop("save_soln")
        assert save.is_direct
        update = program.loop("update")
        assert update.args[-1].is_global
        with pytest.raises(TranslatorError):
            program.loop("not_there")

    def test_source_without_loops_rejected(self):
        with pytest.raises(TranslatorParseError):
            parse_source("int main() { return 0; }")

    def test_malformed_arguments_rejected(self):
        with pytest.raises(TranslatorParseError):
            parse_source('op_par_loop(k, "k", s, op_arg_dat(p, -1, OP_ID, 4, "double"));')
        with pytest.raises(TranslatorParseError):
            parse_source('op_par_loop(k, "k", s, something_else(p));')

    def test_arg_descriptor_validation(self):
        with pytest.raises(TranslatorError):
            ArgDescriptor(dat="d", index=0, map_name="m", dim=1, type_name="double",
                          access="OP_BOGUS")
        with pytest.raises(TranslatorError):
            LoopSite(kernel="k", name="k", iteration_set="s", args=[])


class TestCodegen:
    def test_generated_modules_compile(self):
        program = parse_source(AIRFOIL_SOURCE)
        for flavour in ("openmp", "hpx"):
            source = emit_module(program, flavour)
            compile(source, "generated.py", "exec")
            assert "op_par_loop_save_soln" in source
            assert "run_program" in source

    def test_openmp_module_uses_openmp_backend(self):
        source = emit_module(parse_source(AIRFOIL_SOURCE), "openmp")
        assert "openmp_context" in source
        assert "hpx_context" not in source

    def test_wrapper_name_and_identifier_validation(self):
        program = parse_source(AIRFOIL_SOURCE)
        assert wrapper_name(program.loops[0]) == "op_par_loop_save_soln"
        with pytest.raises(TranslatorCodegenError):
            validate_identifier("not an identifier!")

    @pytest.mark.parametrize("flavour", ["hpx", "openmp"])
    def test_generated_hpx_module_executes_jacobi(self, flavour):
        kernels, sets, dats, maps = _jacobi_program()
        futures, report = _generated(JACOBI_SOURCE, flavour).run_program(
            kernels, sets, dats, maps, num_threads=4
        )
        assert set(futures) == {"res", "jac_update"}
        assert report.backend == flavour and report.loops_executed == 2
        assert dats["u_sum"][0] > 0


def _generated(source: str, flavour: str) -> types.ModuleType:
    module = types.ModuleType(f"generated_{flavour}")
    text = op2_translate(source, flavours=(flavour,)).module_for(flavour)
    exec(compile(text, f"generated_{flavour}.py", "exec"), module.__dict__)
    return module


def _jacobi_program() -> tuple[dict, ...]:
    problem = build_ring_problem(200, seed=1)
    return (
        {"res": RES_KERNEL, "jac_update": UPDATE_KERNEL},
        {"edges": problem.edges, "nodes": problem.nodes},
        {"p_A": problem.p_A, "p_u": problem.p_u, "p_du": problem.p_du, "p_r": problem.p_r,
         "u_sum": np.zeros(1), "u_max": np.full(1, -np.inf)},
        {"ppedge": problem.ppedge},
    )


def _airfoil_program() -> tuple[dict, ...]:
    mesh = generate_mesh(24, 16)
    mesh.declare()
    kernels = (SAVE_SOLN, ADT_CALC, RES_CALC, BRES_CALC, UPDATE)
    return (
        dict(zip(("save_soln", "adt_calc", "res_calc", "bres_calc", "update"), kernels)),
        {name: getattr(mesh, name) for name in ("cells", "edges", "bedges")},
        {"rms": np.zeros(1), **{name: getattr(mesh, name) for name in (
            "p_x", "p_q", "p_qold", "p_adt", "p_res", "p_bound")}},
        {name: getattr(mesh, name) for name in ("pcell", "pedge", "pecell", "pbedge", "pbecell")},
    )


class TestEmittedStubs:
    @pytest.mark.parametrize("flavour", ["openmp", "hpx"])
    @pytest.mark.parametrize("source, program, loops", [
        (JACOBI_SOURCE, _jacobi_program, 2),
        (AIRFOIL_RUN_SOURCE, _airfoil_program, 5),
    ], ids=["jacobi", "airfoil"])
    def test_emitted_stub_key_is_the_runtime_stub_key(
        self, source, program, loops, flavour, monkeypatch
    ):
        """Every loop's emitted key is the ``ParLoop.stub_key`` that
        ``op_par_loop`` builds when the generated module runs."""
        sites = parse_source(source).loops
        emitted = {site.name: stub_key(site) for site in sites}
        text = op2_translate(source, flavours=(flavour,)).module_for(flavour)
        for name, key in emitted.items():
            assert f"Wrapper for loop {name!r}; its chunks run ``stub_{key}``." in text
            assert render_stub(key) in text
            compile(render_stub(key), f"stub_{key}", "exec")
        built = {}
        execute = ExecutionContext.execute

        def recording(context, loop):
            built[loop.name] = loop.stub_key
            return execute(context, loop)

        monkeypatch.setattr(ExecutionContext, "execute", recording)
        clear_plan_cache()
        _generated(source, flavour).run_program(*program())
        assert len(built) == loops
        assert built == emitted


CHAIN_SOURCE = """
for (int it = 0; it < 3; it++) {
  op_par_loop(init, "init", nodes,
      op_arg_dat(p_y, -1, OP_ID, 1, "double", OP_READ),
      op_arg_dat(p_x, -1, OP_ID, 1, "double", OP_WRITE));
  op_par_loop(acc1, "acc1", edges,
      op_arg_dat(p_w, -1, OP_ID, 1, "double", OP_READ),
      op_arg_dat(p_x, 0, pedge, 1, "double", OP_INC));
  op_par_loop(acc2, "acc2", edges,
      op_arg_dat(p_w, -1, OP_ID, 1, "double", OP_READ),
      op_arg_dat(p_x, 1, pedge, 1, "double", OP_INC));
}
"""


def _chain_init(y, x):
    x[0] = y[0]


def _chain_acc1(w, x):
    x[0] += 0.5 * w[0]


def _chain_acc2(w, x):
    x[0] += w[0] * w[0]


CHAIN_KERNELS = {
    name: Kernel(name=f"chain_{name}", elemental=function, vectorized=block_form(function))
    for name, function in (("init", _chain_init), ("acc1", _chain_acc1), ("acc2", _chain_acc2))
}


class TestGeneratedChainMatchesSerial:
    """``init`` WRITE x -> ``acc1`` INC x -> ``acc2`` INC x, three times in
    one context: each ``init`` waits for the previous ``acc2`` and each
    ``acc2`` for its ``acc1`` only because the runtime orders the loops --
    the generated module states no dependences."""

    @staticmethod
    def _run(context) -> np.ndarray:
        clear_plan_cache()
        rng = np.random.default_rng(5)
        nodes, edges = op_decl_set(300, "chain_nodes"), op_decl_set(900, "chain_edges")
        maps = {"pedge": op_decl_map(edges, nodes, 2, rng.integers(0, 300, (900, 2)), "pedge")}
        dats = {
            "p_y": op_decl_dat(nodes, 1, "double", rng.random((300, 1)), "p_y"),
            "p_x": op_decl_dat(nodes, 1, "double", np.zeros((300, 1)), "p_x"),
            "p_w": op_decl_dat(edges, 1, "double", rng.random((900, 1)), "p_w"),
        }
        sets = {"init": nodes, "acc1": edges, "acc2": edges}
        module = _generated(CHAIN_SOURCE, "hpx")
        with active_context(context):
            for _ in range(3):
                for name, kernel in CHAIN_KERNELS.items():
                    getattr(module, f"op_par_loop_{name}")(kernel, sets[name], dats, maps)
        assert context.report().loops_executed == 9
        return dats["p_x"].data.copy()

    @pytest.mark.parametrize("engine", ["threads", "processes", "sharded"])
    def test_deferred_engines_equal_serial(self, engine):
        expected = self._run(serial_context())
        assert np.array_equal(self._run(hpx_context(engine=engine, num_threads=2)), expected)


class TestDriver:
    def test_translate_writes_files(self, tmp_path):
        result = op2_translate(AIRFOIL_SOURCE, output_dir=tmp_path, source_name="airfoil.cpp")
        assert len(result.written_files) == 2
        names = {path.name for path in result.written_files}
        assert names == {"op2_program_omp_kernels.py", "op2_program_hpx_kernels.py"}
        for path in result.written_files:
            compile(path.read_text(), str(path), "exec")

    def test_translate_from_file(self, tmp_path):
        source_file = tmp_path / "app.cpp"
        source_file.write_text(AIRFOIL_SOURCE)
        result = op2_translate(source_file, output_dir=tmp_path)
        assert {path.name for path in result.written_files} == {
            "app_omp_kernels.py", "app_hpx_kernels.py"}
        assert result.program.source_name == "app.cpp"

    def test_unknown_flavour_rejected(self):
        with pytest.raises(TranslatorError):
            op2_translate(AIRFOIL_SOURCE, flavours=("cuda",))
        result = op2_translate(AIRFOIL_SOURCE, flavours=("hpx",))
        with pytest.raises(TranslatorError):
            result.module_for("openmp")

# ---------------------------------------------------------------------------
# Kernel-level pipeline: parse -> analyse -> emit -> build
# ---------------------------------------------------------------------------
def _airfoil_kernels():
    from repro.apps.airfoil import kernels as K

    return {"save_soln": K.SAVE_SOLN, "adt_calc": K.ADT_CALC,
            "res_calc": K.RES_CALC, "bres_calc": K.BRES_CALC, "update": K.UPDATE}


class TestKernelParserRoundTrip:
    """Satellite regression suite: the kernel parser must round-trip every
    real application kernel into a self-contained, compilable IR."""

    def test_every_app_kernel_parses(self):
        from repro.apps.aero import _cell_relax, _node_update
        from repro.apps.jacobi import _res, _update

        kernels = [k.kernel_ir() for k in _airfoil_kernels().values()]
        kernels += [parse_kernel(fn) for fn in (_res, _update, _cell_relax, _node_update)]
        for ir in kernels:
            assert ir.params
            for text in ir.all_sources():
                compile(text, "<kernel>", "exec")

    def test_attribute_chain_constants_folded(self):
        """``_g.gam``-style module references are baked as generated constants."""
        ir = _airfoil_kernels()["adt_calc"].kernel_ir()
        assert all("_g." not in text for text in ir.all_sources())
        values = [v for v in ir.all_constants().values() if isinstance(v, float)]
        assert any(abs(v - 1.4) < 1e-15 for v in values)  # gamma

    def test_ndarray_constant_baked(self):
        """The far-field state ``_g.qinf`` becomes an ndarray constant."""
        ir = _airfoil_kernels()["bres_calc"].kernel_ir()
        arrays = [v for v in ir.all_constants().values() if isinstance(v, np.ndarray)]
        assert any(a.shape == (4,) and a.dtype == np.float64 for a in arrays)

    def test_helper_functions_recursively_parsed(self):
        ir = _airfoil_kernels()["adt_calc"].kernel_ir()
        assert [h.func_name for h in ir.helpers] == ["_edge_contribution"]
        sources = ir.all_sources()
        assert sources[-1].startswith("def _adt_calc")
        assert sources[0].startswith("def _edge_contribution")

    def test_annotations_stripped(self):
        def annotated(a: np.ndarray, out: np.ndarray) -> None:
            scaled: float = a[0] * 2.0
            out[0] = scaled

        ir = parse_kernel(annotated)
        assert "->" not in ir.source and ": float" not in ir.source
        assert "np.ndarray" not in ir.source

    def test_structural_features_recorded(self):
        def busy(a, out):
            if a[0] < 0.0:
                out[0] = 0.0
                return
            total = 0.0
            for i in range(3):
                total = max(total, a[i])
            out[0] = total

        ir = parse_kernel(busy)
        assert {"loop", "branch", "early-return"} <= ir.features

    def test_unlowerable_kernels_rejected(self):
        with pytest.raises(TranslatorParseError):
            parse_kernel(lambda a: None)
        with pytest.raises(TranslatorParseError):
            parse_kernel("def k(a):\n    print(a[0])\n")


class TestKernelAccessAnalysis:
    def test_app_kernel_classifications(self):
        kernels = _airfoil_kernels()
        save = analyse_kernel(kernels["save_soln"].kernel_ir())
        assert save.access_of("q") == "read" and save.access_of("qold") == "write"
        update = analyse_kernel(kernels["update"].kernel_ir())
        assert update.access_of("q") == "write"
        assert update.access_of("res") == "rw"
        assert update.access_of("rms") == "rw"
        res = analyse_kernel(kernels["res_calc"].kernel_ir())
        assert res.access_of("res1") == "rw" and res.access_of("x1") == "read"

    def test_helper_call_propagates_access(self):
        """``_adt_calc`` only reads x1..x4 *through* ``_edge_contribution``."""
        analysis = analyse_kernel(_airfoil_kernels()["adt_calc"].kernel_ir())
        for param in ("x1", "x2", "x3", "x4"):
            assert analysis.access_of(param) == "read"
        assert analysis.access_of("adt") == "write"

    def test_param_rebinding_rejected(self):
        def rebinder(a, out):
            a = a[0] + 1.0
            out[0] = a

        with pytest.raises(TranslatorLoweringError):
            analyse_kernel(parse_kernel(rebinder))

    def test_unknown_param_rejected(self):
        analysis = analyse_kernel(_airfoil_kernels()["save_soln"].kernel_ir())
        with pytest.raises(TranslatorError):
            analysis.access_of("nope")


class TestSlabEmission:
    DIRECT_READ = SlabArg(kind="direct", access="READ", dim=1, dtype="float64")
    DIRECT_WRITE = SlabArg(kind="direct", access="WRITE", dim=1, dtype="float64")

    def test_emitted_module_compiles(self):
        def scale(a, out):
            out[0] = 2.0 * a[0]

        ir = parse_kernel(scale)
        source = emit_slab_module(ir, (self.DIRECT_READ, self.DIRECT_WRITE))
        compile(source, "<slab>", "exec")
        assert "def _slab(start, stop" in source
        assert "BACKEND" in source

    def test_build_slab_reports_backend(self):
        def scale(a, out):
            out[0] = 2.0 * a[0]

        artifact = build_slab(parse_kernel(scale),
                              (self.DIRECT_READ, self.DIRECT_WRITE), fingerprint="t")
        assert artifact.backend in ("numba", "numpy")
        assert callable(artifact.slab)
        a = np.arange(4.0).reshape(4, 1)
        out = np.zeros((4, 1))
        artifact.slab(0, 4, a, out)
        assert np.array_equal(out, 2.0 * a)

    def test_global_write_refused(self):
        def gwrite(a, g):
            g[0] = a[0]

        signature = (self.DIRECT_READ,
                     SlabArg(kind="gbl", access="WRITE", dim=1, dtype="float64"))
        with pytest.raises(TranslatorLoweringError):
            emit_slab_module(parse_kernel(gwrite), signature)

    def test_access_cross_check_refuses_miscompiled_slab(self):
        """A kernel that writes a parameter declared OP_READ never builds."""
        def sneaky(a, out):
            a[0] = 0.0
            out[0] = a[0]

        with pytest.raises(TranslatorLoweringError, match="miscompile"):
            emit_slab_module(parse_kernel(sneaky),
                             (self.DIRECT_READ, self.DIRECT_WRITE))

    def test_arity_mismatch_refused(self):
        def scale(a, out):
            out[0] = 2.0 * a[0]

        with pytest.raises(TranslatorLoweringError):
            emit_slab_module(parse_kernel(scale), (self.DIRECT_READ,))


class TestSlabParity:
    def test_slab_bit_identical_to_vectorized_path(self):
        """The compiled slab must reproduce ``_prepare_vectorized`` exactly
        (same staging, same merge order) across direct, indirect-read,
        indirect-increment and global-reduction arguments."""
        from repro.op2.access import OP_ID, OP_INC, OP_MAX, OP_READ
        from repro.op2.args import op_arg_dat, op_arg_gbl
        from repro.op2.dat import OpDat
        from repro.op2.kernel import Kernel
        from repro.op2.map import OpMap
        from repro.op2.par_loop import ParLoop
        from repro.op2.set import OpSet

        rng = np.random.default_rng(42)
        nodes, edges = OpSet(10, "parity_nodes"), OpSet(14, "parity_edges")
        e2n = OpMap(edges, nodes, 2, rng.integers(0, 10, size=(14, 2)), "parity_e2n")
        xd = OpDat(nodes, 2, "double", rng.standard_normal((10, 2)), "parity_x")
        res = OpDat(nodes, 1, "double", np.zeros((10, 1)), "parity_res")
        w = OpDat(edges, 1, "double", rng.standard_normal((14, 1)), "parity_w")

        def _edge(x1, x2, wgt, r1, r2, acc):
            d0 = x1[0] - x2[0]
            d1 = x1[1] - x2[1]
            e = wgt[0] * (d0 * d0 + d1 * d1)
            r1[0] += e
            r2[0] += e
            if e > acc[0]:
                acc[0] = e

        def _edge_vec(_idx, x1, x2, wgt, r1, r2, acc):
            d = x1 - x2
            e = wgt[:, 0] * (d[:, 0] ** 2 + d[:, 1] ** 2)
            r1[:, 0] += e
            r2[:, 0] += e
            acc[0] = max(acc[0], e.max())

        gmax = np.zeros(1)
        loop = ParLoop(Kernel("parity_edge", _edge, vectorized=_edge_vec),
                       "parity_edge", edges, [
            op_arg_dat(xd, 0, e2n, 2, "double", OP_READ),
            op_arg_dat(xd, 1, e2n, 2, "double", OP_READ),
            op_arg_dat(w, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(res, 0, e2n, 1, "double", OP_INC),
            op_arg_dat(res, 1, e2n, 1, "double", OP_INC),
            op_arg_gbl(gmax, 1, "double", OP_MAX),
        ])
        artifact = build_slab(parse_kernel(_edge), slab_signature(loop),
                              fingerprint="parity")

        res0, g0 = res.data.copy(), gmax.copy()
        for merge in (loop.prepare_block(0, 7), loop.prepare_block(7, 14)):
            merge()
        res_vec, g_vec = res.data.copy(), gmax.copy()

        res.data[:], gmax[:] = res0, g0
        for start, stop in ((0, 7), (7, 14)):
            loop.fold_partials(run_slab(loop, artifact, start, stop))
        assert np.array_equal(res.data, res_vec)
        assert np.array_equal(gmax, g_vec)
