#!/usr/bin/env python3
"""Source-to-source translation demo (Section II-B of the paper).

Feeds a C-style OP2 application (the Jacobi example, written the way an OP2
user would write ``jac.cpp``) through the translator, prints the discovered
loop sites, generates both the OpenMP-style and the HPX-style wrapper
modules, and *executes* the generated HPX module against real OP2 data to
show the pipeline runs end to end.  Which loops may overlap is decided by
the runtime as the loops are issued, not by the translator.  From the
generated module it then slices the wrapper of the ``res`` loop and that
loop's host stub, the straight-line function every small chunk of the loop
runs through (the paper's Fig. 9 shape: a wrapper above the runtime, a stub
below it).
Finally it prints the two forms one level down that the kernel translator
lowers from Airfoil's ``res_calc`` elemental source: the slab the
``compiled`` engine runs, and the NumPy block form every other engine runs.

Run with:  python examples/translator_demo.py
"""

from __future__ import annotations

import types

import numpy as np

from repro.apps.airfoil.kernels import RES_CALC
from repro.apps.jacobi import RES_KERNEL, UPDATE_KERNEL, build_ring_problem
from repro.op2.datapath import SCRATCH_MIN_ROWS
from repro.translator import SlabArg, emit_slab_module, op2_translate, stub_key

APPLICATION_SOURCE = """
/* jac.cpp -- edge-based Jacobi relaxation written against the OP2 C API */

op_set nodes;  op_decl_set(nnode, nodes, "nodes");
op_set edges;  op_decl_set(nedge, edges, "edges");
op_map ppedge; op_decl_map(edges, nodes, 2, edge_map, ppedge, "ppedge");
op_dat p_A;    op_decl_dat(edges, 1, "double", A,  p_A,  "p_A");
op_dat p_u;    op_decl_dat(nodes, 1, "double", u,  p_u,  "p_u");
op_dat p_du;   op_decl_dat(nodes, 1, "double", du, p_du, "p_du");
op_dat p_r;    op_decl_dat(nodes, 1, "double", r,  p_r,  "p_r");

op_par_loop(res, "res", edges,
    op_arg_dat(p_A,  -1, OP_ID,  1, "double", OP_READ),
    op_arg_dat(p_u,   0, ppedge, 1, "double", OP_READ),
    op_arg_dat(p_du,  1, ppedge, 1, "double", OP_INC));

op_par_loop(jac_update, "jac_update", nodes,
    op_arg_dat(p_r,  -1, OP_ID, 1, "double", OP_READ),
    op_arg_dat(p_du, -1, OP_ID, 1, "double", OP_RW),
    op_arg_dat(p_u,  -1, OP_ID, 1, "double", OP_RW),
    op_arg_gbl(&u_sum, 1, "double", OP_INC),
    op_arg_gbl(&u_max, 1, "double", OP_MAX));
"""


def main() -> None:
    result = op2_translate(APPLICATION_SOURCE, source_name="jac.cpp")

    print("loop sites found:")
    for site in result.program.loops:
        kind = "indirect/INC" if site.has_indirect_increment else "direct"
        print(f"  {site.name:12s} over {site.iteration_set:6s} ({kind}, {len(site.args)} args)")

    hpx_source = result.module_for("hpx")
    print(f"\ngenerated HPX module: {len(hpx_source.splitlines())} lines "
          f"(OpenMP flavour: {len(result.module_for('openmp').splitlines())} lines)")

    # Execute the generated module against real data.
    module = types.ModuleType("jac_hpx_kernels")
    exec(compile(hpx_source, "jac_hpx_kernels.py", "exec"), module.__dict__)

    problem = build_ring_problem(2000)
    u_sum = np.zeros(1)
    u_max = np.full(1, -np.inf)
    futures, report = module.run_program(
        kernels={"res": RES_KERNEL, "jac_update": UPDATE_KERNEL},
        sets={"edges": problem.edges, "nodes": problem.nodes},
        dats={
            "p_A": problem.p_A,
            "p_u": problem.p_u,
            "p_du": problem.p_du,
            "p_r": problem.p_r,
            "u_sum": u_sum,
            "u_max": u_max,
        },
        maps={"ppedge": problem.ppedge},
        num_threads=16,
    )
    print(f"\nexecuted the generated HPX module: {report.loops_executed} loops, "
          f"simulated runtime {report.makespan_seconds * 1e6:.1f} us, "
          f"|u|^2 = {u_sum[0]:.4f}, max(u) = {u_max[0]:.4f}")
    print("output futures:", {name: type(f).__name__ for name, f in futures.items()})

    show_res_stub(hpx_source, stub_key(result.program.loop("res")))
    show_res_calc_forms()


def _definition(source: str, name: str) -> str:
    """The text of the top-level ``def name(`` in ``source``."""
    start = source.index(f"\ndef {name}(") + 1
    return source[start:source.index("\n\n\n", start)].rstrip()


def show_res_stub(hpx_source: str, key: str) -> None:
    """The generated wrapper of loop ``res`` and the host stub below it,
    both as the translator emitted them."""
    print("\nloop 'res', above and below the runtime")
    print("\n-- generated wrapper: declares the loop, returns its output future --")
    print(_definition(hpx_source, "op_par_loop_res"))
    print(f"\n-- host stub (stub key {key!r}): every chunk below "
          f"{SCRATCH_MIN_ROWS} rows runs as this one straight-line call --")
    print(_definition(hpx_source, f"stub_{key}"))
    print("\n-- ... bound to _form, res's block form for the key's view ranks --")
    print(RES_KERNEL.vectorized.source().rstrip())


def show_res_calc_forms() -> None:
    """res_calc's slab and generated block form, both from its elemental source."""
    reads = [SlabArg("indirect", "READ", dim, "float64") for dim in (2, 2, 4, 4, 1, 1)]
    increments = [SlabArg("indirect", "INC", 4, "float64")] * 2
    slab = emit_slab_module(RES_CALC.kernel_ir(), (*reads, *increments))
    print("\nres_calc, one elemental source, two lowered forms")
    print("\n-- slab (engine='compiled'): the elemental kernel, called once per edge --")
    print(slab[slab.index("@_jit\ndef "):].rstrip())
    print("\n-- block form (every other engine): one ufunc per operation, every")
    print("   temporary a slot of per-thread scratch, called once per sub-block --")
    print(RES_CALC.vectorized.source().rstrip())


if __name__ == "__main__":
    main()
