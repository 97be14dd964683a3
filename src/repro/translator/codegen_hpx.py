"""HPX-dataflow wrapper generation (the paper's redesigned code path).

This is the translator modification the paper describes: instead of emitting
``#pragma omp parallel for`` wrappers, every ``op_par_loop`` becomes a
dataflow node executed by the HPX backend, returning a (shared) future of its
output dat.  The generated ``run_program`` driver installs an
:func:`~repro.op2.backends.hpx.hpx_context` configured with the requested
optimisations (chunking policy, prefetching, interleaving) and chains the
wrappers; the emitted module also records, as a comment block, the inter-loop
dependences found by the static analysis so a reader can see which loops the
runtime is allowed to interleave.
"""

from __future__ import annotations

from repro.translator.analysis import analyse_dependences
from repro.translator.codegen_common import emit_arg, emit_header, wrapper_name
from repro.translator.ir import ProgramIR

__all__ = ["generate_hpx_module"]


def generate_hpx_module(program: ProgramIR) -> str:
    """Generate the HPX-flavoured wrapper module source for ``program``."""
    graph = analyse_dependences(program)

    lines = emit_header(program, flavour="hpx (dataflow, futures, no global barriers)")
    lines += [
        "from repro.op2.context import active_context",
        "from repro.op2.backends.hpx import hpx_context",
        "",
        "# Inter-loop dependences discovered by static analysis (producer -> consumer):",
    ]
    if graph.edges:
        for edge in graph.edges:
            producer = program.loops[edge.producer].name
            consumer = program.loops[edge.consumer].name
            lines.append(f"#   {producer} -> {consumer}  [{edge.kind.upper()} on {edge.dat}]")
    else:
        lines.append("#   (none -- all loops are independent)")
    lines += ["", ""]

    for site in program.loops:
        args = ",\n        ".join(emit_arg(arg) for arg in site.args)
        lines += [
            f"def {wrapper_name(site)}(kernel, iteration_set, dats, maps):",
            f'    """Dataflow wrapper for loop {site.name!r}.',
            "",
            "    Under the HPX context this returns a shared future of the loop's",
            "    output dat (Fig. 8/9 of the paper); the runtime interleaves it",
            "    with other loops as far as the dependences above allow.",
            '    """',
            "    return op_par_loop(",
            "        kernel,",
            f'        "{site.name}",',
            "        iteration_set,",
            f"        {args},",
            "    )",
            "",
            "",
        ]

    lines += [
        "def run_program(kernels, sets, dats, maps, *, num_threads=16, machine=None,",
        "                chunking='persistent_auto', prefetch=True,",
        "                prefetch_distance_factor=15, interleave=True):",
        '    """Run every generated loop once, in program order, on the HPX backend.',
        "",
        "    Returns ``(futures, report)`` where ``futures`` maps loop names to the",
        "    shared futures of their output dats and ``report`` is the backend",
        "    report (simulated runtime, bandwidth, chunk statistics).",
        '    """',
        "    context = hpx_context(num_threads=num_threads, machine=machine,",
        "                          chunking=chunking, prefetch=prefetch,",
        "                          prefetch_distance_factor=prefetch_distance_factor,",
        "                          interleave=interleave)",
        "    futures = {}",
        "    with active_context(context):",
    ]
    for site in program.loops:
        lines.append(
            f"        futures[{site.name!r}] = {wrapper_name(site)}("
            f"kernels[{site.kernel!r}], sets[{site.iteration_set!r}], dats, maps)"
        )
    lines += [
        "    return futures, context.report()",
        "",
    ]
    return "\n".join(lines)
