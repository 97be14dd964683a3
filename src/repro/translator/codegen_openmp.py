"""OpenMP-style wrapper generation (the stock OP2 code path).

For every loop site the generator emits a wrapper function whose role mirrors
the C code of Fig. 4 of the paper -- execute the loop under the
barrier-synchronised OpenMP-style backend -- plus a ``run_program`` driver
that installs an :func:`~repro.op2.backends.openmp.openmp_context` and invokes
the wrappers in program order.
"""

from __future__ import annotations

from repro.translator.codegen_common import emit_arg, emit_header, wrapper_name
from repro.translator.ir import ProgramIR

__all__ = ["generate_openmp_module"]


def generate_openmp_module(program: ProgramIR) -> str:
    """Generate the OpenMP-flavoured wrapper module source for ``program``."""
    lines = emit_header(program, flavour="openmp (fork/join, global barrier per loop)")
    lines += [
        "from repro.op2.context import active_context",
        "from repro.op2.backends.openmp import openmp_context",
        "",
        "",
    ]

    for site in program.loops:
        args = ",\n        ".join(emit_arg(arg) for arg in site.args)
        lines += [
            f"def {wrapper_name(site)}(kernel, iteration_set, dats, maps):",
            f'    """``#pragma omp parallel for`` wrapper for loop {site.name!r}.',
            "",
            "    The loop executes on the active context; a global barrier",
            "    follows it, as in the stock OP2 OpenMP code generator.",
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
        "def run_program(kernels, sets, dats, maps, *, num_threads=16, machine=None):",
        '    """Run every generated loop once, in program order, on the OpenMP backend.',
        "",
        "    ``kernels``, ``sets``, ``dats`` and ``maps`` are dictionaries keyed by",
        "    the variable names used in the original source.  Returns the backend",
        "    report (simulated runtime, bandwidth, ...).",
        '    """',
        "    context = openmp_context(num_threads=num_threads, machine=machine)",
        "    with active_context(context):",
    ]
    for site in program.loops:
        lines.append(
            f"        {wrapper_name(site)}(kernels[{site.kernel!r}], "
            f"sets[{site.iteration_set!r}], dats, maps)"
        )
    lines += [
        "    return context.report()",
        "",
    ]
    return "\n".join(lines)
