"""Wrapper-module generation: one emitter, two flavours.

For every ``op_par_loop`` call site the emitter prints a wrapper that
declares the loop on the active context -- under ``openmp`` a fork/join loop
with a global barrier after it (Fig. 4 of the paper), under ``hpx`` a
dataflow node that returns a shared future of its output dat (Figs 8-9) --
and, once per distinct stub key, the host stub every small chunk of those
loops runs: the text :func:`~repro.translator.blockform.render_stub`
compiles at run time.  ``run_program(kernels, sets, dats, maps, **options)``
builds the flavour's context with ``options`` and calls the wrappers in
program order.

The application's objects reach a wrapper through two dictionaries, ``dats``
(op_dats and global arrays) and ``maps``, keyed by the names used in the
source, so a wrapper has no free variables.
"""

from __future__ import annotations

from repro.errors import TranslatorCodegenError
from repro.op2.args import stub_code
from repro.translator.blockform import render_stub
from repro.translator.ir import ArgDescriptor, LoopSite, ProgramIR

__all__ = ["FLAVOURS", "emit_module", "stub_key", "validate_identifier", "wrapper_name"]

#: flavour -> (context factory, what the wrapper's docstring says of the loop)
FLAVOURS = {
    "openmp": ("openmp_context", "Runs fork/join; a global barrier follows the loop (Fig. 4)."),
    "hpx": ("hpx_context", "Returns a shared future of the loop's output dat (Figs 8-9)."),
}


def validate_identifier(name: str) -> str:
    """Ensure a parsed token is usable as a Python identifier."""
    candidate = name.strip()
    if not candidate.isidentifier():
        raise TranslatorCodegenError(f"{candidate!r} is not a valid identifier")
    return candidate


def wrapper_name(loop: LoopSite) -> str:
    """Name of the generated wrapper function for a loop site."""
    return f"op_par_loop_{validate_identifier(loop.name)}"


def stub_key(loop: LoopSite) -> str:
    """The key of the host stub the loop's chunks run (``ParLoop.stub_key``)."""
    return "".join(
        stub_code(arg.is_global, arg.is_direct, arg.access[3:].lower()) for arg in loop.args
    )


def _emit_arg(arg: ArgDescriptor) -> str:
    """The ``op_arg_dat`` / ``op_arg_gbl`` expression of one argument."""
    name = validate_identifier(arg.dat)
    if arg.is_global:
        return f"op_arg_gbl(dats[{name!r}], {arg.dim}, \"{arg.type_name}\", {arg.access})"
    map_expr = "OP_ID" if arg.is_direct else f"maps[{validate_identifier(arg.map_name)!r}]"
    return (
        f"op_arg_dat(dats[{name!r}], {arg.index}, {map_expr}, "
        f"{arg.dim}, \"{arg.type_name}\", {arg.access})"
    )


def emit_module(program: ProgramIR, flavour: str) -> str:
    """The wrapper module of ``program`` for ``flavour`` (a key of :data:`FLAVOURS`)."""
    factory, behaviour = FLAVOURS[flavour]
    lines = [
        '"""Auto-generated OP2 wrapper module -- DO NOT EDIT.',
        "",
        f"Source: {program.source_name}",
        f"Flavour: {flavour}",
        f"Loops: {', '.join(site.name for site in program.loops)}",
        '"""',
        "",
        "from repro.op2.access import OP_ID, OP_READ, OP_WRITE, OP_RW, OP_INC, OP_MIN, OP_MAX",
        "from repro.op2.args import op_arg_dat, op_arg_gbl",
        f"from repro.op2.backends import {factory}",
        "from repro.op2.context import active_context",
        "from repro.op2.par_loop import op_par_loop",
        "",
        "",
    ]
    keys = [stub_key(site) for site in program.loops]
    for site, key in zip(program.loops, keys):
        args = ",\n        ".join(_emit_arg(arg) for arg in site.args)
        lines += [
            f"def {wrapper_name(site)}(kernel, iteration_set, dats, maps):",
            f'    """Wrapper for loop {site.name!r}; its chunks run ``stub_{key}``.',
            "",
            f"    {behaviour}",
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
        "# Host stubs: a loop's chunk of fewer than repro.op2.datapath.SCRATCH_MIN_ROWS",
        "# rows runs as one call of its stub, with ``_form`` the kernel's block form and",
        "# the other names from repro.translator.blockform's stub namespace.",
        "",
    ]
    for key in dict.fromkeys(keys):
        lines += [render_stub(key), ""]

    lines += [
        "def run_program(kernels, sets, dats, maps, **options):",
        f'    """Run every generated loop once, in program order, under ``{factory}(**options)``.',
        "",
        "    ``kernels``, ``sets``, ``dats`` and ``maps`` are dictionaries keyed by",
        "    the names used in the original source.  Returns ``(futures, report)``:",
        "    what each loop's ``op_par_loop`` returned, by loop name, and the",
        "    context's report.",
        '    """',
        f"    context = {factory}(**options)",
        "    futures = {}",
        "    with active_context(context):",
    ]
    for site in program.loops:
        lines.append(
            f"        futures[{site.name!r}] = {wrapper_name(site)}("
            f"kernels[{site.kernel!r}], sets[{site.iteration_set!r}], dats, maps)"
        )
    lines += ["    return futures, context.report()", ""]
    return "\n".join(lines)
