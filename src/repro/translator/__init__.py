"""The OP2 source-to-source translator.

OP2 is an *active library*: a translator scans the application source for
``op_par_loop`` call sites and generates, per loop, a platform-specific
parallel wrapper.  The original translator is written in MATLAB/Python and
emits C/OpenMP/CUDA; the paper modifies the Python translator so that it
emits HPX ``dataflow``/``for_each`` code instead (Section II-B: "its Python
source-to-source code translator is modified to automatically generate the
parallel loops using HPX library calls").

This package reproduces that pipeline in miniature:

* :mod:`repro.translator.ir` -- the loop-site intermediate representation;
* :mod:`repro.translator.parser` -- extraction of ``op_par_loop`` call sites
  from C-like application sources;
* :mod:`repro.translator.codegen` -- one emitter of runnable Python wrapper
  modules for the OpenMP-style and HPX-style contexts of this library: per
  loop site a wrapper, and per distinct argument signature the host stub
  the loop's chunks run (:func:`~repro.translator.blockform.render_stub`);
* :mod:`repro.translator.driver` -- the ``op2_translate`` entry point.

No static inter-loop dependence pass exists: as in the paper, which loops
may overlap is decided at run time, from the accesses every loop declares.

The same parser/IR stack also operates one level down, on single
*kernels* -- :func:`parse_kernel` → :class:`KernelIR` → :func:`analyse_kernel`
→ :mod:`repro.translator.slab` emission -- which is the lowering pipeline the
live ``compiled`` engine shares with the offline translator, and
:mod:`repro.translator.blockform` lowers the same IR to the NumPy block form
every other engine runs.
"""

from repro.translator.analysis import KernelAccessAnalysis, analyse_kernel
from repro.translator.blockform import BlockForm, block_form
from repro.translator.codegen import emit_module, stub_key
from repro.translator.driver import TranslationResult, op2_translate
from repro.translator.ir import ArgDescriptor, KernelIR, LoopSite, ProgramIR
from repro.translator.parser import parse_kernel, parse_source
from repro.translator.slab import (
    KernelArtifact,
    SlabArg,
    build_slab,
    emit_slab_module,
    run_slab,
    slab_signature,
)

__all__ = [
    "ArgDescriptor",
    "LoopSite",
    "ProgramIR",
    "KernelIR",
    "parse_source",
    "parse_kernel",
    "KernelAccessAnalysis",
    "analyse_kernel",
    "SlabArg",
    "KernelArtifact",
    "slab_signature",
    "emit_slab_module",
    "build_slab",
    "run_slab",
    "BlockForm",
    "block_form",
    "emit_module",
    "stub_key",
    "TranslationResult",
    "op2_translate",
]
