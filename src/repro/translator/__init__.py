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
* :mod:`repro.translator.analysis` -- inter-loop dependence analysis from the
  access descriptors (what makes interleaving legal);
* :mod:`repro.translator.codegen_openmp` / :mod:`repro.translator.codegen_hpx`
  -- generation of runnable Python wrapper modules targeting the OpenMP-style
  and HPX-style backends of this library;
* :mod:`repro.translator.driver` -- the ``op2_translate`` entry point.

The same parser/IR/analysis stack also operates one level down, on single
*kernels* -- :func:`parse_kernel` → :class:`KernelIR` → :func:`analyse_kernel`
→ :mod:`repro.translator.slab` emission -- which is the lowering pipeline the
live ``compiled`` engine shares with the offline translator, and
:mod:`repro.translator.blockform` lowers the same IR to the NumPy block form
every other engine runs.
"""

from repro.translator.analysis import (
    KernelAccessAnalysis,
    LoopDependenceGraph,
    analyse_dependences,
    analyse_kernel,
)
from repro.translator.blockform import BlockForm, block_form
from repro.translator.codegen_hpx import generate_hpx_module
from repro.translator.codegen_openmp import generate_openmp_module
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
    "LoopDependenceGraph",
    "analyse_dependences",
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
    "generate_openmp_module",
    "generate_hpx_module",
    "TranslationResult",
    "op2_translate",
]
