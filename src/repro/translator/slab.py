"""Slab emission: compile a :class:`KernelIR` into a gather-compute-scatter loop.

A *slab* is one self-contained function ``_slab(start, stop, *flat_args)``
executing a contiguous block of a parallel loop's iteration range for one
specific argument signature.  The emitted module is pure source text -- a
backend probe (``numba.njit(nogil=True)`` when numba is importable, plain
exec'd Python otherwise), the kernel's module imports, its baked constants,
its helpers, the kernel itself, and the slab driver -- so the same artifact
serves the live ``compiled`` engine and the offline translator.

Flat-argument convention, one group per ``op_arg`` (position ``j``):

* direct dat (any access): the full ``(set_size, dim)`` data array, the
  kernel sees row ``a{j}[i]`` (writes go straight through, like the
  vectorised direct slice);
* indirect READ: two arguments, the full data array and the block's map
  column, the kernel sees ``a{j}_data[a{j}_col[r]]`` where ``r`` is the
  block-local row counter;
* indirect INC: a zero-filled ``(n, dim)`` private buffer, row ``a{j}[r]``,
  scatter-added afterwards in row order by the same
  :class:`repro.op2.datapath.BlockStage` commit as the vectorised path
  (hence bit-identical to it, and to ``np.add.at``);
* indirect WRITE/RW: a pre-gathered ``(n, dim)`` buffer, row ``a{j}[r]``,
  scattered back afterwards;
* global READ: the live global array;
* global INC/MIN/MAX: a neutral-element private buffer combined into the
  global afterwards.

Global WRITE/RW cannot be privatised (the kernel must observe prior
iterations) and is a lowering error here; the pipeline never dispatches such
loops to a slab, mirroring :meth:`ParLoop.prepare_block`'s serialisation.
Slabs run contiguous row ranges only: an owner chunk
(:meth:`ParLoop.run_chunk`) runs the loop's block form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.errors import TranslatorError, TranslatorLoweringError
from repro.op2.access import AccessMode
from repro.op2.datapath import BlockStage
from repro.translator.analysis import KernelAccessAnalysis, analyse_kernel
from repro.translator.ir import KernelIR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.op2.par_loop import ParLoop
    from repro.session import Session

__all__ = [
    "SlabArg",
    "KernelArtifact",
    "slab_signature",
    "emit_slab_module",
    "build_slab",
    "resolve_slab",
    "run_slab",
]

#: access-mode names a slab can privatise per argument kind
_GBL_UNSUPPORTED = ("WRITE", "RW")


@dataclass(frozen=True)
class SlabArg:
    """One position of a slab signature: how the loop feeds that argument."""

    kind: str  # "direct" | "indirect" | "gbl"
    access: str  # AccessMode name: "READ", "WRITE", "RW", "INC", "MIN", "MAX"
    dim: int
    dtype: str

    def __post_init__(self) -> None:
        if self.kind not in ("direct", "indirect", "gbl"):
            raise TranslatorLoweringError(f"unknown slab argument kind {self.kind!r}")


def slab_signature(loop: "ParLoop") -> tuple[SlabArg, ...]:
    """The slab signature of a loop: one :class:`SlabArg` per ``op_arg``."""
    signature = []
    for arg in loop.args:
        if arg.is_global:
            assert arg.gbl_data is not None
            signature.append(
                SlabArg("gbl", arg.access.name, arg.dim, str(arg.gbl_data.dtype))
            )
        else:
            assert arg.dat is not None
            kind = "direct" if arg.is_direct else "indirect"
            signature.append(SlabArg(kind, arg.access.name, arg.dim, str(arg.dat.dtype)))
    return tuple(signature)


@dataclass
class KernelArtifact:
    """A compiled slab for one (kernel fingerprint, slab signature) pair."""

    kernel_name: str
    fingerprint: str
    signature: tuple[SlabArg, ...]
    ir: KernelIR
    analysis: KernelAccessAnalysis
    module_source: str
    slab: Optional[Callable[..., None]]
    backend: str  # "numba" | "numpy" | "none" (IR-only artifact)
    namespace: dict[str, Any] = field(repr=False, default_factory=dict)

    def describe(self) -> dict[str, Any]:
        """Metadata for reports and cache introspection."""
        return {
            "kernel": self.kernel_name,
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "signature": [
                (s.kind, s.access, s.dim, s.dtype) for s in self.signature
            ],
            "features": sorted(self.ir.features),
        }


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------
_MODULE_HEADER = '''\
"""Auto-generated slab module for kernel {name!r}; do not edit."""
try:
    from numba import njit as _njit

    def _jit(fn):
        return _njit(nogil=True, cache=False)(fn)

    BACKEND = "numba"
except ImportError:

    def _jit(fn):
        return fn

    BACKEND = "numpy"

import numpy as _np
'''


def _emit_constant(name: str, value: Any) -> str:
    if isinstance(value, np.ndarray):
        # repr of a float list round-trips bit-exactly; rebuild with dtype
        return f"{name} = _np.array({value.tolist()!r}, dtype=_np.{value.dtype.name})"
    return f"{name} = {value!r}"


def _check_access(
    ir: KernelIR, analysis: KernelAccessAnalysis, signature: tuple[SlabArg, ...]
) -> None:
    """Cross-check the kernel's observed accesses against the declared modes."""
    if len(ir.params) != len(signature):
        raise TranslatorLoweringError(
            f"kernel {ir.name!r} takes {len(ir.params)} parameters but the loop "
            f"passes {len(signature)} arguments"
        )
    for param, slab_arg in zip(ir.params, signature):
        declared = AccessMode[slab_arg.access]
        if param in analysis.writes and not declared.writes:
            raise TranslatorLoweringError(
                f"kernel {ir.name!r} writes parameter {param!r} declared "
                f"{slab_arg.access}; refusing to compile a miscompiled slab"
            )


def emit_slab_module(ir: KernelIR, signature: tuple[SlabArg, ...]) -> str:
    """Generate the source of a self-contained slab module.

    Raises :class:`TranslatorLoweringError` when the signature cannot be
    privatised (global WRITE/RW) or contradicts the kernel's observed
    accesses.
    """
    analysis = analyse_kernel(ir)
    _check_access(ir, analysis, signature)

    params: list[str] = []
    views: list[str] = []
    for j, slab_arg in enumerate(signature):
        if slab_arg.kind == "direct":
            params.append(f"a{j}")
            views.append(f"a{j}[i]")
        elif slab_arg.kind == "indirect":
            if slab_arg.access == "READ":
                params.extend([f"a{j}_data", f"a{j}_col"])
                views.append(f"a{j}_data[a{j}_col[r]]")
            else:  # INC / WRITE / RW: private per-row buffer
                params.append(f"a{j}")
                views.append(f"a{j}[r]")
        else:  # gbl
            if slab_arg.access in _GBL_UNSUPPORTED:
                raise TranslatorLoweringError(
                    f"global {slab_arg.access} argument cannot be privatised into "
                    "a slab; the loop must stay on the interpreted path"
                )
            params.append(f"a{j}")
            views.append(f"a{j}")

    parts: list[str] = [_MODULE_HEADER.format(name=ir.name)]
    for alias, module in sorted(ir.all_modules().items()):
        parts.append(f"import {module} as {alias}" if alias != module else f"import {module}")
    constants = ir.all_constants()
    if constants:
        parts.append("")
        for name in sorted(constants):
            parts.append(_emit_constant(name, constants[name]))
    for source in ir.all_sources():
        parts.append("")
        parts.append("@_jit")
        parts.append(source)

    head = ", ".join(["start", "stop", *params])
    body_lines = [f"def _slab({head}):"]
    uses_row = any("[r]" in view for view in views)
    if uses_row:
        body_lines.append("    r = 0")
    body_lines.append("    for i in range(start, stop):")
    body_lines.append(f"        {ir.func_name}({', '.join(views)})")
    if uses_row:
        body_lines.append("        r += 1")
    parts.extend(["", "@_jit", "\n".join(body_lines), ""])
    return "\n".join(parts)


def build_slab(
    ir: KernelIR,
    signature: tuple[SlabArg, ...],
    *,
    fingerprint: Optional[str] = None,
) -> KernelArtifact:
    """Emit, exec and wrap a slab module into a :class:`KernelArtifact`.

    Any failure -- unsupported signature, emission bug, a backend rejecting
    the generated source -- surfaces as :class:`TranslatorLoweringError` so
    callers can fall back to the interpreted path uniformly.
    """
    module_source = emit_slab_module(ir, signature)
    namespace: dict[str, Any] = {"__name__": f"_repro_slab_{ir.func_name}"}
    try:
        exec(compile(module_source, f"<slab:{ir.name}>", "exec"), namespace)
    except TranslatorLoweringError:
        raise
    except Exception as exc:  # pragma: no cover - emitter bug surface
        raise TranslatorLoweringError(
            f"emitted slab module for kernel {ir.name!r} failed to execute: {exc}"
        ) from exc
    return KernelArtifact(
        kernel_name=ir.name,
        fingerprint=fingerprint or "",
        signature=signature,
        ir=ir,
        analysis=analyse_kernel(ir),
        module_source=module_source,
        slab=namespace["_slab"],
        backend=namespace["BACKEND"],
        namespace=namespace,
    )


# ---------------------------------------------------------------------------
# Runtime binding
# ---------------------------------------------------------------------------
def resolve_slab(loop: "ParLoop", session: "Session") -> Optional["KernelArtifact"]:
    """The loop's compiled slab artifact, or ``None`` for the interpreted path.

    Loops with a non-reduction global write stay interpreted silently --
    privatising them is semantically impossible (the kernel must observe
    prior iterations), mirroring :meth:`ParLoop.prepare_block`.  Kernels
    the translator cannot lower fall back with one warning per kernel
    content; artifacts are cached on ``session`` keyed on
    ``(fingerprint, slab signature)``.
    """
    if loop.has_global_write:
        return None
    kernel = loop.kernel
    try:
        signature = slab_signature(loop)
        return session.kernel_artifact(
            (kernel.fingerprint, signature), lambda: kernel.lowered(signature)
        )
    except TranslatorError as exc:
        fingerprint = kernel.fingerprint
        if fingerprint not in _lowering_warned:
            _lowering_warned.add(fingerprint)
            warnings.warn(
                f"kernel {kernel.name!r} could not be lowered to a compiled "
                f"slab ({exc}); falling back to the interpreted path",
                RuntimeWarning,
                stacklevel=2,
            )
        return None


#: kernel fingerprints whose lowering failure has already been warned about
#: (process-wide: the fallback is per kernel *content*, not per pipeline)
_lowering_warned: set[str] = set()


def run_slab(
    loop: "ParLoop", artifact: KernelArtifact, start: int, stop: int
) -> list[tuple[int, np.ndarray]]:
    """Run the slab over ``[start, stop)`` and commit its dat effects; return
    the global-reduction partials, like :meth:`ParLoop.run_chunk`.

    The staging and its commit are
    :class:`repro.op2.datapath.BlockStage`'s, shared with
    :meth:`ParLoop.run_chunk` -- private buffers for indirect INC/WRITE/RW
    and global reductions -- so slab execution composes with the same
    scheduling machinery as the interpreted paths.

    Deliberately not sub-blocked (:meth:`BlockStage.sub_blocks`): the slab
    reads indirect rows element by element inside its loop, so it has no
    gathered copies and no whole-chunk temporaries to keep cache-resident.
    """
    stage = BlockStage(start, stop)
    flat: list[np.ndarray] = []
    for arg in loop.args:
        if arg.is_global:
            assert arg.gbl_data is not None
            # READ sees the live value; WRITE/RW never reaches a slab
            flat.append(stage.reduction(arg) if arg.access.is_reduction else arg.gbl_data)
        elif arg.is_direct:
            assert arg.dat is not None
            flat.append(arg.dat.data)
        elif arg.access is AccessMode.READ:
            assert arg.dat is not None
            flat.append(arg.dat.data)
            flat.append(stage.index(arg))
        else:  # INC / WRITE / RW
            flat.append(stage.private(arg))

    artifact.slab(start, stop, *flat)
    return list(zip(loop.reduction_positions, stage.commit()))
