"""Intermediate representation of ``op_par_loop`` call sites and kernels.

Two granularities share this module:

* the *program* level -- :class:`ProgramIR` / :class:`LoopSite` /
  :class:`ArgDescriptor`, produced by scanning an application source for
  ``op_par_loop`` call sites (the historical translator path); and
* the *kernel* level -- :class:`KernelIR`, produced by parsing one user
  kernel's Python source (:func:`repro.translator.parser.parse_kernel`).
  This is the representation the live ``compiled`` engine lowers through:
  capture → parse → KernelIR → analyze → emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import TranslatorError

__all__ = [
    "ArgDescriptor",
    "LoopSite",
    "ProgramIR",
    "KernelIR",
    "ACCESS_NAMES",
]

#: access spellings accepted in application sources
ACCESS_NAMES = {"OP_READ", "OP_WRITE", "OP_RW", "OP_INC", "OP_MIN", "OP_MAX"}


@dataclass(frozen=True)
class ArgDescriptor:
    """One ``op_arg_dat`` / ``op_arg_gbl`` occurrence inside a loop call."""

    dat: str
    index: int
    map_name: str  # "OP_ID" for direct arguments
    dim: int
    type_name: str
    access: str
    is_global: bool = False

    def __post_init__(self) -> None:
        if self.access not in ACCESS_NAMES:
            raise TranslatorError(f"unknown access mode {self.access!r}")
        if self.dim <= 0:
            raise TranslatorError(f"argument {self.dat!r} has non-positive dim {self.dim}")

    @property
    def is_direct(self) -> bool:
        """True for non-global arguments accessed through ``OP_ID``."""
        return not self.is_global and self.map_name == "OP_ID"

    @property
    def is_indirect(self) -> bool:
        """True for arguments accessed through a real map."""
        return not self.is_global and self.map_name != "OP_ID"


@dataclass
class LoopSite:
    """One ``op_par_loop`` call site."""

    kernel: str
    name: str
    iteration_set: str
    args: list[ArgDescriptor]
    source_line: int = 0

    def __post_init__(self) -> None:
        if not self.args:
            raise TranslatorError(f"loop {self.name!r} has no arguments")

    @property
    def is_direct(self) -> bool:
        """True when no argument is accessed through a map."""
        return all(not arg.is_indirect for arg in self.args)

    @property
    def has_indirect_increment(self) -> bool:
        """True when some argument increments data through a map."""
        return any(arg.is_indirect and arg.access == "OP_INC" for arg in self.args)


@dataclass
class ProgramIR:
    """All loop sites of one application source, in program order."""

    source_name: str
    loops: list[LoopSite] = field(default_factory=list)
    sets: list[str] = field(default_factory=list)
    maps: list[str] = field(default_factory=list)
    dats: list[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[LoopSite]:
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)

    def loop(self, name: str) -> LoopSite:
        """Look a loop site up by name (first match)."""
        for site in self.loops:
            if site.name == name:
                return site
        raise TranslatorError(f"no loop named {name!r} in {self.source_name!r}")


# ---------------------------------------------------------------------------
# Kernel-level IR
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KernelIR:
    """The parsed, canonicalised form of one user kernel.

    ``source`` is the *canonical* source: annotations and decorators removed,
    module-level references folded -- free names that resolved to scalars or
    arrays have been baked into ``constants`` (attribute chains like
    ``_g.gam`` are rewritten to generated constant names), module references
    (``math``, ``np``) are recorded in ``modules``, and same-origin helper
    functions are recursively parsed into ``helpers``.  Emitting ``modules``
    imports + ``constants`` assignments + every helper's source + ``source``
    yields a self-contained module that reproduces the kernel's numerics.
    """

    #: the kernel name this IR was parsed for (diagnostics)
    name: str
    #: the function name to call in emitted code (the original ``def`` name)
    func_name: str
    #: positional parameter names, in order
    params: tuple[str, ...]
    #: canonical function source (``ast.unparse`` of the transformed tree)
    source: str
    #: alias -> module name of module-level references (``{"np": "numpy"}``)
    modules: Mapping[str, str]
    #: generated/free constant name -> baked Python value (scalars, ndarrays)
    constants: Mapping[str, Any]
    #: recursively parsed same-origin helper functions, in first-call order
    helpers: tuple["KernelIR", ...]
    #: structural features observed while parsing ("for", "if", "early-return", ...)
    features: frozenset[str] = frozenset()

    def all_modules(self) -> dict[str, str]:
        """Module imports of this kernel and every helper, merged."""
        merged: dict[str, str] = {}
        for helper in self.helpers:
            merged.update(helper.all_modules())
        merged.update(self.modules)
        return merged

    def all_constants(self) -> dict[str, Any]:
        """Baked constants of this kernel and every helper, merged."""
        merged: dict[str, Any] = {}
        for helper in self.helpers:
            merged.update(helper.all_constants())
        merged.update(self.constants)
        return merged

    def all_sources(self) -> list[str]:
        """Helper sources (dependency order) followed by the kernel source."""
        sources: list[str] = []
        seen: set[str] = set()
        for helper in self.helpers:
            for text in helper.all_sources():
                if text not in seen:
                    seen.add(text)
                    sources.append(text)
        if self.source not in seen:
            sources.append(self.source)
        return sources
