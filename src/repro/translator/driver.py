"""The ``op2_translate`` entry point.

Mirrors the command-line usage of the original ``op2.py`` translator: given
an application source, produce one generated module per requested flavour
(``openmp``, ``hpx``), optionally writing them next to the input file as
``<stem>_omp_kernels.py`` / ``<stem>_hpx_kernels.py``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.errors import TranslatorError
from repro.translator.codegen import FLAVOURS, emit_module
from repro.translator.ir import ProgramIR
from repro.translator.parser import parse_source

__all__ = ["TranslationResult", "op2_translate"]

_SUFFIXES = {
    "openmp": "_omp_kernels.py",
    "hpx": "_hpx_kernels.py",
}


@dataclass
class TranslationResult:
    """Everything produced by one translator invocation."""

    program: ProgramIR
    modules: dict[str, str] = field(default_factory=dict)
    written_files: list[pathlib.Path] = field(default_factory=list)

    def module_for(self, flavour: str) -> str:
        """The generated source of one flavour."""
        try:
            return self.modules[flavour]
        except KeyError as exc:
            raise TranslatorError(f"flavour {flavour!r} was not generated") from exc


def op2_translate(
    source: Union[str, pathlib.Path],
    *,
    flavours: Iterable[str] = ("openmp", "hpx"),
    output_dir: Optional[Union[str, pathlib.Path]] = None,
    source_name: Optional[str] = None,
) -> TranslationResult:
    """Translate an application source into backend wrapper modules.

    Parameters
    ----------
    source:
        Either the application source text or a path to a source file.
    flavours:
        Which code generators to run (``"openmp"``, ``"hpx"``).
    output_dir:
        When given, the generated modules are written there (named after the
        input file, or ``op2_program`` for in-memory sources).
    source_name:
        Overrides the name recorded in the IR for in-memory sources.
    """
    path: Optional[pathlib.Path] = None
    if isinstance(source, pathlib.Path) or (
        isinstance(source, str) and "\n" not in source and pathlib.Path(source).is_file()
    ):
        path = pathlib.Path(source)
        text = path.read_text()
        name = source_name or path.name
    else:
        text = str(source)
        name = source_name or "<string>"

    result = TranslationResult(program=parse_source(text, source_name=name))
    for flavour in flavours:
        if flavour not in FLAVOURS:
            raise TranslatorError(f"unknown flavour {flavour!r}; available: {sorted(FLAVOURS)}")
        result.modules[flavour] = emit_module(result.program, flavour)

    if output_dir is not None:
        directory = pathlib.Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stem = path.stem if path is not None else "op2_program"
        for flavour, module_source in result.modules.items():
            target = directory / f"{stem}{_SUFFIXES[flavour]}"
            target.write_text(module_source)
            result.written_files.append(target)

    return result
