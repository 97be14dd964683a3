"""User kernels.

An OP2 kernel is the per-element function applied by ``op_par_loop``.  In the
C version kernels live in header files (``save_soln.h`` etc.); here a
:class:`Kernel` has one source, its elemental form, and optionally a block
form for NumPy:

``elemental``
    Operates on one element at a time.  Its positional arguments correspond
    one-to-one to the loop's ``op_arg`` list: direct dat arguments receive a
    1-D view of length ``dim``, indirect arguments the mapped element's view,
    and global arguments the global array.  This form is the kernel's one
    source: the translator lowers it to a slab for the ``compiled`` engine
    and to a block form (:func:`repro.translator.blockform.block_form`), it
    is the fallback for blocks the block form cannot take (duplicate
    WRITE/RW targets) and the oracle of the correctness tests.

``vectorized``
    Operates on a whole *block* of elements at once using NumPy, receiving
    2-D gathered arrays instead of per-element views (OP_INC arguments are
    zero buffers which :mod:`repro.op2.datapath` scatter-adds afterwards in
    row order, bit-identical to ``numpy.add.at``).  It is called once per
    cache-sized sub-block of a chunk and must treat rows independently; see
    :meth:`ParLoop._prepare_vectorized` for the argument convention.
    Every backend, serial included, prefers this form -- looping over
    hundreds of thousands of elements in Python would swamp the experiments
    -- but it is optional.  The applications pass
    ``vectorized=block_form(elemental)``, generated from the elemental
    source; a hand-written callable with the same convention works too.

``cycles_per_element`` is the arithmetic-cost hint consumed by the machine
model's :class:`~repro.sim.cost.KernelProfile`.
"""

from __future__ import annotations

import hashlib
import inspect
import textwrap
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import OP2Error, TranslatorError
from repro.session import Session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.translator.slab import KernelArtifact, SlabArg

__all__ = ["Kernel", "kernel", "register_kernel", "resolve_kernel"]


def register_kernel(kern: "Kernel", *, session: Optional[Session] = None) -> None:
    """Make ``kern`` resolvable by name (done automatically on construction).

    The registry is how the multiprocess backend dispatches chunks: kernel
    *objects* hold arbitrary callables that cannot cross a process boundary,
    so worker processes receive only the kernel's name (plus its defining
    module as an import hint for spawn-style workers) and resolve it locally.

    Kernels register into the *current* :class:`~repro.session.Session`
    (``session=`` overrides): kernels declared at module scope land in the
    default session and stay visible everywhere; kernels declared while a
    session is active shadow same-named ones per session.
    """
    (session if session is not None else Session.current()).register_kernel(kern)


def resolve_kernel(
    name: str, module: Optional[str] = None, *, session: Optional[Session] = None
) -> "Kernel":
    """Look up a kernel by registered name.

    Resolution consults the current session's namespace first, then the
    default session.  When the name is unknown and ``module`` is given, the
    module is imported first: modules register their kernels at import time,
    which is how spawn-started worker processes (whose registry starts empty)
    find the kernels of application modules.  Fork-started workers inherit
    the parent's registry and never need the import.
    """
    return (session if session is not None else Session.current()).resolve_kernel(
        name, module
    )


@dataclass
class Kernel:
    """A named user kernel with elemental and (optionally) vectorised forms."""

    name: str
    elemental: Callable[..., Any]
    vectorized: Optional[Callable[..., Any]] = None
    #: arithmetic cycles per element, used by the performance model
    cycles_per_element: float = 50.0
    #: fraction of indirect accesses expected to hit already-resident lines
    reuse_fraction: float = 0.0
    #: relative per-chunk load imbalance (see KernelProfile.imbalance)
    imbalance: float = 0.05
    #: explicit elemental source override, for kernels built via ``exec`` whose
    #: source :func:`inspect.getsource` cannot recover
    source: Optional[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not callable(self.elemental):
            raise OP2Error(f"kernel {self.name!r}: elemental form must be callable")
        if self.vectorized is not None and not callable(self.vectorized):
            raise OP2Error(f"kernel {self.name!r}: vectorized form must be callable")
        if self.cycles_per_element <= 0:
            raise OP2Error(f"kernel {self.name!r}: cycles_per_element must be positive")
        if not 0.0 <= self.reuse_fraction <= 1.0:
            raise OP2Error(f"kernel {self.name!r}: reuse_fraction must be in [0, 1]")
        if not 0.0 <= self.imbalance < 1.0:
            raise OP2Error(f"kernel {self.name!r}: imbalance must be in [0, 1)")
        self._ir: Any = None
        self._ir_error: Optional[TranslatorError] = None
        register_kernel(self)

    @property
    def defining_module(self) -> Optional[str]:
        """Module the elemental form was defined in (import hint for workers)."""
        return getattr(self.elemental, "__module__", None)

    @property
    def has_vectorized(self) -> bool:
        """True if a NumPy block form is available."""
        return self.vectorized is not None

    # -- lowering ----------------------------------------------------------------
    @property
    def captured_source(self) -> Optional[str]:
        """The elemental form's source text, or ``None`` if unrecoverable."""
        if self.source is not None:
            return textwrap.dedent(self.source)
        try:
            return textwrap.dedent(inspect.getsource(self.elemental))
        except (OSError, TypeError):
            return None

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the elemental source.

        Redefining a same-named kernel with different source yields a
        different fingerprint, so plan/artifact caches and the multiprocess
        worker identity check never reuse stale state.  When the source is
        unrecoverable the hash falls back to the qualified name, which still
        distinguishes kernels but cannot detect in-place redefinition.
        """
        text = self.captured_source
        if text is None:
            text = (
                "qualname:"
                f"{self.defining_module}:"
                f"{getattr(self.elemental, '__qualname__', self.name)}"
            )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def kernel_ir(self) -> Any:
        """Parse the elemental form into a :class:`KernelIR` (memoized).

        A failed parse is memoized too: the same :class:`TranslatorError`
        re-raises on every call, so callers pay the parse attempt once and
        the pipeline warns once.
        """
        if self._ir_error is not None:
            raise self._ir_error
        if self._ir is None:
            from repro.translator.parser import parse_kernel

            try:
                if self.source is not None:
                    self._ir = parse_kernel(
                        self.source,
                        name=self.name,
                        globalns=getattr(self.elemental, "__globals__", None),
                    )
                else:
                    self._ir = parse_kernel(self.elemental, name=self.name)
            except TranslatorError as exc:
                self._ir_error = exc
                raise
        return self._ir

    def lowered(
        self, signature: Optional[tuple["SlabArg", ...]] = None
    ) -> "KernelArtifact":
        """Lazily lower the kernel to a :class:`KernelArtifact`.

        With a slab ``signature`` the artifact carries an executable slab for
        that argument layout; without one it carries only the parsed IR and
        access analysis (``artifact.slab is None``).  Raises
        :class:`~repro.errors.TranslatorError` when the kernel cannot be
        lowered; sessions cache successful artifacts keyed on
        ``(fingerprint, signature)``.
        """
        from repro.translator.analysis import analyse_kernel
        from repro.translator.slab import KernelArtifact, build_slab

        ir = self.kernel_ir()
        if signature is None:
            return KernelArtifact(
                kernel_name=self.name,
                fingerprint=self.fingerprint,
                signature=(),
                ir=ir,
                analysis=analyse_kernel(ir),
                module_source="",
                slab=None,
                backend="none",
            )
        return build_slab(ir, tuple(signature), fingerprint=self.fingerprint)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        """Calling the kernel object invokes the elemental form."""
        return self.elemental(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        forms = "elemental+vectorized" if self.has_vectorized else "elemental"
        return f"Kernel({self.name!r}, {forms})"


def kernel(
    name: Optional[str] = None,
    *,
    vectorized: Optional[Callable[..., Any]] = None,
    cycles_per_element: float = 50.0,
    reuse_fraction: float = 0.0,
    imbalance: float = 0.05,
) -> Callable[[Callable[..., Any]], Kernel]:
    """Decorator turning a plain function into a :class:`Kernel`.

    Example
    -------
    >>> @kernel("save_soln", cycles_per_element=8)
    ... def save_soln(q, qold):
    ...     qold[:] = q
    """

    def decorate(function: Callable[..., Any]) -> Kernel:
        return Kernel(
            name=name or function.__name__,
            elemental=function,
            vectorized=vectorized,
            cycles_per_element=cycles_per_element,
            reuse_fraction=reuse_fraction,
            imbalance=imbalance,
        )

    return decorate
