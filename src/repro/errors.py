"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError``, ...) propagate untouched.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "RuntimeStateError",
    "FutureError",
    "FutureAlreadySatisfiedError",
    "FutureNotReadyError",
    "BrokenPromiseError",
    "CancelledError",
    "SchedulerError",
    "PolicyError",
    "ServiceError",
    "AdmissionError",
    "ServiceTimeoutError",
    "ServiceClosedError",
    "ChunkingError",
    "PrefetchError",
    "OP2Error",
    "OP2DeclarationError",
    "OP2MappingError",
    "OP2AccessError",
    "OP2PlanError",
    "OP2BackendError",
    "TranslatorError",
    "TranslatorParseError",
    "TranslatorCodegenError",
    "TranslatorLoweringError",
    "SimulationError",
    "MachineConfigError",
    "CacheConfigError",
    "BenchmarkError",
    "MeshError",
]


class ReproError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# Runtime (HPX-like) errors
# ---------------------------------------------------------------------------
class RuntimeStateError(ReproError):
    """The runtime is not in a state that permits the requested operation."""


class FutureError(ReproError):
    """Base class for future/promise related errors."""


class FutureAlreadySatisfiedError(FutureError):
    """A promise or future was assigned a value or exception twice."""


class FutureNotReadyError(FutureError):
    """A non-blocking read was attempted on a future that is not ready."""


class BrokenPromiseError(FutureError):
    """The promise backing a future was destroyed without providing a value."""


class CancelledError(FutureError):
    """The task backing a future was cancelled before it produced a value."""


class SchedulerError(ReproError):
    """Internal scheduling invariant violated or invalid scheduling request."""


class PolicyError(ReproError):
    """An execution policy was used incorrectly."""


class ServiceError(ReproError):
    """Base class for multi-tenant service-layer errors."""


class AdmissionError(ServiceError):
    """A request was refused admission (queue full or tenant over its
    in-flight cap) and backpressure did not clear within the timeout."""


class ServiceTimeoutError(ServiceError):
    """Waiting for a submitted request's result exceeded the timeout."""


class ServiceClosedError(ServiceError):
    """The service runtime (or shared engine pool) has been closed."""


class ChunkingError(ReproError):
    """A chunk-size parameter or chunking policy is invalid."""


class PrefetchError(ReproError):
    """Invalid prefetcher construction or usage."""


# ---------------------------------------------------------------------------
# OP2 errors
# ---------------------------------------------------------------------------
class OP2Error(ReproError):
    """Base class for OP2 API errors."""


class OP2DeclarationError(OP2Error):
    """Invalid op_decl_set / op_decl_map / op_decl_dat arguments."""


class OP2MappingError(OP2Error):
    """A mapping references elements outside its target set, or arity issues."""


class OP2AccessError(OP2Error):
    """An access descriptor is inconsistent with how the data is used."""


class OP2PlanError(OP2Error):
    """Execution-plan construction failed (blocking/colouring)."""


class OP2BackendError(OP2Error):
    """Unknown backend or backend-specific execution failure."""


# ---------------------------------------------------------------------------
# Translator errors
# ---------------------------------------------------------------------------
class TranslatorError(ReproError):
    """Base class for source-to-source translator errors."""


class TranslatorParseError(TranslatorError):
    """The application source could not be parsed into loop-site IR."""


class TranslatorCodegenError(TranslatorError):
    """Code generation from loop-site IR failed."""


class TranslatorLoweringError(TranslatorError):
    """A live kernel could not be lowered to a compiled slab artifact."""


# ---------------------------------------------------------------------------
# Simulator errors
# ---------------------------------------------------------------------------
class SimulationError(ReproError):
    """Base class for machine-model simulation errors."""


class MachineConfigError(SimulationError):
    """Invalid machine configuration (core counts, frequencies, ...)."""


class CacheConfigError(SimulationError):
    """Invalid cache geometry (size, associativity, line size)."""


# ---------------------------------------------------------------------------
# Benchmarks / applications
# ---------------------------------------------------------------------------
class BenchmarkError(ReproError):
    """A benchmark harness was configured or executed incorrectly."""


class MeshError(ReproError):
    """Mesh generation or validation failed."""
