"""Engine registry: name -> (factory, capabilities), mirroring ``register_backend``.

The registry is how a new execution substrate plugs into every context at
once: ``register_engine("my-engine", factory, capabilities=...)`` makes
``hpx_context(engine="my-engine")`` (and ``RunConfig(engine="my-engine")``)
work immediately, with the context deriving drain points, tracker strictness
and submission style from the advertised capabilities alone.

Factories receive the full :class:`~repro.engines.base.RunConfig` of the run
and return an object speaking the :class:`~repro.engines.base.ExecutionEngine`
protocol.  Capabilities must be known *without* instantiating the engine
(contexts negotiate at construction time, long before any pool spawns), so
they are registered alongside the factory -- either explicitly or as a
``capabilities`` attribute on the factory.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Hashable, Optional

from repro.errors import OP2BackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import EngineCapabilities, ExecutionEngine, RunConfig
    from repro.service.pool import SharedEnginePool
    from repro.session import Session

__all__ = [
    "register_engine",
    "unregister_engine",
    "available_engines",
    "engine_capabilities",
    "make_engine",
    "resolve_run_config",
]

#: engine name -> (factory(RunConfig) -> ExecutionEngine, EngineCapabilities)
_engine_factories: dict[str, tuple[Callable[..., "ExecutionEngine"], "EngineCapabilities"]] = {}
_registry_lock = threading.Lock()

#: the engine names every installation ships with
BUILTIN_ENGINES = ("simulate", "threads", "processes", "compiled", "sharded")


def register_engine(
    name: str,
    factory: Callable[..., "ExecutionEngine"],
    *,
    capabilities: Optional["EngineCapabilities"] = None,
    overwrite: bool = False,
) -> None:
    """Register ``factory`` as execution engine ``name``.

    ``capabilities`` may alternatively live on the factory itself (a
    ``capabilities`` attribute) -- convenient when the factory is the engine
    class.  Registering an existing name raises unless ``overwrite=True``.
    """
    # Load the builtins first, so registering one of their names collides
    # loudly here instead of being silently clobbered by their (lazy,
    # overwrite=True) self-registration later.
    _ensure_builtin_engines()
    if capabilities is None:
        capabilities = getattr(factory, "capabilities", None)
    if capabilities is None:
        raise OP2BackendError(
            f"engine {name!r} needs an EngineCapabilities record: pass "
            f"capabilities=... or set a 'capabilities' attribute on the factory"
        )
    with _registry_lock:
        if not overwrite and name in _engine_factories:
            raise OP2BackendError(f"execution engine {name!r} already registered")
        _engine_factories[name] = (factory, capabilities)


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests clean up their toy engines with this)."""
    if name in BUILTIN_ENGINES:
        raise OP2BackendError(f"built-in engine {name!r} cannot be unregistered")
    with _registry_lock:
        _engine_factories.pop(name, None)


def available_engines() -> list[str]:
    """Names of all registered execution engines, sorted."""
    _ensure_builtin_engines()
    with _registry_lock:
        return sorted(_engine_factories)


def _lookup(name: str) -> tuple[Callable[..., "ExecutionEngine"], "EngineCapabilities"]:
    _ensure_builtin_engines()
    with _registry_lock:
        entry = _engine_factories.get(name)
        if entry is None:
            raise OP2BackendError(
                f"unknown execution engine {name!r}; registered engines: "
                f"{sorted(_engine_factories)}"
            )
        return entry


def engine_capabilities(name: str) -> "EngineCapabilities":
    """Capability record of engine ``name``; the uniform unknown-engine error
    (an :class:`~repro.errors.OP2BackendError` listing the registered names)
    raises here, so every context fails identically."""
    return _lookup(name)[1]


def make_engine(
    config: "RunConfig",
    *,
    session: Optional["Session"] = None,
    pool: Optional["SharedEnginePool"] = None,
    tenant: Optional[Hashable] = None,
) -> "ExecutionEngine":
    """Instantiate the engine named by ``config.engine``, handing it the config.

    With ``session=`` the call goes through the session's warm pool instead:
    an engine already built for an equivalent config is returned live (its
    worker pool still up), and ownership moves to the session -- it is shut
    down at :meth:`~repro.session.Session.close`, not by the caller.

    With ``pool=`` the call *leases* from a process-wide
    :class:`~repro.service.SharedEnginePool` shared across sessions: the
    returned :class:`~repro.service.EngineLease` scopes draining and failure
    to the caller (keyed by ``tenant`` for fair scheduling) while the engine
    itself stays warm in the pool.  ``session=`` and ``pool=`` are mutually
    exclusive; ``tenant=`` requires ``pool=``.
    """
    if session is not None and pool is not None:
        raise OP2BackendError("pass session=... or pool=..., not both")
    if tenant is not None and pool is None:
        raise OP2BackendError("tenant= requires pool=")
    if session is not None:
        return session.engine(config)
    if pool is not None:
        return pool.lease(config, tenant=tenant)
    factory, _capabilities = _lookup(config.engine)
    return factory(config)


def resolve_run_config(
    config: Optional["RunConfig"] = None, **overrides: object
) -> "RunConfig":
    """Assemble the effective :class:`~repro.engines.base.RunConfig` of a context.

    The one shared implementation of the contexts' keyword plumbing: start
    from ``config`` (or a default ``RunConfig``) and apply every non-``None``
    keyword override.
    """
    from repro.engines.base import RunConfig

    if config is None:
        config = RunConfig()
    effective = {key: value for key, value in overrides.items() if value is not None}
    return config.replace(**effective) if effective else config


#: True while the builtin module is importing (its self-registrations must
#: not recurse into _ensure_builtin_engines)
_builtins_loading = False


def _ensure_builtin_engines() -> None:
    """Import the built-in engines so they self-register."""
    global _builtins_loading
    if _builtins_loading:
        return
    with _registry_lock:
        ready = set(BUILTIN_ENGINES) <= _engine_factories.keys()
    if not ready:
        _builtins_loading = True
        try:
            from repro.engines import builtin  # noqa: F401  (self-registering)
        finally:
            _builtins_loading = False
