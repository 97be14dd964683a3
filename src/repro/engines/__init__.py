"""Pluggable execution engines for the OP2 chunk DAG.

The package turns the execution substrate behind ``op_par_loop`` into a
first-class, registry-backed seam (see :mod:`repro.engines.base` for the
design rationale):

>>> from repro.engines import RunConfig, register_engine, available_engines
>>> available_engines()
['processes', 'simulate', 'threads']
>>> from repro.op2.backends import hpx_context
>>> ctx = hpx_context(config=RunConfig(engine="threads", num_threads=8))

A custom engine is one ``register_engine`` call away::

    register_engine("my-engine", MyEngine,
                    capabilities=EngineCapabilities(shared_address_space=True))

after which ``hpx_context(engine="my-engine")`` (and benchmark sweeps over
``RunConfig`` replacements) pick it up with no changes to any ``repro``
module.
"""

from repro.engines.base import EngineCapabilities, ExecutionEngine, RunConfig
from repro.engines.registry import (
    available_engines,
    engine_capabilities,
    make_engine,
    register_engine,
    unregister_engine,
)

__all__ = [
    "EngineCapabilities",
    "ExecutionEngine",
    "RunConfig",
    "available_engines",
    "engine_capabilities",
    "make_engine",
    "register_engine",
    "unregister_engine",
]
