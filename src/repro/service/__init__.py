"""Multi-tenant async service layer over the chunked dataflow runtime.

The paper's chunked dataflow execution makes every OP2 loop preemptible at
chunk granularity -- exactly the property a serving front-end needs for fair
multi-tenant interleaving without rewriting the execution layer.  This
package is that front-end, three small pieces layered over the existing
session/pipeline/engine stack:

* :class:`SharedEnginePool` / :class:`EngineLease` (:mod:`repro.service.pool`)
  -- one process-wide warm engine per ``(engine, num_threads,
  prefer_vectorized)`` key, *leased* by tenant sessions; a lease scopes
  draining and failure to the tenant's task group while the workers are
  shared, and the engine's ready queue interleaves tenants' chunks by
  weighted round-robin.
* :class:`AdmissionController` (:mod:`repro.service.admission`) -- bounded
  queue depth and per-tenant in-flight caps, surfacing backpressure as the
  typed :class:`~repro.errors.AdmissionError`.
* :class:`ServiceRuntime` (:mod:`repro.service.runtime`) -- the submission
  front-end: ``await runtime.submit(tenant, chain)`` from asyncio, or the
  thread-safe ``runtime.submit_sync`` twin; dispatcher threads drain a FIFO
  request queue into per-tenant sessions over the shared pool, and take
  interpreter turns (:mod:`repro.runtime.turns`) so inline requests run one
  at a time, shortest expected first.
"""

from repro.service.admission import AdmissionController
from repro.service.pool import EngineLease, SharedEnginePool
from repro.service.runtime import ServiceConfig, ServiceRuntime

__all__ = [
    "AdmissionController",
    "EngineLease",
    "SharedEnginePool",
    "ServiceConfig",
    "ServiceRuntime",
]
