"""repro -- a Python reproduction of "Redesigning OP2 Compiler to Use HPX
Runtime Asynchronous Techniques" (Khatami, Kaiser, Ramanujam, IPPS 2017).

The package contains every system the paper builds on or contributes:

* :mod:`repro.runtime` -- the asynchronous substrate the engines run on
  (futures, the chunk-task pool and worker processes, execution and
  chunk-size policies, the prefetching iterator);
* :mod:`repro.op2` -- the OP2 active library (sets, maps, dats, access
  descriptors, execution plans with colouring, ``op_par_loop``) with serial,
  OpenMP-style and HPX-style backends;
* :mod:`repro.engines` -- the pluggable execution-engine seam: the
  ``ExecutionEngine`` protocol, ``EngineCapabilities`` negotiation, the
  engine registry and the typed ``RunConfig`` contexts are built from;
* :mod:`repro.core` -- the paper's contribution: OP2 loops as dataflow nodes,
  chunk-granular loop interleaving, ``persistent_auto_chunk_size`` and the
  prefetcher integration;
* :mod:`repro.translator` -- the source-to-source translator emitting either
  OpenMP-style or HPX-style wrapper modules;
* :mod:`repro.sim` -- the discrete-event machine model used to time the
  experiments;
* :mod:`repro.apps` -- the Airfoil CFD application used in the paper's
  evaluation plus two further example applications;
* :mod:`repro.bench` -- the harness regenerating every figure and table of
  the paper's evaluation section.

Quickstart
----------
>>> from repro.op2.context import active_context
>>> from repro.op2.backends import hpx_context
>>> from repro.apps.airfoil import generate_mesh, run_airfoil
>>> mesh = generate_mesh(60, 40)
>>> with active_context(hpx_context(num_threads=16,
...                                 chunking="persistent_auto",
...                                 prefetch=True)) as ctx:
...     result = run_airfoil(mesh, niter=2)
>>> report = ctx.report()     # simulated runtime, bandwidth, chunk stats
"""

from repro import config, errors
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["config", "errors", "ReproError", "__version__"]
