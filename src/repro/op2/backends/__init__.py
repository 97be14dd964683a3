"""OP2 execution backends: three factories of the one
:class:`~repro.op2.context.ExecutionContext`, one per schedule.

* :mod:`repro.op2.backends.serial` -- reference serial execution.
* :mod:`repro.op2.backends.openmp` -- the paper's baseline: fork/join with a
  global barrier after every loop (``#pragma omp parallel for``).
* :mod:`repro.op2.backends.hpx` -- the paper's contribution: futures +
  dataflow + persistent chunking + prefetching (implemented in
  :mod:`repro.core`).
"""

from repro.engines import RunConfig
from repro.op2.backends.serial import serial_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.hpx import hpx_context

__all__ = ["RunConfig", "serial_context", "openmp_context", "hpx_context"]
