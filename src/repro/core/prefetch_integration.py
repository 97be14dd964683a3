"""Prefetcher integration (Figs. 13-14 of the paper).

Two pieces:

* :func:`build_prefetch_spec` -- the *timing-model* side: a
  :class:`~repro.sim.cost.PrefetchSpec` describing how much DRAM latency the
  prefetching iterator hides for a given distance factor.  The dataflow
  executor attaches this to every chunk cost it generates.
* :func:`make_loop_prefetcher` -- the *execution* side: a real
  :class:`~repro.runtime.prefetching.PrefetcherContext` over the containers
  (dats) a loop touches, iterated chunk by chunk as the range of Fig. 14's
  ``for_each``.  The examples and the runtime-level tests exercise this
  path; the large benchmark runs rely on the timing model only.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULTS
from repro.op2.par_loop import ParLoop
from repro.runtime.prefetching import PrefetcherContext, make_prefetcher_context
from repro.sim.cache import CacheModel
from repro.sim.cost import PrefetchSpec

__all__ = ["build_prefetch_spec", "make_loop_prefetcher"]


def build_prefetch_spec(
    enabled: bool,
    distance_factor: Optional[int] = None,
    *,
    cache_budget_fraction: float = 0.5,
) -> PrefetchSpec:
    """Build the cost-model prefetch description for the dataflow executor."""
    if distance_factor is None:
        distance_factor = DEFAULTS.prefetch_distance_factor
    return PrefetchSpec(
        enabled=enabled,
        distance_factor=distance_factor,
        cache_budget_fraction=cache_budget_fraction,
    )


def make_loop_prefetcher(
    loop: ParLoop,
    start: int,
    stop: int,
    distance_factor: Optional[int] = None,
    *,
    cache: Optional[CacheModel] = None,
) -> PrefetcherContext:
    """A prefetcher context over the containers of ``loop`` for ``[start, stop)``.

    Every non-global dat argument of the loop contributes one container, as in
    ``make_prefetcher_context(range.begin(), range.end(), distance, container_1,
    ..., container_n)`` (Fig. 14).  Indirect containers are included as well:
    the prefetching iterator touches the *mapped* rows, which is what the HPX
    prefetcher does for indirectly accessed data.
    """
    if distance_factor is None:
        distance_factor = DEFAULTS.prefetch_distance_factor
    containers = []
    for arg in loop.args:
        if arg.is_global or arg.dat is None:
            continue
        if arg.is_direct:
            containers.append(arg.dat.data)
        else:
            assert arg.map is not None
            # The iterator walks the iteration set; for indirect arguments the
            # container seen by iteration ``i`` is the mapped row, so expose a
            # gathered view driven by the map column.
            containers.append(arg.dat.data[arg.map.column(arg.map_index)])  # type: ignore[union-attr]
    if not containers:
        # A loop with only global arguments still gets a trivial container so
        # the context remains constructible.
        import numpy as np

        containers.append(np.zeros(max(stop - start, 1)))
    return make_prefetcher_context(start, stop, distance_factor, *containers, cache=cache)
