"""The HPX data prefetcher (Section V of the paper).

``make_prefetcher_context(begin, end, distance_factor, *containers)`` builds a
:class:`PrefetcherContext`: an iterable over ``range(begin, end)`` whose
iterator, at every position ``i``, *prefetches the data of iteration
``i + distance_factor`` for every container* before the loop body runs.  In
HPX it is the range of a ``for_each``; iterating the context (or one chunk of
it with :meth:`PrefetcherContext.chunk`) is the same walk.

CPython cannot issue real prefetch instructions, so the context does two
things instead:

* it *touches* the target elements of every container (a real memory access,
  which warms any actual hardware cache underneath and preserves the code
  path a C++ implementation would take), and
* it records every prefetch in a :class:`PrefetchStats` and, when a
  :class:`repro.sim.cache.CacheModel` is attached, replays the accesses into
  that model so the benchmark harness can measure hit/miss behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.errors import PrefetchError
from repro.sim.cache import CacheModel

__all__ = ["PrefetchStats", "PrefetcherContext", "make_prefetcher_context"]


@dataclass
class PrefetchStats:
    """Counters kept by a :class:`PrefetcherContext`."""

    issued: int = 0
    useful: int = 0
    beyond_range: int = 0
    elements_touched: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that targeted in-range iterations."""
        return self.useful / self.issued if self.issued else 0.0


class PrefetcherContext:
    """Iteration context that prefetches ahead for every container.

    Parameters
    ----------
    begin, end:
        Half-open iteration range.
    distance_factor:
        The paper's ``prefetch_distance_factor``: how many iterations ahead to
        prefetch.
    containers:
        The containers (NumPy arrays or sequences) accessed by the loop body.
        Containers may have different dtypes/shapes -- "it works with any data
        types even in a case of having different type for each container".
    cache:
        Optional cache model that observes both demand accesses and
        prefetches (used by tests and by the Figure 19/20 experiments).
    element_bytes:
        Override for the per-element size used for cache addressing when a
        container is not a NumPy array.
    """

    def __init__(
        self,
        begin: int,
        end: int,
        distance_factor: int,
        containers: Sequence[Any],
        *,
        cache: Optional[CacheModel] = None,
        element_bytes: int = 8,
    ) -> None:
        if end < begin:
            raise PrefetchError(f"invalid iteration range [{begin}, {end})")
        if distance_factor <= 0:
            raise PrefetchError(
                f"prefetch_distance_factor must be positive, got {distance_factor}"
            )
        if not containers:
            raise PrefetchError("a prefetcher context needs at least one container")
        for container in containers:
            if not hasattr(container, "__len__"):
                raise PrefetchError(f"container {container!r} has no length")
        self.begin = int(begin)
        self.end = int(end)
        self.distance_factor = int(distance_factor)
        self.containers = tuple(containers)
        self.cache = cache
        self.element_bytes = element_bytes
        self.stats = PrefetchStats()
        # Synthetic, non-overlapping base addresses per container so a cache
        # model sees distinct lines for distinct containers.
        self._base_addresses = self._assign_base_addresses()

    # -- basic container/range introspection ------------------------------------
    def __len__(self) -> int:
        return self.end - self.begin

    @property
    def num_containers(self) -> int:
        """Number of containers covered by the prefetcher."""
        return len(self.containers)

    def bytes_per_iteration(self) -> int:
        """Total bytes touched per iteration across all containers."""
        return sum(self._element_size(c) for c in self.containers)

    def _element_size(self, container: Any) -> int:
        if isinstance(container, np.ndarray):
            if container.ndim <= 1:
                return int(container.itemsize)
            return int(container.itemsize * int(np.prod(container.shape[1:])))
        return self.element_bytes

    def _assign_base_addresses(self) -> list[int]:
        bases = []
        cursor = 0
        alignment = 1 << 20  # 1 MiB per container region keeps regions disjoint
        for container in self.containers:
            bases.append(cursor)
            size = len(container) * self._element_size(container)
            cursor += ((size // alignment) + 2) * alignment
        return bases

    def _address(self, container_index: int, element_index: int) -> int:
        container = self.containers[container_index]
        return self._base_addresses[container_index] + element_index * self._element_size(
            container
        )

    # -- prefetch / access hooks ----------------------------------------------------
    def prefetch_for(self, index: int) -> int:
        """Issue prefetches for iteration ``index + distance_factor``.

        Returns the number of containers actually prefetched (0 when the
        target lies beyond the end of the range).
        """
        target = index + self.distance_factor
        self.stats.issued += self.num_containers
        if target >= self.end:
            self.stats.beyond_range += self.num_containers
            return 0
        self.stats.useful += self.num_containers
        for container_index, container in enumerate(self.containers):
            if target < len(container):
                # Touch the element: the closest Python analogue of a prefetch.
                _ = container[target]
            if self.cache is not None:
                self.cache.prefetch(self._address(container_index, target))
        return self.num_containers

    def record_access(self, index: int) -> None:
        """Record the demand accesses of iteration ``index`` (cache model only)."""
        self.stats.elements_touched += self.num_containers
        if self.cache is None:
            return
        for container_index in range(self.num_containers):
            self.cache.access(self._address(container_index, index))

    # -- iteration -------------------------------------------------------------------
    def indices(self) -> range:
        """The raw iteration range."""
        return range(self.begin, self.end)

    def __iter__(self) -> Iterator[int]:
        """Iterate over indices, prefetching ``distance_factor`` ahead."""
        for index in self.indices():
            self.prefetch_for(index)
            self.record_access(index)
            yield index

    def chunk(self, start: int, stop: int) -> Iterator[int]:
        """Iterate over a sub-range: one chunk of the walk."""
        if start < self.begin or stop > self.end or stop < start:
            raise PrefetchError(
                f"chunk [{start}, {stop}) outside context range [{self.begin}, {self.end})"
            )
        for index in range(start, stop):
            self.prefetch_for(index)
            self.record_access(index)
            yield index


def make_prefetcher_context(
    begin: int,
    end: int,
    distance_factor: int,
    *containers: Any,
    cache: Optional[CacheModel] = None,
) -> PrefetcherContext:
    """Factory mirroring ``hpx::parallel::make_prefetcher_context`` (Fig. 14)."""
    return PrefetcherContext(begin, end, distance_factor, containers, cache=cache)
