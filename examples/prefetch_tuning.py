#!/usr/bin/env python3
"""Prefetch-distance tuning (Figures 13/14/20 of the paper).

Two parts:

1. the *real* prefetching iterator of the runtime
   (``make_prefetcher_context``, walked chunk by chunk as the range of
   Fig. 14's ``for_each``), run against a line-granular cache model so the
   hit/miss and prefetch-accuracy numbers are observable; and
2. the Airfoil-level sweep over ``prefetch_distance_factor`` on the machine
   model, which reproduces the non-monotone shape of Fig. 20: the transfer
   rate climbs, peaks and falls again.  On the 120x80 mesh swept here the
   model peaks at a distance of 5 (the run prints ``best distance: 5``,
   66.4 GB/s against 60.7 GB/s at 15); the paper reports its optimum at 15.

Run with:  python examples/prefetch_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro.bench.figures import figure20_prefetch_distance
from repro.bench.harness import AirfoilWorkload
from repro.runtime import make_prefetcher_context
from repro.sim.cache import CacheConfig, CacheModel


def runtime_prefetcher_demo() -> None:
    """Drive the real prefetching iterator and show cache behaviour."""
    n = 4096
    container_1 = np.arange(n, dtype=np.float64)
    container_2 = np.arange(n, dtype=np.float64) * 0.5
    container_3 = np.zeros(n, dtype=np.float64)

    print("runtime prefetching iterator (Fig. 14) against a cache model:")
    for distance in (1, 15, 200):
        cache = CacheModel(CacheConfig(capacity_bytes=16 * 1024, line_bytes=64))
        ctx = make_prefetcher_context(0, n, distance, container_1, container_2, container_3,
                                      cache=cache)
        for start in range(0, n, 512):
            for i in ctx.chunk(start, min(start + 512, n)):
                container_3[i] = container_1[i] + container_2[i]
        stats = cache.stats
        print(
            f"  distance={distance:4d}  miss rate={stats.miss_rate:5.1%}  "
            f"prefetch accuracy={stats.prefetch_accuracy:5.1%}  "
            f"unused prefetches={stats.prefetches_unused}"
        )
    assert np.allclose(container_3, container_1 + container_2)


def airfoil_distance_sweep() -> None:
    """Reproduce the Fig. 20 sweep on a reduced Airfoil workload."""
    print("\nAirfoil transfer rate vs prefetch_distance_factor (Fig. 20):")
    figure = figure20_prefetch_distance(
        distances=(1, 2, 5, 10, 15, 25, 50, 100),
        num_threads=32,
        workload=AirfoilWorkload(nx=120, ny=80),
    )
    sweep = figure.bandwidth["prefetch_distance"]
    for distance in sweep.keys:
        bar = "#" * int(sweep.values[distance] * 0.6)
        print(f"  d={distance:4d}  {sweep.values[distance]:7.2f} GB/s  {bar}")
    print(f"  best distance: {figure.extra['best_distance']}")


def main() -> None:
    runtime_prefetcher_demo()
    airfoil_distance_sweep()


if __name__ == "__main__":
    main()
