"""Ablation: chunk-granular vs loop-granular dependency edges.

The paper's interleaving relies on *chunk-level* futures: a consumer chunk
waits only for the producer chunks whose elements it actually reads.  This
ablation disables that (every consumer chunk waits for the whole producing
loop) and measures the cost, isolating the contribution of interleaving from
the rest of the dataflow machinery.
"""

from __future__ import annotations

from conftest import BENCH_WORKLOAD

from repro.bench.harness import ExperimentConfig, run_airfoil_experiment


def test_chunk_granular_dependencies_beat_loop_granular(benchmark):
    def run_both():
        results = {}
        for label, interleave in (("chunk-granular", True), ("loop-granular", False)):
            config = ExperimentConfig(
                backend="hpx", num_threads=32, chunking="persistent_auto",
                interleave=interleave, workload=BENCH_WORKLOAD,
            )
            results[label] = run_airfoil_experiment(config, check_correctness=False)
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    fine = results["chunk-granular"].runtime_seconds
    coarse = results["loop-granular"].runtime_seconds
    print(f"\nAblation — dependency granularity: chunk={fine*1e3:.3f} ms, "
          f"loop={coarse*1e3:.3f} ms ({100*(coarse-fine)/coarse:.1f}% from interleaving)")
    # Loop-granular edges can only be worse or equal.
    assert fine <= coarse * 1.001
    # Both remain numerically correct runs of the same program.
    assert results["chunk-granular"].report.loops_executed == \
        results["loop-granular"].report.loops_executed
