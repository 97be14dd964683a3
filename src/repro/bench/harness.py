"""Experiment runner used by all benchmarks.

One :class:`ExperimentConfig` describes a single (backend, thread count,
optimisation) combination; :func:`run_airfoil_experiment` executes the
Airfoil workload under it and returns the simulated runtime / bandwidth;
:func:`run_thread_sweep` repeats that over a list of thread counts, producing
the :class:`~repro.sim.metrics.ScalingSeries` the figures are built from.

Numerical results are cross-checked against the serial backend on every run
unless a caller explicitly opts out with ``check_correctness=False`` (cheap
insurance that the timing experiments always describe a *correct*
execution); each sweep point records its check outcome in the series.

:func:`run_renumbered_sweep` is the scenario-diversity track: it runs the
workload on renumbered (shuffled / reversed / RCM) meshes under both the
interval-set and the ``[min, max]`` dependency trackers, reporting the
dependency-edge counts and wall-clock side by side.
"""

from __future__ import annotations

import datetime
import json
import subprocess
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.config import DEFAULTS
from repro.engines import RunConfig, available_engines
from repro.errors import BenchmarkError
from repro.apps.airfoil import generate_mesh, renumber_mesh, run_airfoil
from repro.apps.airfoil.mesh import AirfoilMesh
from repro.op2.context import BackendReport, active_context
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.openmp import openmp_context
from repro.op2.backends.serial import serial_context
from repro.op2.plan import clear_plan_cache
from repro.session import Session
from repro.sim.machine import Machine
from repro.sim.metrics import BandwidthSeries, ScalingSeries

__all__ = [
    "AirfoilWorkload",
    "ExperimentConfig",
    "ExperimentResult",
    "bench_metadata",
    "run_airfoil_experiment",
    "run_thread_sweep",
    "run_wallclock_comparison",
    "run_renumbered_sweep",
    "persist_comparison",
]

#: default thread counts of the paper's figures (HT enabled after 16)
DEFAULT_THREADS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class AirfoilWorkload:
    """Size of the Airfoil run used by an experiment.

    The default (200x134 cells, one time step) keeps a full benchmark sweep
    under a minute of wall-clock time while being large enough that per-chunk
    durations dominate the fixed overheads, which is the regime the paper's
    testbed operates in (its mesh is ~26x larger; the machine model makes the
    *relative* comparisons insensitive to this scale factor).
    """

    nx: int = 200
    ny: int = 134
    niter: int = 1
    rk_steps: int = 2

    @property
    def num_cells(self) -> int:
        """Number of cells of the generated mesh."""
        return self.nx * self.ny


@dataclass(frozen=True)
class ExperimentConfig:
    """One point of a benchmark sweep."""

    backend: str  # "openmp" or "hpx"
    num_threads: int = 16
    chunking: str = "auto"  # "auto" or "persistent_auto" (hpx only)
    prefetch: bool = False
    prefetch_distance_factor: int = DEFAULTS.prefetch_distance_factor
    interleave: bool = True
    interval_sets: bool = True  # exact chunk access summaries (hpx only)
    machine_preset: str = "paper-testbed"
    engine: str = "simulate"  # any registered execution engine name
    workload: AirfoilWorkload = field(default_factory=AirfoilWorkload)
    renumbering: Optional[str] = None  # "shuffle" / "reverse" / "rcm" mesh renumbering
    renumber_seed: int = 0

    def run_config(self) -> RunConfig:
        """The typed execution config this experiment point hands to contexts."""
        return RunConfig(
            engine=self.engine,
            num_threads=self.num_threads,
            chunking=self.chunking,
            prefetch=self.prefetch,
            prefetch_distance_factor=self.prefetch_distance_factor,
            interleave=self.interleave,
            interval_sets=self.interval_sets,
        )

    def label(self) -> str:
        """Series label used in reports."""
        if self.backend == "openmp":
            label = "#pragma omp parallel for"
        else:
            parts = ["dataflow"]
            if self.chunking == "persistent_auto":
                parts.append("persistent_auto_chunk_size")
            if self.prefetch:
                parts.append(f"prefetch(d={self.prefetch_distance_factor})")
            if not self.interval_sets:
                parts.append("minmax_intervals")
            label = " + ".join(parts)
        if self.renumbering is not None:
            label += f" [{self.renumbering} mesh]"
        # The engine name passes through verbatim, so future engines label
        # themselves with no edits here; only the modelled default is silent.
        if self.engine != "simulate":
            label += f" [{self.engine}]"
        return label


@dataclass
class ExperimentResult:
    """Outcome of one experiment point."""

    config: ExperimentConfig
    report: BackendReport
    rms: float
    numerically_correct: bool

    @property
    def runtime_seconds(self) -> float:
        """Simulated runtime of the run."""
        return self.report.makespan_seconds

    @property
    def bandwidth_gbs(self) -> float:
        """Simulated achieved bandwidth of the run."""
        return self.report.achieved_bandwidth_gbs

    @property
    def wall_seconds(self) -> float:
        """Measured wall-clock time of the run's numerical execution."""
        return self.report.wall_seconds

    @property
    def dependency_edges(self) -> int:
        """Number of chunk-level dependency edges in the run's DAG."""
        return self.report.dependency_edges


def _build_mesh(config: ExperimentConfig) -> AirfoilMesh:
    """Generate (and optionally renumber) the mesh of an experiment."""
    mesh = generate_mesh(config.workload.nx, config.workload.ny)
    if config.renumbering is not None:
        mesh = renumber_mesh(mesh, method=config.renumbering, seed=config.renumber_seed)
    return mesh


def _reference_q(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Serial reference solution for a (workload, renumbering) combination."""
    workload = config.workload
    key = (
        workload.nx,
        workload.ny,
        workload.niter,
        workload.rk_steps,
        config.renumbering,
        # the seed is meaningless without a renumbering: normalize it so
        # identical un-renumbered meshes share one reference entry
        config.renumber_seed if config.renumbering is not None else 0,
    )
    cached = _reference_cache.get(key)
    if cached is not None:
        return cached
    clear_plan_cache()
    mesh = _build_mesh(config)
    with active_context(serial_context()):
        result = run_airfoil(mesh, niter=workload.niter, rk_steps=workload.rk_steps)
    _reference_cache[key] = (result.q, result.final_rms)
    return _reference_cache[key]


_reference_cache: dict[tuple, tuple[np.ndarray, float]] = {}


def _make_context(config: ExperimentConfig, session: Optional[Session] = None):
    machine = Machine(config.machine_preset)
    if config.backend == "openmp":
        return openmp_context(
            machine=machine, config=config.run_config(), session=session
        )
    if config.backend == "hpx":
        return hpx_context(machine=machine, config=config.run_config(), session=session)
    raise BenchmarkError(f"unknown benchmark backend {config.backend!r}")


def run_airfoil_experiment(
    config: ExperimentConfig,
    *,
    check_correctness: bool = True,
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Run the Airfoil workload under ``config`` and return its result.

    With ``session=`` the whole experiment (plan-cache clear, context, serial
    cross-check) runs inside that session: the engine comes from the session's
    warm pool and is left running afterwards.  Otherwise the context owns a
    fresh engine, shut down when the run finishes -- so stand-alone
    experiments still measure the cold path.
    """
    if session is not None:
        with session.use():
            return run_airfoil_experiment(config, check_correctness=check_correctness)
    workload = config.workload
    clear_plan_cache()
    mesh = _build_mesh(config)
    context = _make_context(config)
    with active_context(context):
        app_result = run_airfoil(mesh, niter=workload.niter, rk_steps=workload.rk_steps)
    report = context.report()

    correct = True
    if check_correctness:
        reference_q, _reference_rms = _reference_q(config)
        correct = bool(np.allclose(app_result.q, reference_q, rtol=1e-10, atol=1e-12))
    return ExperimentResult(
        config=config,
        report=report,
        rms=app_result.final_rms,
        numerically_correct=correct,
    )


def _serial_baseline(config: ExperimentConfig) -> dict[str, float]:
    """Measured wall-clock entry of the serial reference backend."""
    clear_plan_cache()
    mesh = _build_mesh(config)
    context = serial_context()
    with active_context(context):
        run_airfoil(mesh, niter=config.workload.niter, rk_steps=config.workload.rk_steps)
    report = context.report()
    return {
        "makespan_seconds": 0.0,  # nothing is simulated for the serial backend
        "wall_seconds": report.wall_seconds,
        "numerically_correct": 1.0,  # it *is* the reference
    }


def bench_metadata() -> dict[str, str]:
    """Provenance record attached to persisted benchmark files.

    ``git_sha`` is the commit the numbers were measured at (``"unknown"``
    outside a git checkout) and ``timestamp`` the UTC wall-clock time of the
    run, so a committed ``BENCH_*.json`` stays interpretable after the file
    has travelled through history.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    return {"git_sha": sha or "unknown", "timestamp": timestamp}


def persist_comparison(
    comparison: dict[str, dict[str, float]],
    base_config: ExperimentConfig,
    path: Union[str, Path],
    *,
    metadata: Optional[dict[str, str]] = None,
) -> Path:
    """Write a wall-clock comparison as a ``BENCH_*.json`` trajectory file.

    The file records the workload and configuration next to the series so a
    later run on the same machine is comparable; committing it beside the
    code is what makes performance regressions visible across PRs.
    ``metadata`` defaults to :func:`bench_metadata` (git sha + timestamp).
    """
    workload = base_config.workload
    payload = {
        "benchmark": "wallclock_comparison",
        "backend": base_config.backend,
        "num_threads": base_config.num_threads,
        "machine_preset": base_config.machine_preset,
        "metadata": metadata if metadata is not None else bench_metadata(),
        "workload": {
            "nx": workload.nx,
            "ny": workload.ny,
            "niter": workload.niter,
            "rk_steps": workload.rk_steps,
        },
        "series": comparison,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_wallclock_comparison(
    base_config: ExperimentConfig,
    *,
    engines: Optional[Sequence[str]] = None,
    check_correctness: bool = True,
    include_serial: bool = False,
    persist_path: Union[str, Path, None] = None,
) -> dict[str, dict[str, float]]:
    """Run ``base_config`` under every execution engine; report makespan
    *and* wall time.

    ``engines`` defaults to every engine in the :mod:`repro.engines`
    registry, so a newly registered substrate joins the comparison with no
    edits here.  Returns ``{engine_name: {...}, ...}`` where each entry
    carries the simulated makespan, the measured wall-clock seconds, and
    whether the run matched the serial reference -- the Fig. 15/16-style
    sanity check that the modelled dataflow overlap corresponds to a real,
    correct execution.

    ``include_serial`` adds a ``"serial"`` entry measured on the serial
    reference backend (wall clock only).  ``persist_path`` additionally
    writes the comparison to a ``BENCH_*.json`` file (with git sha and
    timestamp metadata) via :func:`persist_comparison`, leaving a perf
    trajectory behind for the next reviewer.

    The whole sweep runs inside one :class:`~repro.session.Session`: every
    point of an engine's series reuses that engine's warm pool, so the
    steady-state numbers stop paying thread/process spin-up per point.  The
    session is closed (engines shut down, arenas released) before returning.
    """
    if engines is None:
        engines = available_engines()
    comparison: dict[str, dict[str, float]] = {}
    with Session(name="bench-wallclock") as session:
        if include_serial:
            comparison["serial"] = _serial_baseline(base_config)
        for engine in engines:
            config = replace(base_config, engine=engine)
            before = session.artifact_cache_stats()
            result = run_airfoil_experiment(
                config, check_correctness=check_correctness, session=session
            )
            after = session.artifact_cache_stats()
            comparison[engine] = {
                "makespan_seconds": result.runtime_seconds,
                "wall_seconds": result.wall_seconds,
                "numerically_correct": float(result.numerically_correct),
                # Compile amortisation: how often this engine's loops hit the
                # session's kernel-artifact cache (zero for interpreted
                # engines, warming up across points for compiled ones).
                "details": {
                    "artifact_cache_hits": after["hits"] - before["hits"],
                    "artifact_cache_misses": after["misses"] - before["misses"],
                },
            }
    if persist_path is not None:
        persist_comparison(comparison, base_config, persist_path)
    return comparison


def run_thread_sweep(
    base_config: ExperimentConfig,
    *,
    threads: Sequence[int] = DEFAULT_THREADS,
    check_correctness: bool = True,
) -> tuple[ScalingSeries, BandwidthSeries]:
    """Run ``base_config`` across ``threads``; return time and bandwidth series.

    Every point is cross-checked against the (cached) serial reference by
    default, and the outcome lands in ``ScalingSeries.correct`` so figure
    code can refuse to plot an incorrect run.
    """
    if not threads:
        raise BenchmarkError("the thread sweep needs at least one thread count")
    times = ScalingSeries(label=base_config.label())
    bandwidth = BandwidthSeries(label=base_config.label())
    for count in threads:
        config = replace(base_config, num_threads=count)
        result = run_airfoil_experiment(config, check_correctness=check_correctness)
        times.record(count, result.runtime_seconds, correct=result.numerically_correct)
        bandwidth.record(count, result.bandwidth_gbs)
    return times, bandwidth


def run_renumbered_sweep(
    base_config: Optional[ExperimentConfig] = None,
    *,
    renumberings: Sequence[str] = ("shuffle",),
    seed: int = 0,
    check_correctness: bool = True,
) -> dict[str, dict[str, dict[str, float]]]:
    """Compare interval-set vs ``[min, max]`` dependency tracking on
    renumbered meshes.

    For every renumbering method (plus the original ``"none"`` numbering)
    the Airfoil workload runs twice on the HPX backend -- once with exact
    interval-set chunk summaries and once with the conservative single
    ``[min, max]`` interval -- and the result records the dependency-edge
    count of the chunk DAG, the simulated makespan, the measured wall-clock
    time and the serial cross-check outcome:

    ``{"shuffle": {"interval_set": {"dependency_edges": ..., ...},
    "minmax": {...}}, ...}``

    Interval sets can only remove edges, so ``dependency_edges`` of
    ``interval_set`` is <= that of ``minmax`` everywhere, and strictly lower
    on shuffled meshes.
    """
    if base_config is None:
        base_config = ExperimentConfig(backend="hpx", num_threads=4, engine="threads")
    if base_config.backend != "hpx":
        raise BenchmarkError("the renumbered sweep compares dependency trackers; use backend='hpx'")
    sweep: dict[str, dict[str, dict[str, float]]] = {}
    for renumbering in (None, *renumberings):
        entry: dict[str, dict[str, float]] = {}
        for mode, interval_sets in (("interval_set", True), ("minmax", False)):
            config = replace(
                base_config,
                interval_sets=interval_sets,
                renumbering=renumbering,
                renumber_seed=seed,
            )
            result = run_airfoil_experiment(config, check_correctness=check_correctness)
            entry[mode] = {
                "dependency_edges": float(result.dependency_edges),
                "makespan_seconds": result.runtime_seconds,
                "wall_seconds": result.wall_seconds,
                "numerically_correct": float(result.numerically_correct),
            }
        sweep[renumbering or "none"] = entry
    return sweep
