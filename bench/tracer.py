"""Outside-in tracing: spans recorded from the benchmark around public calls.

Nothing in ``src/`` is instrumented.  Pipeline stages arrive through
``ctx.pipeline.add_observer`` (a :class:`StageEvent` carries the stage's own
duration); engine calls are timed by replacing the bound ``submit`` /
``submit_chunk`` / ``submit_loop_chunk`` / ``wait_all`` of the *instance* the
session hands out with timing wrappers, removed again at detach.

A span is ``[name, start, end, parent, chain_id, step]`` with ``parent`` an
index into the span list (``None`` for a step).  The tree is::

    step
      core.lower | core.analyze | core.schedule
      core.submit
        engine.submit      (one per engine submission call)
        engine.drain       (wait_all)
      engine.drain         (a drain outside any stage, e.g. at chain finish)

so a layer's self time is its span minus its children
(:func:`self_times`): ``core.submit`` self = submit stage minus the engine
calls made inside it; ``step`` self = ``op2.par_loop`` + application code.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

_ENGINE_CALLS = ("submit", "submit_chunk", "submit_loop_chunk", "wait_all")
_STAGES = ("lower", "analyze", "schedule", "submit")


class StepTotals:
    """Per-step sums the per-layer metrics are medians of."""

    __slots__ = ("stage_s", "engine_submit_s", "tasks", "drain_s", "drains", "chunks", "edges")

    def __init__(self) -> None:
        self.stage_s = dict.fromkeys(_STAGES, 0.0)
        self.engine_submit_s = 0.0
        self.tasks = 0
        self.drain_s = 0.0
        self.drains = 0
        self.chunks = 0
        self.edges = 0


class Tracer:
    """Collects the spans of one traced pass (single submitting thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.chain_id: Optional[str] = None
        self.step: Optional[int] = None
        self.totals: Optional[StepTotals] = None
        #: every loop seen by a ``lower`` stage, by loop name (latest wins)
        self.loops: dict[str, Any] = {}
        #: analyze artifacts of each chain's first steady step, by chain id
        self.analyzed: dict[str, list] = {}
        self._step_span: Optional[int] = None
        self._pending: list[int] = []
        self._depth = 0
        self._thread = threading.get_ident()
        self._wrapped: list[Any] = []

    # -- spans ---------------------------------------------------------------
    def _add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        self.spans.append([name, start, end, parent, self.chain_id, self.step])
        return len(self.spans) - 1

    def begin_step(self, chain_id: str, step: int) -> None:
        self.chain_id, self.step = chain_id, step
        self.totals = StepTotals()
        self._pending = []
        self._step_span = self._add("step", time.perf_counter(), 0.0, None)

    def end_step(self) -> StepTotals:
        assert self._step_span is not None and self.totals is not None
        self.spans[self._step_span][2] = time.perf_counter()
        for index in self._pending:  # engine calls made outside any stage
            self.spans[index][3] = self._step_span
        totals, self.totals = self.totals, None
        self._pending, self._step_span = [], None
        self.chain_id = self.step = None
        return totals

    # -- pipeline stages -----------------------------------------------------
    def observe(self, event: Any) -> None:
        """``StageObserver``: one span per stage, engine calls adopted by submit."""
        if event.stage == "lower":
            self.loops[event.loop_name] = event.artifact.loop
        if self.totals is None:
            return
        # The event carries a duration, not a start: the start is rebuilt
        # from the delivery time, which is a few microseconds after the
        # stage's true end -- so never later than the stage's first child.
        end = time.perf_counter()
        start = end - event.seconds
        if event.stage == "submit" and self._pending:
            start = min(start, self.spans[self._pending[0]][1])
        index = self._add(f"core.{event.stage}", start, end, self._step_span)
        self.totals.stage_s[event.stage] += event.seconds
        if event.stage == "analyze":
            self.totals.chunks += len(event.artifact.chunks)
            self.totals.edges += event.artifact.dependency_count
            if self.step == 1:
                self.analyzed.setdefault(self.chain_id, []).append(event.artifact)
        elif event.stage == "submit":
            for child in self._pending:
                self.spans[child][3] = index
            self._pending = []

    # -- engine calls --------------------------------------------------------
    def wrap_engine(self, engine: Any) -> None:
        """Time the engine instance's submission and drain calls."""
        if any(engine is wrapped for wrapped in self._wrapped):
            return
        for name in _ENGINE_CALLS:
            original = getattr(engine, name, None)
            if original is not None:
                setattr(engine, name, self._timed(name, original))
        self._wrapped.append(engine)

    def unwrap_engines(self) -> None:
        """Remove the wrappers (the class's own methods show through again)."""
        for engine in self._wrapped:
            for name in _ENGINE_CALLS:
                engine.__dict__.pop(name, None)
        self._wrapped = []

    def _timed(self, name: str, original: Any) -> Any:
        is_drain = name == "wait_all"
        tasks = 1 if name == "submit" else 2  # a chunk is a compute plus a merge task

        def call(*args: Any, **kwargs: Any) -> Any:
            # Only outermost calls of the traced thread inside a step count:
            # submit_chunk calls submit internally, and pool workers or other
            # tenants may use the engine too.
            if (
                self.totals is None
                or self._depth
                or threading.get_ident() != self._thread
            ):
                return original(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth -= 1
                totals = self.totals
                if is_drain:
                    totals.drain_s += end - start
                    totals.drains += 1
                else:
                    totals.engine_submit_s += end - start
                    totals.tasks += tasks
                self._pending.append(
                    self._add("engine.drain" if is_drain else "engine.submit", start, end, None)
                )

        return call


def self_times(spans: list[list]) -> dict[tuple, dict[str, float]]:
    """Self seconds per ``(chain_id, step)`` and span name.

    A span's self time is its duration minus the durations of its direct
    children; summed per name within each step.
    """
    child_total = [0.0] * len(spans)
    for _name, start, end, parent, _chain, _step in spans:
        if parent is not None:
            child_total[parent] += end - start
    result: dict[tuple, dict[str, float]] = {}
    for index, (name, start, end, _parent, chain, step) in enumerate(spans):
        bucket = result.setdefault((chain, step), {})
        bucket[name] = bucket.get(name, 0.0) + (end - start) - child_total[index]
    return result
