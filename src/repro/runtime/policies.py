"""Execution policies (the paper's Table I).

HPX algorithms take an execution policy that decides whether they run
sequentially or in parallel, and whether the call is synchronous or returns a
future ("task" variants):

========== ============================================ ==============
policy      description                                  implemented by
========== ============================================ ==============
seq         sequential execution                         Parallelism TS, HPX
par         parallel execution                           Parallelism TS, HPX
par_vec     parallel and vectorised execution            Parallelism TS
seq(task)   sequential and asynchronous execution        HPX
par(task)   parallel and asynchronous execution          HPX
========== ============================================ ==============

Here the policies are descriptors: :func:`execution_policy_table` regenerates
Table I from them, and ``policy(task)`` returns the asynchronous variant,
mirroring HPX's ``par(task)`` spelling.  What *executes* loops is the chunk
DAG of :mod:`repro.core.pipeline` on an engine, where every ``op_par_loop``
is ``par(task)``: it returns a future and chunks run in parallel.

Ready-queue policies
--------------------
Orthogonal to the algorithm-level policies above, a *ready-queue policy*
decides the order in which an executor's ready tasks are handed to workers.
The default :class:`FifoQueue` reproduces the historical FIFO behaviour;
:class:`WeightedRoundRobin` interleaves ready tasks *fairly across keys*
(tenants, in the multi-tenant service layer) at chunk granularity -- the
paper's chunked dataflow execution makes every loop preemptible between
chunks, so cross-tenant fairness is exactly a ready-queue policy, not a
rewrite.  Both plug into :class:`~repro.runtime.pool_executor.PoolExecutor`
via its ``ready_policy`` parameter; they are plain data structures and rely
on the executor's lock for thread safety.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Hashable, Mapping, Optional

from repro.errors import PolicyError

__all__ = [
    "ExecutionPolicy",
    "task",
    "seq",
    "par",
    "par_vec",
    "seq_task",
    "par_task",
    "execution_policy_table",
    "ReadyQueuePolicy",
    "FifoQueue",
    "WeightedRoundRobin",
]


# ---------------------------------------------------------------------------
# Ready-queue policies (executor task ordering)
# ---------------------------------------------------------------------------
class ReadyQueuePolicy:
    """Order in which an executor's *ready* tasks reach the workers.

    The contract is deliberately small: ``push(item, key)`` enqueues a ready
    item under a scheduling key (the submitting tenant; ``None`` for unkeyed
    work), ``pop()`` returns the next item to run and raises ``IndexError``
    when empty, and ``len()`` reports the number of queued items.  Instances
    are *not* thread-safe -- the owning executor calls them under its lock.
    """

    def push(self, item: Any, key: Hashable = None) -> None:
        raise NotImplementedError

    def pop(self) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class FifoQueue(ReadyQueuePolicy):
    """Strict submission-order FIFO, ignoring keys (the historical order)."""

    def __init__(self) -> None:
        self._items: deque[Any] = deque()

    def push(self, item: Any, key: Hashable = None) -> None:
        self._items.append(item)

    def pop(self) -> Any:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class WeightedRoundRobin(ReadyQueuePolicy):
    """Weighted round-robin over per-key FIFO queues.

    Keys take turns in first-seen order; a key's turn serves up to ``weight``
    consecutive items before yielding to the next key with queued work, so a
    key with a long backlog (a tenant running a long loop chain) cannot starve
    the others -- each gets its weighted share of worker dispatches per
    rotation.  Empty keys are skipped without consuming a turn.

    ``weights`` maps keys to positive integer shares and is read *live* on
    every rotation: the mapping may be shared with (and mutated by) a service
    runtime to retune tenant shares while the queue is in use.
    """

    def __init__(
        self,
        weights: Optional[Mapping[Hashable, int]] = None,
        *,
        default_weight: int = 1,
    ) -> None:
        if default_weight < 1:
            raise PolicyError(
                f"default_weight must be a positive integer, got {default_weight}"
            )
        self._weights = weights if weights is not None else {}
        self._default_weight = default_weight
        self._queues: dict[Hashable, deque[Any]] = {}
        self._order: list[Hashable] = []
        self._cursor = 0
        self._served = 0

    def weight(self, key: Hashable) -> int:
        """The live weight of ``key`` (at least 1)."""
        return max(1, int(self._weights.get(key, self._default_weight)))

    def push(self, item: Any, key: Hashable = None) -> None:
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
            self._order.append(key)
        queue.append(item)

    def pop(self) -> Any:
        # Drained keys are *removed* from the rotation, not skipped: a
        # long-lived executor sees tenants come and go, and retaining every
        # key ever pushed would grow _order/_queues without bound.
        while self._order:
            key = self._order[self._cursor]
            queue = self._queues[key]
            if not queue:
                self._remove_current()
                continue
            item = queue.popleft()
            self._served += 1
            if not queue:
                self._remove_current()
            elif self._served >= self.weight(key):
                self._advance()
            return item
        raise IndexError("pop from an empty ready queue")

    def _remove_current(self) -> None:
        """Drop the drained key under the cursor; the cursor then points at
        the next key in rotation (or wraps), with its turn starting fresh."""
        key = self._order.pop(self._cursor)
        del self._queues[key]
        if self._cursor >= len(self._order):
            self._cursor = 0
        self._served = 0

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)
        self._served = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_by_key(self) -> dict[Hashable, int]:
        """Currently queued item counts per key (diagnostics)."""
        return {key: len(queue) for key, queue in self._queues.items() if queue}


class _TaskMarker:
    """Singleton marker passed as ``policy(task)`` to request asynchrony."""

    _instance: "_TaskMarker | None" = None

    def __new__(cls) -> "_TaskMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "task"


#: The ``task`` marker: ``par(task)`` means "parallel and asynchronous".
task = _TaskMarker()


@dataclass(frozen=True)
class ExecutionPolicy:
    """An immutable execution policy.

    Attributes
    ----------
    name:
        Base name (``seq``, ``par``, ``par_vec``).
    parallel:
        Whether the algorithm may use more than one worker.
    vectorized:
        Whether per-chunk bodies may be vectorised (informational; the NumPy
        kernels are always vectorised within a chunk).
    is_task:
        Whether algorithm invocations return futures instead of blocking.
    """

    name: str
    parallel: bool
    vectorized: bool = False
    is_task: bool = False

    def __call__(self, marker: Any) -> "ExecutionPolicy":
        """``policy(task)`` returns the asynchronous variant of the policy."""
        if marker is not task:
            raise PolicyError(
                f"execution policies only accept the `task` marker, got {marker!r}"
            )
        return replace(self, is_task=True)

    # -- descriptions --------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable policy name, e.g. ``par(task)``."""
        return f"{self.name}(task)" if self.is_task else self.name

    def describe(self) -> dict[str, str]:
        """Row of Table I corresponding to this policy."""
        description = {
            ("seq", False): "sequential execution",
            ("par", False): "parallel execution",
            ("par_vec", False): "parallel and vectorized execution",
            ("seq", True): "sequential and asynchronous execution",
            ("par", True): "parallel and asynchronous execution",
            ("par_vec", True): "parallel, vectorized and asynchronous execution",
        }[(self.name, self.is_task)]
        implemented_by = "Parallelism TS" if self.name == "par_vec" and not self.is_task else (
            "Parallelism TS, HPX" if not self.is_task else "HPX"
        )
        return {
            "policy": self.label,
            "description": description,
            "implemented_by": implemented_by,
        }


#: Sequential execution.
seq = ExecutionPolicy(name="seq", parallel=False)
#: Parallel execution.
par = ExecutionPolicy(name="par", parallel=True)
#: Parallel and vectorised execution.
par_vec = ExecutionPolicy(name="par_vec", parallel=True, vectorized=True)
#: Sequential and asynchronous execution (``seq(task)``).
seq_task = seq(task)
#: Parallel and asynchronous execution (``par(task)``).
par_task = par(task)


def execution_policy_table() -> list[dict[str, str]]:
    """The rows of the paper's Table I."""
    return [policy.describe() for policy in (seq, par, par_vec, seq_task, par_task)]
