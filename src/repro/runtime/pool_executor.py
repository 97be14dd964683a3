"""A dependency-gated worker pool: the *real* threaded chunk-DAG engine.

The simulator (:mod:`repro.sim.scheduler_sim`) models how the paper's
futurized ``op_par_loop`` chunks would overlap; :class:`PoolExecutor` actually
runs them.  Tasks are plain callables submitted together with the ids of the
tasks they must wait for; a task becomes *ready* once every dependency has
completed, and ready tasks are executed by a pool of OS worker threads -- in
FIFO order by default, or in whatever order the installed
:class:`~repro.runtime.policies.ReadyQueuePolicy` decides (the multi-tenant
service layer installs a weighted round-robin queue so tenants interleave at
chunk granularity).  This is the execution substrate behind
``hpx_context(engine="threads")`` and the OpenMP backend's pooled
fork/join-per-colour mode.

Design notes
------------
* **Readiness, not polling.**  Each task keeps a count of outstanding
  dependencies; completing a task decrements its dependents and enqueues any
  that reach zero.  Workers block on a condition variable while no task is
  ready.  Completed tasks are evicted (only their id is remembered until the
  next drained barrier, where the remembered ids collapse into a
  completed-id watermark), so the pool's live state is bounded by the
  unfinished frontier even when the pool is reused across many barriers.
* **Tasks never block inside the pool.**  The loop runners express ordering
  (including the deterministic chunk-order merge chains) purely as
  dependency edges, so a worker that picks up a task can always run it to
  completion -- no turnstiles, no risk of deadlock with a single worker.
* **Task groups.**  ``submit(..., group=...)`` tags a task with an opaque
  group object (the service layer's engine leases).  Groups scope both
  synchronisation and failure: :meth:`wait_group` drains one group's tasks
  without waiting for concurrent tenants, and the first exception in a group
  poisons *that group only* -- its queued tasks are skipped (``on_skip``
  fires, dependents release) and the exception re-raises from the group's
  next drain.  Ungrouped tasks (``group=None``) keep the historical
  pool-wide semantics: any ungrouped failure (or :meth:`cancel_pending`)
  poisons the whole pool and re-raises from :meth:`wait_all`.
* **Tracing.**  When ``trace=True`` the pool records ``("start", id)`` /
  ``("done", id)`` events under the pool lock; tests use the trace to assert
  that no chunk ever started before its producers finished.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional

from repro.engines.base import EngineCapabilities
from repro.errors import CancelledError, RuntimeStateError, SchedulerError
from repro.runtime.policies import FifoQueue, ReadyQueuePolicy

__all__ = ["PoolExecutor"]


class _TaskNode:
    """Book-keeping for one submitted, not-yet-finished task."""

    __slots__ = ("fn", "on_skip", "remaining", "dependents", "group")

    def __init__(
        self,
        fn: Callable[[], None],
        on_skip: Optional[Callable[[], None]],
        group: Optional[Any],
    ) -> None:
        self.fn = fn
        self.on_skip = on_skip
        self.remaining = 0
        self.dependents: list[int] = []
        self.group = group


class _GroupState:
    """Per-group pending count and failure latch."""

    __slots__ = ("pending", "failure", "delivered")

    def __init__(self) -> None:
        self.pending = 0
        self.failure: Optional[BaseException] = None
        #: True once the latched failure was re-raised from a timed-out wait
        self.delivered = False


def _group_key(group: Optional[Any]) -> Any:
    """The ready-queue scheduling key of a group (its tenant, when tagged)."""
    return getattr(group, "tenant", None)


class PoolExecutor:
    """Run dependency-gated tasks on ``num_workers`` OS threads.

    Parameters
    ----------
    num_workers:
        Number of worker threads; must be positive.
    name:
        Thread-name prefix (useful when several pools coexist).
    trace:
        Record ``("start", task_id)`` / ``("done", task_id)`` events in
        :attr:`trace_events` (used by tests and the DAG-enforcement checks).
    ready_policy:
        A :class:`~repro.runtime.policies.ReadyQueuePolicy` deciding the
        order ready tasks reach the workers; defaults to FIFO.  The policy is
        only touched under the pool lock, so it need not be thread-safe.
    """

    #: engine-seam capability record: one interpreter, OS threads -- shared
    #: address space, closures welcome, asynchronous (strict-order) commits
    capabilities = EngineCapabilities()

    def __init__(
        self,
        num_workers: int,
        *,
        name: str = "chunk-pool",
        trace: bool = False,
        ready_policy: Optional[ReadyQueuePolicy] = None,
    ) -> None:
        if num_workers <= 0:
            raise SchedulerError(f"num_workers must be positive, got {num_workers}")
        self._num_workers = num_workers
        self._next_id = 0
        self._cond = threading.Condition()
        self._tasks: dict[int, _TaskNode] = {}
        #: ids completed since the last drained barrier; every id below
        #: _done_watermark also counts as done (see wait_all's compaction)
        self._done: set[int] = set()
        self._done_watermark = 0
        self._ready: ReadyQueuePolicy = ready_policy if ready_policy is not None else FifoQueue()
        self._pending = 0
        #: per-group state, keyed by the group object (id-hashable); the
        #: ``None`` key carries the ungrouped (historical) tasks
        self._groups: dict[Any, _GroupState] = {}
        #: first failure of an *ungrouped* task, re-raised from wait_all
        self._failure: Optional[BaseException] = None
        #: True once the latched failure was re-raised from a timed-out wait
        self._failure_delivered = False
        #: pool-wide poison set by cancel_pending(): skips tasks of every group
        self._cancelled: Optional[BaseException] = None
        self._shutdown = False
        self.trace_events: Optional[list[tuple[str, int]]] = [] if trace else None
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"{name}-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission -----------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of OS worker threads backing the pool."""
        return self._num_workers

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        with self._cond:
            return self._shutdown

    def _group_state(self, group: Optional[Any]) -> _GroupState:
        state = self._groups.get(group)
        if state is None:
            state = _GroupState()
            self._groups[group] = state
        return state

    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
        group: Optional[Any] = None,
    ) -> int:
        """Submit ``fn`` gated on ``deps``; returns the new task's id.

        ``deps`` are ids returned by earlier :meth:`submit` calls; already
        completed dependencies are satisfied immediately.  Unknown ids raise
        :class:`~repro.errors.SchedulerError` (a forward or foreign edge would
        silently never release the task).  ``on_skip`` runs instead of ``fn``
        when the task's group (or the whole pool) is poisoned or cancelled
        before the task executes -- producers use it to break the promises
        consumers may be blocked on.  ``group`` scopes synchronisation and
        failure (see the class docstring); a group object with a ``tenant``
        attribute also keys the ready-queue policy.
        """
        with self._cond:
            if self._shutdown:
                raise RuntimeStateError("pool executor has been shut down")
            # Validate every dep id before touching any dependents list: a
            # mid-loop raise would leave earlier deps pointing at a task never
            # added to _tasks, and their completion would then KeyError inside
            # the worker loop, killing the worker and hanging wait_all.
            dep_nodes: list[_TaskNode] = []
            for dep in set(deps):
                if dep < self._done_watermark or dep in self._done:
                    continue
                dep_node = self._tasks.get(dep)
                if dep_node is None:
                    raise SchedulerError(f"task depends on unknown task id {dep}")
                dep_nodes.append(dep_node)
            task_id = self._next_id
            self._next_id += 1
            node = _TaskNode(fn, on_skip, group)
            node.remaining = len(dep_nodes)
            for dep_node in dep_nodes:
                dep_node.dependents.append(task_id)
            self._tasks[task_id] = node
            self._pending += 1
            self._group_state(group).pending += 1
            if node.remaining == 0:
                self._ready.push(task_id, _group_key(group))
                self._cond.notify()
            return task_id

    def submit_chunk(
        self,
        prepare: Callable[[], Callable[[], None]],
        *,
        deps: Iterable[int] = (),
        after: Optional[int] = None,
        group: Optional[Any] = None,
    ) -> tuple[int, int]:
        """Submit one loop chunk as a compute task plus a chained merge task.

        ``prepare`` runs on the pool once ``deps`` completed (gather + kernel
        into private buffers) and returns the closure committing its effects;
        the merge task invokes that closure after both the compute task and
        ``after`` (the previous chunk's merge task) completed.  Chaining the
        merges keeps commit order deterministic -- the invariant both the
        dataflow runner and the pooled OpenMP backend rely on.  Returns
        ``(compute_id, merge_id)``.
        """
        holder: dict[str, Callable[[], None]] = {}

        def compute() -> None:
            holder["merge"] = prepare()

        def merge() -> None:
            commit = holder.pop("merge", None)
            if commit is not None:
                commit()

        compute_id = self.submit(compute, deps=deps, group=group)
        merge_deps = [compute_id] if after is None else [compute_id, after]
        merge_id = self.submit(merge, deps=merge_deps, group=group)
        return compute_id, merge_id

    def set_ready_policy(self, policy: ReadyQueuePolicy) -> None:
        """Install ``policy`` as the ready queue, migrating queued tasks.

        Already-queued ready tasks are re-pushed into the new policy in their
        current dispatch order (re-keyed from their groups), so the swap is
        safe while the pool is busy.
        """
        with self._cond:
            old = self._ready
            while old:
                task_id = old.pop()
                node = self._tasks.get(task_id)
                policy.push(task_id, _group_key(node.group if node else None))
            self._ready = policy

    # -- synchronisation --------------------------------------------------------------
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted task (all groups) has completed.

        Re-raises the first exception raised by any ungrouped task (grouped
        failures are scoped to :meth:`wait_group`).  More tasks may be
        submitted afterwards (the pool is reusable between barriers).  A
        drained barrier also compacts the completed-id set into a watermark:
        every id issued so far has completed, so remembering the ids
        individually would only let ``_done`` grow without bound across
        barrier reuse.
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._pending == 0, timeout=timeout):
                # A latched task failure explains the stall better than the
                # timeout does.  It stays latched -- tasks are still pending,
                # so clearing it would un-poison the pool and let dependents
                # of the failed task run against its missing output -- but it
                # is marked delivered so the next drained barrier does not
                # re-raise it as a stale exception from this run.
                failure = self._failure
                if failure is not None and not self._failure_delivered:
                    self._failure_delivered = True
                    raise failure
                raise RuntimeStateError(
                    f"pool executor still has {self._pending} pending tasks after "
                    f"{timeout}s"
                )
            failure, self._failure = self._failure, None
            delivered, self._failure_delivered = self._failure_delivered, False
            self._compact_drained()
        if failure is not None and not delivered:
            raise failure

    def wait_group(self, group: Optional[Any], timeout: Optional[float] = None) -> None:
        """Block until every task of ``group`` has completed.

        Concurrent groups keep running: this is the barrier an engine lease
        drains on, so one tenant's ``finish()`` never waits for another
        tenant's chunks.  Re-raises the group's first failure (and clears it
        -- the group is reusable afterwards, like :meth:`wait_all`).
        """
        with self._cond:
            state = self._groups.get(group)
            if state is None:
                return  # nothing was ever submitted under this group
            if not self._cond.wait_for(lambda: state.pending == 0, timeout=timeout):
                failure = state.failure
                if failure is not None and not state.delivered:
                    state.delivered = True
                    raise failure
                raise RuntimeStateError(
                    f"pool executor still has {state.pending} pending tasks of "
                    f"group {group!r} after {timeout}s"
                )
            failure, state.failure = state.failure, None
            delivered, state.delivered = state.delivered, False
            if self._pending == 0:
                self._compact_drained()
        if failure is not None and not delivered:
            raise failure

    def _compact_drained(self) -> None:
        """Collapse completed ids into the watermark (pool fully drained).

        Caller holds the lock.  Failed and skipped tasks entered ``_done``
        too, so deps on them stay satisfied through the watermark alone.
        Drained group states are dropped -- *except* those still latching an
        undelivered failure: the pool going globally idle (another tenant's
        ``wait_group``, or a ``wait_all``) must never wipe a failure the
        owning group has not observed, or that group's next drain would
        report success over silently partial results.  Delivered failures
        (already re-raised from a timed-out wait) die with the barrier, like
        the pool-level latch.
        """
        self._done.clear()
        self._done_watermark = self._next_id
        self._groups = {
            group: state
            for group, state in self._groups.items()
            if state.failure is not None and not state.delivered
        }
        self._cancelled = None

    def cancel_pending(self) -> None:
        """Poison the whole pool: not-yet-started tasks of *every* group are
        skipped (``on_skip`` fires).

        In-flight tasks finish; used when abandoning a run mid-way (e.g. the
        application raised inside the execution context).  Skipping a grouped
        task latches the cancellation into its group, so the group's next
        :meth:`wait_group` re-raises it instead of reporting success over the
        never-executed chunks.  To poison a single tenant's tasks use
        :meth:`cancel_group`.
        """
        with self._cond:
            if self._cancelled is None:
                self._cancelled = CancelledError("pool executor cancelled")
            if self._failure is None:
                self._failure = self._cancelled

    def cancel_group(self, group: Optional[Any]) -> None:
        """Poison ``group`` only: its unstarted tasks are skipped, other
        groups keep running.  The cancellation re-raises from
        :meth:`wait_group`."""
        with self._cond:
            state = self._group_state(group)
            if state.failure is None:
                state.failure = CancelledError("task group cancelled")

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; with ``wait=True`` drain outstanding work first,
        otherwise cancel whatever has not started yet.

        The pool is stopped even when draining re-raises a task failure:
        ``wait_all`` only returns/raises once nothing is pending, so the
        workers can be woken and joined unconditionally -- otherwise a failed
        run would leak every worker thread.
        """
        try:
            if wait:
                self.wait_all()
            else:
                self.cancel_pending()
        finally:
            with self._cond:
                self._shutdown = True
                self._cond.notify_all()
            for worker in self._workers:
                worker.join(timeout=5.0)

    # -- worker loop -------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._ready and not self._shutdown:
                    self._cond.wait()
                if not self._ready:
                    return  # shutdown with no work left
                task_id = self._ready.pop()
                node = self._tasks[task_id]
                group_state = self._group_state(node.group)
                if (
                    self._cancelled is not None
                    and node.group is not None
                    and group_state.failure is None
                ):
                    # A pool-wide cancel skipping a grouped task must latch
                    # into the group, or its wait_group would report success
                    # over the skipped (never executed) chunks.
                    group_state.failure = self._cancelled
                poisoned = (
                    self._cancelled is not None
                    or group_state.failure is not None
                    or (node.group is None and self._failure is not None)
                )
                if self.trace_events is not None:
                    self.trace_events.append(("start", task_id))
            try:
                if poisoned:
                    if node.on_skip is not None:
                        node.on_skip()
                else:
                    node.fn()
            except BaseException as exc:  # noqa: BLE001 - routed to the drains
                with self._cond:
                    state = self._group_state(node.group)
                    if state.failure is None:
                        state.failure = exc
                    # Ungrouped failures poison the pool (the historical
                    # contract); grouped failures stay scoped to wait_group.
                    if node.group is None and self._failure is None:
                        self._failure = exc
            with self._cond:
                del self._tasks[task_id]  # release the closure and staged buffers
                self._done.add(task_id)
                self._pending -= 1
                self._group_state(node.group).pending -= 1
                if self.trace_events is not None:
                    self.trace_events.append(("done", task_id))
                for dependent_id in node.dependents:
                    child = self._tasks[dependent_id]
                    child.remaining -= 1
                    if child.remaining == 0:
                        self._ready.push(dependent_id, _group_key(child.group))
                self._cond.notify_all()
