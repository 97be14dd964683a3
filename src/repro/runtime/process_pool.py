"""A dependency-gated *multiprocess* chunk-DAG engine.

:class:`ProcessPool` is the third execution substrate behind
``hpx_context(engine=...)``: where the threaded engine
(:class:`~repro.runtime.pool_executor.PoolExecutor`) runs chunk tasks on OS
threads of one interpreter -- and is therefore GIL-bound for the small NumPy
kernels that dominate workloads like Airfoil -- this module runs them on
worker *processes*, each with its own GIL.

The design keeps the paper's execution model intact and moves only the
numerics across the process boundary:

* **Data stays put.**  Every dat (and map) lives in a
  :mod:`multiprocessing.shared_memory` segment (see :mod:`repro.op2.shm`);
  workers attach by segment name once and gather/scatter in place.  Task
  messages carry a kernel *name*, segment-backed object ids and an iteration
  range -- never array payloads.
* **The DAG stays in the parent.**  Dependency gating, the deterministic
  chunk-order merge chain and failure poisoning are delegated to an internal
  :class:`PoolExecutor` whose tasks are small RPC stubs: a *compute* stub
  leases an idle worker and asks it to gather + run the kernel into private
  buffers; the chained *merge* stub asks **the same worker** (the staged
  buffers live in its address space) to commit scatters, and carries any
  global-reduction contribution back to the parent as a small array.
* **Kernels dispatch by registered name.**  Kernel objects hold arbitrary
  Python callables which cannot cross a process boundary; workers resolve
  names against :mod:`repro.op2.kernel`'s registry -- inherited wholesale
  under the default ``fork`` start method, or rebuilt by importing the
  kernel's defining module under ``spawn``.

:class:`ProcessChunkEngine` is the backend-facing facade combining the pool
with a :class:`~repro.op2.shm.SharedMemoryArena`; it speaks the same
``submit`` / ``wait_all`` / ``shutdown`` protocol as :class:`PoolExecutor`
plus a ``submit_loop_chunk`` entry point the dataflow loop runner uses in
place of closure submission.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import threading
import traceback
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.engines.base import EngineCapabilities
from repro.errors import OP2BackendError, SchedulerError
from repro.op2.intervals import copy_runs
from repro.runtime.pool_executor import PoolExecutor

__all__ = ["ProcessPool", "ProcessChunkEngine"]


def _default_start_method() -> str:
    """``fork`` where available (fast, inherits the kernel registry)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
class _WorkerLoop:
    """Worker-side state for one registered loop."""

    __slots__ = ("loop", "reduction_indices", "has_globals")

    def __init__(self, loop: Any, reduction_indices: list[int]) -> None:
        self.loop = loop
        self.reduction_indices = reduction_indices
        self.has_globals = any(arg.is_global for arg in loop.args)

    def chunk_instance(self) -> "_WorkerLoop":
        """A per-chunk view of the loop, private where two worker threads
        could collide.

        Workers run computes and merges on separate threads; the only shared
        mutable state between the two phases of different chunks is the
        loop's global buffers, so loops carrying globals get a clone with
        fresh buffers per chunk.  Dat arrays stay shared by design -- the
        parent's dependency DAG orders those accesses.
        """
        if not self.has_globals:
            return self
        from repro.op2.args import ArgKind, OpArg
        from repro.op2.par_loop import ParLoop

        args = [
            arg
            if not arg.is_global
            else OpArg(
                kind=ArgKind.GBL,
                access=arg.access,
                dim=arg.dim,
                type_name=arg.type_name,
                gbl_data=np.empty_like(arg.gbl_data),
            )
            for arg in self.loop.args
        ]
        clone = ParLoop(self.loop.kernel, self.loop.name, self.loop.iterset, args)
        return _WorkerLoop(clone, self.reduction_indices)


def _neutral_fill(array: np.ndarray, access: Any) -> None:
    """Reset a reduction buffer to its neutral element (0 / +inf / -inf)."""
    from repro.op2.access import AccessMode

    if access is AccessMode.MIN:
        array[...] = np.inf
    elif access is AccessMode.MAX:
        array[...] = -np.inf
    else:
        array[...] = 0


class _WorkerState:
    """Everything one worker process keeps between messages."""

    def __init__(self) -> None:
        self.sets: dict[int, Any] = {}
        self.dats: dict[int, Any] = {}
        self.maps: dict[int, Any] = {}
        self.loops: dict[str, _WorkerLoop] = {}
        #: task_key -> (loop entry, gbl snapshot, staged merge closure)
        self.staged: dict[int, tuple[_WorkerLoop, Sequence, Callable[[], None]]] = {}
        self.segments: list[Any] = []
        #: sharded engine only: dat_id -> family declaration spec (all shard
        #: segment names), plus lazily attached peer-shard views
        self.peer_specs: dict[int, dict] = {}
        self.peer_views: dict[tuple[int, int], np.ndarray] = {}
        #: guards the peer caches: the compute and merge service threads both
        #: apply halo entries
        self.peer_lock = threading.Lock()

    def declare(self, specs: Iterable[dict]) -> None:
        from repro.op2 import shm

        # The parent only (re-)broadcasts a spec when the object is new or
        # was re-adopted into a fresh segment, so replacement is always the
        # right move; loops registered against the old object keep working
        # through their stale keys, which the parent never dispatches again.
        for spec in specs:
            if spec["kind"] == "dat":
                self.dats[spec["dat_id"]] = shm.attach_dat(
                    spec, self.sets, self.segments
                )
                if spec.get("segments"):
                    with self.peer_lock:
                        self.peer_specs[spec["dat_id"]] = spec
                        # Re-adoption replaced the whole segment family:
                        # views of the old family must never serve halo
                        # copies again.
                        for key in [
                            k for k in self.peer_views if k[0] == spec["dat_id"]
                        ]:
                            del self.peer_views[key]
            elif spec["kind"] == "map":
                self.maps[spec["map_id"]] = shm.attach_map(
                    spec, self.sets, self.segments
                )
            else:  # pragma: no cover - protocol error
                raise OP2BackendError(f"unknown declaration kind {spec['kind']!r}")

    def _peer_view(self, dat_id: int, shard: int) -> np.ndarray:
        """View of another shard's segment for ``dat_id`` (attach on first use)."""
        key = (dat_id, shard)
        view = self.peer_views.get(key)
        if view is None:
            from repro.op2 import shm

            spec = self.peer_specs[dat_id]
            segment, view = shm.attach_segment(
                {**spec, "segment": spec["segments"][shard]}
            )
            self.segments.append(segment)
            self.peer_views[key] = view
        return view

    def apply_halo(self, entries: Sequence[tuple]) -> None:
        """Copy halo runs from peer-shard segments into this worker's dats.

        Each entry is ``(dat_id, src_shard, starts, stops)`` with inclusive
        runs as ``int64`` arrays.  The parent's dependency gating guarantees
        the source runs are committed and that no concurrent fetch targets
        overlapping runs, so an unsynchronised row copy is race-free.
        """
        if not entries:
            return
        with self.peer_lock:
            for dat_id, src_shard, starts, stops in entries:
                dst = self.dats[dat_id].data
                copy_runs(dst, self._peer_view(dat_id, src_shard), starts, stops)

    def register_loop(self, key: str, spec: dict) -> None:
        from repro.op2.access import OP_ID, AccessMode
        from repro.op2.args import ArgKind, OpArg
        from repro.op2.kernel import resolve_kernel
        from repro.op2.par_loop import ParLoop
        from repro.op2.set import OpSet

        kernel = resolve_kernel(spec["kernel"], spec.get("kernel_module"))
        expected = spec.get("kernel_fingerprint")
        actual = kernel.fingerprint
        if expected is not None and actual != expected:
            # A same-named kernel with *different source* shadows the one the
            # parent meant (e.g. redefined after this worker's registry was
            # populated post-fork).  The content fingerprint catches this even
            # when the qualnames coincide.
            raise OP2BackendError(
                f"kernel {spec['kernel']!r} resolved to source fingerprint "
                f"{actual[:12]} but the parent dispatched {expected[:12]}; "
                f"kernel names must identify one kernel source for "
                f"multiprocess dispatch"
            )
        iterset_spec = spec["iterset"]
        iterset = self.sets.get(iterset_spec["set_id"])
        if iterset is None:
            iterset = OpSet(iterset_spec["size"], iterset_spec["name"])
            self.sets[iterset_spec["set_id"]] = iterset

        args: list[OpArg] = []
        reduction_indices: list[int] = []
        for position, arg_spec in enumerate(spec["args"]):
            access = AccessMode(arg_spec["access"])
            if arg_spec["kind"] == "dat":
                dat = self.dats[arg_spec["dat_id"]]
                map_ = (
                    OP_ID
                    if arg_spec["map_id"] is None
                    else self.maps[arg_spec["map_id"]]
                )
                args.append(
                    OpArg(
                        kind=ArgKind.DAT,
                        access=access,
                        dim=arg_spec["dim"],
                        type_name=arg_spec["type_name"],
                        dat=dat,
                        map_=map_,
                        map_index=arg_spec["map_index"],
                    )
                )
            else:
                if access.writes and not access.is_reduction:
                    # The parent executes such loops itself (the kernel must
                    # observe the live global, which only the parent owns).
                    raise OP2BackendError(
                        f"loop {spec['name']!r}: global WRITE/RW arguments "
                        f"cannot execute in a worker process"
                    )
                buffer = np.zeros(tuple(arg_spec["shape"]), dtype=np.dtype(arg_spec["dtype"]))
                if access.is_reduction:
                    reduction_indices.append(position)
                args.append(
                    OpArg(
                        kind=ArgKind.GBL,
                        access=access,
                        dim=arg_spec["dim"],
                        type_name=arg_spec["type_name"],
                        gbl_data=buffer,
                    )
                )
        loop = ParLoop(kernel, spec["name"], iterset, args)
        self.loops[key] = _WorkerLoop(loop, reduction_indices)

    def _restore_globals(self, entry: _WorkerLoop, gbl_values: Sequence) -> None:
        for index, value in gbl_values:
            entry.loop.args[index].gbl_data[...] = value
        for index in entry.reduction_indices:
            arg = entry.loop.args[index]
            _neutral_fill(arg.gbl_data, arg.access)

    def compute(
        self,
        task_key: int,
        loop_key: str,
        start: int,
        stop: int,
        gbl_values: Sequence,
        prefer_vectorized: bool,
        halo: Sequence[tuple] = (),
    ) -> None:
        # Halo runs land before the gather below reads them.
        self.apply_halo(halo)
        # A chunk-private instance: the merge thread may commit this chunk
        # while the compute thread is already preparing the next one.
        entry = self.loops[loop_key].chunk_instance()
        # Globals are re-established both here (vectorised kernels run now)
        # and at merge time (serialised blocks run then) from the call
        # snapshot.
        self._restore_globals(entry, gbl_values)
        closure = entry.loop.prepare_block(
            start, stop, prefer_vectorized=prefer_vectorized
        )
        self.staged[task_key] = (entry, gbl_values, closure)

    def merge(
        self, task_key: int, halo: Sequence[tuple] = ()
    ) -> Optional[list[tuple[int, np.ndarray]]]:
        # Increment halo runs must carry the latest committed base values, so
        # they land here -- the merge chain orders this after every earlier
        # chunk's commit -- not at compute time.
        self.apply_halo(halo)
        entry, gbl_values, closure = self.staged.pop(task_key)
        self._restore_globals(entry, gbl_values)
        closure()
        if not entry.reduction_indices:
            return None
        # Starting from the neutral element, the post-merge buffer *is* this
        # chunk's contribution; the parent folds it into the live global in
        # deterministic chunk order.
        return [
            (index, entry.loop.args[index].gbl_data.copy())
            for index in entry.reduction_indices
        ]


def _serve_channel(channel: Any, handlers: dict[str, Callable[..., Any]]) -> None:
    """Serve request/reply messages on one connection until exit/EOF."""
    while True:
        try:
            message = channel.recv()
        except EOFError:  # parent went away: exit quietly
            return
        kind = message[0]
        try:
            if kind == "exit":
                channel.send(("ok", None))
                return
            if kind == "batch":
                # Deferred messages ride ahead of the RPC that flushed them:
                # execute the sub-messages in order, reply once (with the
                # final sub-message's result -- the flushing RPC's).
                result = None
                for sub_message in message[1]:
                    handler = handlers.get(sub_message[0])
                    if handler is None:
                        raise OP2BackendError(
                            f"unknown worker message {sub_message[0]!r}"
                        )
                    result = handler(*sub_message[1:])
            else:
                handler = handlers.get(kind)
                if handler is None:
                    raise OP2BackendError(f"unknown worker message {kind!r}")
                result = handler(*message[1:])
        except BaseException as exc:  # noqa: BLE001 - routed to the parent
            tb = traceback.format_exc()
            try:
                pickle.dumps(exc)
                channel.send(("error", exc, tb))
            except Exception:
                channel.send(("error", None, tb))
        else:
            channel.send(("ok", result))


def _worker_main(conn: Any, merge_conn: Any) -> None:
    """Entry point of one worker process.

    Two service threads share the worker state: the main thread handles
    declarations, loop registration and chunk *computes*; a second thread
    handles *merges* on a dedicated channel.  A merge commit (the
    :class:`~repro.op2.datapath.BlockStage` scatter rounds + reduction fold,
    a sizeable share of a chunk) therefore never queues
    behind a long compute running on the same worker -- without the split,
    the chunk-ordered merge chain would inherit every compute it happens to
    be pinned behind, serialising the whole DAG.
    """
    state = _WorkerState()
    merge_thread = threading.Thread(
        target=_serve_channel,
        args=(merge_conn, {"merge": state.merge}),
        name="merge-server",
        daemon=True,
    )
    merge_thread.start()
    try:
        _serve_channel(
            conn,
            {
                "declare": state.declare,
                "register_loop": state.register_loop,
                "compute": state.compute,
            },
        )
    finally:
        merge_thread.join(timeout=5.0)
        from repro.op2 import shm

        shm.detach_all(state.segments)
        conn.close()
        merge_conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side endpoint of one worker process (two RPC channels)."""

    __slots__ = ("process", "conn", "merge_conn", "lock", "merge_lock", "dead", "pending")

    def __init__(self, process: Any, conn: Any, merge_conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.merge_conn = merge_conn
        #: per-channel locks: one in-flight RPC per channel, so a merge can
        #: proceed while the same worker's compute thread is busy
        self.lock = threading.Lock()
        self.merge_lock = threading.Lock()
        self.dead = False
        #: deferred messages (declares/registrations) batched onto the next
        #: compute-channel RPC instead of paying one round trip each
        self.pending: list[tuple] = []


class ProcessPool:
    """Run dependency-gated chunk tasks on ``num_workers`` OS processes.

    The dependency protocol (ids, ``deps``, chained merges, poisoning,
    ``wait_all`` barriers) is exactly the :class:`PoolExecutor` one -- an
    internal gate pool of RPC stubs provides it, so task ids returned here
    interoperate with :meth:`submit`-ed parent-side tasks (e.g. the loop
    runner's future finalizers).
    """

    def __init__(
        self,
        num_workers: int,
        *,
        name: str = "chunk-procs",
        trace: bool = False,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers <= 0:
            raise SchedulerError(f"num_workers must be positive, got {num_workers}")
        self._num_workers = num_workers
        method = start_method or _default_start_method()
        context = multiprocessing.get_context(method)
        if method != "spawn":
            # Start the parent's resource tracker *before* forking so workers
            # inherit (and share) it: otherwise each worker would launch its
            # own tracker on first segment attach, and those trackers would
            # try to clean up -- i.e. unlink -- the parent's live segments.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker internals vary
                pass
        self._workers: list[_WorkerHandle] = []
        for index in range(num_workers):
            parent_conn, child_conn = context.Pipe()
            parent_merge, child_merge = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, child_merge),
                name=f"{name}-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            child_merge.close()
            self._workers.append(_WorkerHandle(process, parent_conn, parent_merge))
        # Enough gate threads for every worker to have one compute *and* one
        # merge RPC in flight (workers serve the two on separate threads), so
        # the chunk-ordered merge chain never waits for a dispatch slot.
        self._gate = PoolExecutor(
            max(2 * num_workers, num_workers + 2), name=f"{name}-gate", trace=trace
        )
        self._idle: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for index in range(num_workers):
            self._idle.put(index)
        self._task_keys = itertools.count()
        self._workers_stopped = False

    # -- introspection ---------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of OS worker processes backing the pool."""
        return self._num_workers

    @property
    def trace_events(self) -> Optional[list[tuple[str, int]]]:
        """The gate pool's ``("start"|"done", task_id)`` trace (if enabled)."""
        return self._gate.trace_events

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self._gate.is_shutdown

    # -- RPC ----------------------------------------------------------------------------
    def _call(self, index: int, message: tuple, *, merge: bool = False) -> Any:
        handle = self._workers[index]
        lock = handle.merge_lock if merge else handle.lock
        conn = handle.merge_conn if merge else handle.conn
        with lock:
            if handle.dead:
                raise OP2BackendError(f"worker process {index} already died")
            if not merge and handle.pending:
                # Flush the worker's deferred messages ahead of this RPC in
                # one round trip; a failure in any of them surfaces here.
                message = ("batch", [*handle.pending, message])
                handle.pending = []
            try:
                conn.send(message)
                status, *payload = conn.recv()
            except (EOFError, OSError) as exc:
                handle.dead = True
                raise OP2BackendError(
                    f"worker process {index} died during {message[0]!r} "
                    f"(exit code {handle.process.exitcode})"
                ) from exc
        if status == "ok":
            return payload[0]
        exc, tb = payload
        if exc is not None:
            raise exc
        raise OP2BackendError(f"worker process {index} failed:\n{tb}")

    def broadcast(self, message: tuple) -> None:
        """Synchronously deliver ``message`` to every worker."""
        for index in range(self._num_workers):
            self._call(index, message)

    def queue_message(self, index: int, message: tuple) -> None:
        """Defer ``message`` to worker ``index``: it rides ahead of the next
        compute-channel RPC as part of a batch instead of paying its own
        round trip.  Errors it raises surface on that flushing RPC."""
        handle = self._workers[index]
        with handle.lock:
            handle.pending.append(message)

    def queue_broadcast(self, message: tuple) -> None:
        """Defer ``message`` to every worker (see :meth:`queue_message`)."""
        for index in range(self._num_workers):
            self.queue_message(index, message)

    # -- submission ---------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        """Submit a parent-side task into the same dependency namespace."""
        return self._gate.submit(fn, deps=deps, on_skip=on_skip)

    def submit_loop_chunk(
        self,
        loop_key: str,
        start: int,
        stop: int,
        *,
        gbl_values: Sequence = (),
        prefer_vectorized: bool = True,
        deps: Iterable[int] = (),
        after: Optional[int] = None,
        on_deltas: Optional[Callable[[list], None]] = None,
        worker: Optional[int] = None,
        halo: Sequence[tuple] = (),
        merge_halo: Sequence[tuple] = (),
        extra_merge_deps: Iterable[int] = (),
    ) -> tuple[int, int]:
        """Submit one chunk of a registered loop as compute + chained merge.

        The compute stub leases any idle worker -- or, with ``worker=``, pins
        the chunk to that shard's process; the merge stub -- gated on the
        compute stub, ``after`` (the previous chunk's merge) and any
        ``extra_merge_deps`` -- targets the *same* worker, where the staged
        buffers live, and hands any reduction contributions to ``on_deltas``
        in deterministic chunk order.  ``halo`` / ``merge_halo`` entries ride
        inside the compute / merge RPCs and are applied worker-side before
        the gather / commit.  Returns ``(compute_id, merge_id)``.
        """
        task_key = next(self._task_keys)
        holder: dict[str, int] = {}

        def compute() -> None:
            if worker is None:
                index = self._idle.get()
                try:
                    self._call(
                        index,
                        ("compute", task_key, loop_key, start, stop, gbl_values,
                         prefer_vectorized, halo),
                    )
                finally:
                    self._idle.put(index)
            else:
                # Pinned chunks bypass the idle lease: the per-channel lock
                # serialises the shard's computes, and other shards' workers
                # stay available to their own chunks.
                index = worker
                self._call(
                    index,
                    ("compute", task_key, loop_key, start, stop, gbl_values,
                     prefer_vectorized, halo),
                )
            holder["worker"] = index

        def merge() -> None:
            index = holder.pop("worker", None)
            if index is None:  # compute was skipped (poisoned pool)
                return
            deltas = self._call(index, ("merge", task_key, merge_halo), merge=True)
            if deltas and on_deltas is not None:
                on_deltas(deltas)

        compute_id = self._gate.submit(compute, deps=deps)
        merge_deps = [compute_id] if after is None else [compute_id, after]
        merge_deps.extend(extra_merge_deps)
        merge_id = self._gate.submit(merge, deps=merge_deps)
        return compute_id, merge_id

    # -- synchronisation ------------------------------------------------------------------
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted task completed; re-raises failures."""
        self._gate.wait_all(timeout=timeout)

    def cancel_pending(self) -> None:
        """Poison the pool: not-yet-started tasks are skipped."""
        self._gate.cancel_pending()

    def shutdown(self, wait: bool = True) -> None:
        """Stop gate threads and worker processes.

        Worker teardown runs even when draining re-raises a task failure, so
        a failed run never leaks processes.
        """
        try:
            self._gate.shutdown(wait=wait)
        finally:
            self._stop_workers()

    def _stop_workers(self) -> None:
        if self._workers_stopped:
            return
        self._workers_stopped = True
        for handle in self._workers:
            if handle.dead:
                continue
            try:
                with handle.merge_lock:
                    handle.merge_conn.send(("exit",))
                    handle.merge_conn.recv()
                with handle.lock:
                    handle.conn.send(("exit",))
                    handle.conn.recv()
            except (EOFError, OSError):
                handle.dead = True
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.conn.close()
            handle.merge_conn.close()


# ---------------------------------------------------------------------------
# Backend facade: arena + pool + loop registration
# ---------------------------------------------------------------------------
class ProcessChunkEngine:
    """Parent-side driver of ``engine="processes"``.

    Adopts every dat/map a loop touches into the shared-memory arena (and
    declares it to all workers), registers each distinct loop shape once by
    kernel name, and turns the loop runner's chunk submissions into worker
    RPCs.  Exposes the :class:`PoolExecutor` surface the HPX context and the
    dataflow runner already speak (``submit`` / ``wait_all`` /
    ``cancel_pending`` / ``shutdown`` / ``is_shutdown`` / ``trace_events``).
    """

    #: engine-seam capability record: worker processes on shared-memory
    #: segments -- no shared address space, kernel dispatch by registered
    #: name, global writes stay in the parent, merges on their own channel
    capabilities = EngineCapabilities(
        shared_address_space=False,
        needs_kernel_registry=True,
        supports_global_write=False,
        separate_merge_channel=True,
    )

    def __init__(
        self,
        num_workers: int,
        *,
        name: str = "hpx-chunk-procs",
        trace: bool = False,
        start_method: Optional[str] = None,
        prefer_vectorized: bool = True,
    ) -> None:
        from repro.op2.shm import SharedMemoryArena

        self.arena = SharedMemoryArena(name_prefix=name)
        self.pool = ProcessPool(
            num_workers, name=name, trace=trace, start_method=start_method
        )
        self.prefer_vectorized = prefer_vectorized
        #: loop signature -> registered key (loops recur every time step)
        self._loop_keys: dict[tuple, str] = {}
        #: the loop currently being expanded into chunks, with its call state
        self._active: Optional[tuple[Any, str, list, Callable[[list], None]]] = None

    # -- PoolExecutor surface -------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of OS worker processes."""
        return self.pool.num_workers

    @property
    def trace_events(self) -> Optional[list[tuple[str, int]]]:
        """Gate-pool event trace (used by the DAG-enforcement tests)."""
        return self.pool.trace_events

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self.pool.is_shutdown

    def submit(
        self,
        fn: Callable[[], None],
        *,
        deps: Iterable[int] = (),
        on_skip: Optional[Callable[[], None]] = None,
    ) -> int:
        """Parent-side task submission (future finalizers and the like)."""
        return self.pool.submit(fn, deps=deps, on_skip=on_skip)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain all outstanding chunk work."""
        self.pool.wait_all(timeout=timeout)

    def cancel_pending(self) -> None:
        """Poison the pool (abandoning a run mid-way)."""
        self.pool.cancel_pending()

    def shutdown(self, wait: bool = True) -> None:
        """Stop pool and workers, then hand the shared dats back to the parent."""
        try:
            self.pool.shutdown(wait=wait)
        finally:
            self.arena.release()

    # -- loop registration ----------------------------------------------------------
    def _arg_signature(self, arg: Any) -> tuple:
        if arg.is_global:
            assert arg.gbl_data is not None
            return ("gbl", arg.access.value, arg.gbl_data.shape, arg.gbl_data.dtype.str)
        # Adoption epochs fold segment replacements (e.g. OpMap.set_values
        # re-adoption) into the signature, forcing re-registration against
        # the worker-side replacement objects.
        map_part = (
            (arg.map.map_id, self.arena.epoch("map", arg.map.map_id))
            if arg.is_indirect
            else None
        )
        return (
            "dat",
            arg.dat.dat_id,
            self.arena.epoch("dat", arg.dat.dat_id),
            map_part,
            arg.map_index,
            arg.access.value,
        )

    def _declare(self, declarations: list[dict]) -> None:
        """Deliver fresh dat/map declarations to the workers.

        Synchronous here (registration errors surface at submission time);
        the sharded subclass defers them into the next batched RPC instead.
        """
        self.pool.broadcast(("declare", declarations))

    def _register(self, loop_key: str, spec: dict) -> None:
        """Deliver one loop-shape registration to the workers."""
        self.pool.broadcast(("register_loop", loop_key, spec))

    def _prepare_loop(self, loop: Any) -> tuple[str, list, Callable[[list], None]]:
        """Adopt/declare the loop's data, register its shape, snapshot globals."""
        from repro.op2.kernel import resolve_kernel

        # Workers dispatch by *name*; if the registry's current binding is a
        # different kernel object, a same-named kernel displaced this one and
        # the workers would run the wrong callable -- fail loudly instead.
        if resolve_kernel(loop.kernel.name) is not loop.kernel:
            raise OP2BackendError(
                f"kernel name {loop.kernel.name!r} is bound to a different "
                f"kernel object in the registry; multiprocess execution "
                f"dispatches by name, so kernel names must be unique"
            )
        declarations: list[dict] = []
        for arg in loop.args:
            if arg.dat is not None:
                spec = self.arena.adopt_dat(arg.dat)
                if spec is not None:
                    declarations.append(spec)
            if arg.is_indirect:
                spec = self.arena.adopt_map(arg.map)
                if spec is not None:
                    declarations.append(spec)
        if declarations:
            self._declare(declarations)

        signature = (
            loop.kernel.name,
            loop.iterset.set_id,
            tuple(self._arg_signature(arg) for arg in loop.args),
        )
        loop_key = self._loop_keys.get(signature)
        if loop_key is None:
            loop_key = f"loop-{len(self._loop_keys)}"
            self._loop_keys[signature] = loop_key
            self._register(loop_key, self._loop_spec(loop))

        gbl_values = [
            (index, np.array(arg.gbl_data))
            for index, arg in enumerate(loop.args)
            if arg.is_global and not arg.access.is_reduction
        ]

        from repro.op2.access import AccessMode

        def apply_deltas(deltas: list) -> None:
            # Runs inside the (chunk-order chained) merge stub: identical
            # floating-point fold order to the threaded engine's in-place
            # reduction commits.
            for index, delta in deltas:
                arg = loop.args[index]
                assert arg.gbl_data is not None
                if arg.access is AccessMode.INC:
                    arg.gbl_data += delta
                elif arg.access is AccessMode.MIN:
                    np.minimum(arg.gbl_data, delta, out=arg.gbl_data)
                elif arg.access is AccessMode.MAX:
                    np.maximum(arg.gbl_data, delta, out=arg.gbl_data)

        return loop_key, gbl_values, apply_deltas

    def _loop_spec(self, loop: Any) -> dict:
        args = []
        for arg in loop.args:
            if arg.is_global:
                assert arg.gbl_data is not None
                args.append(
                    {
                        "kind": "gbl",
                        "access": arg.access.value,
                        "dim": arg.dim,
                        "type_name": arg.type_name,
                        "shape": arg.gbl_data.shape,
                        "dtype": arg.gbl_data.dtype.str,
                    }
                )
            else:
                args.append(
                    {
                        "kind": "dat",
                        "access": arg.access.value,
                        "dim": arg.dim,
                        "type_name": arg.type_name,
                        "dat_id": arg.dat.dat_id,
                        "map_id": arg.map.map_id if arg.is_indirect else None,
                        "map_index": arg.map_index,
                    }
                )
        return {
            "name": loop.name,
            "kernel": loop.kernel.name,
            "kernel_module": loop.kernel.defining_module,
            "kernel_fingerprint": loop.kernel.fingerprint,
            "iterset": {
                "set_id": loop.iterset.set_id,
                "size": loop.iterset.size,
                "name": loop.iterset.name,
            },
            "args": args,
        }

    # -- chunk submission --------------------------------------------------------------
    def submit_loop_chunk(
        self,
        loop: Any,
        start: int,
        stop: int,
        *,
        deps: Iterable[int] = (),
        after: Optional[int] = None,
    ) -> tuple[int, int]:
        """Submit one chunk of ``loop``; returns ``(compute_id, merge_id)``.

        The first chunk of each loop call registers/declares whatever the
        workers have not seen yet and snapshots the call's global inputs;
        subsequent chunks of the same call reuse that state.
        """
        if self._active is None or self._active[0] is not loop:
            loop_key, gbl_values, apply_deltas = self._prepare_loop(loop)
            self._active = (loop, loop_key, gbl_values, apply_deltas)
        _, loop_key, gbl_values, apply_deltas = self._active
        return self.pool.submit_loop_chunk(
            loop_key,
            start,
            stop,
            gbl_values=gbl_values,
            prefer_vectorized=self.prefer_vectorized,
            deps=deps,
            after=after,
            on_deltas=apply_deltas,
        )
