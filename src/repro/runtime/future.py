"""Futures and promises.

These mirror the HPX constructs the paper builds on: a *future* is "a
computational result that is initially unknown but becomes available at a
later time"; threads access it with ``future.get()`` and only the threads
that depend on the value are suspended (Section III-A of the paper).

The implementation is thread-safe.  Continuations registered with
:meth:`Future.then` run on the thread that satisfies the future (or inline if
the future is already ready), which is how chained dataflow nodes propagate
without any global barrier.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, Optional, TypeVar

from repro.errors import (
    BrokenPromiseError,
    FutureAlreadySatisfiedError,
    FutureError,
    FutureNotReadyError,
)

__all__ = [
    "Promise",
    "Future",
    "SharedFuture",
    "HandleFuture",
    "make_ready_future",
    "make_exceptional_future",
]

T = TypeVar("T")
_UNSET = object()


#: the primitives every ready state shares (see :meth:`_SharedState.ready`)
_READY_LOCK = threading.Lock()
_READY_EVENT = threading.Event()
_READY_EVENT.set()


class _SharedState(Generic[T]):
    """State shared between a promise and the future(s) observing it."""

    __slots__ = ("_lock", "_event", "_value", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._value: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[[], None]] = []

    @classmethod
    def ready(
        cls, value: Any = _UNSET, exception: Optional[BaseException] = None
    ) -> "_SharedState[Any]":
        """A state satisfied from birth, sharing one pre-set event and lock
        with every other: nothing waits on it or changes it (``set_value``
        raises, callbacks run inline)."""
        state = cls.__new__(cls)
        state._lock = _READY_LOCK
        state._event = _READY_EVENT
        state._value = value
        state._exception = exception
        state._callbacks = []
        return state

    # -- producer side -------------------------------------------------------
    def set_value(self, value: T) -> None:
        with self._lock:
            if self._event.is_set():
                raise FutureAlreadySatisfiedError("future already satisfied")
            self._value = value
            callbacks = self._callbacks
            self._callbacks = []
            self._event.set()
        for callback in callbacks:
            callback()

    def set_exception(self, exception: BaseException) -> None:
        if not isinstance(exception, BaseException):
            raise TypeError(f"expected an exception instance, got {exception!r}")
        with self._lock:
            if self._event.is_set():
                raise FutureAlreadySatisfiedError("future already satisfied")
            self._exception = exception
            callbacks = self._callbacks
            self._callbacks = []
            self._event.set()
        for callback in callbacks:
            callback()

    # -- consumer side -------------------------------------------------------
    def is_ready(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> T:
        if not self._event.wait(timeout):
            raise FutureNotReadyError("future not ready within timeout")
        if self._exception is not None:
            raise self._exception
        return self._value  # type: ignore[return-value]

    def exception(self) -> Optional[BaseException]:
        if not self._event.is_set():
            raise FutureNotReadyError("future not ready")
        return self._exception

    def add_callback(self, callback: Callable[[], None]) -> None:
        run_now = False
        with self._lock:
            if self._event.is_set():
                run_now = True
            else:
                self._callbacks.append(callback)
        if run_now:
            callback()


class Promise(Generic[T]):
    """Producer side of a future (``hpx::promise``)."""

    def __init__(self) -> None:
        self._state: _SharedState[T] = _SharedState()
        self._future_retrieved = False

    def get_future(self) -> "Future[T]":
        """Return the future associated with this promise.

        Like HPX, the future may only be retrieved once; use
        :meth:`Future.share` for multiple consumers.
        """
        if self._future_retrieved:
            raise FutureError("future already retrieved from this promise")
        self._future_retrieved = True
        return Future(self._state)

    def set_value(self, value: T) -> None:
        """Make the future ready with ``value``."""
        self._state.set_value(value)

    def set_exception(self, exception: BaseException) -> None:
        """Make the future ready with an exception."""
        self._state.set_exception(exception)

    def is_ready(self) -> bool:
        """True once a value or exception has been provided."""
        return self._state.is_ready()

    def break_promise(self) -> None:
        """Abandon the promise; waiting consumers see :class:`BrokenPromiseError`."""
        if not self._state.is_ready():
            self._state.set_exception(BrokenPromiseError("promise was broken"))


class Future(Generic[T]):
    """Single-consumer future (``hpx::future``).

    ``get()`` blocks until the value is available and *consumes* the future
    (subsequent calls raise), mirroring HPX move semantics.  Use
    :meth:`share` to obtain a :class:`SharedFuture` that can be read many
    times -- the modified ``op_par_loop`` in the paper returns
    ``hpx::shared_future<op_dat>`` for exactly this reason.
    """

    def __init__(self, state: Optional[_SharedState[T]] = None) -> None:
        self._state = state if state is not None else _SharedState()
        self._consumed = False

    # -- state queries ---------------------------------------------------------
    def valid(self) -> bool:
        """True while the future still refers to a shared state."""
        return not self._consumed

    def is_ready(self) -> bool:
        """Non-blocking readiness check."""
        self._check_valid()
        return self._state.is_ready()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until ready (or timeout); returns readiness."""
        self._check_valid()
        return self._state.wait(timeout)

    # -- value access ------------------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> T:
        """Block until ready and return the value, consuming the future."""
        self._check_valid()
        value = self._state.result(timeout)
        self._consumed = True
        return value

    def exception(self) -> Optional[BaseException]:
        """The stored exception, if the future is ready and failed."""
        self._check_valid()
        return self._state.exception()

    def share(self) -> "SharedFuture[T]":
        """Convert into a shared future (this future becomes invalid)."""
        self._check_valid()
        state = self._state
        self._consumed = True
        return SharedFuture(state)

    # -- composition ---------------------------------------------------------------
    def then(self, continuation: Callable[["Future[T]"], Any]) -> "Future[Any]":
        """Attach a continuation; returns a future of its result.

        The continuation receives *this* future (already ready) and runs on
        whichever thread satisfied it, or immediately if already ready.
        """
        self._check_valid()
        promise: Promise[Any] = Promise()
        state = self._state
        source: Future[T] = Future(state)

        def run() -> None:
            try:
                promise.set_value(continuation(source))
            except BaseException as exc:  # noqa: BLE001 - propagate into the future
                promise.set_exception(exc)

        state.add_callback(run)
        self._consumed = True
        return promise.get_future()

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the future is ready (immediately if it is)."""
        self._check_valid()
        self._state.add_callback(callback)

    def _check_valid(self) -> None:
        if self._consumed:
            raise FutureError("future is no longer valid (already consumed)")

    @property
    def _shared_state(self) -> _SharedState[T]:
        return self._state


class SharedFuture(Generic[T]):
    """Multi-consumer future (``hpx::shared_future``); ``get()`` never consumes."""

    def __init__(self, state: Optional[_SharedState[T]] = None) -> None:
        self._state = state if state is not None else _SharedState()

    def valid(self) -> bool:
        """Shared futures always remain valid."""
        return True

    def is_ready(self) -> bool:
        """Non-blocking readiness check."""
        return self._state.is_ready()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until ready (or timeout); returns readiness."""
        return self._state.wait(timeout)

    def get(self, timeout: Optional[float] = None) -> T:
        """Block until ready and return the value (repeatable)."""
        return self._state.result(timeout)

    def exception(self) -> Optional[BaseException]:
        """The stored exception, if the future is ready and failed."""
        return self._state.exception()

    def then(self, continuation: Callable[["SharedFuture[T]"], Any]) -> Future[Any]:
        """Attach a continuation; returns a future of its result."""
        promise: Promise[Any] = Promise()

        def run() -> None:
            try:
                promise.set_value(continuation(self))
            except BaseException as exc:  # noqa: BLE001
                promise.set_exception(exc)

        self._state.add_callback(run)
        return promise.get_future()

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the future is ready (immediately if it is)."""
        self._state.add_callback(callback)

    @property
    def _shared_state(self) -> _SharedState[T]:
        return self._state


class HandleFuture(SharedFuture[T]):
    """A shared future whose *handle* is known eagerly.

    The threaded ``op_par_loop`` returns an ``op_dat`` whose identity exists
    the moment the loop is scheduled, while the data behind it only becomes
    valid once the loop's last chunk has merged.  ``handle`` exposes that
    identity without blocking -- later loops can be *declared* against it
    immediately (preserving asynchrony, Fig. 9/10 of the paper) -- and
    ``get()``/``wait()`` keep real completion semantics: they block until the
    producer satisfied the underlying promise.
    """

    def __init__(self, handle: T, state: Optional[_SharedState[T]] = None) -> None:
        super().__init__(state)
        self.handle = handle

    @classmethod
    def from_promise(cls, handle: T, promise: "Promise[T]") -> "HandleFuture[T]":
        """A handle future completing when ``promise`` is satisfied."""
        return cls(handle, promise.get_future()._shared_state)


def make_ready_future(value: T) -> Future[T]:
    """A future that is already satisfied with ``value``."""
    return Future(_SharedState.ready(value))


def make_exceptional_future(exception: BaseException) -> Future[Any]:
    """A future that is already satisfied with an exception."""
    if not isinstance(exception, BaseException):
        raise TypeError(f"expected an exception instance, got {exception!r}")
    return Future(_SharedState.ready(exception=exception))
