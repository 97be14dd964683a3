"""Tests for futures and promises."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    BrokenPromiseError,
    FutureAlreadySatisfiedError,
    FutureError,
    FutureNotReadyError,
)
from repro.runtime.future import HandleFuture, Promise, make_exceptional_future, make_ready_future


class TestPromiseFuture:
    def test_set_value_and_get(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        assert not future.is_ready()
        promise.set_value(41)
        assert future.is_ready()
        assert future.get() == 41

    def test_future_is_single_consumer(self):
        future = make_ready_future(1)
        assert future.get() == 1
        with pytest.raises(FutureError):
            future.get()
        with pytest.raises(FutureError):
            future.is_ready()

    def test_future_can_only_be_retrieved_once(self):
        promise: Promise[int] = Promise()
        promise.get_future()
        with pytest.raises(FutureError):
            promise.get_future()

    def test_double_set_rejected(self):
        promise: Promise[int] = Promise()
        promise.set_value(1)
        with pytest.raises(FutureAlreadySatisfiedError):
            promise.set_value(2)

    def test_exception_propagates_through_get(self):
        future = make_exceptional_future(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.get()

    def test_broken_promise(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        promise.break_promise()
        with pytest.raises(BrokenPromiseError):
            future.get()

    def test_shared_future_multiple_gets(self):
        shared = make_ready_future("x").share()
        assert shared.get() == "x"
        assert shared.get() == "x"
        assert shared.is_ready()

    def test_then_continuation_runs_when_ready(self):
        promise: Promise[int] = Promise()
        chained = promise.get_future().then(lambda f: f.get() + 1)
        assert not chained.is_ready()
        promise.set_value(10)
        assert chained.get() == 11

    def test_then_on_ready_future_runs_immediately(self):
        chained = make_ready_future(5).then(lambda f: f.get() * 2)
        assert chained.get() == 10

    def test_then_propagates_exceptions(self):
        chained = make_ready_future(5).then(lambda f: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            chained.get()

    def test_cross_thread_wait(self):
        promise: Promise[str] = Promise()
        future = promise.get_future()
        producer = threading.Thread(target=lambda: promise.set_value("done"))
        producer.start()
        assert future.get(timeout=5.0) == "done"
        producer.join()


class TestFutureContract:
    def test_get_times_out_on_a_pending_future(self):
        future = Promise().get_future()
        with pytest.raises(FutureNotReadyError):
            future.get(timeout=0.01)
        assert future.valid()  # a timed-out get does not consume

    def test_wait_reports_readiness(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        assert future.wait(timeout=0.01) is False
        promise.set_value(1)
        assert future.wait(timeout=0.01) is True
        assert future.get() == 1

    def test_exception_is_unavailable_until_ready(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        with pytest.raises(FutureNotReadyError):
            future.exception()
        promise.set_value(2)
        assert future.exception() is None

    def test_exception_returns_the_stored_error_without_raising(self):
        error = KeyError("missing")
        future = make_exceptional_future(error)
        assert future.exception() is error
        assert future.valid()

    def test_set_exception_requires_an_exception_instance(self):
        promise: Promise[int] = Promise()
        with pytest.raises(TypeError):
            promise.set_exception("boom")  # type: ignore[arg-type]
        assert not promise.is_ready()

    def test_value_then_exception_is_rejected(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        promise.set_value(3)
        with pytest.raises(FutureAlreadySatisfiedError):
            promise.set_exception(ValueError("late"))
        assert future.get() == 3

    def test_breaking_a_satisfied_promise_keeps_its_value(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        promise.set_value(4)
        promise.break_promise()
        assert future.get() == 4

    def test_promise_reports_readiness(self):
        promise: Promise[int] = Promise()
        assert not promise.is_ready()
        promise.set_exception(RuntimeError("x"))
        assert promise.is_ready()

    def test_share_invalidates_the_future(self):
        future = make_ready_future(5)
        shared = future.share()
        assert not future.valid()
        with pytest.raises(FutureError):
            future.share()
        assert shared.valid() and shared.get() == 5

    def test_then_consumes_the_future(self):
        future = make_ready_future(6)
        future.then(lambda f: f.get())
        assert not future.valid()
        with pytest.raises(FutureError):
            future.then(lambda f: f.get())

    def test_callbacks_run_once_in_registration_order(self):
        promise: Promise[int] = Promise()
        future = promise.get_future()
        seen = []
        for label in "abc":
            future.add_done_callback(lambda label=label: seen.append(label))
        assert seen == []
        promise.set_value(0)
        assert seen == ["a", "b", "c"]
        future.add_done_callback(lambda: seen.append("late"))
        assert seen == ["a", "b", "c", "late"]

    def test_continuation_runs_on_the_satisfying_thread(self):
        promise: Promise[int] = Promise()
        ran_on = []
        chained = promise.get_future().then(lambda f: ran_on.append(threading.get_ident()))
        producer = threading.Thread(target=lambda: promise.set_value(1))
        producer.start()
        producer.join()
        chained.get(timeout=5.0)
        assert ran_on == [producer.ident]

    def test_pending_continuation_sees_the_producer_exception(self):
        promise: Promise[int] = Promise()
        chained = promise.get_future().then(lambda f: f.get() + 1)
        promise.set_exception(ValueError("upstream"))
        with pytest.raises(ValueError, match="upstream"):
            chained.get()

    def test_continuation_chain_carries_values(self):
        promise: Promise[int] = Promise()
        last = promise.get_future()
        for _ in range(5):
            last = last.then(lambda f: f.get() * 2)
        promise.set_value(1)
        assert last.get() == 32


class TestSharedAndHandleFutures:
    def test_shared_then_sees_the_shared_future(self):
        shared = make_ready_future(7).share()
        chained = shared.then(lambda f: (f is shared, f.get()))
        assert chained.get() == (True, 7)
        assert shared.get() == 7  # still readable after the continuation

    def test_shared_future_fans_out_to_many_continuations(self):
        promise: Promise[int] = Promise()
        shared = promise.get_future().share()
        chained = [shared.then(lambda f, k=k: f.get() + k) for k in range(4)]
        assert not any(future.is_ready() for future in chained)
        promise.set_value(10)
        assert [future.get() for future in chained] == [10, 11, 12, 13]

    def test_shared_future_rethrows_on_every_get(self):
        shared = make_exceptional_future(ValueError("again")).share()
        for _ in range(3):
            with pytest.raises(ValueError, match="again"):
                shared.get()
        assert isinstance(shared.exception(), ValueError)

    def test_waiters_on_a_shared_future_are_all_released(self):
        promise: Promise[int] = Promise()
        shared = promise.get_future().share()
        results = []
        waiters = [
            threading.Thread(target=lambda: results.append(shared.get(timeout=5.0)))
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        promise.set_value(9)
        for waiter in waiters:
            waiter.join(timeout=10.0)
        assert results == [9] * 4

    def test_shared_future_timeout(self):
        shared = Promise().get_future().share()
        assert shared.wait(timeout=0.01) is False
        with pytest.raises(FutureNotReadyError):
            shared.get(timeout=0.01)

    def test_handle_is_known_before_completion(self):
        promise: Promise[str] = Promise()
        future = HandleFuture.from_promise("dat-handle", promise)
        assert future.handle == "dat-handle"
        assert not future.is_ready()
        promise.set_value("dat-handle")
        assert future.get() == "dat-handle"

    def test_handle_future_blocks_until_the_producer_finishes(self):
        promise: Promise[str] = Promise()
        future = HandleFuture.from_promise("q", promise)
        producer = threading.Timer(0.05, lambda: promise.set_value("q"))
        producer.start()
        assert future.get(timeout=5.0) == "q"
        producer.join()

    def test_handle_future_carries_producer_failure(self):
        promise: Promise[str] = Promise()
        future = HandleFuture.from_promise("q", promise)
        promise.break_promise()
        assert future.handle == "q"
        with pytest.raises(BrokenPromiseError):
            future.get()
