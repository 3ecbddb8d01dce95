"""Unit tests for the simulation kernel: clock, scheduling, threads."""

import weakref

import pytest

from repro.sim import Delay, Exit, Join, Kernel, Spawn
from repro.sim.kernel import Deadlock, SimulationError


def test_clock_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_schedule_runs_callbacks_in_time_order():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, seen.append, "b")
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(3.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_fifo_order():
    kernel = Kernel()
    seen = []
    for tag in range(5):
        kernel.schedule(1.0, seen.append, tag)
    kernel.run()
    assert seen == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    kernel = Kernel()
    times = []
    kernel.schedule(1.5, lambda: times.append(kernel.now))
    kernel.schedule(4.25, lambda: times.append(kernel.now))
    kernel.run()
    assert times == [1.5, 4.25]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_run():
    kernel = Kernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    event.cancel()
    kernel.run()
    assert seen == []


def test_run_until_stops_clock_at_horizon():
    kernel = Kernel()
    seen = []
    kernel.schedule(5.0, seen.append, "late")
    end = kernel.run(until=2.0)
    assert end == 2.0
    assert kernel.now == 2.0
    assert seen == []
    # A later run picks the event back up.
    kernel.run(until=10.0)
    assert seen == ["late"]


def test_run_until_with_empty_queue_advances_clock():
    kernel = Kernel()
    assert kernel.run(until=7.0) == 7.0


def test_stop_halts_the_loop():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, kernel.stop)
    kernel.schedule(2.0, seen.append, "never")
    kernel.run()
    assert seen == []
    assert kernel.now == 1.0


def test_events_scheduled_during_run_execute():
    kernel = Kernel()
    seen = []

    def first():
        kernel.schedule(1.0, seen.append, "second")

    kernel.schedule(1.0, first)
    kernel.run()
    assert seen == ["second"]
    assert kernel.now == 2.0


def test_spawn_runs_generator_to_completion():
    kernel = Kernel()
    seen = []

    def worker():
        seen.append(kernel.now)
        yield Delay(3.0)
        seen.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert seen == [0.0, 3.0]


def test_thread_return_value_via_join():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(1.0)
        return 42

    def parent():
        thread = yield Spawn(child())
        value = yield Join(thread)
        results.append(value)

    kernel.spawn(parent())
    kernel.run()
    assert results == [42]


def test_join_on_finished_thread_returns_immediately():
    kernel = Kernel()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover

    def parent(target):
        value = yield Join(target)
        results.append((kernel.now, value))

    child_thread = kernel.spawn(child())
    kernel.run()
    kernel.spawn(parent(child_thread))
    kernel.run()
    assert results == [(0.0, "done")]


def test_exit_terminates_thread_early():
    kernel = Kernel()
    seen = []

    def worker():
        seen.append("before")
        yield Exit()
        seen.append("after")  # pragma: no cover

    kernel.spawn(worker())
    kernel.run()
    assert seen == ["before"]


def test_yield_from_subroutine_composes():
    kernel = Kernel()
    seen = []

    def helper():
        yield Delay(1.0)
        return "sub"

    def worker():
        value = yield from helper()
        seen.append((kernel.now, value))

    kernel.spawn(worker())
    kernel.run()
    assert seen == [(1.0, "sub")]


def test_yielding_garbage_raises_type_error():
    kernel = Kernel()

    def worker():
        yield "not a syscall"

    kernel.spawn(worker())
    with pytest.raises(TypeError):
        kernel.run()


def test_thread_exception_propagates_to_joiner():
    kernel = Kernel()
    caught = []

    def child():
        yield Delay(1.0)
        raise ValueError("boom")

    def parent():
        thread = yield Spawn(child())
        try:
            yield Join(thread)
        except ValueError as exc:
            caught.append(str(exc))

    kernel.spawn(parent())
    with pytest.raises(ValueError):
        kernel.run()
    kernel.run()
    assert caught == ["boom"]


def test_deadlock_detected_on_unbounded_run():
    # Two threads joining each other can never finish.
    kernel = Kernel()
    holder = {}

    def a():
        yield Join(holder["b"])

    def b():
        yield Delay(0.1)
        yield Join(holder["a"])

    holder["a"] = kernel.spawn(a())
    holder["b"] = kernel.spawn(b())
    with pytest.raises(Deadlock):
        kernel.run()


def test_daemon_threads_do_not_trigger_deadlock():
    kernel = Kernel()
    holder = {}

    def server():
        yield Join(holder["never"])

    def never():
        yield Delay(1e12)

    holder["never"] = kernel.spawn(never())
    holder["never"].daemon = True
    thread = kernel.spawn(server())
    thread.daemon = True
    kernel.run(until=1.0)
    assert kernel.now == 1.0


def test_live_threads_listing():
    kernel = Kernel()

    def quick():
        yield Delay(1.0)

    def slow():
        yield Delay(5.0)

    kernel.spawn(quick(), name="quick")
    kernel.spawn(slow(), name="slow")
    kernel.run(until=2.0)
    names = [t.name for t in kernel.live_threads]
    assert names == ["slow"]


def test_livelock_detection():
    from repro.sim.kernel import SimulationError

    kernel = Kernel(livelock_limit=100)

    def spin():
        kernel.call_soon(spin)

    kernel.call_soon(spin)
    with pytest.raises(SimulationError, match="livelock"):
        kernel.run()


def test_same_time_batches_below_limit_are_fine():
    kernel = Kernel(livelock_limit=100)
    seen = []
    for i in range(90):
        kernel.schedule(1.0, seen.append, i)
    kernel.run()
    assert len(seen) == 90


def test_livelock_counter_resets_when_clock_advances():
    from repro.sim.kernel import SimulationError

    kernel = Kernel(livelock_limit=100)
    seen = []
    for t in range(5):
        for i in range(80):  # 80 < 100 at each timestamp
            kernel.schedule(float(t), seen.append, (t, i))
    kernel.run()
    assert len(seen) == 400


def test_pending_events_counts_uncancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule(2.0, lambda: None)
    event.cancel()
    assert kernel.pending_events() == 1


def test_finished_threads_are_reaped():
    """10k short-lived threads must not accumulate in the registry."""
    kernel = Kernel()
    done = []

    def short_lived(index):
        yield Delay(0.001)
        done.append(index)

    for index in range(10_000):
        kernel.schedule(index * 0.01, kernel.spawn, short_lived(index))
    kernel.run()
    assert len(done) == 10_000
    assert len(kernel._threads) == 0
    assert kernel.live_threads == []


def test_reaped_registry_still_detects_deadlock():
    """Reaping finished threads must not blind the deadlock check."""
    kernel = Kernel()
    holder = {}

    def finishes():
        yield Delay(0.1)

    def a():
        yield Join(holder["b"])

    def b():
        yield Delay(0.2)
        yield Join(holder["a"])

    kernel.spawn(finishes())
    holder["a"] = kernel.spawn(a())
    holder["b"] = kernel.spawn(b())
    with pytest.raises(Deadlock):
        kernel.run()


def test_join_works_after_target_reaped():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(1.0)
        return "done"

    def parent(target):
        value = yield Join(target)
        results.append(value)

    target = kernel.spawn(child())
    kernel.run()
    assert len(kernel._threads) == 0  # child reaped
    kernel.spawn(parent(target))
    kernel.run()
    assert results == ["done"]


class _Result:
    """A fresh, weakly referenceable thread return value."""


def test_finished_threads_do_not_pin_their_results():
    """With no handle left, a finished thread and its result are freed."""
    kernel = Kernel()
    refs = []

    def worker():
        result = _Result()
        refs.append(weakref.ref(result))
        yield Delay(0.1)
        return result

    for _ in range(3):
        kernel.spawn(worker())
    kernel.run()
    assert len(refs) == 3
    assert [ref() for ref in refs] == [None, None, None]


def test_finished_thread_handle_survives_later_spawns():
    kernel = Kernel()

    def worker(value):
        yield Delay(0.0)
        return value

    held = kernel.spawn(worker("mine"), name="held")
    kernel.run()
    tid = held.tid
    for index in range(2000):
        kernel.spawn(worker(index))
    kernel.run()
    assert held.alive is False
    assert held.tid == tid
    assert held.name == "held"
    assert held.result == "mine"


def test_failed_thread_keeps_its_failure():
    kernel = Kernel()

    def crasher():
        yield Delay(0.0)
        raise RuntimeError("boom")

    def worker():
        yield Delay(0.0)

    doomed = kernel.spawn(crasher())
    with pytest.raises(RuntimeError):
        kernel.run()
    for _ in range(100):
        kernel.spawn(worker())
    kernel.run()
    assert doomed.alive is False
    assert isinstance(doomed.failure, RuntimeError)
    assert str(doomed.failure) == "boom"


def test_concurrent_threads_are_distinct():
    kernel = Kernel()

    def sleeper():
        yield Delay(10.0)

    live = [kernel.spawn(sleeper(), name=f"live-{i}") for i in range(4)]
    assert len({id(t) for t in live}) == 4
    assert len({t.tid for t in live}) == 4
    assert all(t.alive for t in live)
    kernel.run()


def test_cancelled_events_are_purged_lazily():
    kernel = Kernel()
    events = [kernel.schedule(1.0 + i, lambda: None) for i in range(1000)]
    keep = events[:50]
    for event in events[50:]:
        event.cancel()
    # The wheel was rebuilt without the dead weight once cancelled
    # entries dominated it.
    assert sum(len(bucket) for bucket in kernel._wheel.values()) < 200
    assert kernel.pending_events() == 50
    assert all(not e.cancelled for e in keep)
    kernel.run()
    assert kernel.pending_events() == 0


def test_cancel_after_run_is_harmless():
    kernel = Kernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    kernel.run()
    event.cancel()  # already executed; must not corrupt the counter
    assert seen == ["x"]
    assert kernel.pending_events() == 0
    kernel.schedule(1.0, seen.append, "y")
    assert kernel.pending_events() == 1
