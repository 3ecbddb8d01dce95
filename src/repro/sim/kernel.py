"""Simulation kernel: virtual clock, indexed timer wheel, thread scheduler.

The kernel owns a timestamp-indexed timer wheel of cancellable callbacks
and a registry of live :class:`~repro.sim.process.SimThread` coroutines.
All application code in this repository runs on top of it; nothing ever
reads the wall clock, so a given seed always produces the same
execution, event for event.

Event-queue design (the "kernel raw-speed overhaul")
----------------------------------------------------

The original kernel kept one binary heap of ``ScheduledEvent`` objects
ordered by a Python-level ``__lt__``; every push and pop paid ``O(log
n)`` *interpreted* comparisons, and same-timestamp storms (every
``call_soon``/``resume``) re-entered the heap per event.  The rewrite is
a two-level structure — a hashed timing wheel with an exact-time cursor:

- ``_wheel``: a dict mapping each *exact* pending timestamp to the list
  of events scheduled at it (its bucket).  Scheduling is an O(1) dict
  append; buckets are in FIFO order by construction because the global
  sequence number only ever grows.  A bucket entry is either a
  cancellable :class:`ScheduledEvent` or — for the spawn/resume/Delay
  thread wakeups that dominate transaction workloads and that nothing
  can ever hold a handle to — a bare ``(thread, value)`` pair, which
  costs neither an event object nor a bound method per wakeup.
- ``_times``: a heap of the distinct pending timestamps (plain floats,
  so every comparison runs in C).  One heap operation per *timestamp*,
  not per event: a bucket of ten thousand same-time events costs one
  pop, and the whole run of events drains in a tight loop — the batched
  same-timestamp dispatch.

Cancellation just flags the event (O(1)); a cancelled event is skipped
when its bucket fires, and once cancelled entries dominate the wheel it
is rebuilt without them (lazy purge), exactly as the old heap was.  This
is what makes the dominant schedule-then-cancel pattern (RPC
``RetryPolicy`` timeouts cancelled by the arriving response) cheap: no
heap traffic for the event itself, only for its (often shared, often
already pending) timestamp.

A classical *hierarchical* timer wheel quantises time into ticks; this
kernel deliberately does not, because runs must be byte-reproducible and
virtual timestamps are exact floats — rounding a timeout to a tick
boundary would change simulation results.  Indexing on the exact
timestamp keeps O(1) schedule/cancel while preserving exact
(time, insertion-order) firing semantics.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import telemetry as _telemetry
from repro.sim.process import SimThread

# Lazy-purge thresholds: rebuild the wheel only when it is mostly dead
# weight and big enough for the rebuild to matter.
_PURGE_MIN_QUEUE = 64

# With telemetry on, refresh the kernel gauges every this many events
# rather than on every pop.
_TELEMETRY_GAUGE_INTERVAL = 64

_INF = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledEvent:
    """A cancellable callback scheduled at a point in virtual time."""

    __slots__ = ("time", "fn", "args", "cancelled", "kernel")

    def __init__(self, time: float, fn: Callable, args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference while the event sits in a kernel's wheel, so
        # cancellation can be counted (and the wheel purged once
        # cancelled entries dominate it).  Detached when the event's
        # bucket is dispatched or the event is purged.
        self.kernel: Optional["Kernel"] = None

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self.kernel
        if kernel is not None:
            kernel._note_cancelled()


class SimulationError(Exception):
    """Raised for misuse of simulation primitives (double release, etc.)."""


class Deadlock(SimulationError):
    """Raised when the event queue drains while threads are still blocked."""


class Kernel:
    """Discrete-event simulation kernel.

    Typical use::

        kernel = Kernel()
        kernel.spawn(my_generator(), name="worker")
        kernel.run(until=10.0)

    Parameters
    ----------
    strict:
        When true (the default), :meth:`run` raises :class:`Deadlock` if
        the event queue empties while spawned threads remain blocked.
    """

    __slots__ = (
        "now",
        "strict",
        "livelock_limit",
        "_same_time_events",
        "_wheel",
        "_times",
        "_num_events",
        "_threads",
        "_next_tid",
        "_stopped",
        "faults",
        "_cancelled",
        "_tele_events",
        "_tele_cancelled",
        "_tele_heap",
        "_tele_threads",
        "_tele_vtime",
        "_tele_drift",
    )

    def __init__(self, strict: bool = True, livelock_limit: int = 2_000_000):
        self.now: float = 0.0
        self.strict = strict
        # A model bug (e.g. a zero-cost request loop against a
        # zero-latency server) can fire events forever without advancing
        # virtual time; fail loudly instead of spinning silently.
        self.livelock_limit = livelock_limit
        self._same_time_events = 0
        # Timer wheel: exact timestamp -> FIFO bucket of events, plus a
        # float heap of the distinct pending timestamps (see module
        # docstring).  ``_num_events`` counts every event in the wheel,
        # cancelled ones included.
        self._wheel: Dict[float, List[ScheduledEvent]] = {}
        self._times: List[float] = []
        self._num_events = 0
        # Only live threads: finished/failed threads are reaped (see
        # :meth:`reap`), so deadlock checks and live_threads stay O(live)
        # however many short-lived threads a run spawns.
        self._threads: Dict[int, SimThread] = {}
        self._next_tid = 0
        self._stopped = False
        # Fault injector (repro.faults.install_faults); endpoints capture
        # their per-rule state from it at construction.  None = lossless.
        self.faults: Any = None
        # Cancelled events still sitting in the wheel; once they dominate
        # it the wheel is rebuilt without them (lazy purge).
        self._cancelled = 0
        # Telemetry is captured once at construction so a disabled run
        # pays nothing in the event loop (no global lookups per event).
        tele = _telemetry.ACTIVE
        if tele is not None and tele.wants_metrics:
            m = tele.metrics
            self._tele_events = m.counter(
                "repro_sim_events_fired_total", "kernel events executed"
            )
            self._tele_cancelled = m.counter(
                "repro_sim_events_cancelled_total", "scheduled events cancelled"
            )
            self._tele_heap = m.gauge(
                "repro_sim_event_heap_size", "entries in the kernel timer wheel"
            )
            self._tele_threads = m.gauge(
                "repro_sim_live_threads", "live simulated threads (runnable queue)"
            )
            self._tele_vtime = m.gauge(
                "repro_sim_virtual_time_seconds", "current virtual time"
            )
            self._tele_drift = m.gauge(
                "repro_sim_time_drift",
                "wall-clock seconds consumed per virtual second",
            )
        else:
            self._tele_events = None
            self._tele_cancelled = None
            self._tele_heap = None
            self._tele_threads = None
            self._tele_vtime = None
            self._tele_drift = None

    def _refresh_telemetry_gauges(self) -> None:
        self._tele_heap.set(self._num_events)
        self._tele_threads.set(len(self._threads))
        self._tele_vtime.set(self.now)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        if delay != delay or delay == _INF:
            # NaN slips past ``delay < 0`` (all comparisons are False)
            # and, like +inf, would corrupt the wheel's time ordering.
            raise ValueError("delay must be finite (delay=%r)" % delay)
        when = self.now + delay
        event = ScheduledEvent(when, fn, args)
        event.kernel = self
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [event]
            _heappush(self._times, when)
        else:
            bucket.append(event)
        return event

    def call_soon(self, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at the current virtual time, after the

        currently executing event finishes.
        """
        # Inlined zero-delay schedule: this is the hottest kernel entry
        # point (every resume/spawn lands here), so it skips the delay
        # validation and the addition.
        when = self.now
        event = ScheduledEvent(when, fn, args)
        event.kernel = self
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [event]
            _heappush(self._times, when)
        else:
            bucket.append(event)
        return event

    def _note_cancelled(self) -> None:
        """Count a cancellation; purge the wheel when mostly cancelled."""
        self._cancelled += 1
        if self._tele_cancelled is not None:
            self._tele_cancelled.inc()
        if (
            self._num_events > _PURGE_MIN_QUEUE
            and self._cancelled * 2 > self._num_events
        ):
            self._purge_cancelled()

    def _purge_cancelled(self) -> None:
        """Rebuild the wheel without cancelled events (O(live)).

        Mutates ``self._wheel`` and ``self._times`` *in place*: a purge
        can fire mid-:meth:`run` (a dispatched handler cancelling
        pending timers is exactly the RPC retry pattern the wheel is
        built for), and ``run()`` holds both structures — and the
        wheel's bound ``pop`` — as locals.  Rebinding the attributes to
        fresh objects would strand the running loop on the stale pair:
        events scheduled after the purge would never fire, and live
        events would be double-tracked.
        """
        wheel = self._wheel
        live_buckets: Dict[float, List[ScheduledEvent]] = {}
        total = 0
        for when, bucket in wheel.items():
            live = []
            for event in bucket:
                if event.__class__ is tuple:
                    live.append(event)  # wakeup pairs are never cancelled
                elif event.cancelled:
                    event.kernel = None
                else:
                    live.append(event)
            if live:
                live_buckets[when] = live
                total += len(live)
        wheel.clear()
        wheel.update(live_buckets)
        times = self._times
        times[:] = live_buckets
        heapq.heapify(times)
        self._num_events = total
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def spawn(
        self,
        generator: Iterator,
        name: Optional[str] = None,
        stage: Any = None,
    ) -> SimThread:
        """Create a thread from a generator and start it immediately.

        ``stage`` attaches the thread to a profiling stage runtime (see
        :mod:`repro.core.profiler`); it may be ``None`` for unprofiled
        threads such as client emulators.
        """
        tid = self._next_tid
        self._next_tid += 1
        thread = SimThread(self, generator, tid, name, stage)
        self._threads[tid] = thread
        # Inlined call_soon(thread.step, None): spawn is the thread-churn
        # hot path.  The wakeup goes on the wheel as a bare
        # ``(thread, value)`` pair instead of a ScheduledEvent — nothing
        # can hold or cancel it (spawn returns the thread, not the
        # event), a dead thread's step() is a no-op anyway, and the pair
        # costs neither the event object nor the bound method.
        when = self.now
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [(thread, None)]
            _heappush(self._times, when)
        else:
            bucket.append((thread, None))
        return thread

    def reap(self, thread: SimThread) -> None:
        """Drop a finished thread from the registry.

        Called from :meth:`SimThread.finish` / ``fail``; keeps
        ``live_threads`` and the deadlock check proportional to the
        number of *live* threads instead of every thread ever spawned.

        A handle to the finished thread keeps its ``result`` or
        ``failure``; once no handle remains, the thread is freed.
        """
        self._threads.pop(thread.tid, None)

    def resume(self, thread: SimThread, value: Any = None) -> None:
        """Unblock ``thread``, delivering ``value`` as the result of the

        syscall it is blocked on.  The thread runs at the current time.
        """
        # Inlined call_soon(thread.step, value) — the hottest kernel
        # entry point after the event loop itself.  Same bare-pair
        # representation as spawn(): resume wakeups are uncancellable
        # by construction (no caller ever sees the event).
        when = self.now
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [(thread, value)]
            _heappush(self._times, when)
        else:
            bucket.append((thread, value))

    def throw_in(self, thread: SimThread, exc: BaseException) -> None:
        """Raise ``exc`` inside ``thread`` at its current yield point."""
        self.call_soon(thread.throw, exc)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the virtual time at which the run stopped.
        """
        self._stopped = False
        # A previous horizon-bounded run() may have returned mid-batch
        # of same-timestamp events; the livelock counter is per-run
        # state and must not leak across segments.
        self._same_time_events = 0
        wheel = self._wheel
        times = self._times
        pop_bucket = wheel.pop
        heappop = _heappop
        horizon = _INF if until is None else until
        livelock_limit = self.livelock_limit
        tele_events = self._tele_events
        if tele_events is not None:
            wall_start = time.perf_counter()
            virtual_start = self.now
            fired_total = 0
        now = self.now
        while times:
            when = heappop(times)
            if when > horizon:
                # Leave the bucket for a later run() call and stop the
                # clock exactly at the horizon.
                _heappush(times, when)
                self.now = until
                return until
            if when < now:
                raise SimulationError("time went backwards")
            batch = pop_bucket(when)
            if len(batch) == 1:
                # Fast path: one event at this timestamp (the common
                # case for distinct timer deadlines).  No batch slicing
                # is ever needed, so no try/except either.  A bucket
                # entry is either a ScheduledEvent or a bare
                # ``(thread, value)`` wakeup pair (spawn/resume/Delay);
                # pairs are uncancellable by construction.
                event = batch[0]
                self._num_events -= 1
                if event.__class__ is tuple:
                    thread, value = event
                    if when > now:
                        self.now = now = when
                        self._same_time_events = 0
                    else:
                        same = self._same_time_events + 1
                        self._same_time_events = same
                        if same > livelock_limit:
                            raise SimulationError(
                                f"livelock: {livelock_limit} events fired "
                                f"at t={now} without the clock advancing"
                            )
                    thread.step(value)
                    if tele_events is not None:
                        tele_events.inc()
                        fired_total += 1
                        if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                            self._refresh_telemetry_gauges()
                    if self._stopped:
                        break
                    continue
                event.kernel = None
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if when > now:
                    self.now = now = when
                    self._same_time_events = 0
                else:
                    same = self._same_time_events + 1
                    self._same_time_events = same
                    if same > livelock_limit:
                        raise SimulationError(
                            f"livelock: {livelock_limit} events fired at "
                            f"t={now} without the clock advancing"
                        )
                event.fn(*event.args)
                if tele_events is not None:
                    tele_events.inc()
                    fired_total += 1
                    if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                        self._refresh_telemetry_gauges()
                if self._stopped:
                    break
                continue
            # Batched dispatch: detach the whole bucket first so a
            # cancel() from inside the batch cannot touch the wheel's
            # counters (the events are in flight, invisible to purge).
            self._num_events -= len(batch)
            cancelled_in_batch = 0
            for event in batch:
                if event.__class__ is not tuple:
                    event.kernel = None
                    if event.cancelled:
                        cancelled_in_batch += 1
            if cancelled_in_batch:
                self._cancelled -= cancelled_in_batch
                if cancelled_in_batch == len(batch):
                    continue
            if when > now:
                self.now = now = when
                same = -1  # the first event at a new time resets the count
            else:
                same = self._same_time_events
            fired = 0
            event = None
            try:
                for event in batch:
                    if event.__class__ is tuple:
                        event[0].step(event[1])
                    elif event.cancelled:
                        continue
                    else:
                        event.fn(*event.args)
                    fired += 1
                    if tele_events is not None:
                        tele_events.inc()
                        fired_total += 1
                        if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                            self._refresh_telemetry_gauges()
                    if self._stopped:
                        self._requeue(when, batch, event)
                        break
            except BaseException:
                # The raising event is consumed; everything after it
                # goes back so a later run() resumes exactly there.
                self._requeue(when, batch, event)
                self._same_time_events = max(same + fired, 0)
                raise
            same += fired
            self._same_time_events = max(same, 0)
            if same > livelock_limit:
                raise SimulationError(
                    f"livelock: {livelock_limit} events fired at "
                    f"t={now} without the clock advancing"
                )
            if self._stopped:
                break
        if tele_events is not None:
            elapsed_virtual = self.now - virtual_start
            if elapsed_virtual > 0:
                self._tele_drift.set(
                    (time.perf_counter() - wall_start) / elapsed_virtual
                )
            self._refresh_telemetry_gauges()
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        if self.strict and not self._stopped and until is None:
            # Bounded runs legitimately leave server threads blocked on
            # accept queues; only an unbounded run that drains the event
            # queue with blocked non-daemon threads is a deadlock.
            blocked = [
                t
                for t in self._threads.values()
                if t.alive and t.blocked_on and not t.daemon
            ]
            if blocked and not self._wheel:
                names = ", ".join(
                    f"{t.name} on {t.blocked_on}" for t in blocked[:8]
                )
                raise Deadlock(f"all events drained with blocked threads: {names}")
        return self.now

    def _requeue(self, when: float, batch: List[ScheduledEvent], last) -> None:
        """Put the unfired tail of an interrupted batch back on the wheel.

        ``last`` is the batch entry that stopped the dispatch (it is
        consumed); everything after it is re-attached in order, ahead of
        any same-timestamp events scheduled while the batch ran.
        """
        # Identity scan, not list.index(): wakeup pairs compare by
        # value, so two equal (thread, value) pairs in one bucket would
        # alias under ``==`` and replay an extra event.
        cut = 0
        for index, event in enumerate(batch):
            if event is last:
                cut = index
                break
        rest = batch[cut + 1 :]
        if not rest:
            return
        for event in rest:
            if event.__class__ is not tuple:
                event.kernel = self
                if event.cancelled:
                    self._cancelled += 1
        existing = self._wheel.get(when)
        if existing is None:
            self._wheel[when] = rest
            _heappush(self._times, when)
        else:
            rest.extend(existing)
            self._wheel[when] = rest
        self._num_events += len(rest)

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_threads(self) -> List[SimThread]:
        """Threads that have not yet finished."""
        return [t for t in self._threads.values() if t.alive]

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events (O(1))."""
        return self._num_events - self._cancelled
