"""Streaming telemetry sinks.

A sink observes spans *as virtual time advances*: the recorder calls
``on_span`` the moment each span completes, during the simulation run,
rather than handing over a batch at teardown.  This is what makes the
telemetry layer *live* — a sink can stream to a file, feed a dashboard,
or trip an alert while the run is still going.

Sink contract
-------------

* ``on_span(span)`` — required; called once per completed span.
* ``on_profile_event(event)`` — optional; only called on sinks that set
  ``wants_profile_events = True``.  Profile events are the raw profiler
  stream (CPU samples, synopsis mints, crash amnesia, crosstalk waits)
  that the online stitcher consumes; span-only sinks never see them.
* ``flush()`` / ``close()`` — both idempotent; ``close`` implies a
  final flush.  Every sink is a context manager (``__exit__`` closes),
  so CLI paths no longer rely on interpreter exit to flush trace files.
* ``pressure()`` — optional backpressure signal: an integer amount of
  buffered-but-unprocessed work.  The recorder never blocks on it, but
  a cooperating producer (see :class:`repro.live.LiveCollector`) uses
  it to make the *producer* pay for absorption once a high watermark is
  crossed instead of queueing without bound.

A sink that raises from any callback is detached by the recorder and
counted in ``sink_errors`` — one bad sink must never crash the kernel
hot path (see :meth:`repro.telemetry.spans.SpanRecorder._emit`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Optional, Tuple

from repro.telemetry.spans import Span


class TelemetrySink:
    """Base streaming sink; subclass and override :meth:`on_span`."""

    #: Set True to additionally receive raw profiler events via
    #: :meth:`on_profile_event` (samples/synopses/crashes/crosstalk).
    wants_profile_events = False

    def on_span(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_profile_event(self, event: Tuple[Any, ...]) -> None:
        """Raw profiler event; only called when ``wants_profile_events``."""

    def flush(self) -> None:
        """Push buffered output downstream; safe to call repeatedly."""

    def close(self) -> None:
        """Flush/teardown; idempotent.  Called by the recorder/CLI when
        a run finishes (and by ``__exit__``)."""

    def pressure(self) -> int:
        """Buffered-but-unprocessed work (backpressure signal); 0 = none."""
        return 0

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CollectingSink(TelemetrySink):
    """Buffers every span it sees (tests, ad-hoc inspection)."""

    def __init__(self):
        self.spans: List[Span] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)


class CallbackSink(TelemetrySink):
    """Invokes ``fn(span)`` per span — the cheapest custom sink."""

    def __init__(self, fn: Callable[[Span], None]):
        self._fn = fn

    def on_span(self, span: Span) -> None:
        self._fn(span)


class JsonLinesSink(TelemetrySink):
    """Streams one JSON object per completed span to a file.

    The line format mirrors the OTLP-style span dump (ids rendered as
    hex strings) so a line-oriented consumer can follow a run live with
    ``tail -f``.

    Explicit lifecycle: ``flush()`` pushes buffered lines to the OS,
    ``close()`` flushes and (for a path the sink opened itself) closes
    the file; both are idempotent, and the sink works as a context
    manager::

        with JsonLinesSink("trace.jsonl") as sink:
            telemetry.active().add_sink(sink)
            system.run(...)
        # file flushed and closed here, not at interpreter exit
    """

    def __init__(self, path_or_file: Any):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owns = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        self._closed = False
        self.lines_written = 0

    def on_span(self, span: Span) -> None:
        if self._closed:
            return
        record = {
            "traceId": f"{span.trace_id:032x}",
            "spanId": f"{span.span_id:016x}",
            "parentSpanId": f"{span.parent_id:016x}" if span.parent_id else None,
            "name": span.name,
            "category": span.category,
            "stage": span.stage,
            "start": span.start,
            "end": span.end,
            "attrs": span.attrs,
            "links": [
                {"traceId": f"{t:032x}", "spanId": f"{s:016x}"}
                for t, s in span.links
            ],
        }
        self._file.write(json.dumps(record) + "\n")
        self.lines_written += 1

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()


class StitchingSink(TelemetrySink):
    """Feeds spans *and* raw profiler events to an online stitcher.

    The sink itself is a thin forwarder so the telemetry layer stays
    free of profiler imports; the heavy lifting (shadow stages, LRU,
    checkpoints, queries) lives in :class:`repro.live.LiveCollector`.
    ``pressure()`` reports the collector's pending-event backlog, which
    is how the backpressure contract reaches the recorder's callers.
    """

    wants_profile_events = True

    def __init__(self, collector: Any):
        self.collector = collector

    def on_span(self, span: Span) -> None:
        self.collector.on_span(span)

    def on_profile_event(self, event: Tuple[Any, ...]) -> None:
        self.collector.on_profile_event(event)

    def pressure(self) -> int:
        return self.collector.pending_events

    def flush(self) -> None:
        self.collector.drain()

    def close(self) -> None:
        self.collector.drain()
