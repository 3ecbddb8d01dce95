"""Span recorder: nesting, traces, synopsis joins, sinks, ring buffer."""

import io
import json

from repro import telemetry
from repro.telemetry.sinks import CallbackSink, CollectingSink, JsonLinesSink
from repro.telemetry.spans import SpanRecorder


def test_spans_nest_per_thread_and_inherit_trace():
    rec = SpanRecorder()
    outer = rec.begin("outer", "test", "s1", 0.0, thread=1)
    inner = rec.begin("inner", "test", "s1", 1.0, thread=1)
    other = rec.begin("elsewhere", "test", "s2", 1.0, thread=2)
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert other.parent_id is None
    assert other.trace_id != outer.trace_id
    rec.end(inner, 2.0)
    rec.end(outer, 3.0)
    rec.end(other, 3.0)
    assert rec.open_spans() == 0
    assert outer.duration == 3.0
    assert not outer.is_instant


def test_out_of_order_end_unwinds_the_stack():
    rec = SpanRecorder()
    outer = rec.begin("outer", "test", "s", 0.0, thread=1)
    rec.begin("inner", "test", "s", 1.0, thread=1)  # never ended explicitly
    rec.end(outer, 2.0)  # exception path: ends the outer first
    assert rec.open_spans() == 0


def test_instants_have_zero_duration():
    rec = SpanRecorder()
    span = rec.instant("evt", "test", "s", 5.0)
    assert span.is_instant
    assert span.duration == 0.0
    assert rec.completed == 1


def test_synopsis_join_links_receiver_into_sender_trace():
    rec = SpanRecorder()
    send = rec.instant("send", "channel.send", "tomcat", 1.0)
    rec.register_synopsis("tomcat", 0xDEADBEEF, send)
    hop = rec.instant("tomcat->mysql", "transaction.hop", "mysql", 1.1)
    assert rec.adopt_synopsis("tomcat", 0xDEADBEEF, hop)
    assert hop.trace_id == send.trace_id
    assert (send.trace_id, send.span_id) in hop.links
    # Both spans now group under one trace.
    assert len(rec.traces()[send.trace_id]) == 2


def test_unknown_synopsis_leaves_span_in_its_own_trace():
    rec = SpanRecorder()
    hop = rec.instant("x->y", "transaction.hop", "y", 1.0)
    before = hop.trace_id
    assert not rec.adopt_synopsis("x", 123, hop)
    assert hop.trace_id == before
    assert hop.links == []


def test_sinks_stream_spans_as_they_complete():
    rec = SpanRecorder()
    collected = CollectingSink()
    seen = []
    rec.add_sink(collected)
    rec.add_sink(CallbackSink(seen.append))
    a = rec.begin("a", "test", "s", 0.0, thread=1)
    assert collected.spans == []  # not yet complete — nothing streamed
    rec.end(a, 1.0)
    rec.instant("b", "test", "s", 2.0)
    assert [s.name for s in collected.spans] == ["a", "b"]
    assert [s.name for s in seen] == ["a", "b"]


def test_jsonlines_sink_writes_one_record_per_span():
    buffer = io.StringIO()
    rec = SpanRecorder()
    rec.add_sink(JsonLinesSink(buffer))
    send = rec.instant("send", "channel.send", "s", 1.0)
    rec.register_synopsis("s", 7, send)
    # adopt= joins the trace *before* streaming: a live consumer must
    # never see a hop record without its link.
    rec.instant("hop", "transaction.hop", "t", 2.0, adopt=("s", 7))
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[1]["links"][0]["spanId"] == f"{send.span_id:016x}"
    assert lines[0]["traceId"] == lines[1]["traceId"]


def test_ring_buffer_drops_oldest_but_counts_everything():
    rec = SpanRecorder(capacity=3)
    for i in range(5):
        rec.instant(f"s{i}", "test", None, float(i))
    assert len(rec) == 3
    assert [s.name for s in rec.spans] == ["s2", "s3", "s4"]
    assert rec.dropped == 2
    assert rec.completed == 5


def test_span_handle_outlives_ring_eviction():
    rec = SpanRecorder(capacity=2)
    held = rec.instant("held", "test", "stage", 0.0, attrs={"k": "v"})
    for i in range(1, 5):
        rec.instant(f"ev-{i}", "test", "stage", float(i))
    assert all(span is not held for span in rec.spans)
    assert held.name == "held"
    assert held.attrs == {"k": "v"}
    assert held.start == 0.0


def test_jsonlines_sink_sees_every_span_past_a_small_ring(tmp_path):
    path = tmp_path / "spans.jsonl"
    rec = SpanRecorder(capacity=4)
    rec.add_sink(JsonLinesSink(str(path)))
    for i in range(64):
        rec.instant(f"ev-{i}", "test", "stage", float(i))
    rec.close_sinks()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in lines] == [f"ev-{i}" for i in range(64)]
    span_ids = [int(row["spanId"], 16) for row in lines]
    assert span_ids == sorted(span_ids)
    assert len(set(span_ids)) == 64
    assert rec.dropped == 60


def test_collecting_sink_keeps_intact_distinct_spans():
    rec = SpanRecorder(capacity=2)
    keeper = CollectingSink()
    rec.add_sink(keeper)
    for i in range(10):
        rec.instant(f"ev-{i}", "test", "stage", float(i))
    assert [span.name for span in keeper.spans] == [f"ev-{i}" for i in range(10)]
    assert [span.start for span in keeper.spans] == [float(i) for i in range(10)]
    assert len({id(span) for span in keeper.spans}) == 10


def test_install_modes_and_scoped_enable():
    assert telemetry.active() is None
    with telemetry.enabled("spans") as tele:
        assert telemetry.active() is tele
        assert not tele.wants_metrics
        assert tele.rpc_requests is None
    assert telemetry.active() is None
    tele = telemetry.install("full")
    try:
        assert tele.wants_metrics
        assert tele.rpc_requests is not None
    finally:
        telemetry.uninstall()
    assert telemetry.install("off") is None


def test_admit_helper_is_noop_when_off():
    class FakeKernel:
        now = 1.0

    telemetry.uninstall()
    telemetry.admit("stage", FakeKernel())  # must not raise
    with telemetry.enabled("full") as tele:
        telemetry.admit("stage", FakeKernel(), {"k": "v"})
        (span,) = tele.spans.by_category("app.admission")
        assert span.attrs == {"k": "v"}
        counter = tele.metrics.counter("repro_requests_admitted_total", stage="stage")
        assert counter.value == 1
