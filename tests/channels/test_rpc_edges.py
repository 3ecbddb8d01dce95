"""Edge cases for RPC wrappers and stage runtime context switching."""

import pytest

from repro.channels import Connection
from repro.channels.message import Message
from repro.channels.rpc import call, recv_request, send_response
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.profiler import ProfilerMode, StageRuntime
from repro.sim import CurrentThread, Kernel
from repro.sim.process import frame


def test_nested_rpc_chain_preserves_caller_context():
    """A -> B -> C: when B's call to C returns, B is back on the context

    it had when it issued the request, even though serving C's response
    happened after B processed other work."""
    kernel = Kernel()
    ab = Connection(kernel)
    bc = Connection(kernel)
    a_stage = StageRuntime("a")
    b_stage = StageRuntime("b")
    c_stage = StageRuntime("c")
    log = {}

    def a():
        thread = yield CurrentThread()
        with frame(thread, "main_a"):
            yield from call(thread, ab.to_server, ab.to_client, "q", 10)
            log["a_ctxt_after"] = thread.tran_ctxt

    def b():
        thread = yield CurrentThread()
        thread.daemon = True
        with frame(thread, "main_b"):
            request = yield from recv_request(thread, ab.to_server)
            log["b_ctxt_serving"] = thread.tran_ctxt
            with frame(thread, "forward"):
                yield from call(thread, bc.to_server, bc.to_client, "q2", 10)
            log["b_ctxt_after_nested"] = thread.tran_ctxt
            yield from send_response(thread, ab.to_client, request, "r", 10)

    def c():
        thread = yield CurrentThread()
        thread.daemon = True
        request = yield from recv_request(thread, bc.to_server)
        log["c_ctxt"] = thread.tran_ctxt
        with frame(thread, "svc"):
            yield from send_response(thread, bc.to_client, request, "r2", 10)

    kernel.spawn(a(), stage=a_stage)
    kernel.spawn(b(), stage=b_stage)
    kernel.spawn(c(), stage=c_stage)
    kernel.run(until=1.0)

    # B served under A's synopsis...
    assert isinstance(log["b_ctxt_serving"].elements[0], SynopsisRef)
    assert log["b_ctxt_serving"].elements[0].origin == "a"
    # ...C under B's (which chains back to A when resolved)...
    assert log["c_ctxt"].elements[0].origin == "b"
    # ...and after the nested call B returned to the serving context.
    assert log["b_ctxt_after_nested"] == log["b_ctxt_serving"]
    # A never inherited anything.
    assert log["a_ctxt_after"] is None

    from repro.core.stitch import resolve_context

    stages = {"a": a_stage, "b": b_stage, "c": c_stage}
    resolved = resolve_context(log["c_ctxt"], stages)
    assert resolved.elements[0] == "main_a"
    assert "forward" in resolved.elements


def test_concurrent_outstanding_requests_switch_back_correctly():
    """A caller with two in-flight requests on different connections

    ends up back on the right context for each response."""
    kernel = Kernel()
    conn1 = Connection(kernel)
    conn2 = Connection(kernel)
    caller = StageRuntime("caller")
    server_stage = StageRuntime("server")
    log = {}

    def echo_server(conn, delay_name):
        def body():
            thread = yield CurrentThread()
            thread.daemon = True
            request = yield from recv_request(thread, conn.to_server)
            yield from send_response(thread, conn.to_client, request, "r", 10)

        return body

    def client():
        thread = yield CurrentThread()
        from repro.channels.rpc import recv_response, send_request

        with frame(thread, "main"):
            thread.tran_ctxt = TransactionContext(("tx1",))
            with frame(thread, "path1"):
                yield from send_request(thread, conn1.to_server, "q1", 10)
            thread.tran_ctxt = TransactionContext(("tx2",))
            with frame(thread, "path2"):
                yield from send_request(thread, conn2.to_server, "q2", 10)
            # Responses arrive; receive in reverse order.
            yield from recv_response(thread, conn2.to_client)
            log["after_resp2"] = thread.tran_ctxt
            yield from recv_response(thread, conn1.to_client)
            log["after_resp1"] = thread.tran_ctxt

    kernel.spawn(echo_server(conn1, "s1")(), stage=server_stage)
    kernel.spawn(echo_server(conn2, "s2")(), stage=server_stage)
    kernel.spawn(client(), stage=caller)
    kernel.run(until=1.0)
    assert log["after_resp2"] == TransactionContext(("tx2",))
    assert log["after_resp1"] == TransactionContext(("tx1",))


def test_message_constructors_reject_negative_size():
    with pytest.raises(ValueError):
        Message("x", size=-1)
    with pytest.raises(ValueError):
        Message.acquire("x", size=-1)
