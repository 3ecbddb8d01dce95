"""Whodunit's send/receive wrappers for messages (§5, §7.4).

These generator helpers wrap the raw :class:`~repro.channels.socket`
operations with the synopsis protocol:

- a *request* carries the 4-byte synopsis of the sender's transaction
  context at the send point;
- a *response* carries ``synopsis(request) # synopsis(callee call
  path)``, letting the caller recognise its own prefix and switch back
  to the CCT the request originated from;
- both directions update the per-stage data/context byte counters used
  for §9.1's communication-overhead measurement.

A stage whose profiler is off (or csprof/gprof — no transaction
tracking) piggy-backs nothing, exactly like an uninstrumented binary.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro import telemetry as _telemetry
from repro.channels.message import Message
from repro.channels.socket import Endpoint, Recv, Send, TIMED_OUT
from repro.core.synopsis import CompositeSynopsis
from repro.sim.process import SimThread


class RpcTimeout(Exception):
    """A call exhausted its retry budget without a matching response."""

    def __init__(self, endpoint_name: str, attempts: int, waited: float):
        super().__init__(
            f"no response on {endpoint_name} after {attempts} attempt(s) "
            f"({waited:.6g}s of virtual time)"
        )
        self.endpoint_name = endpoint_name
        self.attempts = attempts
        self.waited = waited


class RetryPolicy:
    """Timeout/retry knobs for :func:`call` (virtual-time, kernel timers).

    Attempt ``n`` (0-based) waits ``min(timeout * backoff**n,
    max_timeout)`` for its response — capped exponential backoff — and a
    timed-out attempt retransmits the *same* request message (same
    payload, same piggy-backed synopsis), so a retry is idempotent at
    the synopsis-protocol level: however many copies the network
    delivers, they all carry one request synopsis and the caller matches
    exactly one response to it.
    """

    __slots__ = ("timeout", "retries", "backoff", "max_timeout")

    def __init__(
        self,
        timeout: float = 0.25,
        retries: int = 3,
        backoff: float = 2.0,
        max_timeout: Optional[float] = None,
    ):
        if timeout <= 0:
            raise ValueError("retry timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if max_timeout is not None and max_timeout < timeout:
            raise ValueError("max_timeout must be >= timeout")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_timeout = max_timeout

    def timeout_for(self, attempt: int) -> float:
        value = self.timeout * (self.backoff ** attempt)
        if self.max_timeout is not None:
            value = min(value, self.max_timeout)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(timeout={self.timeout}, retries={self.retries}, "
            f"backoff={self.backoff}, max_timeout={self.max_timeout})"
        )


def _stage(thread: SimThread):
    return thread.stage


def send_request(
    thread: SimThread,
    endpoint: Endpoint,
    payload: Any,
    size: int,
) -> Iterator:
    """Send a request, piggy-backing the sender's context synopsis."""
    stage = _stage(thread)
    synopsis = stage.send_request(thread) if stage is not None else None
    origin = stage.name if stage is not None else None
    message = Message.acquire(payload, size, origin=origin, synopsis=synopsis)
    if stage is not None:
        stage.account_message(size, message.context_bytes())
    tele = _telemetry.ACTIVE
    if tele is not None:
        attrs = {"size": size}
        if synopsis is not None:
            # The 4-byte synopsis *is* the trace handle: the receiving
            # hop will join this span's trace through it.
            attrs["synopsis"] = synopsis
        span = tele.spans.instant(
            "send_request",
            "channel.send",
            origin,
            thread.kernel.now,
            thread=thread.tid,
            attrs=attrs,
        )
        if synopsis is not None:
            tele.spans.register_synopsis(origin, synopsis, span)
        if tele.rpc_requests is not None:
            tele.rpc_requests.inc()
    yield Send(endpoint, message)
    return message


def recv_request(thread: SimThread, endpoint: Endpoint) -> Iterator:
    """Receive a request; the callee adopts the sender's context."""
    message = yield Recv(endpoint)
    stage = _stage(thread)
    if stage is not None and message.origin is not None:
        stage.receive_request(thread, message.origin, message.synopsis)
    return message


def send_response(
    thread: SimThread,
    endpoint: Endpoint,
    request: Message,
    payload: Any,
    size: int,
) -> Iterator:
    """Respond to ``request`` with the composite response synopsis."""
    stage = _stage(thread)
    composite = None
    if stage is not None and request.synopsis is not None:
        composite = stage.send_response(thread, request.synopsis)
    origin = stage.name if stage is not None else None
    message = Message.acquire(payload, size, origin=origin, synopsis=composite)
    if stage is not None:
        stage.account_message(size, message.context_bytes())
    tele = _telemetry.ACTIVE
    if tele is not None:
        tele.spans.instant(
            "send_response",
            "channel.send",
            origin,
            thread.kernel.now,
            thread=thread.tid,
            attrs={"size": size},
        )
        if tele.rpc_responses is not None:
            tele.rpc_responses.inc()
    yield Send(endpoint, message)
    return message


def recv_response(
    thread: SimThread,
    endpoint: Endpoint,
    expected: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Iterator:
    """Receive a response; the caller switches back to the CCT its

    request originated from (identified by the composite's prefix).

    The composite is validated *before* it is adopted:

    - a response whose prefix was not allocated by this stage (a foreign
      or corrupted composite) is a protocol violation — counted, never
      adopted;
    - with ``expected`` (the request synopsis of the call in flight), a
      mismatched own-prefix composite (a stale or duplicate response to
      an earlier, retried request) is likewise counted and *discarded*,
      and the receive continues within the remaining ``timeout`` budget.

    With ``timeout`` (virtual seconds) the whole wait — across any
    discarded stale responses — is bounded; :data:`TIMED_OUT` is
    returned on expiry.
    """
    stage = _stage(thread)
    kernel = thread.kernel
    deadline = None if timeout is None else kernel.now + timeout
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - kernel.now
            if remaining <= 0:
                return TIMED_OUT
        message = yield Recv(endpoint, timeout=remaining)
        if message is TIMED_OUT:
            return TIMED_OUT
        composite = message.synopsis
        if stage is None or not stage.tracking or composite is None:
            return message
        if not isinstance(composite, CompositeSynopsis):
            # A bare request synopsis (or garbage) where a composite
            # belongs: a misrouted message, never a response of ours.
            stage.note_violation("malformed-response")
            return message
        if not stage.synopses.is_own_prefix(composite):
            stage.note_violation("foreign-response")
            if expected is not None:
                continue
            return message
        if expected is not None and composite.prefix != expected:
            stage.note_violation("stale-response")
            continue
        stage.receive_response(thread, composite)
        return message


def resend_request(
    thread: SimThread,
    endpoint: Endpoint,
    message: Message,
) -> Iterator:
    """Retransmit an already-built request message verbatim.

    The same :class:`Message` object — same payload, same piggy-backed
    synopsis — goes back on the wire, so the callee's response carries
    the original request synopsis and stitching sees one transaction no
    matter how many copies were sent.
    """
    stage = _stage(thread)
    if stage is not None:
        stage.account_message(message.size, message.context_bytes())
        stage.note_retransmit(thread)
    tele = _telemetry.ACTIVE
    if tele is not None:
        tele.spans.instant(
            "resend_request",
            "channel.send",
            message.origin,
            thread.kernel.now,
            thread=thread.tid,
            attrs={"size": message.size},
        )
    yield Send(endpoint, message)
    return message


def call(
    thread: SimThread,
    to_server: Endpoint,
    from_server: Endpoint,
    payload: Any,
    size: int,
    retry: Optional[RetryPolicy] = None,
) -> Iterator:
    """Convenience RPC: send a request and wait for its response.

    Without ``retry`` the wait is unbounded (the original, lossless-
    transport behaviour).  With a :class:`RetryPolicy`, each attempt
    waits ``retry.timeout_for(attempt)`` of virtual time, a timed-out
    attempt retransmits the same request message, and exhausting the
    budget abandons the request (releasing its profiler bookkeeping)
    and raises :class:`RpcTimeout`.
    """
    tele = _telemetry.ACTIVE
    kernel = thread.kernel
    started = kernel.now
    message = yield from send_request(thread, to_server, payload, size)
    expected = message.synopsis if isinstance(message.synopsis, int) else None
    if retry is None:
        response = yield from recv_response(thread, from_server, expected=expected)
        if tele is not None and tele.rpc_roundtrip is not None:
            tele.rpc_roundtrip.observe(kernel.now - started)
        return response
    for attempt in range(retry.retries + 1):
        if attempt:
            yield from resend_request(thread, to_server, message)
        response = yield from recv_response(
            thread,
            from_server,
            expected=expected,
            timeout=retry.timeout_for(attempt),
        )
        if response is not TIMED_OUT:
            if tele is not None and tele.rpc_roundtrip is not None:
                tele.rpc_roundtrip.observe(kernel.now - started)
            return response
    stage = _stage(thread)
    if stage is not None and expected is not None:
        stage.abandon_request(expected)
    raise RpcTimeout(to_server.name, retry.retries + 1, kernel.now - started)


def serve_one(
    thread: SimThread,
    from_client: Endpoint,
    to_client: Endpoint,
    handler,
) -> Iterator:
    """Receive one request, run ``handler(request)`` (a generator

    returning ``(payload, size)``), and respond.
    """
    request = yield from recv_request(thread, from_client)
    payload, size = yield from handler(request)
    yield from send_response(thread, to_client, request, payload, size)
    return request
