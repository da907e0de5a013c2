"""The ``bonsai serve`` wire protocol: newline-delimited JSON, v1.

One request per line, one response line per request, UTF-8, over a unix
domain socket.  The envelope is deliberately tiny:

Request::

    {"proto": "bonsai-serve/v1", "id": "r1", "kind": "sort",
     "params": {...}, "client": "alice", "priority": 0}

* ``id`` — caller-chosen string echoed back verbatim; lets one
  connection pipeline many requests and match responses.
* ``kind`` — ``sort`` / ``optimize`` (work), or the control kinds
  ``ping``, ``stats``, ``shutdown``.
* ``params`` — job parameters (see :mod:`repro.serve.session`); control
  kinds take none.
* ``client`` — fairness identity for per-client quotas (defaults to the
  connection's own id).
* ``priority`` — smaller runs first; ties run in admission order.

Response::

    {"proto": "bonsai-serve/v1", "id": "r1", "status": "ok",
     "result": {...}, "cached": false}

``status`` is ``ok``, ``rejected`` (admission refused — ``reason`` is
``overloaded``, ``quota`` or ``draining``; resubmit later), or
``error`` (the job itself failed — ``reason`` carries the taxonomy
error message; resubmitting the same job will fail the same way).

Parsing problems raise :class:`~repro.errors.ProtocolError`; the server
answers those with ``status: "error"`` instead of dropping the
connection, so one malformed line cannot kill a pipelined batch.  The
error response echoes the offending line's ``id`` whenever one can be
salvaged from the malformed body (:func:`salvage_request_id`), so a
pipelining client still matches it to its pending request; the
placeholder id ``"?"`` appears only when the line carried no usable id
at all, and a client must treat such a response as fatal for the
connection (it can never be matched).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ProtocolError

#: Protocol name + version, present on every request and response line.
PROTOCOL = "bonsai-serve/v1"

#: Request kinds that enqueue work (executed by a SortSession).
WORK_KINDS = ("sort", "optimize")

#: Request kinds answered inline by the server loop itself.
CONTROL_KINDS = ("ping", "stats", "shutdown")

#: Admission-refusal reasons a client can see in a ``rejected`` response.
REJECT_REASONS = ("overloaded", "quota", "draining")

#: Hard cap on one request line; longer lines are a protocol violation
#: (and, unchecked, a memory-exhaustion vector on a shared daemon).
MAX_LINE_BYTES = 1 << 20

#: What ``json.loads`` raises on a line it cannot turn into a value:
#: ``ValueError`` covers malformed JSON, undecodable bytes and integers
#: past the interpreter's digit limit; ``RecursionError`` covers arrays
#: or objects nested deeper than the interpreter's stack.
_UNDECODABLE = (ValueError, RecursionError)


@dataclass(frozen=True)
class Request:
    """One decoded request line."""

    id: str
    kind: str
    params: Mapping = field(default_factory=dict)
    client: str | None = None
    priority: int = 0

    def encode(self) -> bytes:
        """The request as one newline-terminated JSON line."""
        body = {
            "proto": PROTOCOL,
            "id": self.id,
            "kind": self.kind,
            "params": dict(self.params),
            "priority": self.priority,
        }
        if self.client is not None:
            body["client"] = self.client
        return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def decode_request(line: bytes) -> Request:
    """Decode one request line, validating the envelope strictly."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte limit"
        )
    try:
        body = json.loads(line)
    except _UNDECODABLE as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(body).__name__}"
        )
    proto = body.get("proto")
    if proto != PROTOCOL:
        raise ProtocolError(f"unsupported protocol {proto!r}; expected {PROTOCOL!r}")
    request_id = body.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request 'id' must be a non-empty string")
    kind = body.get("kind")
    if kind not in WORK_KINDS + CONTROL_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(WORK_KINDS + CONTROL_KINDS)}"
        )
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"'params' must be an object, got {type(params).__name__}")
    client = body.get("client")
    if client is not None and not isinstance(client, str):
        raise ProtocolError("'client' must be a string when present")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("'priority' must be an integer")
    return Request(
        id=request_id, kind=kind, params=params, client=client, priority=priority
    )


def salvage_request_id(line: bytes) -> str:
    """Best-effort ``id`` of a line :func:`decode_request` rejected.

    An envelope-level error (bad proto, bad kind, non-object params…)
    still deserves a response the client can match to its pending
    request — most malformed lines carry a perfectly good ``id`` even
    though the rest of the envelope is wrong.  Returns ``"?"`` only
    when the line is not JSON or has no usable id.
    """
    try:
        body = json.loads(line)
    except _UNDECODABLE:
        return "?"
    if isinstance(body, dict):
        request_id = body.get("id")
        if isinstance(request_id, str) and request_id:
            return request_id
    return "?"


def _response(request_id: str, status: str, **extra) -> bytes:
    body = {"proto": PROTOCOL, "id": request_id, "status": status, **extra}
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def ok_response(request_id: str, result, cached: bool = False) -> bytes:
    """A completed job (or control reply); ``cached`` marks cache hits."""
    return _response(request_id, "ok", result=result, cached=cached)


def rejected_response(request_id: str, reason: str) -> bytes:
    """Admission refused; ``reason`` is one of :data:`REJECT_REASONS`."""
    return _response(request_id, "rejected", reason=reason)


def error_response(request_id: str, reason: str) -> bytes:
    """The request was understood but the job (or envelope) failed."""
    return _response(request_id, "error", reason=reason)


def decode_response(line: bytes) -> dict:
    """Decode one response line (the client side of the contract)."""
    try:
        body = json.loads(line)
    except _UNDECODABLE as error:
        raise ProtocolError(f"response is not valid JSON: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError(
            f"response must be a JSON object, got {type(body).__name__}"
        )
    if body.get("proto") != PROTOCOL:
        raise ProtocolError(
            f"unsupported response protocol {body.get('proto')!r}"
        )
    if body.get("status") not in ("ok", "rejected", "error"):
        raise ProtocolError(f"unknown response status {body.get('status')!r}")
    if not isinstance(body.get("id"), str):
        raise ProtocolError("response 'id' must be a string")
    return body
