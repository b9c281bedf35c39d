"""The ``repro serve`` wire protocol: one JSON object per line.

Deliberately minimal — standard-library ``json`` over a TCP stream,
newline-framed, UTF-8 — so any language (or ``nc`` plus a steady hand)
can speak it.  A session is a sequence of request lines, each answered
by exactly one response line, in order:

.. code-block:: text

    -> {"op": "union", "view": "journals", "budget": 0.5, "id": 1}
    <- {"id": 1, "ok": true, "answer": "<journals>...</journals>",
        "degraded": false, "elapsed": 0.004}

Requests
--------

``op`` selects the operation; ``id``, when present, is echoed verbatim
in the response so clients can pipeline:

* ``ping``      -- liveness probe
* ``views``     -- the served union views and their inferred DTDs
* ``union``     -- materialize a union view (``view``, optional
  ``budget`` seconds and ``degrade`` flag)
* ``health``    -- per-source transport health snapshots
* ``stats``     -- server counters: admission, shedding, latencies
* ``shutdown``  -- stop the server after responding

Responses
---------

``{"ok": true, ...}`` on success.  On failure ``{"ok": false,
"error": {"code": ..., "message": ...}}`` where ``code`` is a
diagnostic code from the shared namespace (``docs/DIAGNOSTICS.md``):
the server's own ``SRV``-prefixed admission codes below, or the
mediator/transport code of the underlying failure (``MED003``, ...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import ReproError, register_diagnostic_code

#: requests larger than this are rejected before parsing (the protocol
#: carries queries-by-name, not documents; a longer line is a bug or abuse)
MAX_LINE_BYTES = 64 * 1024


class ProtocolError(ReproError):
    """A request line that could not be understood."""

    code = register_diagnostic_code(
        "SRV001", "malformed serve-protocol request"
    )


class UnknownOperation(ReproError):
    """A well-formed request naming an operation the server lacks."""

    code = register_diagnostic_code(
        "SRV002", "unknown serve-protocol operation"
    )


class ServerOverloaded(ReproError):
    """Admission control dropped the request: the wait queue is full."""

    code = register_diagnostic_code(
        "SRV003", "server overloaded: admission queue full"
    )


class QueueDeadlineExceeded(ReproError):
    """The request's budget expired while waiting for an inflight slot."""

    code = register_diagnostic_code(
        "SRV004", "request deadline expired in the admission queue"
    )


class LoadShedding(ReproError):
    """The server is shedding: every source's circuit breaker is open."""

    code = register_diagnostic_code(
        "SRV005", "load shed: all source circuit breakers open"
    )


#: Informational (nothing raises it): a union request carried
#: ``"cache": false``, so the answer was recomputed even though the
#: server's materialized-view cache may have held it.  Labels the
#: ``cache_code`` response field and the ``cache_bypassed`` stat.
CACHE_BYPASS = register_diagnostic_code(
    "SRV008", "union request bypassed the materialized-view cache"
)


@dataclass(frozen=True)
class Encoded:
    """A message value already encoded as JSON (UTF-8 bytes)."""

    json: bytes


def encode(message: dict) -> bytes:
    """One response/request line, newline-terminated UTF-8 JSON.

    Top-level :class:`Encoded` values are spliced in verbatim: the line
    equals the one for their decoded values, without re-escaping them.
    """
    if not any(isinstance(value, Encoded) for value in message.values()):
        line = json.dumps(message, separators=(",", ":")) + "\n"
        return line.encode("utf-8")
    members = []
    for key, value in message.items():
        if isinstance(value, Encoded):
            members.append(json.dumps(key).encode("utf-8") + b":" + value.json)
        else:
            member = json.dumps({key: value}, separators=(",", ":"))[1:-1]
            members.append(member.encode("utf-8"))
    return b"{" + b",".join(members) + b"}\n"


def decode(line: bytes) -> dict:
    """Parse one request line into a dict; raise :class:`ProtocolError`.

    The operation name is validated here (it must be a string); its
    existence is the dispatcher's concern.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request is not a JSON line: {error}")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op' field")
    return message


def error_response(error: Exception, request_id=None) -> dict:
    """The failure response for an exception (library errors carry codes)."""
    code = getattr(error, "code", "REPRO001")
    response = {
        "ok": False,
        "error": {"code": code, "message": str(error)},
    }
    if request_id is not None:
        response["id"] = request_id
    return response
