"""The wire protocol: newline-delimited JSON frames over a byte stream.

One frame is one JSON object on one line (UTF-8, ``\\n``-terminated).
The payloads inside frames are exactly the dicts
:mod:`repro.explain.serialize` round-trips — requests, responses,
structured errors — so the process boundary adds *framing*, never a
second serialization dialect.

Client → server frames:

==============  =========================================================
``hello``       name this connection's session (``{"session": "alice"}``);
                the server answers ``welcome`` and stamps the session
                onto every request that doesn't carry its own
``batch``       ``{"id": ..., "requests": [...], "max_workers": 1,
                "coalesce": true}`` — dispatch a batch through
                ``explain_many``
``commit``      ``{"id": ..., "skill_flips": [[person, skill, added],
                ...], "edge_flips": [[u, v, added], ...]}`` — a live
                base edit
``ping``        liveness probe; answered with ``pong``
==============  =========================================================

Server → client frames:

==============  =========================================================
``welcome``     session assignment + protocol version
``result``      one streamed response: ``{"id": <batch>, "index": <pos
                in the batch>, "response": {...}}`` — emitted as each
                request completes, *before* the batch finishes, tagged
                with the ``ok/degraded/timed_out/rejected/failed``
                outcome taxonomy
``batch_end``   terminal summary: outcome tally, elapsed wall clock, a
                :class:`~repro.service.runtime.ServiceStats` snapshot
                and, under ``fusion``, the registry's engine flush
                counters
``commit_end``  the committed old/new base versions and the rebase stats
``error``       a typed protocol error (:class:`ProtocolError` rendered
                as an :class:`~repro.service.requests.ExplainError`
                dict) — malformed JSON, an oversized frame, an invalid
                request payload (a non-finite number where an integer
                belongs included), an unknown frame type, or a
                shutting-down server.  Errors never close the
                connection; the peer may continue
``pong``        ping reply
``shutdown``    the server is closing this connection after a drain
==============  =========================================================

Framing errors are *typed, not fatal*: an oversized line is discarded
through the next newline and answered with an ``error`` frame, a
malformed line is answered and skipped — the connection (and any batch
in flight on it) survives.  The only clean closes are EOF and a
truncated final line, where there is no longer a peer to answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.service.requests import ExplainError

#: Protocol revision carried in ``welcome`` frames; bumped on any
#: incompatible frame-shape change.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's encoded size.  Large enough for any
#: real batch at paper scale, small enough that a misbehaving peer
#: cannot make the server buffer unboundedly on a single line.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A typed wire-protocol violation, answerable with an ``error``
    frame.  ``kind`` is machine-readable and stable — the robustness
    tests key on it."""

    kind = "ProtocolError"
    retryable = False

    def to_error(self) -> ExplainError:
        return ExplainError(
            kind=self.kind, message=str(self), retryable=self.retryable
        )


class MalformedFrame(ProtocolError):
    """The line was not a JSON object."""

    kind = "MalformedFrame"


class OversizedFrame(ProtocolError):
    """The line exceeded the frame-size ceiling (it was discarded
    through the next newline; the connection continues)."""

    kind = "OversizedFrame"


class UnknownFrameType(ProtocolError):
    """A well-formed frame the server has no handler for."""

    kind = "UnknownFrameType"


class InvalidRequest(ProtocolError):
    """A ``batch`` frame whose request payloads don't deserialize
    (unknown explanation kind, missing fields, wrong types)."""

    kind = "InvalidRequest"


class ServerClosing(ProtocolError):
    """New work refused because the server is draining for shutdown —
    retryable against the next server instance."""

    kind = "ServerClosing"
    retryable = True


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One frame as a compact, newline-terminated JSON line."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one line into a frame dict, typing every way it can fail."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise MalformedFrame(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if not isinstance(frame.get("type"), str):
        raise MalformedFrame("frame has no string 'type' field")
    return frame


def error_frame(error: ExplainError, frame_id: Any = None) -> Dict[str, Any]:
    """The typed ``error`` frame for a protocol failure (``frame_id``
    ties it to the client frame that provoked it, when one parsed)."""
    from repro.explain.serialize import explain_error_to_dict

    out: Dict[str, Any] = {"type": "error", "error": explain_error_to_dict(error)}
    if frame_id is not None:
        out["id"] = frame_id
    return out


#: Sentinel returned by :class:`FrameReader` for a line that blew the
#: size ceiling (already discarded through its newline).
OVERSIZED = object()


class FrameReader:
    """Incremental NDJSON line reader over an ``asyncio.StreamReader``
    with explicit oversized-line handling.

    ``asyncio``'s own ``readline`` raises on over-limit lines and leaves
    the data buffered — which would wedge the connection.  This reader
    owns its buffer: a line that exceeds ``max_bytes`` is discarded
    through the terminating newline and surfaced as :data:`OVERSIZED`,
    so the server can answer a typed error and keep reading the very
    next frame.

    ``next_line`` returns raw line ``bytes``, :data:`OVERSIZED`, or
    ``None`` on EOF (a truncated final line — EOF with no newline — is a
    clean close: there is no peer left to answer).
    """

    def __init__(self, reader, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._reader = reader
        self._max = max_bytes
        self._buf = bytearray()
        self._discarding = False
        self._eof = False

    async def next_line(self):
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                if self._discarding:
                    # The tail of a line we were already discarding.
                    self._discarding = False
                    return OVERSIZED
                if len(line) > self._max:
                    return OVERSIZED
                if not line.strip():
                    continue  # blank keepalive line
                return line
            if len(self._buf) > self._max:
                # No newline yet and the line is already over the
                # ceiling: drop what we have and discard until one lands.
                self._buf.clear()
                self._discarding = True
            if self._eof:
                return None
            chunk = await self._reader.read(65536)
            if not chunk:
                self._eof = True
                if self._buf:
                    # Truncated final line: unanswerable, clean close.
                    self._buf.clear()
                return None
            self._buf.extend(chunk)
