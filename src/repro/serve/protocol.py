"""Length-prefixed JSON frames: the networked store's wire format.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 compact JSON.  Both directions speak the same
format through one blocking codec (:func:`read_frame` /
:func:`write_frame`), which the client and the server share; a
connection is a sequence of request frames answered by one response
frame each, in order — which is what lets the client pipeline a batch
(write N frames, then read N responses) without any request id
bookkeeping.

Torn input is never trusted: a frame that ends mid-length or mid-body
(peer died, connection cut) raises :class:`TornFrameError`, and a clean
EOF *between* frames reads as ``None``.  Frames above :data:`MAX_FRAME`
are refused before any allocation, so a corrupt or hostile length
prefix cannot balloon memory.

Requests are ``{"op": <name>, ...}``; responses are ``{"ok": true, ...}``
or ``{"ok": false, "error": <message>, "error_type": <exception name>}``.
The op vocabulary lives in :mod:`repro.serve.server`.

Distributed tracing rides the same frames: a client with an open trace
attaches ``"trace": {"id": <trace id>, "parent": <client span id>}`` to
each request, and the server answers successful requests with a
``"spans"`` list — server-side span dicts (timed on the server's own
clock, stamped with its pid) parented to the client span, which the
client folds into its live trace.  Both fields are optional and
ignored by peers that predate them, so traced and untraced endpoints
interoperate freely.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.errors import RemoteStoreError

#: refuse frames above this many body bytes (either direction)
MAX_FRAME = 64 << 20

_LEN = struct.Struct(">I")


class TornFrameError(RemoteStoreError):
    """A frame ended mid-length or mid-body: the peer died or the link cut."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One wire frame for ``payload`` (length prefix + compact JSON)."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    if len(body) > MAX_FRAME:
        raise RemoteStoreError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """Parse one frame body; non-object JSON is a protocol violation."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise RemoteStoreError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise RemoteStoreError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, ``None`` on immediate EOF, torn on partial EOF."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise TornFrameError(
                f"connection closed {got}/{n} bytes into a frame"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any] | None:
    """One frame off a blocking socket; ``None`` on clean EOF between frames."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise RemoteStoreError(
            f"peer announced a {length}-byte frame (MAX_FRAME is {MAX_FRAME})"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise TornFrameError("connection closed between length and body")
    return decode_body(body)


def write_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))
