"""The wire codec: framed JSON messages over a socket.

Every conversation in the serving stack — client to router, router to
shard server — exchanges *messages*: plain dicts with an ``"op"`` key
(``batch`` / ``results`` / ``info`` / ``info_reply`` / ``ping`` /
``pong`` / ``error``).  A message travels as one *frame*::

    4-byte big-endian payload length | 'J' | JSON payload

Pipelined conversations use the *sequence-tagged* frame variant: the
lowercase tag ``j`` prefixes the payload with a client-assigned
sequence id (one uvarint)::

    4-byte length | 'j' | uvarint sequence id | JSON payload

A server echoes each reply under the request's sequence id, so many
frames can be in flight on one connection and the client correlates
answers in whatever order the server finishes them.  Untagged frames
remain fully supported — a reader dispatches per frame on the tag
byte, so strict request–response clients and multiplexing ones share
a wire format (and a server) without negotiation.  Any other tag byte
is a :class:`WireError` (``unknown frame tag``); the payload was read
in full, so a server answers it and keeps the connection.

Nothing here touches grammars or handles: the codec is pure bytes,
so it is testable (and fuzzable) in isolation.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.serving.protocol import QueryKind, QueryRequest, QueryResult
from repro.util.varint import read_uvarint, write_uvarint

__all__ = [
    "ConnectionLost",
    "FrameError",
    "OversizedFrameError",
    "RequestTimeout",
    "WireError",
    "decode_frame",
    "encode_frame",
    "frame_bytes",
    "recv_frame",
    "recv_message",
    "requests_to_wire",
    "results_from_wire",
    "results_to_wire",
    "send_frame",
    "send_message",
    "wire_to_requests",
]

_LENGTH = struct.Struct("!I")
#: Refuse absurd frames instead of allocating unbounded buffers.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_TAG_JSON = 0x4A   # 'J'
#: The sequence-tagged variant: the lowercase tag, then a uvarint
#: sequence id, then the same payload the uppercase tag carries.
_TAG_SEQ_OFFSET = 0x20
_TAG_JSON_SEQ = _TAG_JSON + _TAG_SEQ_OFFSET     # 'j'


class WireError(ReproError):
    """A malformed frame, message or value on the wire."""


class ConnectionLost(WireError):
    """A link died before the reply arrived.

    Raised when a connection is refused or reset, closed cleanly with
    requests still in flight, or closed instead of answering a strict
    round trip.  Every §V query is a read, so a caller holding replica
    endpoints may resend the same request elsewhere — see
    :func:`repro.serving.protocol.is_retryable`.
    """


class RequestTimeout(ConnectionLost):
    """No reply within the per-request timeout.

    A :class:`ConnectionLost` subclass because the connection it was
    issued on can no longer be trusted (a late reply would desync a
    strict stream); the failed link is dropped and the request is fair
    game for a replica retry.
    """


class FrameError(WireError):
    """A framing-level failure that desynchronizes the byte stream.

    After one of these (an over-limit length header, a connection
    closed mid-frame) the reader can no longer tell where the next
    frame starts — the only safe recovery is closing the connection.
    Ordinary :class:`WireError` decode failures happen *after* the
    payload was fully consumed, so the stream stays in sync and the
    peer can simply be told about the bad message.
    """


class OversizedFrameError(FrameError):
    """A length header past :data:`MAX_FRAME_BYTES`.

    Distinguished from other framing failures because a server can
    still *reply* before closing: the header was read in full, so the
    socket's send direction is intact even though the unread payload
    poisons the receive direction.  The serving loop answers with a
    structured ``error`` frame and then closes deterministically.
    """


# ----------------------------------------------------------------------
# Request / result <-> wire dicts
# ----------------------------------------------------------------------
def requests_to_wire(requests: Sequence[Union[QueryRequest,
                                              Sequence[Any]]]
                     ) -> List[Dict[str, Any]]:
    """Requests (typed or legacy tuples) -> wire dicts.

    Unknown kinds and malformed shapes are shipped as-is (kind
    ``"?"`` for unrecognizable ones): the *server* answers them with
    per-request errors, so one bad request cannot abort a remote
    batch any more than a local one.
    """
    wire: List[Dict[str, Any]] = []
    for position, request in enumerate(requests):
        if isinstance(request, QueryRequest):
            rid = request.id if request.id is not None else position
            wire.append({"id": rid, "kind": request.kind.value,
                         "args": list(request.args)})
            continue
        if isinstance(request, str):
            request = (request,)
        items = list(request)
        kind = items[0] if items else "?"
        kind = kind.value if isinstance(kind, QueryKind) else str(kind)
        wire.append({"id": position, "kind": kind, "args": items[1:]})
    return wire


def _entries(wire: Any, what: str) -> List[Dict[str, Any]]:
    """Check a frame's entry list: a list of dicts with ``int`` ids."""
    if not isinstance(wire, list):
        raise WireError(f"{what} must be a list, got "
                        f"{type(wire).__name__}")
    for entry in wire:
        if not isinstance(entry, dict):
            raise WireError(f"{what} entries must be objects, got "
                            f"{type(entry).__name__}")
        if type(entry.get("id")) is not int:
            raise WireError(f"{what} entry id must be an int, got "
                            f"{entry.get('id')!r}")
    return wire


def wire_to_requests(wire: Any) -> List[Tuple[int, Tuple[Any, ...]]]:
    """Wire dicts -> ``(client_id, legacy_tuple)`` pairs.

    The tuples feed straight into the server-side planner (non-strict
    mode), which turns unknown kinds into per-request errors; the
    client ids are echoed back on the results, preserving request
    identity across the socket.  A malformed frame — ``requests`` not
    a list, an entry that is not an object or lacks an ``int`` id,
    ``args`` not a list — raises :class:`WireError`, which a server
    answers with an ``error`` reply addressed to the frame.
    """
    decoded: List[Tuple[int, Tuple[Any, ...]]] = []
    for entry in _entries(wire, "batch requests"):
        args = entry.get("args", [])
        if not isinstance(args, list):
            raise WireError(f"request args must be a list, got "
                            f"{type(args).__name__}")
        try:
            values = [_ensure_value(arg) for arg in args]
        except RecursionError:
            raise WireError("request args nest too deeply") from None
        decoded.append((entry["id"], (entry.get("kind", "?"), *values)))
    return decoded


def results_to_wire(results: Sequence[QueryResult]
                    ) -> List[Dict[str, Any]]:
    """Results -> wire dicts (``value`` xor ``error``)."""
    wire: List[Dict[str, Any]] = []
    for result in results:
        entry: Dict[str, Any] = {"id": result.id}
        if result.error is not None:
            entry["error"] = result.error
        else:
            entry["value"] = result.value
        wire.append(entry)
    return wire


def results_from_wire(wire: Any) -> List[QueryResult]:
    """Wire dicts -> :class:`QueryResult` objects.

    A malformed reply (not a list, an entry without an ``int`` id, a
    non-string ``error``) raises :class:`WireError`.
    """
    results: List[QueryResult] = []
    for entry in _entries(wire, "results"):
        error = entry.get("error")
        if error is not None and not isinstance(error, str):
            raise WireError(f"result error must be a string, got "
                            f"{type(error).__name__}")
        results.append(QueryResult(id=entry["id"],
                                   value=_ensure_value(entry.get("value")),
                                   error=error))
    return results


def _ensure_value(value: Any) -> Any:
    """Reject wire values outside the §V answer vocabulary."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list):
        return [_ensure_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _ensure_value(item)
                for key, item in value.items()}
    raise WireError(f"unsupported wire value type "
                    f"{type(value).__name__}")


# ----------------------------------------------------------------------
# Message <-> bytes
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any],
                 seq: Optional[int] = None) -> bytes:
    """One message -> one frame payload, optionally sequence-tagged.

    ``seq=None`` produces the classic untagged frame; an integer
    produces the pipelined variant (lowercase tag, uvarint sequence
    id before the payload).  A value JSON cannot carry raises
    :class:`WireError` naming its type.
    """
    try:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"cannot encode message: {exc}") from None
    if seq is None:
        return bytes([_TAG_JSON]) + body
    if seq < 0:
        raise WireError(f"sequence id must be >= 0, got {seq}")
    head = bytearray([_TAG_JSON_SEQ])
    write_uvarint(head, seq)
    return bytes(head) + body


def decode_frame(payload: bytes
                 ) -> Tuple[Optional[int], Dict[str, Any]]:
    """One frame payload -> ``(sequence id or None, message dict)``.

    Decode failures *after* the sequence id was read carry it on the
    exception's ``seq`` attribute, so a server can still address its
    error reply to the offending request.
    """
    if not payload:
        raise WireError("empty frame")
    tag = payload[0]
    seq: Optional[int] = None
    pos = 1
    if tag == _TAG_JSON_SEQ:
        try:
            seq, pos = read_uvarint(payload, 1)
        except ReproError:
            raise WireError("truncated sequence tag") from None
    elif tag != _TAG_JSON:
        raise WireError(f"unknown frame tag {tag:#x}")
    try:
        return seq, _decode_json(payload[pos:])
    except WireError as exc:
        exc.seq = seq
        raise


def _decode_json(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise WireError(f"bad JSON frame: {exc}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise WireError("JSON frame is not an op message")
    return message


# ----------------------------------------------------------------------
# Socket framing
# ----------------------------------------------------------------------
def frame_bytes(message: Dict[str, Any],
                seq: Optional[int] = None) -> bytes:
    """One message -> the complete wire frame (length prefix included)."""
    payload = encode_frame(message, seq=seq)
    return _LENGTH.pack(len(payload)) + payload


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Encode and write one length-prefixed untagged frame."""
    sock.sendall(frame_bytes(message))


def send_frame(sock: socket.socket, message: Dict[str, Any],
               seq: Optional[int] = None) -> None:
    """Encode and write one frame, sequence-tagged when ``seq`` is set."""
    sock.sendall(frame_bytes(message, seq=seq))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean boundary close.

    A peer that vanishes *inside* the read is a wire failure, not a
    close: truncating a frame and truncating a conversation must not
    look alike, so the partial read raises :class:`FrameError`.
    """
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise FrameError(f"connection closed mid-frame "
                             f"({len(chunks)}/{count} bytes read)")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame's message; ``None`` on a clean peer close."""
    received = recv_frame(sock)
    return None if received is None else received[1]


def recv_frame(sock: socket.socket
               ) -> Optional[Tuple[Optional[int], Dict[str, Any]]]:
    """Read one frame; ``(seq, message)``, or ``None`` on a clean close.

    Only a connection that dies exactly on a frame boundary is a
    clean close; a death mid-header or mid-payload raises
    :class:`FrameError`, and an over-limit length header raises
    :class:`OversizedFrameError` (the payload is left unread — the
    stream is desynchronized and must be closed).
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame (header read, "
                         "payload missing)")
    return decode_frame(payload)


# ----------------------------------------------------------------------
# Addresses ("host:port" or "unix:/path")
# ----------------------------------------------------------------------
def parse_address(address: Union[str, Tuple[str, int]]
                  ) -> Tuple[str, Union[Tuple[str, int], str]]:
    """``(family, target)`` where family is ``"tcp"`` or ``"unix"``."""
    if isinstance(address, tuple):
        host, port = address
        return "tcp", (host, int(port))
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        raise WireError(f"bad address {address!r}; expected "
                        f"'host:port' or 'unix:/path'")
    return "tcp", (host or "127.0.0.1", int(port))


def connect_socket(address: Union[str, Tuple[str, int]],
                   timeout: Optional[float] = None) -> socket.socket:
    """Connect to a serving endpoint of either family."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if timeout is not None:
            sock.settimeout(timeout)
        sock.connect(target)
    else:
        sock = socket.create_connection(target, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def bind_socket(address: Union[str, Tuple[str, int]]
                ) -> Tuple[socket.socket, str]:
    """Bind + listen; returns ``(listener, canonical endpoint)``."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(target)
        endpoint = f"unix:{target}"
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
        host, port = sock.getsockname()[:2]
        endpoint = f"{host}:{port}"
    sock.listen(64)
    return sock, endpoint
