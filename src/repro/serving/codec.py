"""The wire codec: framed JSON or binary messages over a socket.

Every conversation in the serving stack — client to router, router to
shard server — exchanges *messages*: plain dicts with an ``"op"`` key
(``batch`` / ``results`` / ``info`` / ``info_reply`` / ``ping`` /
``pong`` / ``error``).  A message travels as one *frame*::

    4-byte big-endian payload length | 1 tag byte | payload

The tag selects the codec — ``J`` for JSON (debuggable, the default)
or ``B`` for the compact binary form — so both ends of a connection
can speak either encoding per message and a reader never guesses.

Pipelined conversations use the *sequence-tagged* frame variant: the
lowercase tags ``j``/``b`` prefix the payload with a client-assigned
sequence id (one uvarint)::

    4-byte length | 'j' or 'b' | uvarint sequence id | payload

A server echoes each reply under the request's sequence id, so many
frames can be in flight on one connection and the client correlates
answers in whatever order the server finishes them.  Untagged frames
remain fully supported — a reader dispatches per frame on the tag
byte, so old strict request–response clients and new multiplexing
ones share a wire format (and a server) without negotiation.

The binary codec reuses the container format's uvarint machinery
(:mod:`repro.util.varint`): kinds travel as short strings (forward
compatible — an unknown kind becomes a per-request error, not a
decode failure), integers as zigzag uvarints, and structured values
(lists, the degree-extrema dict, ``path``'s ``None``) as a small
tagged value grammar.  Round-tripping is exact for every value the
§V query family produces, which is what the executor conformance
suite holds bit-identical.

Nothing here touches grammars or handles: the codec is pure bytes,
so it is testable (and fuzzable) in isolation.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import EncodingError, ReproError
from repro.serving.protocol import QueryKind, QueryRequest, QueryResult
from repro.util.varint import read_uvarint, write_uvarint

__all__ = [
    "CODECS",
    "ConnectionLost",
    "FrameError",
    "OversizedFrameError",
    "RequestTimeout",
    "WireError",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
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

#: Supported codec names (the tag byte is the first letter).
CODECS = ("json", "binary")

_LENGTH = struct.Struct("!I")
#: Refuse absurd frames instead of allocating unbounded buffers.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_TAG_JSON = 0x4A   # 'J'
_TAG_BINARY = 0x42  # 'B'
#: Sequence-tagged variants: the lowercase tag, then a uvarint
#: sequence id, then the same payload the uppercase tag carries.
_TAG_SEQ_OFFSET = 0x20
_TAG_JSON_SEQ = _TAG_JSON + _TAG_SEQ_OFFSET     # 'j'
_TAG_BINARY_SEQ = _TAG_BINARY + _TAG_SEQ_OFFSET  # 'b'

_OPS = ("batch", "results", "info", "info_reply", "ping", "pong",
        "error", "shutdown")
_OP_CODES = {name: code for code, name in enumerate(_OPS)}


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
# Request / result <-> wire dicts (shared by both codecs)
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


def wire_to_requests(wire: Sequence[Dict[str, Any]]
                     ) -> List[Tuple[int, Tuple[Any, ...]]]:
    """Wire dicts -> ``(client_id, legacy_tuple)`` pairs.

    The tuples feed straight into the server-side planner (non-strict
    mode), which turns unknown kinds into per-request errors; the
    client ids are echoed back on the results, preserving request
    identity across the socket.
    """
    decoded: List[Tuple[int, Tuple[Any, ...]]] = []
    for entry in wire:
        args = entry.get("args", [])
        if not isinstance(args, list):
            raise WireError(f"request args must be a list, got "
                            f"{type(args).__name__}")
        decoded.append((int(entry["id"]),
                        (entry.get("kind", "?"),
                         *(_ensure_value(arg) for arg in args))))
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


def results_from_wire(wire: Sequence[Dict[str, Any]]
                      ) -> List[QueryResult]:
    """Wire dicts -> :class:`QueryResult` objects."""
    return [QueryResult(id=int(entry["id"]),
                        value=_ensure_value(entry.get("value")),
                        error=entry.get("error"))
            for entry in wire]


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
def encode_message(message: Dict[str, Any], codec: str = "json"
                   ) -> bytes:
    """One message dict -> one framed payload (without the length)."""
    return encode_frame(message, codec)


def encode_frame(message: Dict[str, Any], codec: str = "json",
                 seq: Optional[int] = None) -> bytes:
    """One message -> one frame payload, optionally sequence-tagged.

    ``seq=None`` produces the classic untagged frame; an integer
    produces the pipelined variant (lowercase tag, uvarint sequence
    id before the payload).
    """
    if codec == "json":
        tag, body = _TAG_JSON, json.dumps(
            message, separators=(",", ":")).encode("utf-8")
    elif codec == "binary":
        tag, body = _TAG_BINARY, _encode_binary(message)
    else:
        raise WireError(f"unknown codec {codec!r}; expected one of "
                        f"{CODECS}")
    if seq is None:
        return bytes([tag]) + body
    if seq < 0:
        raise WireError(f"sequence id must be >= 0, got {seq}")
    head = bytearray([tag + _TAG_SEQ_OFFSET])
    write_uvarint(head, seq)
    return bytes(head) + body


def decode_message(payload: bytes) -> Dict[str, Any]:
    """One frame payload -> the message dict (tag-dispatched).

    Accepts both untagged and sequence-tagged frames; callers that
    need the sequence id use :func:`decode_frame`.
    """
    return decode_frame(payload)[1]


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
    if tag in (_TAG_JSON_SEQ, _TAG_BINARY_SEQ):
        try:
            seq, pos = read_uvarint(payload, 1)
        except ReproError:
            raise WireError("truncated sequence tag") from None
        tag -= _TAG_SEQ_OFFSET
    try:
        if tag == _TAG_JSON:
            return seq, _decode_json(payload[pos:])
        if tag == _TAG_BINARY:
            return seq, _decode_binary(payload[pos:])
    except WireError as exc:
        exc.seq = seq
        raise
    raise WireError(f"unknown frame tag {payload[0]:#x}")


def _decode_json(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad JSON frame: {exc}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise WireError("JSON frame is not an op message")
    return message


# ----------------------------------------------------------------------
# The binary codec
# ----------------------------------------------------------------------
# Value grammar, one tag byte each:
_V_NONE, _V_TRUE, _V_FALSE, _V_INT, _V_STR, _V_LIST, _V_DICT = range(7)


def _zigzag(value: int) -> int:
    # ~(value << 1) is exact for arbitrary-precision negatives (the
    # C idiom `x >> 63` is not — Python ints are unbounded).
    return ~(value << 1) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out.extend(raw)


def _read_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise WireError("truncated string")
    return data[pos:end].decode("utf-8"), end


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif isinstance(value, int):
        if not -(2 ** 63) <= value < 2 ** 63:
            # The container's uvarint reader is 64-bit bounded; fail
            # at encode time instead of emitting undecodable bytes
            # (JSON carries arbitrary precision if anyone needs it).
            raise WireError(f"integer {value} out of the binary "
                            f"codec's 64-bit range")
        out.append(_V_INT)
        write_uvarint(out, _zigzag(value))
    elif isinstance(value, str):
        out.append(_V_STR)
        _write_str(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(_V_LIST)
        write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.append(_V_DICT)
        write_uvarint(out, len(value))
        for key, item in value.items():
            _write_str(out, str(key))
            _write_value(out, item)
    else:
        raise WireError(f"unsupported wire value type "
                        f"{type(value).__name__}")


def _read_value(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_INT:
        raw, pos = read_uvarint(data, pos)
        return _unzigzag(raw), pos
    if tag == _V_STR:
        return _read_str(data, pos)
    if tag == _V_LIST:
        count, pos = read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _V_DICT:
        count, pos = read_uvarint(data, pos)
        mapping: Dict[str, Any] = {}
        for _ in range(count):
            key, pos = _read_str(data, pos)
            mapping[key], pos = _read_value(data, pos)
        return mapping, pos
    raise WireError(f"unknown value tag {tag:#x}")


def _encode_binary(message: Dict[str, Any]) -> bytes:
    op = message.get("op")
    code = _OP_CODES.get(op)
    if code is None:
        raise WireError(f"unknown message op {op!r}")
    out = bytearray([code])
    if op == "batch":
        requests = message.get("requests", [])
        write_uvarint(out, len(requests))
        for entry in requests:
            write_uvarint(out, int(entry["id"]))
            _write_str(out, entry["kind"])
            args = entry.get("args", [])
            write_uvarint(out, len(args))
            for arg in args:
                _write_value(out, arg)
    elif op == "results":
        results = message.get("results", [])
        write_uvarint(out, len(results))
        for entry in results:
            write_uvarint(out, int(entry["id"]))
            error = entry.get("error")
            if error is not None:
                out.append(1)
                _write_str(out, error)
            else:
                out.append(0)
                _write_value(out, entry.get("value"))
    elif op in ("info_reply", "error"):
        _write_value(out, {key: value for key, value in message.items()
                           if key != "op"})
    # ping / pong / info / shutdown carry no payload.
    return bytes(out)


def _decode_binary(data: bytes) -> Dict[str, Any]:
    try:
        if not data:
            raise WireError("empty binary message")
        code = data[0]
        if code >= len(_OPS):
            raise WireError(f"unknown op code {code}")
        op = _OPS[code]
        pos = 1
        if op == "batch":
            count, pos = read_uvarint(data, pos)
            requests = []
            for _ in range(count):
                rid, pos = read_uvarint(data, pos)
                kind, pos = _read_str(data, pos)
                argc, pos = read_uvarint(data, pos)
                args = []
                for _ in range(argc):
                    arg, pos = _read_value(data, pos)
                    args.append(arg)
                requests.append({"id": rid, "kind": kind, "args": args})
            return {"op": op, "requests": requests}
        if op == "results":
            count, pos = read_uvarint(data, pos)
            results = []
            for _ in range(count):
                rid, pos = read_uvarint(data, pos)
                flag = data[pos]
                pos += 1
                if flag:
                    error, pos = _read_str(data, pos)
                    results.append({"id": rid, "error": error})
                else:
                    value, pos = _read_value(data, pos)
                    results.append({"id": rid, "value": value})
            return {"op": op, "results": results}
        if op in ("info_reply", "error"):
            payload, pos = _read_value(data, pos)
            if not isinstance(payload, dict):
                raise WireError(f"{op} payload must be a dict")
            payload["op"] = op
            return payload
        return {"op": op}
    except (IndexError, ValueError, EncodingError) as exc:
        raise WireError(f"corrupt binary message: {exc}") from None


# ----------------------------------------------------------------------
# Socket framing
# ----------------------------------------------------------------------
def frame_bytes(message: Dict[str, Any], codec: str = "json",
                seq: Optional[int] = None) -> bytes:
    """One message -> the complete wire frame (length prefix included)."""
    payload = encode_frame(message, codec, seq=seq)
    return _LENGTH.pack(len(payload)) + payload


def send_message(sock: socket.socket, message: Dict[str, Any],
                 codec: str = "json") -> None:
    """Encode and write one length-prefixed untagged frame."""
    sock.sendall(frame_bytes(message, codec))


def send_frame(sock: socket.socket, message: Dict[str, Any],
               codec: str = "json", seq: Optional[int] = None) -> None:
    """Encode and write one frame, sequence-tagged when ``seq`` is set."""
    sock.sendall(frame_bytes(message, codec, seq=seq))


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
