"""Async pipelined serving: tagged frames, the multiplexing client.

The wire-layer hardening pass and the pipelined front end, pinned:

* the **sequence-tagged frame variant** (the lowercase ``j`` tag)
  round-trips and coexists with untagged frames;
* **truncated frames** raise :class:`FrameError` instead of
  masquerading as clean closes (only a death exactly on a frame
  boundary is a clean EOF);
* the **multiplexing client**: interleaved replies resolve to the
  correct futures under a deliberately reordering mock server, a
  reply to a never-issued sequence id poisons the connection with a
  clean raise, and a server killed mid-batch fails every pending
  future instead of hanging;
* **pipelined answers are bit-identical** to strict and in-process
  evaluation, and legacy untagged clients keep their strict
  request–response contract against the event-loop server;
* **malformed frames** — a ``batch`` whose shape is wrong, or a frame
  with an unknown tag byte — get a structured ``error`` reply
  addressed to the frame, and the connection keeps serving.

Every test here carries a hard SIGALRM timeout (see
``tests/conftest.py``): a hung event loop fails fast instead of
stalling the suite.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import ReproError
from repro.serving import GraphClient, serve
from repro.serving.codec import (
    MAX_FRAME_BYTES,
    FrameError,
    OversizedFrameError,
    WireError,
    bind_socket,
    connect_socket,
    decode_frame,
    encode_frame,
    frame_bytes,
    recv_frame,
    send_frame,
)

pytestmark = pytest.mark.timeout(60)


# ----------------------------------------------------------------------
# Sequence-tagged frames (pure codec, no sockets)
# ----------------------------------------------------------------------
@pytest.mark.smoke
class TestSequenceTaggedFrames:
    @pytest.mark.parametrize("seq", (0, 1, 127, 128, 3 * 10 ** 5))
    def test_round_trip_preserves_the_sequence_id(self, seq):
        message = {"op": "results",
                   "results": [{"id": 0, "value": [1, 2, 3]}]}
        payload = encode_frame(message, seq=seq)
        assert payload[0:1] == b"j"  # the lowercase tag
        assert decode_frame(payload) == (seq, message)

    def test_untagged_frames_decode_with_no_sequence_id(self):
        payload = encode_frame({"op": "ping"})
        assert payload[0:1] == b"J"
        assert decode_frame(payload) == (None, {"op": "ping"})

    def test_negative_sequence_id_is_rejected(self):
        with pytest.raises(WireError, match=">= 0"):
            encode_frame({"op": "ping"}, seq=-1)

    def test_truncated_sequence_tag(self):
        # A lowercase tag followed by an unterminated uvarint.
        with pytest.raises(WireError, match="truncated sequence tag"):
            decode_frame(bytes([ord("j"), 0x80]))

    def test_decode_failure_carries_the_sequence_id(self):
        """A bad payload *after* the sequence id still tells the
        server which request to address its error reply to."""
        payload = bytes([ord("j"), 42]) + b"not json"
        with pytest.raises(WireError) as excinfo:
            decode_frame(payload)
        assert excinfo.value.seq == 42


# ----------------------------------------------------------------------
# Truncated frames over real sockets (the _recv_exact regression)
# ----------------------------------------------------------------------
@pytest.mark.smoke
class TestTruncatedFrames:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5)
        b.settimeout(5)
        return a, b

    def test_clean_close_on_a_frame_boundary_is_none(self):
        a, b = self._pair()
        send_frame(a, {"op": "ping"}, seq=7)
        a.close()
        assert recv_frame(b) == (7, {"op": "ping"})
        assert recv_frame(b) is None  # boundary death = clean EOF
        b.close()

    def test_death_mid_header_raises_frame_error(self):
        """The regression: a peer vanishing inside the length header
        used to decode as ``None`` — indistinguishable from a clean
        close, silently dropping the truncation."""
        a, b = self._pair()
        a.sendall(b"\x00\x00")  # half a length header
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_death_mid_payload_raises_frame_error(self):
        a, b = self._pair()
        frame = frame_bytes({"op": "info"}, seq=3)
        a.sendall(frame[:-2])  # everything but the last two bytes
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_oversized_header_raises_its_own_error(self):
        a, b = self._pair()
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(OversizedFrameError, match="exceeds"):
            recv_frame(b)
        a.close()
        b.close()


# ----------------------------------------------------------------------
# A scriptable mock server (exact control over reply order and death)
# ----------------------------------------------------------------------
class MockServer:
    """Accepts one connection and hands it to a scenario callback."""

    def __init__(self, scenario):
        self._listener, self.endpoint = bind_socket("127.0.0.1:0")
        self.error = None

        def main():
            conn, _ = self._listener.accept()
            try:
                scenario(conn)
            except Exception as exc:  # surfaced by the test
                self.error = exc
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

        self._thread = threading.Thread(target=main, daemon=True)
        self._thread.start()

    def join(self, timeout=5):
        self._thread.join(timeout)

    def close(self):
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _echo_results(conn, seq, message):
    """Answer one batch frame: value = 10 * first argument."""
    results = [{"id": entry["id"], "value": entry["args"][0] * 10}
               for entry in message["requests"]]
    send_frame(conn, {"op": "results", "results": results}, seq=seq)


class TestMultiplexingClient:
    def test_reordered_replies_resolve_the_correct_futures(self):
        """The server answers the second in-flight batch first; each
        future must still get *its* answer, keyed by sequence id."""
        arrived = threading.Event()

        def scenario(conn):
            frames = []
            for _ in range(2):
                frames.append(recv_frame(conn))
            arrived.set()
            for seq, message in reversed(frames):  # deliberate reorder
                _echo_results(conn, seq, message)

        with MockServer(scenario) as server:
            with GraphClient(server.endpoint, pipeline=True) as client:
                first = client.execute_async([("out", 1)])
                second = client.execute_async([("out", 2)])
                assert arrived.wait(5)
                assert second.result(5)[0].value == 20
                assert first.result(5)[0].value == 10
            server.join()
            assert server.error is None

    def test_reply_to_a_never_issued_sequence_id_raises(self):
        """A reply whose sequence id was never issued is a protocol
        violation: the pending future raises cleanly and the
        connection is poisoned for every later call."""

        def scenario(conn):
            seq, message = recv_frame(conn)
            _echo_results(conn, seq + 1000, message)
            recv_frame(conn)  # hold the socket open until the fault

        with MockServer(scenario) as server:
            client = GraphClient(server.endpoint, pipeline=True)
            try:
                future = client.execute_async([("out", 1)])
                with pytest.raises(WireError,
                                   match="never issued"):
                    future.result(5)
                with pytest.raises(WireError, match="never issued"):
                    client.execute([("out", 2)])
            finally:
                client.close()

    def test_server_death_mid_batch_fails_pending_futures(self):
        """A server that dies with requests in flight must fail every
        pending future promptly — not leave callers hung."""

        def scenario(conn):
            recv_frame(conn)  # swallow the batch, answer nothing

        with MockServer(scenario) as server:
            client = GraphClient(server.endpoint, pipeline=True)
            try:
                future = client.execute_async([("out", 1)])
                server.join()  # scenario returns -> connection closes
                with pytest.raises(WireError,
                                   match="in flight"):
                    future.result(10)
            finally:
                client.close()

    def test_reply_truncated_mid_frame_fails_the_future(self):
        """A server dying *inside* a reply frame is a wire failure on
        the client too — the FrameError reaches the future."""

        def scenario(conn):
            seq, message = recv_frame(conn)
            frame = frame_bytes({"op": "results", "results": []},
                                seq=seq)
            conn.sendall(frame[:-1])  # all but the last byte

        with MockServer(scenario) as server:
            client = GraphClient(server.endpoint, pipeline=True)
            try:
                future = client.execute_async([("out", 1)])
                server.join()
                with pytest.raises(FrameError, match="mid-frame"):
                    future.result(10)
            finally:
                client.close()

    def test_untagged_fatal_error_fails_the_connection(self):
        """An untagged ``error`` frame (the server's oversized-frame
        verdict) is connection-level: every pending future fails with
        the server's message."""

        def scenario(conn):
            recv_frame(conn)
            send_frame(conn, {"op": "error",
                              "message": "frame too large",
                              "fatal": True})

        with MockServer(scenario) as server:
            client = GraphClient(server.endpoint, pipeline=True)
            try:
                future = client.execute_async([("out", 1)])
                with pytest.raises(WireError, match="frame too large"):
                    future.result(10)
            finally:
                client.close()

    def test_per_request_errors_stay_per_request(self):
        """An error frame addressed to one sequence id fails only
        that future; others on the same connection still resolve."""

        def scenario(conn):
            for _ in range(2):
                seq, message = recv_frame(conn)
                if message["requests"][0]["args"][0] == 1:
                    send_frame(conn, {"op": "error",
                                      "message": "nope"}, seq=seq)
                else:
                    _echo_results(conn, seq, message)

        with MockServer(scenario) as server:
            with GraphClient(server.endpoint, pipeline=True) as client:
                bad = client.execute_async([("out", 1)])
                good = client.execute_async([("out", 2)])
                assert good.result(5)[0].value == 20
                with pytest.raises(WireError, match="nope"):
                    bad.result(5)

    def test_pool_size_needs_pipelining(self):
        with pytest.raises(ReproError, match="pipeline=True"):
            GraphClient("127.0.0.1:1", pool_size=4)

    def test_execute_async_needs_pipelining(self):
        client = GraphClient("127.0.0.1:1")  # never connects
        with pytest.raises(ReproError, match="pipeline"):
            client.execute_async([("out", 1)])


# ----------------------------------------------------------------------
# Against the real event-loop server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_server():
    graph, alphabet = SMOKE_CORPORA["er-random"]()
    handle = ShardedCompressedGraph.compress(graph, alphabet, shards=2,
                                             validate=False)
    with serve(handle.to_bytes(), cache_size=0) as server:
        yield handle, server


def _mixed_requests(total, count=60, seed=11):
    import random
    rng = random.Random(seed)
    requests = [("degree",), ("components",), ("nodes",), ("edges",)]
    for _ in range(count):
        kind = rng.choice(["out", "in", "neighborhood", "reach",
                           "degree", "path"])
        if kind in ("reach", "path"):
            requests.append((kind, rng.randint(1, min(total, 25)),
                             rng.randint(1, total)))
        else:
            requests.append((kind, rng.randint(1, min(total, 50))))
    return requests


@pytest.mark.smoke
class TestPipelinedServing:
    def test_pipelined_answers_are_bit_identical(self, sharded_server):
        """Conformance under pipelining: strict client, pipelined
        client (pool of 1 and of 3) and the in-process handle agree
        value-for-value *and* type-for-type on the full §V family."""
        handle, server = sharded_server
        requests = _mixed_requests(handle.node_count())
        reference = [result.value for result in
                     handle.execute(requests)]
        with server.connect() as strict, \
                server.connect(pipeline=True) as mux, \
                server.connect(pipeline=True, pool_size=3) as pooled:
            for client in (strict, mux, pooled):
                answers = [result.value
                           for result in client.execute(requests)]
                assert answers == reference
                for expected, actual in zip(reference, answers):
                    assert type(actual) is type(expected)

    def test_many_overlapping_windows_per_connection(self,
                                                     sharded_server):
        """The tentpole shape: many in-flight batches on one
        connection, answered as each completes, all correct."""
        handle, server = sharded_server
        requests = _mixed_requests(handle.node_count(), count=20,
                                   seed=29)
        expected = handle.batch(requests)
        with server.connect(pipeline=True) as client:
            futures = [client.execute_async(requests)
                       for _ in range(24)]
            for future in futures:
                assert [result.unwrap()
                        for result in future.result(30)] == expected

    def test_slow_batch_does_not_block_fast_ones(self, sharded_server):
        """Head-of-line blocking is gone: a ping issued *after* a
        large in-flight batch completes without waiting for it."""
        handle, server = sharded_server
        total = handle.node_count()
        heavy = [("reach", source % total + 1, target % total + 1)
                 for source in range(40) for target in range(25)]
        with server.connect(pipeline=True) as client:
            slow = client.execute_async(heavy)
            assert client.ping()  # resolves while `slow` is in flight
            assert all(result.ok for result in slow.result(60))

    def test_legacy_untagged_clients_still_served(self, sharded_server):
        """Back-compat: the strict client speaks untagged frames to
        the same event-loop server and sees the legacy contract."""
        handle, server = sharded_server
        with server.connect() as client:
            assert not client.pipeline
            assert client.ping()
            assert client.query("out", 1) == handle.out(1)

    def test_info_and_ping_over_the_pipelined_client(self,
                                                     sharded_server):
        _, server = sharded_server
        with server.connect(pipeline=True) as client:
            assert client.ping()
            assert client.info()["shards"] == 2

    def test_round_trips_counted_across_the_pool(self, sharded_server):
        _, server = sharded_server
        with server.connect(pipeline=True, pool_size=2) as client:
            before = client.round_trips
            client.query("out", 1)
            client.query("out", 2)
            assert client.round_trips == before + 2

    def test_single_grammar_server_pipelines_too(self):
        graph, alphabet = SMOKE_CORPORA["communication"]()
        handle = CompressedGraph.compress(graph, alphabet,
                                          validate=False)
        requests = _mixed_requests(handle.node_count(), count=30)
        expected = handle.batch(requests)
        with serve(handle.to_bytes(), pipeline=8) as server:
            with server.connect(pipeline=True) as client:
                futures = [client.execute_async(requests)
                           for _ in range(6)]
                for future in futures:
                    assert [result.unwrap()
                            for result in future.result(30)] == expected


@pytest.mark.smoke
class TestServerKilledMidBatch:
    def test_shard_death_surfaces_as_error_not_hang(self):
        """Kill the shard processes under a served router: an
        in-flight client batch must come back as **per-request
        structured errors** — never a hang, never a batch abort."""
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, validate=False)
        requests = [("out", node) for node in range(1, 30)]
        with serve(handle.to_bytes(), cache_size=0) as server:
            with server.connect(pipeline=True, timeout=20) as client:
                assert client.execute(requests)  # healthy first
                for process in server._processes:
                    process.kill()
                for process in server._processes:
                    process.join(timeout=5)
                results = client.execute(requests)
                assert len(results) == len(requests)
                assert all(result.error for result in results)
                assert any("unavailable" in result.error
                           for result in results)


# ----------------------------------------------------------------------
# Malformed frames against the event-loop server (raw sockets)
# ----------------------------------------------------------------------
_WELL_FORMED = {"op": "batch",
                "requests": [{"id": 0, "kind": "out", "args": [1]}]}


@pytest.mark.smoke
class TestMalformedFrames:
    """Every malformed frame gets a structured ``error`` reply under
    its own sequence id, and the next well-formed frame on the same
    connection is answered (no silent hang, no dropped link)."""

    @pytest.mark.parametrize("seq", [None, 5], ids=["untagged", "tagged"])
    @pytest.mark.parametrize("requests", [
        [{"kind": "out", "args": [1]}],
        [{"id": "0", "kind": "out", "args": [1]}],
        [["out", 1]],
        {"id": 0, "kind": "out", "args": [1]},
    ], ids=["no-id", "str-id", "not-a-dict", "not-a-list"])
    def test_malformed_batch_is_answered(self, sharded_server,
                                         requests, seq):
        handle, server = sharded_server
        with connect_socket(server.endpoint, timeout=5) as sock:
            send_frame(sock, {"op": "batch", "requests": requests},
                       seq=seq)
            reply_seq, reply = recv_frame(sock)
            assert reply_seq == seq
            assert reply["op"] == "error"
            assert "batch requests" in reply["message"]
            send_frame(sock, _WELL_FORMED, seq=seq)
            reply_seq, reply = recv_frame(sock)
            assert reply_seq == seq
            assert reply == {"op": "results",
                             "results": [{"id": 0,
                                          "value": handle.out(1)}]}

    @pytest.mark.parametrize("depth", [100_000, 900],
                             ids=["frame", "args"])
    def test_deeply_nested_frame_is_answered(self, sharded_server,
                                             depth):
        """Nesting past the decoder's (or the value check's) recursion
        limit is a malformed frame too, not a dropped connection."""
        handle, server = sharded_server
        nested = "[" * depth + "]" * depth
        body = ('{"op":"batch","requests":[{"id":0,"kind":"out",'
                f'"args":[{nested}]}}]}}').encode()
        with connect_socket(server.endpoint, timeout=5) as sock:
            sock.sendall(struct.pack("!I", len(body) + 1) + b"J" + body)
            reply_seq, reply = recv_frame(sock)
            assert reply["op"] == "error"
            sock.sendall(frame_bytes(_WELL_FORMED))
            assert recv_frame(sock)[1]["results"][0]["value"] == \
                handle.out(1)

    @pytest.mark.parametrize("tag", [b"B", b"b\x05"], ids=["B", "b"])
    def test_unknown_tag_is_answered(self, sharded_server, tag):
        handle, server = sharded_server
        body = b'{"op":"ping"}'
        with connect_socket(server.endpoint, timeout=5) as sock:
            sock.sendall(struct.pack("!I", len(tag) + len(body))
                         + tag + body)
            reply_seq, reply = recv_frame(sock)
            assert reply_seq is None
            assert reply["op"] == "error"
            assert "unknown frame tag" in reply["message"]
            sock.sendall(frame_bytes(_WELL_FORMED))
            assert recv_frame(sock)[1]["results"][0]["value"] == \
                handle.out(1)
