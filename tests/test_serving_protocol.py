"""The typed query protocol: requests, planning, codec, error channel.

Covers the serving substrate in isolation from sockets and processes:

* request normalization (typed objects, ``(kind, *args)`` tuples, one
  spelling per kind);
* the planner — dedup, unhashable arguments, cache pre-filtering and
  bulk insertion (the cache-aware-planning satellite, asserted via
  ``cache_info`` counters on both handle types);
* the wire codec — JSON round trips for every value shape the §V
  family produces, the pinned frame bytes, framing over a real socket
  pair, and corruption and malformed-frame handling;
* the per-request error channel — the regression suite for the old
  abort-the-batch-on-first-error behavior.
"""

from __future__ import annotations

import socket

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import QueryError
from repro.queries.cache import QueryCache
from repro.serving import (
    QueryKind,
    QueryRequest,
    QueryResult,
    ThreadExecutor,
    WireError,
    normalize_request,
    plan_batch,
)
from repro.serving.codec import (
    decode_frame,
    encode_frame,
    frame_bytes,
    recv_message,
    requests_to_wire,
    results_from_wire,
    results_to_wire,
    send_message,
    wire_to_requests,
)

from helpers import theta_graph


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
class TestNormalize:
    def test_legacy_tuple(self):
        request = normalize_request(("reach", 1, 9), 4)
        assert request.kind is QueryKind.REACH
        assert request.args == (1, 9)
        assert request.id == 4
        assert request.key == ("reach", 1, 9)

    @pytest.mark.parametrize("alias,kind", [
        ("out", QueryKind.OUT), ("out_neighbors", QueryKind.OUT),
        ("in", QueryKind.IN), ("in_", QueryKind.IN),
        ("neighbors", QueryKind.NEIGHBORHOOD),
        ("connected_components", QueryKind.COMPONENTS),
        ("node_count", QueryKind.NODES),
        ("edge_count", QueryKind.EDGES),
    ])
    def test_one_spelling_per_kind(self, alias, kind):
        """A kind's own value is its only wire spelling; the former
        method-name aliases are unknown kinds."""
        if alias == kind.value:
            assert normalize_request((alias, 1)).kind is kind
        else:
            with pytest.raises(QueryError, match="unknown batch query"):
                normalize_request((alias, 1))

    @pytest.mark.parametrize("kind", [["x"], {"k": 1}, None, 7])
    def test_unhashable_or_foreign_kind_is_a_query_error(self, kind):
        with pytest.raises(QueryError, match="unknown batch query"):
            normalize_request((kind, 1))

    def test_typed_request_passes_through(self):
        request = QueryRequest(QueryKind.OUT, (3,), id=7)
        assert normalize_request(request) is request
        assert normalize_request(request, 2).id == 2

    def test_empty_raises(self):
        with pytest.raises(QueryError, match="empty batch request"):
            normalize_request(())

    def test_unknown_kind_raises(self):
        with pytest.raises(QueryError, match="unknown batch query"):
            normalize_request(("frobnicate", 1))

    def test_bare_string_is_one_kind_not_characters(self):
        assert normalize_request("components").kind \
            is QueryKind.COMPONENTS


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanBatch:
    def test_dedup_collapses_repeats(self):
        plan = plan_batch([("out", 1), ("out", 1), ("out", 2)])
        assert [job.id for job in plan.jobs] == [0, 2]
        assert plan.duplicates == [(1, 0)]

    def test_no_dedup_keeps_everything(self):
        plan = plan_batch([("out", 1), ("out", 1)], dedup=False)
        assert [job.id for job in plan.jobs] == [0, 1]
        assert plan.duplicates == []

    def test_unhashable_args_stay_jobs(self):
        plan = plan_batch([("out", [1]), ("out", [1])])
        assert len(plan.jobs) == 2
        assert plan.duplicates == []

    def test_nonstrict_collects_invalid(self):
        plan = plan_batch([("out", 1), ("bogus",), ()])
        assert len(plan.jobs) == 1
        assert [position for position, _ in plan.invalid] == [1, 2]

    def test_strict_raises(self):
        with pytest.raises(QueryError, match="unknown batch query"):
            plan_batch([("bogus",)], strict=True)

    def test_cache_prefilter_counts_and_skips(self):
        cache = QueryCache(16)
        cache.store(("out", 1), [2, 3])
        plan = plan_batch([("out", 1), ("out", 2), ("components",)],
                          cache=cache)
        # The hit never becomes a job; components is not cacheable.
        assert [job.key for job in plan.jobs] == [("out", 2),
                                                  ("components",)]
        assert plan.cached == [(0, [2, 3])]
        assert cache.hits == 1 and cache.misses == 1

    def test_duplicate_of_cached_position(self):
        cache = QueryCache(16)
        cache.store(("out", 1), [9])
        plan = plan_batch([("out", 1), ("out", 1)], cache=cache)
        assert plan.jobs == []
        assert plan.cached == [(0, [9])]
        assert plan.duplicates == [(1, 0)]


# ----------------------------------------------------------------------
# Cache-aware planned execution on the real handles (satellite)
# ----------------------------------------------------------------------
class TestCacheAwarePlanning:
    def test_sharded_parallel_batch_uses_the_handle_lru(self):
        """The ROADMAP gap: grouped shard requests bypassed the LRU.

        First planned batch: every unique cacheable request is one
        LRU miss, then a bulk insert.  Second identical batch: pure
        hits — no request reaches a shard handle at all.
        """
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, validate=False)
        requests = [("out", 1), ("out", 2), ("in", 3),
                    ("neighborhood", 4)] * 25
        first = handle.batch(requests, parallel=True)
        info = handle.cache_info
        assert info["misses"] == 4
        assert info["hits"] == 0
        shard_load = [shard.cache_info["misses"] +
                      shard.cache_info["hits"]
                      for shard in handle.shards]
        second = handle.batch(requests, parallel=True)
        assert second == first
        info = handle.cache_info
        assert info["hits"] == 4
        assert info["misses"] == 4
        # The second batch was answered entirely from the router-side
        # LRU: shard handles saw no additional traffic.
        assert [shard.cache_info["misses"] + shard.cache_info["hits"]
                for shard in handle.shards] == shard_load

    def test_unsharded_parallel_batch_prefilters_too(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        requests = [("out", 1), ("out", 2), ("reach", 1, 2)] * 10
        first = handle.batch(requests, parallel=True)
        assert handle.cache_misses == 3 and handle.cache_hits == 0
        assert handle.batch(requests, parallel=True) == first
        assert handle.cache_hits == 3 and handle.cache_misses == 3

    def test_single_shot_then_planned_batch_hits(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        single = handle.out(1)
        assert handle.batch([("out", 1)], parallel=True) == [single]
        assert handle.cache_hits == 1

    def test_mutating_a_planned_answer_does_not_poison_the_lru(self):
        """The bulk insert must store its own copy: callers may
        mutate what they receive (the LRU's documented contract)."""
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        (answer,) = handle.batch([("out", 1)], parallel=True)
        expected = list(answer)
        answer.append(999)
        assert handle.out(1) == expected
        assert handle.batch([("out", 1)], parallel=True) == [expected]


# ----------------------------------------------------------------------
# Per-request error semantics (regression: no more batch aborts)
# ----------------------------------------------------------------------
class TestErrorChannel:
    @pytest.fixture
    def handle(self):
        graph, alphabet = theta_graph()
        return CompressedGraph.compress(graph, alphabet)

    @pytest.fixture
    def sharded(self):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        return ShardedCompressedGraph.compress(graph, alphabet,
                                               shards=2,
                                               validate=False)

    def test_bad_request_no_longer_aborts_the_batch(self, handle):
        """The regression this protocol exists to fix: one unknown
        node id used to kill every request after it."""
        total = handle.node_count()
        results = handle.execute([
            ("out", 1),
            ("out", total + 999),       # unknown node id
            ("components",),            # must still be answered
            ("reach", 1, 2),
        ])
        assert results[0].ok and results[0].value == handle.out(1)
        assert not results[1].ok
        assert "out of range" in results[1].error or \
            "unknown node" in results[1].error
        assert results[2].ok and results[2].value == handle.components()
        assert results[3].ok

    def test_malformed_requests_error_individually(self, handle):
        results = handle.execute([
            ("frobnicate", 1),   # unknown kind
            (),                  # empty
            ("reach", 1),        # bad arity
            ("nodes",),          # fine
        ])
        assert [result.ok for result in results] == [False, False,
                                                     False, True]
        assert "unknown batch query" in results[0].error
        assert "empty batch request" in results[1].error
        assert "bad arguments" in results[2].error
        assert results[3].value == handle.node_count()

    def test_sharded_error_channel(self, sharded):
        total = sharded.node_count()
        results = sharded.execute([
            ("out", total + 5),
            ("degree", 1, "sideways"),
            ("edges",),
        ])
        assert not results[0].ok and "out of range" in results[0].error
        assert not results[1].ok and "direction" in results[1].error
        assert results[2].ok and results[2].value == \
            sharded.edge_count()

    @pytest.mark.parametrize("kind", [["x"], {"k": 1}])
    def test_unhashable_kind_errors_alone(self, handle, kind):
        """An unhashable kind used to escape ``execute`` as a
        ``TypeError`` from the alias lookup, aborting the batch."""
        results = handle.execute([(kind, 1), ("out", 1)])
        assert not results[0].ok
        assert "unknown batch query kind" in results[0].error
        assert results[1].ok and results[1].value == handle.out(1)
        with pytest.raises(QueryError, match="unknown batch query"):
            handle.batch([(kind, 1), ("out", 1)])

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("lookalike", [True, 1.0])
    def test_int_lookalike_node_is_rejected_even_when_1_is_cached(
            self, handle, sharded, lookalike, parallel):
        """``True`` and ``1.0`` hash equal to ``1`` but are no node ID:
        neither node 1's cached answer nor batch dedup may stand in for
        them, and on a sharded handle the planned path answers them per
        request instead of aborting the batch."""
        for surface in (handle, sharded):
            surface.out(1)
            with pytest.raises(QueryError, match="out of range"):
                surface.out(lookalike)
            requests = [("out", 1), ("out", lookalike),
                        ("reach", lookalike, 2), ("degree", lookalike),
                        ("reach", 1, 2)]
            results = surface.execute(
                requests, executor=ThreadExecutor() if parallel else None)
            assert [result.ok for result in results] == [
                True, False, False, False, True]
            assert all("out of range" in result.error
                       for result in results[1:4])
            assert results[0].value == surface.out(1)

    def test_unwrap_raises_query_error(self):
        result = QueryResult(id=0, error="boom")
        with pytest.raises(QueryError, match="boom"):
            result.unwrap()
        assert QueryResult(id=0, value=41).unwrap() == 41

    def test_legacy_batch_still_raises_first_error(self, handle):
        with pytest.raises(QueryError, match="out of range|unknown"):
            handle.batch([("out", handle.node_count() + 9),
                          ("components",)])


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
_VALUE_SHAPES = [
    True,                      # reach
    False,
    [2, 3, 5, 8],              # neighborhoods
    [],
    None,                      # path miss
    [1, 4, 9],                 # path hit
    7,                         # counts / degrees
    0,
    {"max_out": 3, "min_out": 0, "max_in": 2,
     "min_in": 0, "max": 4, "min": 1},    # degree extrema
    [-1, 0, -(2 ** 70), 2 ** 70],         # ints beyond 64 bits
]


def _round_trip(message, seq):
    """Encode and decode one frame; the sequence id must survive."""
    got_seq, decoded = decode_frame(encode_frame(message, seq=seq))
    assert got_seq == seq
    return decoded


#: Both frame variants: untagged ``J`` and sequence-tagged ``j``.
_FRAMES = pytest.mark.parametrize("seq", [None, 7],
                                  ids=["json", "json-seq"])


class TestCodec:
    @_FRAMES
    def test_batch_roundtrip(self, seq):
        requests = [QueryRequest(QueryKind.REACH, (1, 9), id=0),
                    QueryRequest(QueryKind.DEGREE, (4, "in"), id=1),
                    QueryRequest(QueryKind.COMPONENTS, (), id=2)]
        message = {"op": "batch",
                   "requests": requests_to_wire(requests)}
        decoded = _round_trip(message, seq)
        pairs = wire_to_requests(decoded["requests"])
        assert pairs == [(0, ("reach", 1, 9)),
                         (1, ("degree", 4, "in")),
                         (2, ("components",))]

    @_FRAMES
    @pytest.mark.parametrize("value", _VALUE_SHAPES,
                             ids=lambda v: repr(v)[:20])
    def test_value_shapes_survive_exactly(self, value, seq):
        message = {"op": "results",
                   "results": results_to_wire(
                       [QueryResult(id=3, value=value)])}
        decoded = _round_trip(message, seq)
        (result,) = results_from_wire(decoded["results"])
        assert result.id == 3 and result.error is None
        assert result.value == value
        assert type(result.value) is type(value)

    @_FRAMES
    def test_error_results_roundtrip(self, seq):
        message = {"op": "results",
                   "results": results_to_wire(
                       [QueryResult(id=1, error="node 9 out of range")])}
        decoded = _round_trip(message, seq)
        (result,) = results_from_wire(decoded["results"])
        assert not result.ok
        assert result.error == "node 9 out of range"

    @_FRAMES
    def test_control_messages(self, seq):
        for op in ("ping", "pong", "info", "shutdown"):
            assert _round_trip({"op": op}, seq) == {"op": op}

    def test_frame_bytes_are_pinned(self):
        """The tag bytes and the compact JSON body are the wire format;
        any drift breaks every deployed peer."""
        assert encode_frame({"op": "ping"}) == b'J{"op":"ping"}'
        assert encode_frame({"op": "ping"}, seq=300) == \
            b'j\xac\x02{"op":"ping"}'
        assert frame_bytes({"op": "ping"}) == \
            b'\x00\x00\x00\x0eJ{"op":"ping"}'

    def test_unencodable_value_names_its_type(self):
        with pytest.raises(WireError, match="object"):
            encode_frame({"op": "batch", "requests": [
                {"id": 0, "kind": "out", "args": [object()]}]})

    def test_framing_over_a_real_socket(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "results",
                       "results": results_to_wire(
                           [QueryResult(id=0, value=[1, 2])])}
            send_message(left, message)
            received = recv_message(right)
            assert received["op"] == "results"
            assert results_from_wire(
                received["results"])[0].value == [1, 2]
            left.close()
            assert recv_message(right) is None  # clean EOF
        finally:
            right.close()

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError, match="unknown frame tag"):
            decode_frame(b"\x00garbage")

    @pytest.mark.parametrize("payload", [b'B{"op":"ping"}',
                                         b'b\x01{"op":"ping"}'],
                             ids=["B", "b"])
    def test_retired_binary_tags_are_unknown(self, payload):
        with pytest.raises(WireError, match="unknown frame tag"):
            decode_frame(payload)

    def test_corrupt_json_rejected(self):
        with pytest.raises(WireError, match="bad JSON"):
            decode_frame(b"J{nope")

    @pytest.mark.parametrize("wire", [
        {"id": 0},                              # requests not a list
        [{"kind": "out", "args": [1]}],         # entry without id
        [{"id": "0", "kind": "out"}],           # non-int id
        [{"id": True, "kind": "out"}],          # int lookalike id
        [["out", 1]],                           # entry not an object
        [{"id": 0, "kind": "out", "args": 1}],  # args not a list
    ], ids=["not-a-list", "no-id", "str-id", "bool-id", "not-a-dict",
            "bad-args"])
    def test_malformed_batch_requests_raise_wire_error(self, wire):
        with pytest.raises(WireError):
            wire_to_requests(wire)

    @pytest.mark.parametrize("wire", [
        "results",
        [{"value": 1}],
        [{"id": 1.5, "value": 1}],
        [7],
        [{"id": 0, "error": ["not", "a", "string"]}],
    ], ids=["not-a-list", "no-id", "float-id", "not-a-dict",
            "bad-error"])
    def test_malformed_results_raise_wire_error(self, wire):
        with pytest.raises(WireError):
            results_from_wire(wire)
