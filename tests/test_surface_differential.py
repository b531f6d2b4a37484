"""One query surface: the same requests answer alike on every surface.

The §V query methods are defined once, on
:class:`repro.serving.GraphService`; every surface supplies only its
``_uncached_query``.  This lane sends one request list — every kind,
malformed arities, bad nodes and arguments, and every former alias
spelling — through five surfaces, inline and planned:

* :class:`CompressedGraph`;
* :class:`ShardedCompressedGraph` with one shard, and with two
  (``bfs`` partitioner);
* :class:`repro.serving.GraphClient`, strict (``client-json``) and
  pipelined (``client-pipelined``), against a served copy of the
  unsharded container.

Every error string, and every answer that does not name a node, is
byte-identical on all five.  Answers that name nodes are
byte-identical on the four surfaces sharing the unsharded numbering;
the two-shard handle numbers nodes shard-major, so there those are
checked against the truth graph of its own decompression
(``tests/helpers.py``).
"""

from __future__ import annotations

import networkx as nx
import pytest

from helpers import truth_graph, truth_rpq

from repro import CompressedGraph, ShardedCompressedGraph
from repro.exceptions import QueryError
from repro.bench.corpora import SMOKE_CORPORA
from repro.rpq import compile_pattern
from repro.serving import InlineExecutor, ThreadExecutor, connect, serve

PATTERN = "(prop/3|prop/13)* prop/17"

_SURFACES = ["unsharded", "sharded-k1", "sharded-k2-bfs",
             "client-json", "client-pipelined"]


@pytest.fixture(scope="module")
def surfaces():
    graph, alphabet = SMOKE_CORPORA["rdf-properties"]()
    unsharded = CompressedGraph.compress(graph, alphabet)
    built = {
        "unsharded": unsharded,
        "sharded-k1": ShardedCompressedGraph.compress(
            graph, alphabet, shards=1),
        "sharded-k2-bfs": ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs"),
    }
    with serve(unsharded.to_bytes()) as server, \
            connect(server.endpoint) as strict, \
            connect(server.endpoint, pipeline=True) as pipelined:
        built["client-json"] = strict
        built["client-pipelined"] = pipelined
        yield built


def _requests(handle):
    """``(request, names_nodes)`` rows over ``handle``'s graph."""
    total = handle.node_count()
    busy = next(node for node in range(1, total + 1)
                if handle.out(node))
    target = handle.out(busy)[0]
    return [
        # every kind, well formed
        (("out", busy), True),
        (("in", target), True),
        (("neighborhood", busy), True),
        (("out_edges", busy), True),
        (("degree", busy, "in"), True),
        (("degree",), False),
        (("reach", busy, target), True),
        (("reach", target, busy), True),
        (("path", busy, target), True),
        (("components",), False),
        (("nodes",), False),
        (("edges",), False),
        (("rpq", PATTERN, busy, target), True),
        (("pattern_count", "label", "prop/3"), False),
        (("pattern_count", "digram", "prop/3", "prop/13"), False),
        (("pattern_count", "star", "prop/3", 2), False),
        # malformed argument lists
        (("out",), False),
        (("out", 1, 2), False),
        (("reach", 1), False),
        (("components", 1), False),
        # bad nodes and arguments
        (("out", total + 7), False),
        (("reach", 1, total + 7), False),
        (("out", "x"), False),
        (("rpq", PATTERN, 1, "x"), False),
        (("out", True), False),
        (("reach", True, 2), False),
        (("degree", True, "in"), False),
        (("degree", 1, "sideways"), False),
        (("rpq", "(prop/3", 1, 2), False),
        (("pattern_count", "bogus", "prop/3"), False),
        # former alias spellings: unknown kinds now
        (("out_neighbors", 1), False),
        (("in_neighbors", 1), False),
        (("in_", 1), False),
        (("neighbors", 1), False),
        (("reachable", 1, 2), False),
        (("connected_components",), False),
        (("node_count",), False),
        (("edge_count",), False),
        (("pattern-count", "label", "prop/3"), False),
        (("out-edges", 1), False),
    ]


def _truth(handle, request):
    """The answer ``request`` must get on ``handle``'s own numbering."""
    graph = truth_graph(handle)
    simple = nx.DiGraph(graph)
    kind, *args = request
    if kind == "out":
        return sorted(simple.successors(args[0]))
    if kind == "in":
        return sorted(simple.predecessors(args[0]))
    if kind == "neighborhood":
        return sorted(set(simple.successors(args[0]))
                      | set(simple.predecessors(args[0])))
    if kind == "out_edges":
        return sorted([handle.alphabet.by_name(data["name"]), target]
                      for _, target, data in graph.out_edges(
                          args[0], data=True))
    if kind == "degree":
        return len(set(simple.predecessors(args[0])))
    if kind == "reach":
        return nx.has_path(simple, *args)
    if kind == "path":
        if not nx.has_path(simple, *args):
            return None
        return nx.shortest_path_length(simple, *args)
    assert kind == "rpq"
    return truth_rpq(graph, compile_pattern(args[0]), *args[1:])


@pytest.mark.parametrize("executor", [InlineExecutor, ThreadExecutor])
@pytest.mark.parametrize("name", _SURFACES)
def test_every_request_answers_alike(surfaces, name, executor):
    """Inline runs each request through its method; the planned
    thread path dedups, pre-filters the LRU and calls
    ``_uncached_query`` (per owning shard on a sharded handle)."""
    reference = surfaces["unsharded"]
    surface = surfaces[name]
    rows = _requests(reference)
    requests = [request for request, _ in rows]
    expected = reference.execute(requests)
    got = executor().run(surface, requests)
    assert len(got) == len(rows)
    shifted = name == "sharded-k2-bfs"
    for (request, names_nodes), want, have in zip(rows, expected, got):
        if shifted and names_nodes:
            # Same request, another node numbering: check the answer
            # against this handle's own truth graph instead.
            truth = _truth(surface, request)
            if request[0] == "path" and have.value is not None:
                assert len(have.value) - 1 == truth, request
            else:
                assert have.value == truth, request
            continue
        assert repr(have) == repr(want), request
    # The lane is only worth something if it exercised both channels.
    assert sum(result.ok for result in expected) >= 16
    assert all("unknown batch query kind" in result.error
               for result in expected[-10:])


def test_single_shot_methods_match_execute(surfaces):
    """The client's methods are the handles' methods: one round trip
    each, the same answers as the local handle."""
    local = surfaces["unsharded"]
    client = surfaces["client-pipelined"]
    assert client.node_count() == local.node_count()
    assert client.degree() == local.degree()
    assert client.out(1) == local.out(1)
    assert client.rpq(PATTERN, 1, 2) == local.rpq(PATTERN, 1, 2)
    assert client.pattern_count("label", "prop/3") == \
        local.pattern_count("label", "prop/3")
    # GraphService's batch arguments are accepted (the server plans);
    # the client keeps no LRU, so its counters read empty.
    assert client.batch([("out", 1), ("nodes",)], parallel=True) == \
        local.batch([("out", 1), ("nodes",)], parallel=True)
    assert (client.cache_info, client.cache_hits,
            client.cache_misses) == ({}, 0, 0)


@pytest.mark.parametrize("name", ["client-json", "client-pipelined"])
def test_unencodable_argument_is_a_per_request_error(surfaces, name):
    """An argument JSON cannot carry is refused locally, per request:
    its neighbours still cross the wire, nothing is left pending, and
    the unwrapping surfaces raise ``QueryError``, never ``TypeError``."""
    client = surfaces[name]
    local = surfaces["unsharded"]
    bad, good = client.execute([("out", object()), ("out", 1)])
    assert not bad.ok
    assert "bad arguments for batch query 'out'" in bad.error
    assert "object" in bad.error
    assert good.value == local.out(1)
    (alone,) = client.execute([("reach", 1, {2})])
    assert "set" in alone.error
    with pytest.raises(QueryError):
        client.batch([("out", 1), ("out", object())])
    with pytest.raises(QueryError):
        client.query("out", object())
    assert all(not conn._pending for conn in client._pool)
    assert client.ping()
