"""Sharded serving: partitioners, routing, and the differential suite.

The acceptance contract: :class:`repro.ShardedCompressedGraph` answers
the full section-V query family with results identical to an unsharded
:class:`repro.CompressedGraph` on every smoke corpus.

Node-ID note.  Compression renumbers: both handle types answer in
*their own* canonical ``val`` numbering, so per-node answers of two
independently built handles live in different (isomorphic) ID spaces.
The differential suite therefore checks three mutually reinforcing
lanes:

* **k=1 exact lane** — a single shard has no boundary, so its grammar
  (and hence its ID space) equals the unsharded handle's: every query,
  per node, must be *bit-identical*.
* **truth lane (k>1)** — each sharded handle is checked per node
  against its own ``decompress()``, the documented ID space of its
  answers (the same way the seed suite validates the unsharded
  handle).
* **ID-free lane (k>1)** — every answer that does not mention node IDs
  (counts, components, degree extrema, neighbor-size multisets) must
  equal the unsharded handle's exactly.
"""

from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from repro import CompressedGraph, GRePairSettings, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import GrammarError, QueryError
from repro.sharding import (
    PARTITIONERS,
    connectivity_partition,
    hash_partition,
)

from helpers import random_simple_graph, star_graph, theta_graph


# ----------------------------------------------------------------------
# Ground-truth helpers (plain adjacency maps from a derived graph)
# ----------------------------------------------------------------------
def adjacency(val):
    out = {node: set() for node in val.nodes()}
    into = {node: set() for node in val.nodes()}
    anyn = {node: set() for node in val.nodes()}
    for _, edge in val.edges():
        if len(edge.att) == 2:
            out[edge.att[0]].add(edge.att[1])
            into[edge.att[1]].add(edge.att[0])
        for node in edge.att:
            for other in edge.att:
                if other != node:
                    anyn[node].add(other)
    return out, into, anyn


def bfs_distances(out, source):
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for succ in sorted(out[node]):
            if succ not in distances:
                distances[succ] = distances[node] + 1
                frontier.append(succ)
    return distances


def component_count(anyn):
    seen = set()
    count = 0
    for start in anyn:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for other in anyn[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return count


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_hash_covers_all_nodes_deterministically(self):
        graph, _ = random_simple_graph(seed=3)
        first = hash_partition(graph, 4)
        second = hash_partition(graph, 4)
        assert first == second
        assert set(first) == set(graph.nodes())
        assert set(first.values()) <= set(range(4))

    def test_hash_spreads_nodes(self):
        graph, _ = random_simple_graph(seed=4, num_nodes=200,
                                       num_edges=300)
        loads = Counter(hash_partition(graph, 4).values())
        assert len(loads) == 4
        assert max(loads.values()) < 2 * min(loads.values())

    def test_connectivity_keeps_components_together(self):
        graph, alphabet = SMOKE_CORPORA["version-copies"]()
        assign = connectivity_partition(graph, 4)
        for _, edge in graph.edges():
            owners = {assign[node] for node in edge.att}
            assert len(owners) == 1

    def test_connectivity_balances_components(self):
        graph, _ = SMOKE_CORPORA["version-copies"]()  # 128 components
        loads = Counter(connectivity_partition(graph, 4).values())
        assert len(loads) == 4
        assert max(loads.values()) <= 2 * min(loads.values())

    def test_unknown_partitioner_rejected(self):
        graph, alphabet = theta_graph()
        with pytest.raises(GrammarError, match="unknown partitioner"):
            ShardedCompressedGraph.compress(graph, alphabet,
                                            partitioner="nope")

    def test_partial_partitioner_rejected(self):
        graph, alphabet = theta_graph()
        with pytest.raises(GrammarError, match="unassigned"):
            ShardedCompressedGraph.compress(
                graph, alphabet, shards=2,
                partitioner=lambda g, k: {1: 0})

    def test_out_of_range_partitioner_rejected(self):
        graph, alphabet = theta_graph()
        with pytest.raises(GrammarError, match="out-of-range"):
            ShardedCompressedGraph.compress(
                graph, alphabet, shards=2,
                partitioner=lambda g, k: {n: 7 for n in g.nodes()})

    def test_custom_callable_partitioner(self):
        graph, alphabet = star_graph(30)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {n: n % k for n in g.nodes()})
        assert handle.node_count() == graph.node_size

    def test_registry_names(self):
        assert set(PARTITIONERS) == {"hash", "connectivity",
                                     "bfs", "label"}


# ----------------------------------------------------------------------
# The k=1 exact lane: identical ID space, bit-identical answers
# ----------------------------------------------------------------------
class TestSingleShardExactEquality:
    @pytest.mark.parametrize("corpus", ["er-random", "rdf-types",
                                        "version-copies"])
    def test_every_query_matches_unsharded(self, corpus):
        graph, alphabet = SMOKE_CORPORA[corpus]()
        unsharded = CompressedGraph.compress(graph, alphabet,
                                             validate=False)
        sharded = ShardedCompressedGraph.compress(graph, alphabet,
                                                  shards=1,
                                                  validate=False)
        assert sharded.boundary_edge_count == 0
        total = unsharded.node_count()
        assert sharded.node_count() == total
        rng = random.Random(13)
        requests = [("components",), ("degree",), ("nodes",), ("edges",)]
        for _ in range(200):
            kind = rng.choice(["out", "in", "neighborhood", "reach",
                               "degree", "path"])
            if kind in ("reach", "path"):
                requests.append((kind, rng.randint(1, total),
                                 rng.randint(1, total)))
            else:
                requests.append((kind, rng.randint(1, total)))
        assert sharded.batch(requests) == unsharded.batch(requests)


# ----------------------------------------------------------------------
# The differential acceptance sweep: every smoke corpus, k > 1
# ----------------------------------------------------------------------
def _build(corpus, shards, partitioner):
    graph, alphabet = SMOKE_CORPORA[corpus]()
    unsharded = CompressedGraph.compress(graph, alphabet,
                                         validate=False)
    sharded = ShardedCompressedGraph.compress(
        graph, alphabet, shards=shards, partitioner=partitioner,
        validate=False)
    return graph, unsharded, sharded


@pytest.mark.parametrize("corpus", sorted(SMOKE_CORPORA))
class TestDifferentialOnSmokeCorpora:
    """Sharded vs unsharded on every smoke corpus (hash, k=4)."""

    def test_full_query_family(self, corpus):
        graph, unsharded, sharded = _build(corpus, 4, "hash")

        # -- ID-free lane: exact equality with the unsharded handle --
        assert sharded.node_count() == unsharded.node_count()
        assert sharded.edge_count() == unsharded.edge_count()
        assert (sharded.components()
                == unsharded.components())
        assert sharded.degree() == unsharded.degree()

        total = sharded.node_count()
        out_sizes = sorted(len(sharded.out(v))
                           for v in range(1, total + 1))
        expected = sorted(len(unsharded.out(v))
                          for v in range(1, total + 1))
        assert out_sizes == expected

        # -- truth lane: answers vs the handle's own derived graph --
        val = sharded.decompress()
        assert val.node_size == graph.node_size
        assert val.num_edges == graph.num_edges
        out, into, anyn = adjacency(val)
        assert component_count(anyn) == unsharded.components()

        rng = random.Random(17)
        sample = rng.sample(range(1, total + 1), min(total, 50))
        for node in sample:
            assert sharded.out(node) == sorted(out[node])
            assert sharded.in_(node) == sorted(into[node])
            assert sharded.neighborhood(node) == sorted(anyn[node])
            assert sharded.degree(node, "out") == len(out[node])
            assert sharded.degree(node, "in") == len(into[node])

        for _ in range(40):
            source = rng.randint(1, total)
            target = rng.randint(1, total)
            distances = bfs_distances(out, source)
            expected_reach = target in distances
            assert sharded.reach(source, target) == expected_reach, \
                (source, target)
            path = sharded.path(source, target)
            if expected_reach:
                assert path is not None
                assert len(path) - 1 == distances[target]
                assert path[0] == source and path[-1] == target
                for a, b in zip(path, path[1:]):
                    assert b in out[a]
            else:
                assert path is None


class TestShardCountsAndPartitioners:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_shard_count_sweep(self, shards):
        graph, unsharded, sharded = _build("communication", shards,
                                           "hash")
        assert sharded.num_shards == shards
        assert sharded.node_count() == unsharded.node_count()
        assert sharded.edge_count() == unsharded.edge_count()
        assert (sharded.components()
                == unsharded.components())
        assert sharded.degree() == unsharded.degree()

    @pytest.mark.parametrize("corpus", ["version-copies", "rdf-types"])
    def test_connectivity_partitioner_differential(self, corpus):
        graph, unsharded, sharded = _build(corpus, 4, "connectivity")
        assert sharded.boundary_edge_count == 0
        assert (sharded.components()
                == unsharded.components())
        val = sharded.decompress()
        out, into, anyn = adjacency(val)
        total = sharded.node_count()
        rng = random.Random(23)
        for node in rng.sample(range(1, total + 1), min(total, 40)):
            assert sharded.out(node) == sorted(out[node])
        for _ in range(25):
            source = rng.randint(1, total)
            target = rng.randint(1, total)
            assert sharded.reach(source, target) == (
                target in bfs_distances(out, source))


# ----------------------------------------------------------------------
# Cross-shard mechanics that deserve direct, small-graph tests
# ----------------------------------------------------------------------
class TestCrossShardMechanics:
    def _two_shard_chain(self):
        """1 -> 2 -> 3 -> 4 with a shard cut between 2 and 3."""
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        graph = Hypergraph.from_edges(
            [(label, (1, 2)), (label, (2, 3)), (label, (3, 4))],
            num_nodes=4)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {1: 0, 2: 0, 3: 1, 4: 1})
        return handle

    def test_boundary_edge_survives(self):
        handle = self._two_shard_chain()
        assert handle.boundary_edge_count == 1
        assert handle.edge_count() == 3

    def test_reach_crosses_the_boundary(self):
        handle = self._two_shard_chain()
        val = handle.decompress()
        out, _, _ = adjacency(val)
        for source in val.nodes():
            distances = bfs_distances(out, source)
            for target in val.nodes():
                assert handle.reach(source, target) == (
                    target in distances)

    def test_path_crosses_the_boundary(self):
        handle = self._two_shard_chain()
        val = handle.decompress()
        out, _, _ = adjacency(val)
        chain_start = next(node for node in val.nodes() if not
                           any(node in targets
                               for targets in out.values()))
        chain_end = next(node for node in val.nodes()
                         if not out[node])
        path = handle.path(chain_start, chain_end)
        assert path is not None and len(path) == 4

    def test_reach_reenters_a_shard(self):
        """s and t in shard 0, the only path via shard 1 and back."""
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        graph = Hypergraph.from_edges(
            [(label, (1, 2)), (label, (2, 3))], num_nodes=3)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {1: 0, 2: 1, 3: 0})
        val = handle.decompress()
        out, _, _ = adjacency(val)
        for source in val.nodes():
            distances = bfs_distances(out, source)
            for target in val.nodes():
                assert handle.reach(source, target) == (
                    target in distances), (source, target)

    def test_components_merge_across_shards(self):
        handle = self._two_shard_chain()
        assert handle.components() == 1

    def test_out_of_range_ids_raise(self):
        handle = self._two_shard_chain()
        with pytest.raises(QueryError, match="out of range"):
            handle.out(0)
        with pytest.raises(QueryError, match="out of range"):
            handle.out(handle.node_count() + 1)
        with pytest.raises(QueryError, match="out of range"):
            handle.reach(1, handle.node_count() + 1)

    def test_bad_direction_raises(self):
        handle = self._two_shard_chain()
        with pytest.raises(QueryError, match="unknown direction"):
            handle.degree(1, "sideways")

    def test_shards_must_be_positive(self):
        from repro import Alphabet, Hypergraph
        graph, alphabet = theta_graph()
        with pytest.raises(GrammarError, match="shards must be"):
            ShardedCompressedGraph.compress(graph, alphabet, shards=0)

    def test_parallel_build_matches_sequential(self):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        sequential = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, validate=False)
        parallel = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, parallel=True, validate=False)
        assert parallel.node_count() == sequential.node_count()
        assert (parallel.boundary_edge_count
                == sequential.boundary_edge_count)
        total = parallel.node_count()
        for node in range(1, min(total, 30) + 1):
            assert parallel.out(node) == sequential.out(node)

    def test_summary_and_repr_mention_shards(self):
        handle = self._two_shard_chain()
        assert "2 shards" in handle.summary()
        assert "ShardedCompressedGraph" in repr(handle)
        assert handle.stats["shards"] == 2
        assert handle.stats["boundary_edges"] == 1


class TestDegreeEdgeCases:
    def test_empty_graph_extrema_raise(self):
        from repro import Alphabet, Hypergraph
        handle = ShardedCompressedGraph.compress(Hypergraph(),
                                                 Alphabet(), shards=2)
        assert handle.node_count() == 0
        with pytest.raises(QueryError, match="empty graph"):
            handle.degree()

    def test_hyperedge_extrema_raise_like_unsharded(self):
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        simple = alphabet.add_terminal(rank=2, name="e")
        hyper = alphabet.add_terminal(rank=3, name="h")
        graph = Hypergraph.from_edges(
            [(simple, (1, 2)), (hyper, (1, 2, 3))], num_nodes=3)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {n: 0 for n in g.nodes()})
        with pytest.raises(QueryError, match="simple derived graph"):
            handle.degree()

    def test_isolated_nodes_counted(self):
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        graph = Hypergraph.from_edges([(label, (1, 2))], num_nodes=5)
        handle = ShardedCompressedGraph.compress(graph, alphabet,
                                                 shards=3)
        assert handle.node_count() == 5
        assert handle.components() == 4
        assert handle.degree()["min"] == 0
