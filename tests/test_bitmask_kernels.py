"""Truth lane: the bitmask traversal kernels ≡ networkx on ``val``.

The query evaluators answer every frontier query through precomputed
integer bit-row adjacency, wave BFS by word ops and memoized rule
descents.  This lane holds their answers to an independent oracle —
networkx over the handle's own ``decompress()`` — on all smoke
corpora, unsharded and through 2- and 4-shard containers, across every
frontier query kind: reachability, neighborhoods, paths (BFS distances
+ shortest path) and the RPQ product-automaton BFS fallback (which
steps on the memoized labeled descent).
"""

import random

import networkx as nx
import pytest

from repro.api import CompressedGraph
from repro.bench import SMOKE_CORPORA
from repro.queries.traversal import bfs_distances, shortest_path
from repro.rpq import compile_pattern
from repro.sharding import ShardedCompressedGraph

from helpers import truth_graph, truth_rpq


def _unsharded(name):
    graph, alphabet = SMOKE_CORPORA[name]()
    return CompressedGraph.compress(graph, alphabet)


def _sharded(name, shards):
    graph, alphabet = SMOKE_CORPORA[name]()
    blob = ShardedCompressedGraph.compress(
        graph, alphabet, shards=shards, partitioner="bfs",
        validate=False).to_bytes()
    return ShardedCompressedGraph.from_bytes(blob)


def _probe_pairs(total, count, seed=7):
    rng = random.Random(seed)
    pairs = [(1, total), (total, 1), (1, 1)]
    pairs += [(rng.randint(1, total), rng.randint(1, total))
              for _ in range(count)]
    return pairs


def _probe_nodes(total, count, seed=11):
    rng = random.Random(seed)
    nodes = {1, total}
    nodes.update(rng.randint(1, total) for _ in range(count))
    return sorted(nodes)


def _first_label_name(handle):
    alphabet = handle.alphabet
    for label in alphabet.terminals():
        name = alphabet.name(label)
        if name is not None:
            return name
    return None


def _has_path(truth, source, target):
    if source == target:
        return True
    if source not in truth or target not in truth:
        return False
    return nx.has_path(truth, source, target)


def _assert_frontier_queries_match(handle, truth, pair_count,
                                   node_count):
    total = handle.node_count()
    assert total == truth.number_of_nodes()
    for source, target in _probe_pairs(total, pair_count):
        assert handle.reach(source, target) == \
            _has_path(truth, source, target), (source, target)
    for node in _probe_nodes(total, node_count):
        succ = set(truth.successors(node)) - {node}
        pred = set(truth.predecessors(node)) - {node}
        assert handle.out(node) == sorted(succ), node
        assert handle.in_(node) == sorted(pred), node
        assert handle.neighborhood(node) == sorted(succ | pred), node


def _assert_paths_match(handle, truth, pair_count):
    total = handle.node_count()
    for source in _probe_nodes(total, 3, seed=5):
        assert bfs_distances(handle, source) == \
            nx.single_source_shortest_path_length(truth, source), source
    for source, target in _probe_pairs(total, pair_count, seed=13):
        path = shortest_path(handle, source, target)
        if not _has_path(truth, source, target):
            assert path is None, (source, target)
            continue
        assert path[0] == source and path[-1] == target, path
        assert len(path) - 1 == \
            nx.shortest_path_length(truth, source, target), path
        for hop in zip(path, path[1:]):
            assert truth.has_edge(*hop), (path, hop)


def _assert_rpq_bfs_matches(handle, truth, engines, pair_count):
    """Pin the product-BFS fallback on ``engines``; check ``<a>+``."""
    label = _first_label_name(handle)
    if label is None:
        return False
    for engine in engines:
        engine.force = "bfs"
    pattern = f"<{label}>+"
    dfa = compile_pattern(pattern)
    for source, target in _probe_pairs(handle.node_count(), pair_count,
                                       seed=3):
        assert handle.rpq(pattern, source, target) == \
            truth_rpq(truth, dfa, source, target), (source, target)
    return True


@pytest.mark.parametrize("name", sorted(SMOKE_CORPORA))
def test_unsharded_kernels_agree(name):
    handle = _unsharded(name)
    truth = truth_graph(handle)
    _assert_frontier_queries_match(handle, truth,
                                   pair_count=40, node_count=30)
    _assert_paths_match(handle, truth, pair_count=8)


@pytest.mark.parametrize("name", sorted(SMOKE_CORPORA))
def test_unsharded_rpq_product_bfs_agrees(name):
    handle = _unsharded(name)
    if not _assert_rpq_bfs_matches(handle, truth_graph(handle),
                                   [handle._rpq_engine()], 15):
        pytest.skip("corpus has no named labels")


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(SMOKE_CORPORA))
def test_sharded_kernels_agree(name, shards):
    handle = _sharded(name, shards)
    truth = truth_graph(handle)
    _assert_frontier_queries_match(handle, truth,
                                   pair_count=12, node_count=8)
    _assert_paths_match(handle, truth, pair_count=3)
    # In-shard RPQ engines pinned to the product-BFS fallback; the
    # cross-shard route is whatever the planner picks.
    _assert_rpq_bfs_matches(
        handle, truth, [shard._rpq_engine() for shard in handle.shards],
        5)
