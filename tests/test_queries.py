"""Tests for grammar queries: index, neighborhood, reachability,
components — validated against networkx on the decompressed graph."""

import random

import networkx as nx
import pytest

from helpers import COMPRESSORS, copies_graph, random_simple_graph, \
    star_graph, theta_graph

from repro import CompressedGraph, GRePairSettings, compress, derive
from repro.exceptions import QueryError
from repro.queries.index import GrammarIndex


def _queries_and_truth(graph, alphabet, settings=None,
                       engine="incremental"):
    result = COMPRESSORS[engine](graph, alphabet,
                                 settings or GRePairSettings())
    queries = CompressedGraph.from_grammar(result.grammar)
    val = derive(result.grammar.canonicalize())
    truth = nx.DiGraph()
    truth.add_nodes_from(val.nodes())
    for _, edge in val.edges():
        truth.add_edge(*edge.att)
    return queries, truth, result


class TestIndex:
    def test_locate_getid_inverse(self):
        graph, alphabet = copies_graph(16)
        result = compress(graph, alphabet)
        index = GrammarIndex(result.grammar.canonicalize())
        for node_id in range(1, index.total_nodes + 1):
            rep = index.locate(node_id)
            assert index.get_id(rep.edges, rep.node) == node_id

    def test_total_nodes_matches_val(self):
        graph, alphabet = star_graph(80)
        result = compress(graph, alphabet)
        index = GrammarIndex(result.grammar.canonicalize())
        assert index.total_nodes == derive(
            result.grammar.canonicalize()).node_size

    def test_start_nodes_have_empty_paths(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet)
        index = GrammarIndex(result.grammar.canonicalize())
        rep = index.locate(1)
        assert rep.edges == ()
        assert rep.node == 1

    def test_out_of_range_rejected(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet)
        index = GrammarIndex(result.grammar.canonicalize())
        with pytest.raises(QueryError):
            index.locate(0)
        with pytest.raises(QueryError):
            index.locate(index.total_nodes + 1)


class TestNeighborhood:
    @pytest.mark.parametrize("builder,seed", [
        (lambda: random_simple_graph(1), None),
        (lambda: copies_graph(24), None),
        (lambda: star_graph(100), None),
        (lambda: theta_graph(5), None),
    ])
    def test_all_nodes_match_networkx(self, builder, seed):
        graph, alphabet = builder()
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        for node in truth.nodes():
            assert queries.out(node) == sorted(
                truth.successors(node))
            assert queries.in_(node) == sorted(
                truth.predecessors(node))
            undirected = set(truth.successors(node)) | set(
                truth.predecessors(node))
            assert queries.neighborhood(node) == sorted(undirected)

    def test_neighbors_without_prune(self):
        """Deep grammars (no pruning) exercise long getID paths."""
        graph, alphabet = copies_graph(16)
        queries, truth, _ = _queries_and_truth(
            graph, alphabet, GRePairSettings(prune=False))
        for node in truth.nodes():
            assert queries.out(node) == sorted(
                truth.successors(node))


class TestReachability:
    @pytest.mark.parametrize("builder", [
        lambda: random_simple_graph(2, num_nodes=30, num_edges=70),
        lambda: copies_graph(16),
        lambda: star_graph(60),
    ])
    def test_samples_match_networkx(self, builder):
        graph, alphabet = builder()
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        rng = random.Random(99)
        nodes = list(truth.nodes())
        for _ in range(400):
            source = rng.choice(nodes)
            target = rng.choice(nodes)
            assert queries.reach(source, target) == nx.has_path(
                truth, source, target), (source, target)

    def test_self_reachability(self):
        graph, alphabet = theta_graph()
        queries, _, _ = _queries_and_truth(graph, alphabet)
        assert queries.reach(1, 1)

    def test_within_one_deep_instance(self):
        """Both endpoints inside the same derived block."""
        graph, alphabet = copies_graph(32)
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        # Component nodes are contiguous in val; test all pairs of the
        # last component (deepest derivation path).
        last = max(truth.nodes())
        block = [last - i for i in range(4)]
        for source in block:
            for target in block:
                assert queries.reach(source, target) == nx.has_path(
                    truth, source, target)

    def test_exhaustive_on_small_graph(self):
        graph, alphabet = random_simple_graph(5, num_nodes=15,
                                              num_edges=30)
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        for source in truth.nodes():
            for target in truth.nodes():
                assert queries.reach(source, target) == nx.has_path(
                    truth, source, target)


class TestComponents:
    @pytest.mark.parametrize("builder", [
        lambda: random_simple_graph(3, num_nodes=40, num_edges=50),
        lambda: copies_graph(20),
        lambda: star_graph(64),
        lambda: theta_graph(),
    ])
    def test_component_count_matches(self, builder):
        graph, alphabet = builder()
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        expected = nx.number_connected_components(truth.to_undirected())
        assert queries.components() == expected

    def test_isolated_nodes_counted(self):
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph.from_edges([(t, (1, 2))], num_nodes=5)
        queries, _, _ = _queries_and_truth(graph, alphabet)
        assert queries.components() == 4


class TestEngineOracle:
    """Query answers must match BFS ground truth under both engines.

    The maintenance engine changes how the grammar is built, never what
    it derives: for random (s, t) probes, grammar reachability has to
    equal BFS on the decompressed graph whether the engine or the
    recount oracle (``helpers.RecountGRePair``) produced the grammar,
    and the two derived graphs must agree on global counts.
    """

    ENGINES = ("incremental", "recount")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("builder,probes", [
        (lambda: random_simple_graph(31, num_nodes=35, num_edges=80), 150),
        (lambda: copies_graph(12), 150),
        (lambda: star_graph(50), 80),
        (lambda: theta_graph(4), 40),
    ])
    def test_reachability_matches_bfs(self, engine, builder, probes):
        graph, alphabet = builder()
        queries, truth, _ = _queries_and_truth(graph, alphabet,
                                               engine=engine)
        rng = random.Random(4242)
        nodes = list(truth.nodes())
        for _ in range(probes):
            source = rng.choice(nodes)
            target = rng.choice(nodes)
            expected = nx.has_path(truth, source, target)
            assert queries.reach(source, target) == expected, (
                engine, source, target)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_neighborhoods_match_bfs_truth(self, engine):
        graph, alphabet = random_simple_graph(32, num_nodes=30,
                                              num_edges=70)
        queries, truth, _ = _queries_and_truth(graph, alphabet,
                                               engine=engine)
        for node in truth.nodes():
            assert queries.out(node) == sorted(
                truth.successors(node))
            assert queries.in_(node) == sorted(
                truth.predecessors(node))

    def test_engines_agree_on_global_answers(self):
        graph, alphabet = random_simple_graph(33, num_nodes=40,
                                              num_edges=90)
        answers = {}
        for engine in self.ENGINES:
            queries, truth, _ = _queries_and_truth(graph, alphabet,
                                                   engine=engine)
            answers[engine] = (
                queries.node_count(),
                queries.edge_count(),
                queries.components(),
                nx.number_connected_components(truth.to_undirected()),
            )
        assert answers["incremental"] == answers["recount"]


class TestCounts:
    def test_node_and_edge_counts(self):
        graph, alphabet = copies_graph(24)
        queries, truth, _ = _queries_and_truth(graph, alphabet)
        assert queries.node_count() == truth.number_of_nodes()
        assert queries.edge_count() == truth.number_of_edges()

    def test_counts_without_materializing(self):
        """Counts agree with the grammar's derived_counts arithmetic."""
        graph, alphabet = star_graph(128)
        result = compress(graph, alphabet)
        queries = CompressedGraph.from_grammar(result.grammar)
        assert queries.node_count() == 129
        assert queries.edge_count() == 128
