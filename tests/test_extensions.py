"""Tests for the extension modules: regular path queries, compressed
traversal, string RePair, and string/tree graph embeddings."""

import random

import networkx as nx
import pytest

from helpers import copies_graph, random_simple_graph

from repro import Alphabet, CompressedGraph, Hypergraph, compress, derive
from repro.baselines.strrepair import string_repair
from repro.datasets.strings import (
    balanced_binary_tree,
    graph_to_string,
    repeated_string,
    string_to_graph,
    tree_to_graph,
)
from repro.exceptions import DatasetError, QueryError
from repro.queries.index import GrammarIndex
from repro.queries.paths import LabelDFA, RegularPathQueries
from repro.queries.traversal import (
    bfs_distances,
    count_triangles,
    degree_histogram,
    shortest_path,
)


def _labeled_chain(segments):
    """Graph 1 -a-> 2 -b-> 3 ... from a label-name list."""
    alphabet = Alphabet()
    graph = Hypergraph()
    previous = graph.add_node()
    for name in segments:
        label = alphabet.ensure_terminal(name, 2)
        nxt = graph.add_node()
        graph.add_edge(label, (previous, nxt))
        previous = nxt
    return graph, alphabet


class TestLabelDFA:
    def test_word_automaton(self):
        dfa = LabelDFA.word([1, 2, 1])
        state = dfa.start
        for label in (1, 2, 1):
            state = dfa.step(state, label)
        assert state in dfa.accepting
        assert dfa.step(dfa.start, 2) is None

    def test_star_accepts_empty(self):
        dfa = LabelDFA.star(3)
        assert dfa.start in dfa.accepting

    def test_plus_requires_one(self):
        dfa = LabelDFA.plus(3)
        assert dfa.start not in dfa.accepting
        assert dfa.step(dfa.start, 3) in dfa.accepting

    def test_invalid_states_rejected(self):
        with pytest.raises(QueryError):
            LabelDFA(1, 5, [0], {})
        with pytest.raises(QueryError):
            LabelDFA(1, 0, [9], {})


class TestRegularPathQueries:
    def _rpq(self, graph, alphabet, dfa):
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        index = GrammarIndex(canonical)
        return RegularPathQueries(index, dfa), canonical

    def test_word_query_on_chain(self):
        graph, alphabet = _labeled_chain(["a", "b", "a", "b"])
        a = alphabet.by_name("a")
        b = alphabet.by_name("b")
        rpq, canonical = self._rpq(graph, alphabet,
                                   LabelDFA.word([a, b]))
        val = derive(canonical)
        # Find the path order in val: node with in-degree 0 is start.
        # The chain is 5 nodes; (start -> start+2 hops) matches "ab".
        indeg = {v: 0 for v in val.nodes()}
        succ = {}
        for _, e in val.edges():
            succ[e.att[0]] = e.att[1]
            indeg[e.att[1]] += 1
        start = next(v for v in val.nodes() if indeg[v] == 0)
        second = succ[start]
        third = succ[second]
        assert rpq.matches(start, third)        # spells "ab"
        assert not rpq.matches(start, second)   # spells "a"

    def test_star_query_reduces_to_reachability(self):
        graph, alphabet = random_simple_graph(4, num_nodes=20,
                                              num_edges=50,
                                              num_labels=1)
        label = alphabet.by_name("L0")
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        rpq = RegularPathQueries(GrammarIndex(canonical),
                                 LabelDFA.any_path([label]))
        queries = CompressedGraph.from_grammar(result.grammar)
        val = derive(canonical)
        rng = random.Random(3)
        nodes = sorted(val.nodes())
        for _ in range(150):
            s, t = rng.choice(nodes), rng.choice(nodes)
            assert rpq.matches(s, t) == queries.reach(s, t)

    def test_label_constrained_vs_networkx(self):
        graph, alphabet = random_simple_graph(6, num_nodes=18,
                                              num_edges=55,
                                              num_labels=2)
        a = alphabet.by_name("L0")
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        rpq = RegularPathQueries(GrammarIndex(canonical),
                                 LabelDFA.plus(a))
        val = derive(canonical)
        truth = nx.DiGraph()
        truth.add_nodes_from(val.nodes())
        for _, edge in val.edges():
            if edge.label == a:
                truth.add_edge(*edge.att)
        for s in truth.nodes():
            reach = nx.descendants(truth, s)
            for t in truth.nodes():
                if s == t:
                    # a+ from s back to s needs a genuine a-cycle
                    # (nx.descendants always excludes the source).
                    expected = any(
                        s == mid or s in nx.descendants(truth, mid)
                        for mid in truth.successors(s))
                else:
                    expected = t in reach
                assert rpq.matches(s, t) == expected, (s, t)

    def test_rpq_on_compressed_copies(self):
        """Deep grammar: a+ inside each copy."""
        graph, alphabet = copies_graph(16)
        a = alphabet.by_name("a")
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        rpq = RegularPathQueries(GrammarIndex(canonical),
                                 LabelDFA.plus(a))
        val = derive(canonical)
        truth = nx.DiGraph()
        truth.add_nodes_from(val.nodes())
        for _, edge in val.edges():
            if edge.label == a:
                truth.add_edge(*edge.att)
        rng = random.Random(8)
        nodes = sorted(val.nodes())
        for _ in range(200):
            s, t = rng.choice(nodes), rng.choice(nodes)
            expected = s != t and nx.has_path(truth, s, t)
            if s == t:
                expected = False  # a+ needs at least one edge... unless
                # a self-returning a-cycle exists:
                expected = any(
                    t in nx.descendants(truth, mid)
                    for mid in truth.successors(s)
                ) if truth.out_degree(s) else False
            assert rpq.matches(s, t) == expected, (s, t)


class TestTraversal:
    def _setup(self, seed=1):
        graph, alphabet = random_simple_graph(seed, num_nodes=25,
                                              num_edges=60)
        result = compress(graph, alphabet)
        queries = CompressedGraph.from_grammar(result.grammar)
        val = derive(result.grammar.canonicalize())
        truth = nx.DiGraph()
        truth.add_nodes_from(val.nodes())
        for _, edge in val.edges():
            truth.add_edge(*edge.att)
        return queries, truth

    def test_bfs_distances(self):
        queries, truth = self._setup()
        source = 1
        ours = bfs_distances(queries, source)
        expected = nx.single_source_shortest_path_length(truth, source)
        assert ours == dict(expected)

    def test_bfs_max_hops(self):
        queries, truth = self._setup()
        limited = bfs_distances(queries, 1, max_hops=2)
        assert all(d <= 2 for d in limited.values())

    def test_shortest_path(self):
        queries, truth = self._setup()
        rng = random.Random(0)
        nodes = sorted(truth.nodes())
        for _ in range(20):
            s, t = rng.choice(nodes), rng.choice(nodes)
            path = shortest_path(queries, s, t)
            if path is None:
                assert not nx.has_path(truth, s, t)
            else:
                assert path[0] == s and path[-1] == t
                assert len(path) - 1 == nx.shortest_path_length(
                    truth, s, t)
                for u, v in zip(path, path[1:]):
                    assert truth.has_edge(u, v)

    def test_degree_histogram(self):
        queries, truth = self._setup()
        ours = degree_histogram(queries)
        expected = {}
        for node in truth.nodes():
            expected[truth.out_degree(node)] = expected.get(
                truth.out_degree(node), 0) + 1
        assert dict(ours) == expected

    def test_count_triangles(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph.from_edges(
            [(t, (1, 2)), (t, (2, 3)), (t, (3, 1)),   # triangle
             (t, (3, 4)), (t, (4, 5))])
        result = compress(graph, alphabet)
        queries = CompressedGraph.from_grammar(result.grammar)
        assert count_triangles(queries) == 1

    def test_out_of_range_source(self):
        queries, _ = self._setup()
        with pytest.raises(QueryError):
            bfs_distances(queries, 0)
        with pytest.raises(QueryError):
            shortest_path(queries, 1, 10_000)


class TestStringRePair:
    def test_abab_example(self):
        """The paper's introduction: ababab -> S=AAA, A=ab (size 5)."""
        grammar = string_repair([1, 2, 1, 2, 1, 2])
        assert grammar.expand() == [1, 2, 1, 2, 1, 2]
        assert grammar.size <= 5

    def test_abcabcabc_example(self):
        """Section III's example with pruning: B -> abc."""
        grammar = string_repair([1, 2, 3] * 3)
        assert grammar.expand() == [1, 2, 3] * 3
        # After pruning: S -> BBB, B -> abc: size 3 + 3 = 6.
        assert grammar.size == 6

    def test_incompressible_string(self):
        grammar = string_repair([1, 2, 3, 4, 5, 6])
        assert grammar.size == 6
        assert not grammar.rules

    def test_random_roundtrip(self):
        rng = random.Random(9)
        for _ in range(10):
            text = [rng.randrange(4) + 1
                    for _ in range(rng.randrange(1, 200))]
            grammar = string_repair(text)
            assert grammar.expand() == text
            assert grammar.size <= len(text)

    def test_overlapping_runs(self):
        """aaa...: non-overlap counting must not loop or miscount."""
        grammar = string_repair([7] * 64)
        assert grammar.expand() == [7] * 64
        assert grammar.size < 16  # doubling hierarchy


class TestStringGraphs:
    def test_string_roundtrip(self):
        graph, alphabet = string_to_graph("abracadabra")
        assert graph_to_string(graph, alphabet) == list("abracadabra")

    def test_empty_string_rejected(self):
        with pytest.raises(DatasetError):
            string_to_graph("")

    def test_section6_claim_on_repetitive_string(self):
        """gRePair on a string graph compresses like string RePair."""
        text = repeated_string("ab", 64)
        graph, alphabet = string_to_graph(text)
        graph_result = compress(graph, alphabet)
        string_grammar = string_repair(
            [1 if c == "a" else 2 for c in text])
        # Grammar sizes in the same ballpark (graphs pay for nodes).
        assert graph_result.grammar.size <= 6 * string_grammar.size
        assert derive(graph_result.grammar).num_edges == len(text)

    def test_tree_embedding(self):
        tree = balanced_binary_tree(3)
        graph, alphabet = tree_to_graph(tree)
        assert graph.node_size == 2 ** 4 - 1
        assert graph.num_edges == 2 ** 4 - 2 + 1  # edges + root marker

    def test_tree_compresses(self):
        tree = balanced_binary_tree(6)  # 127 nodes, very repetitive
        graph, alphabet = tree_to_graph(tree)
        result = compress(graph, alphabet)
        assert result.size_ratio < 0.35
        derived = derive(result.grammar)
        assert derived.node_size == graph.node_size
        assert derived.num_edges == graph.num_edges

    def test_balanced_tree_validation(self):
        with pytest.raises(DatasetError):
            balanced_binary_tree(-1)
        with pytest.raises(DatasetError):
            repeated_string("ab", 0)
