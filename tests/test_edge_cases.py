"""Cross-cutting edge cases: hyperedge encodings, index inversion,
mapping recovery, odd graph shapes."""

import pytest

from helpers import isomorphic

from repro import (
    Alphabet,
    CompressedGraph,
    GRePairSettings,
    Hypergraph,
    SLHRGrammar,
    compress,
    derive,
)
from repro.core.derivation import derive_with_mapping
from repro.encoding import decode_grammar, encode_grammar
from repro.exceptions import QueryError
from repro.queries.index import GrammarIndex


def _hyper_nt_graph():
    """A graph whose compression provably mints rank-3 nonterminals.

    Many copies of a wedge whose three nodes all carry extra edges:
    the (a, b) digram has rank 3, is frequent, and saves size because
    the rule is shared widely (ref is high).
    """
    alphabet = Alphabet()
    a = alphabet.add_terminal(2, "a")
    b = alphabet.add_terminal(2, "b")
    c = alphabet.add_terminal(2, "c")
    graph = Hypergraph()
    anchor = graph.add_node()
    for _ in range(24):
        x = graph.add_node()
        y = graph.add_node()
        z = graph.add_node()
        graph.add_edge(a, (x, y))
        graph.add_edge(b, (y, z))
        # anchor edges keep x, y, z external
        graph.add_edge(c, (anchor, x))
        graph.add_edge(c, (anchor, y))
        graph.add_edge(c, (anchor, z))
    return graph, alphabet


class TestHyperedgeNonterminals:
    """Rank >= 3 nonterminals only survive with pruning disabled.

    A bare rank-3 digram rule has |rhs| <= 6 = |handle(3)|, so
    con(A) <= -|rhs| < 0 — the paper's own size arithmetic makes
    pruning remove every plain hyperedge rule (this is why Table IV
    finds little benefit beyond maxRank 2-4; asserted here).  To
    exercise hyperedge nonterminals end to end we compress with
    prune=False.
    """

    def test_plain_rank3_rules_never_contribute(self):
        from repro.core.grammar import handle_size
        # rank-3 digram: at most 4 nodes (one internal) + 2 edges.
        assert 4 + 2 <= handle_size(3)
        assert 4 + 2 < handle_size(4) + 1

    def test_rank3_rules_created_without_pruning(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(max_rank=4, prune=False))
        ranks = {rule.rhs.rank for rule in result.grammar.rules()}
        assert any(rank >= 3 for rank in ranks)

    def test_pruning_removes_plain_hyperedge_rules(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet, GRePairSettings(max_rank=4))
        for rule in result.grammar.rules():
            if rule.rhs.rank >= 3:
                # Only inlining-grown rules may survive.
                assert rule.rhs.num_edges > 2

    def test_container_roundtrip_with_hyperedges(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(max_rank=4, prune=False))
        decoded = decode_grammar(encode_grammar(result.grammar))
        original = derive(result.grammar.canonicalize())
        restored = derive(decoded)
        assert original.edge_multiset() == restored.edge_multiset()
        assert original.node_size == restored.node_size

    def test_queries_with_hyperedge_nonterminals(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(max_rank=4, prune=False))
        queries = CompressedGraph.from_grammar(result.grammar)
        val = derive(result.grammar.canonicalize())
        out = {v: set() for v in val.nodes()}
        for _, edge in val.edges():
            out[edge.att[0]].add(edge.att[1])
        for node in val.nodes():
            assert set(queries.out(node)) == out[node]

    def test_isomorphic_roundtrip(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(max_rank=4, prune=False))
        assert isomorphic(derive(result.grammar), graph)


class TestIndexInversion:
    def test_get_id_resolves_externals(self):
        """get_id accepts external nodes of the last rhs (paper's
        getID walks parents)."""
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        index = GrammarIndex(canonical)
        for node_id in range(1, index.total_nodes + 1):
            rep = index.locate(node_id)
            if not rep.edges:
                continue
            host = index.host_of(rep)
            # Resolve every node of this host through the same path.
            for node in host.nodes():
                resolved = index.get_id(rep.edges, node)
                assert 1 <= resolved <= index.total_nodes
            break

    def test_label_of_path_errors(self):
        graph, alphabet = _hyper_nt_graph()
        result = compress(graph, alphabet)
        index = GrammarIndex(result.grammar.canonicalize())
        with pytest.raises(QueryError):
            index.label_of_path([])


class TestDeriveWithMapping:
    def test_mapping_reattaches_data_values(self):
        """The paper's phi: V -> D survives through compression."""
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        data = {}
        for i in range(6):
            node = graph.add_node()
            data[node] = f"payload-{i}"
        for i in range(1, 6):
            graph.add_edge(t, (i, i + 1))
        result = compress(graph, alphabet)
        canonical = result.grammar.canonicalize()
        val, mapping = derive_with_mapping(canonical)
        # Start-graph survivors keep traceable identities; the count of
        # all derived nodes matches the original.
        assert val.node_size == graph.node_size
        assert set(mapping.values()) <= set(val.nodes())


class TestOddShapes:
    def test_two_node_graph(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph.from_edges([(t, (1, 2)), (t, (2, 1))])
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)

    def test_all_isolated_nodes(self):
        alphabet = Alphabet()
        alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        for _ in range(10):
            graph.add_node()
        result = compress(graph, alphabet)
        derived = derive(result.grammar)
        assert derived.node_size == 10
        assert derived.num_edges == 0

    def test_bidirectional_clique(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        nodes = [graph.add_node() for _ in range(6)]
        for u in nodes:
            for v in nodes:
                if u != v:
                    graph.add_edge(t, (u, v))
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)
        queries = CompressedGraph.from_grammar(result.grammar)
        assert queries.components() == 1
        assert queries.degree()["max"] == 10

    def test_long_cycle(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        nodes = [graph.add_node() for _ in range(257)]
        for i, node in enumerate(nodes):
            graph.add_edge(t, (node, nodes[(i + 1) % len(nodes)]))
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)
        queries = CompressedGraph.from_grammar(result.grammar)
        # Every node reaches every node on a directed cycle.
        assert queries.reach(1, 200)
        assert queries.reach(200, 1)

    def test_hyperedge_terminal_input(self):
        """Inputs may themselves contain hyperedges (the model allows
        it); compression and encoding must round-trip them."""
        alphabet = Alphabet()
        h = alphabet.add_terminal(3, "h")
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        for _ in range(12):
            a = graph.add_node()
            b = graph.add_node()
            c = graph.add_node()
            graph.add_edge(h, (a, b, c))
            graph.add_edge(t, (a, c))
        result = compress(graph, alphabet)
        decoded = decode_grammar(encode_grammar(result.grammar))
        original = derive(result.grammar.canonicalize())
        restored = derive(decoded)
        assert original.edge_multiset() == restored.edge_multiset()
