"""Unit and behavior tests for the gRePair algorithm itself."""

import pytest

from helpers import (
    copies_graph,
    isomorphic,
    recount_compress,
    star_graph,
    theta_graph,
)

from repro import (
    Alphabet,
    GRePair,
    GRePairSettings,
    Hypergraph,
    compress,
    derive,
)
from repro.core.alphabet import VIRTUAL_LABEL_NAME
from repro.exceptions import GrammarError


class TestFigure1:
    """The paper's running example: theta graph -> S = AAA, A -> ab."""

    def test_grammar_shape(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(order="natural"))
        grammar = result.grammar
        assert grammar.num_rules == 1
        (rule,) = list(grammar.rules())
        assert rule.rhs.num_edges == 2
        assert rule.rhs.rank == 2
        start_labels = {edge.label for _, edge in grammar.start.edges()}
        assert start_labels == {rule.lhs}
        assert grammar.start.num_edges == 3

    def test_size_shrinks(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet,
                          GRePairSettings(order="natural"))
        assert result.grammar.size < graph.total_size

    def test_roundtrip_isomorphic(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)


class TestFigure1c:
    """The paper's Figure 1c point: digrams whose nodes are all
    external would need hyperedges, and 'hyperedges are more expensive
    than ordinary ones' — no compression is achieved."""

    def test_no_gain_when_every_node_is_external(self):
        # Theta graph plus a c-triangle over the middle nodes: every
        # node of every (a, b) digram now has outside edges, so only
        # rank-3+ digrams exist and none of them pays for its rule.
        alphabet = Alphabet()
        a = alphabet.add_terminal(2, "a")
        b = alphabet.add_terminal(2, "b")
        c = alphabet.add_terminal(2, "c")
        graph = Hypergraph()
        source = graph.add_node()
        target = graph.add_node()
        middles = []
        for _ in range(3):
            middle = graph.add_node()
            middles.append(middle)
            graph.add_edge(a, (source, middle))
            graph.add_edge(b, (middle, target))
        graph.add_edge(c, (middles[0], middles[1]))
        graph.add_edge(c, (middles[1], middles[2]))
        graph.add_edge(c, (middles[2], middles[0]))
        result = compress(graph, alphabet,
                          GRePairSettings(order="natural"))
        assert result.grammar.size == graph.total_size
        assert result.grammar.num_rules == 0
        assert isomorphic(derive(result.grammar), graph)


class TestMaxRank:
    def test_high_rank_digrams_skipped(self):
        """With maxRank=2, no nonterminal exceeds rank 2."""
        graph, alphabet = copies_graph(8)
        result = compress(graph, alphabet, GRePairSettings(max_rank=2))
        for rule in result.grammar.rules():
            assert rule.rhs.rank <= 2

    def test_max_rank_bounds_all_rules(self):
        graph, alphabet = copies_graph(8)
        result = compress(graph, alphabet, GRePairSettings(max_rank=3))
        for rule in result.grammar.rules():
            assert rule.rhs.rank <= 3

    def test_invalid_max_rank_rejected(self):
        graph, alphabet = theta_graph()
        with pytest.raises(GrammarError):
            GRePair(graph, alphabet, max_rank=1)


class TestStarCompression:
    """The RDF-types mechanism: hub stars compress to log size."""

    def test_star_compresses_heavily(self):
        graph, alphabet = star_graph(200)
        result = compress(graph, alphabet)
        assert result.size_ratio < 0.15
        assert isomorphic(derive(result.grammar), graph)

    def test_star_grammar_is_hierarchical(self):
        graph, alphabet = star_graph(64)
        result = compress(graph, alphabet)
        assert result.grammar.height() >= 3  # doubling hierarchy


class TestVirtualEdges:
    def test_disconnected_copies_need_virtual_pass(self):
        graph, alphabet = copies_graph(32)
        with_virtual = compress(graph, alphabet,
                                GRePairSettings(virtual_edges=True))
        without = compress(graph, alphabet,
                           GRePairSettings(virtual_edges=False))
        assert with_virtual.grammar.size < without.grammar.size

    def test_no_virtual_edges_remain(self):
        graph, alphabet = copies_graph(32)
        result = compress(graph, alphabet)
        grammar = result.grammar
        virtual = grammar.alphabet.by_name(VIRTUAL_LABEL_NAME)
        for host in [grammar.start] + [r.rhs for r in grammar.rules()]:
            assert not host.edges_with_label(virtual)

    def test_roundtrip_with_virtual_pass(self):
        graph, alphabet = copies_graph(32)
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)

    def test_virtual_stats_recorded(self):
        graph, alphabet = copies_graph(16)
        result = compress(graph, alphabet)
        assert result.stats["virtual_edges_added"] == 15

    def test_connected_graph_skips_virtual_pass(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet)
        assert result.stats["virtual_edges_added"] == 0


class TestDeterminism:
    def test_same_input_same_grammar(self):
        graph, alphabet = copies_graph(16)
        first = compress(graph, alphabet)
        second = compress(graph, alphabet)
        assert first.grammar.size == second.grammar.size
        assert (first.grammar.start.edge_multiset()
                == second.grammar.start.edge_multiset())

    def test_input_not_mutated(self):
        graph, alphabet = theta_graph()
        before_edges = graph.num_edges
        before_labels = len(alphabet)
        compress(graph, alphabet)
        assert graph.num_edges == before_edges
        assert len(alphabet) == before_labels

    def test_single_use_guard(self):
        graph, alphabet = theta_graph()
        algorithm = GRePair(graph.copy(), alphabet.copy())
        algorithm.run()
        with pytest.raises(GrammarError):
            algorithm.run()


class TestTermination:
    def test_empty_graph(self):
        alphabet = Alphabet()
        alphabet.add_terminal(2, "t")
        result = compress(Hypergraph(), alphabet)
        assert result.grammar.num_rules == 0

    def test_single_edge(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph.from_edges([(t, (1, 2))])
        result = compress(graph, alphabet)
        assert result.grammar.num_rules == 0
        assert isomorphic(derive(result.grammar), graph)

    def test_no_repeats_no_rules(self):
        """Every digram unique -> grammar equals the input."""
        alphabet = Alphabet()
        labels = [alphabet.add_terminal(2, f"u{i}") for i in range(6)]
        graph = Hypergraph()
        nodes = [graph.add_node() for _ in range(7)]
        for i, label in enumerate(labels):
            graph.add_edge(label, (nodes[i], nodes[i + 1]))
        result = compress(graph, alphabet)
        assert result.grammar.num_rules == 0

    def test_terminates_on_dense_graph(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph()
        nodes = [graph.add_node() for _ in range(12)]
        for u in nodes:
            for v in nodes:
                if u != v:
                    graph.add_edge(t, (u, v))
        result = compress(graph, alphabet)
        assert isomorphic(derive(result.grammar), graph)


class TestEngines:
    """The engine's pass guarantees, and agreement with the oracle."""

    def test_incremental_never_recounts(self):
        for builder in (theta_graph, lambda: copies_graph(16),
                        lambda: star_graph(100)):
            graph, alphabet = builder()
            result = compress(graph, alphabet)
            assert result.stats["recount_passes"] == 0
            # At most one seed pass per phase (main + virtual).
            assert result.stats["passes"] <= 2

    def test_engines_produce_equivalent_grammars(self):
        graph, alphabet = copies_graph(24)
        incremental = compress(graph, alphabet)
        recount = recount_compress(graph, alphabet)
        assert incremental.grammar.size == recount.grammar.size
        assert isomorphic(derive(incremental.grammar), graph)
        assert isomorphic(derive(recount.grammar), graph)

    def test_queue_instrumentation_recorded(self):
        graph, alphabet = copies_graph(16)
        result = compress(graph, alphabet)
        assert result.stats["queue_pops"] > 0
        assert result.stats["queue_pushes"] > 0
        assert result.stats_obj.as_dict() == result.stats

    def test_streaming_guards(self):
        graph, alphabet = theta_graph()
        algorithm = GRePair(graph.copy(), alphabet.copy())
        with pytest.raises(GrammarError):
            algorithm.ingest_edge(1, (1, 2))
        with pytest.raises(GrammarError):
            algorithm.drain()
        with pytest.raises(GrammarError):
            algorithm.finish_streaming()


class TestNodeOrderEffect:
    def test_orders_can_change_outcome(self):
        """Different ω may find different occurrence sets (Fig. 5)."""
        graph, alphabet = copies_graph(16)
        sizes = {
            order: compress(graph, alphabet,
                            GRePairSettings(order=order)).grammar.size
            for order in ("fp", "natural", "random")
        }
        # All must round-trip; sizes may differ but stay positive.
        assert all(size > 0 for size in sizes.values())

    def test_fp_best_or_tied_on_version_like_input(self):
        graph, alphabet = copies_graph(24)
        fp = compress(graph, alphabet, GRePairSettings(order="fp"))
        rnd = compress(graph, alphabet,
                       GRePairSettings(order="random", seed=5))
        assert fp.grammar.size <= rnd.grammar.size
