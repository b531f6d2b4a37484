"""Tests for the degree-extrema speed-up queries."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import copies_graph, random_simple_graph, star_graph

from repro import (
    Alphabet,
    CompressedGraph,
    Hypergraph,
    SLHRGrammar,
    compress,
    derive,
)
from repro.exceptions import QueryError
from repro.queries import DegreeQueries


def _truth_extrema(graph):
    out = {v: 0 for v in graph.nodes()}
    into = {v: 0 for v in graph.nodes()}
    for _, edge in graph.edges():
        out[edge.att[0]] += 1
        into[edge.att[1]] += 1
    totals = {v: out[v] + into[v] for v in graph.nodes()}
    return (max(out.values()), min(out.values()),
            max(into.values()), min(into.values()),
            max(totals.values()), min(totals.values()))


def _check(graph, alphabet):
    result = compress(graph, alphabet)
    canonical = result.grammar.canonicalize()
    queries = DegreeQueries(canonical)
    val = derive(canonical)
    truth = _truth_extrema(val)
    measured = (queries.max_out_degree(), queries.min_out_degree(),
                queries.max_in_degree(), queries.min_in_degree(),
                queries.max_degree(), queries.min_degree())
    assert measured == truth


class TestDegreeQueries:
    def test_random_graph(self):
        _check(*random_simple_graph(1))

    def test_star(self):
        graph, alphabet = star_graph(100)
        _check(graph, alphabet)
        result = compress(graph, alphabet)
        queries = DegreeQueries(result.grammar.canonicalize())
        assert queries.max_in_degree() == 100
        assert queries.min_out_degree() == 0  # the hub

    def test_copies(self):
        _check(*copies_graph(32))

    def test_isolated_nodes_have_degree_zero(self):
        alphabet = Alphabet()
        t = alphabet.add_terminal(2, "t")
        graph = Hypergraph.from_edges([(t, (1, 2))], num_nodes=4)
        result = compress(graph, alphabet)
        queries = DegreeQueries(result.grammar.canonicalize())
        assert queries.min_degree() == 0
        assert queries.max_degree() == 1

    def test_empty_graph_rejected(self):
        alphabet = Alphabet()
        alphabet.add_terminal(2, "t")
        grammar = SLHRGrammar(alphabet, Hypergraph())
        queries = DegreeQueries(grammar)
        with pytest.raises(QueryError):
            queries.max_degree()

    def test_facade_accessor(self):
        graph, alphabet = star_graph(30)
        result = compress(graph, alphabet)
        queries = CompressedGraph.from_grammar(result.grammar)
        assert queries.degree()["max_in"] == 30

    def test_hyperedge_terminal_rejected(self):
        alphabet = Alphabet()
        h = alphabet.add_terminal(3, "h")
        start = Hypergraph.from_edges([(h, (1, 2, 3))])
        grammar = SLHRGrammar(alphabet, start)
        with pytest.raises(QueryError):
            DegreeQueries(grammar)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_degree_extrema_property(seed):
    graph, alphabet = random_simple_graph(seed, num_nodes=20,
                                          num_edges=45, num_labels=2)
    _check(graph, alphabet)
