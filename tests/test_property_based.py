"""Hypothesis property tests over the whole pipeline.

The central invariants of the system:

1. gRePair is lossless: ``val(compress(g))`` is isomorphic to ``g``
   for arbitrary simple labeled digraphs and arbitrary settings —
   including quirky shapes: rank-1 edges (the model's stand-in for
   self-loops, since attachments are repetition-free), parallel
   edges, isolated nodes and disconnected components.
2. The engine and its recount oracle (``helpers.RecountGRePair``)
   both uphold invariant 1 and agree closely.
3. The binary container is exact: decoding an encoded grammar
   reproduces the identical derived graph (same node IDs).
4. Grammar queries agree with the decompressed graph.
"""

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import COMPRESSORS, isomorphic

from repro import (
    Alphabet,
    CompressedGraph,
    GRePairSettings,
    Hypergraph,
    StreamingCompressor,
    compress,
    derive,
)
from repro.encoding import decode_grammar, encode_grammar

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_alphabet(draw):
    """A random simple labeled digraph plus its alphabet."""
    seed = draw(st.integers(0, 10**6))
    num_nodes = draw(st.integers(2, 30))
    num_labels = draw(st.integers(1, 4))
    density = draw(st.floats(0.02, 0.35))
    rng = random.Random(seed)
    alphabet = Alphabet()
    labels = [alphabet.add_terminal(2, f"L{i}") for i in range(num_labels)]
    graph = Hypergraph()
    for _ in range(num_nodes):
        graph.add_node()
    for u in range(1, num_nodes + 1):
        for v in range(1, num_nodes + 1):
            if u != v and rng.random() < density:
                graph.add_edge(rng.choice(labels), (u, v))
    return graph, alphabet


@st.composite
def quirky_graph_and_alphabet(draw):
    """Graphs stressing the edge cases of the data model.

    Beyond the plain strategy this one generates

    * rank-1 edges — the model's self-loop stand-in (attachment
      sequences are repetition-free, so ``(v, v)`` cannot exist),
    * parallel edges (same label, same attachment, distinct edges),
    * isolated nodes (kept through compression and derivation),
    * several disconnected components (exercising the virtual-edge
      pass on irregular shapes).
    """
    seed = draw(st.integers(0, 10**6))
    num_components = draw(st.integers(1, 4))
    num_labels = draw(st.integers(1, 3))
    unary_labels = draw(st.integers(0, 2))
    rng = random.Random(seed)
    alphabet = Alphabet()
    binary = [alphabet.add_terminal(2, f"L{i}")
              for i in range(num_labels)]
    unary = [alphabet.add_terminal(1, f"U{i}")
             for i in range(unary_labels)]
    graph = Hypergraph()
    for _ in range(num_components):
        size = rng.randint(1, 12)
        nodes = [graph.add_node() for _ in range(size)]
        # ~15% of nodes stay isolated inside their component.
        wired = [n for n in nodes if rng.random() > 0.15] or nodes[:1]
        for _ in range(rng.randint(0, 2 * len(wired))):
            u, v = rng.choice(wired), rng.choice(wired)
            if u != v:
                graph.add_edge(rng.choice(binary), (u, v))
                if rng.random() < 0.2:  # parallel duplicate
                    graph.add_edge(rng.choice(binary), (u, v))
        if unary:
            for node in wired:
                if rng.random() < 0.4:  # self-loop stand-in
                    graph.add_edge(rng.choice(unary), (node,))
    return graph, alphabet


@_settings
@given(graph_and_alphabet(),
       st.integers(2, 5),
       st.sampled_from(["fp", "fp0", "bfs", "dfs", "natural", "random"]),
       st.booleans(),
       st.booleans())
def test_compression_is_lossless(data, max_rank, order, virtual, prune):
    graph, alphabet = data
    result = compress(graph, alphabet, GRePairSettings(
        max_rank=max_rank, order=order, virtual_edges=virtual,
        prune=prune))
    assert isomorphic(derive(result.grammar), graph)


@_settings
@given(graph_and_alphabet())
def test_container_roundtrip_is_exact(data):
    graph, alphabet = data
    result = compress(graph, alphabet)
    decoded = decode_grammar(encode_grammar(result.grammar))
    original = derive(result.grammar.canonicalize())
    restored = derive(decoded)
    assert original.node_size == restored.node_size
    assert original.edge_multiset() == restored.edge_multiset()


@_settings
@given(graph_and_alphabet())
def test_grammar_invariants_hold(data):
    graph, alphabet = data
    result = compress(graph, alphabet)
    grammar = result.grammar
    grammar.validate()
    refs = grammar.references()
    # After pruning, every surviving rule is referenced at least twice
    # and contributes positively.
    for lhs in grammar.nonterminals():
        assert refs[lhs] >= 2
        assert grammar.contribution(lhs, refs) > 0


@_settings
@given(graph_and_alphabet(), st.integers(0, 100))
def test_queries_match_ground_truth(data, probe_seed):
    graph, alphabet = data
    result = compress(graph, alphabet)
    queries = CompressedGraph.from_grammar(result.grammar)
    val = derive(result.grammar.canonicalize())
    truth = nx.DiGraph()
    truth.add_nodes_from(val.nodes())
    for _, edge in val.edges():
        truth.add_edge(*edge.att)
    rng = random.Random(probe_seed)
    nodes = sorted(truth.nodes())
    for _ in range(10):
        node = rng.choice(nodes)
        assert queries.out(node) == sorted(
            truth.successors(node))
        assert queries.in_(node) == sorted(
            truth.predecessors(node))
    for _ in range(10):
        source, target = rng.choice(nodes), rng.choice(nodes)
        assert queries.reach(source, target) == nx.has_path(
            truth, source, target)
    assert queries.components() == \
        nx.number_connected_components(truth.to_undirected())


@_settings
@given(graph_and_alphabet())
def test_size_never_grows_after_pruning(data):
    """|G| <= |g| always holds with pruning enabled."""
    graph, alphabet = data
    result = compress(graph, alphabet)
    assert result.grammar.size <= graph.total_size


@_settings
@given(graph_and_alphabet())
def test_derived_counts_match_materialization(data):
    graph, alphabet = data
    grammar = compress(graph, alphabet).grammar
    val = derive(grammar)
    assert grammar.derived_node_size() == val.node_size
    assert grammar.derived_edge_count() == val.num_edges


@_settings
@given(graph_and_alphabet())
def test_streaming_equals_materialization(data):
    from repro.core.streaming import iter_edges
    graph, alphabet = data
    grammar = compress(graph, alphabet).grammar.canonicalize()
    streamed = sorted(iter_edges(grammar))
    materialized = sorted((edge.label, edge.att)
                          for _, edge in derive(grammar).edges())
    assert streamed == materialized


@_settings
@given(graph_and_alphabet())
def test_canonicalize_is_idempotent(data):
    graph, alphabet = data
    grammar = compress(graph, alphabet).grammar
    once = grammar.canonicalize()
    twice = once.canonicalize()
    assert once.start.edge_multiset() == twice.start.edge_multiset()
    assert derive(once).edge_multiset() == derive(twice).edge_multiset()


# ----------------------------------------------------------------------
# Quirky graphs: self-loop stand-ins, parallel edges, isolated nodes,
# disconnected components — under both maintenance engines.
# ----------------------------------------------------------------------
@_settings
@given(quirky_graph_and_alphabet(),
       st.sampled_from(["incremental", "recount"]),
       st.booleans())
def test_quirky_graphs_roundtrip_on_both_engines(data, engine, virtual):
    graph, alphabet = data
    result = COMPRESSORS[engine](graph, alphabet, GRePairSettings(
        virtual_edges=virtual))
    result.grammar.validate()
    assert isomorphic(derive(result.grammar), graph)
    if engine == "incremental":
        assert result.stats["recount_passes"] == 0


@_settings
@given(quirky_graph_and_alphabet())
def test_quirky_graphs_engines_agree(data):
    graph, alphabet = data
    sizes = {}
    for engine, compressor in COMPRESSORS.items():
        result = compressor(graph, alphabet)
        result.grammar.validate()
        sizes[engine] = result.grammar.size
    assert sizes["incremental"] <= sizes["recount"] * 1.05 + 2


@_settings
@given(quirky_graph_and_alphabet(), st.integers(1, 5))
def test_streaming_compression_is_lossless(data, num_chunks):
    """Chunked ingestion is lossless and never counts a full pass."""
    graph, alphabet = data
    edges = [(edge.label, edge.att) for _, edge in graph.edges()]
    streamer = StreamingCompressor(alphabet)
    chunk_size = max(1, len(edges) // num_chunks)
    for start in range(0, len(edges), chunk_size):
        streamer.add_edges(edges[start:start + chunk_size])
    # Isolated nodes are not visible through the edge stream; this is
    # inherent to edge streaming, so compare against the wired part.
    wired = Hypergraph.from_edges(edges)
    grammar = streamer.finish()
    grammar.validate()
    assert isomorphic(derive(grammar), wired)
    assert streamer.stats.recount_passes == 0
    # Seed passes only: the finalization phase plus (possibly) the
    # virtual-edge phase; ingestion itself never counts the graph.
    assert streamer.stats.passes <= 2
