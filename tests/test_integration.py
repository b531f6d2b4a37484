"""End-to-end integration tests over registry datasets.

Each test exercises the complete production pipeline the paper's
system would run: generate -> compress -> serialize -> deserialize ->
query, with cross-validation at every stage.
"""

import random

import networkx as nx
import pytest

from helpers import isomorphic

from repro import CompressedGraph, GRePairSettings, compress, derive
from repro.baselines import K2Compressor
from repro.datasets import identical_copies, fig13_base_graph, \
    load_dataset
from repro.encoding import decode_grammar, encode_grammar


@pytest.mark.parametrize("name", ["ca-grqc", "rdf-types-ru",
                                  "rdf-identica", "tic-tac-toe"])
def test_full_pipeline_on_datasets(name):
    graph, alphabet = load_dataset(name)
    result = compress(graph, alphabet, validate=True)

    # 1. Lossless compression.
    derived = derive(result.grammar)
    assert derived.node_size == graph.node_size
    assert derived.num_edges == graph.num_edges

    # 2. Exact binary round-trip.
    blob = encode_grammar(result.grammar, include_names=False)
    decoded = decode_grammar(blob)
    canonical_val = derive(result.grammar.canonicalize())
    decoded_val = derive(decoded)
    assert canonical_val.edge_multiset() == decoded_val.edge_multiset()

    # 3. Queries on the decoded grammar agree with the derived graph.
    queries = CompressedGraph.from_grammar(decoded)
    truth = nx.DiGraph()
    truth.add_nodes_from(decoded_val.nodes())
    for _, edge in decoded_val.edges():
        truth.add_edge(*edge.att)
    rng = random.Random(42)
    nodes = sorted(truth.nodes())
    for _ in range(25):
        node = rng.choice(nodes)
        assert queries.out(node) == sorted(
            truth.successors(node))
    for _ in range(25):
        source, target = rng.choice(nodes), rng.choice(nodes)
        assert queries.reach(source, target) == nx.has_path(
            truth, source, target)


def test_rdf_types_beats_k2_by_an_order_of_magnitude():
    """The paper's headline RDF result (Table V)."""
    graph, alphabet = load_dataset("rdf-types-ru")
    result = compress(graph, alphabet, validate=False)
    ours = encode_grammar(result.grammar,
                          include_names=False).total_bytes
    baseline = len(K2Compressor().compress(graph))
    assert ours * 5 < baseline


def test_version_graph_beats_k2():
    """The paper's Table VI shape."""
    graph, alphabet = load_dataset("tic-tac-toe")
    result = compress(graph, alphabet, validate=False)
    ours = encode_grammar(result.grammar,
                          include_names=False).total_bytes
    baseline = len(K2Compressor().compress(graph))
    assert ours * 4 < baseline


def test_identical_copies_compress_superlinearly():
    """Fig. 13: doubling the copies must not double the output."""
    sizes = []
    for count in (64, 256):
        graph, alphabet = identical_copies(fig13_base_graph(), count)
        result = compress(graph, alphabet, validate=False)
        sizes.append(encode_grammar(result.grammar,
                                    include_names=False).total_bytes)
    assert sizes[1] < 2.5 * sizes[0]  # far below linear growth (4x)


def test_isomorphism_on_copies():
    graph, alphabet = identical_copies(fig13_base_graph(), 48)
    result = compress(graph, alphabet)
    assert isomorphic(derive(result.grammar), graph)


def test_settings_sweep_on_one_dataset():
    """Every settings combination round-trips on a real dataset."""
    graph, alphabet = load_dataset("tic-tac-toe")
    for max_rank in (2, 4):
        for order in ("fp", "bfs"):
            result = compress(
                graph, alphabet,
                GRePairSettings(max_rank=max_rank, order=order),
                validate=True)
            derived = derive(result.grammar)
            assert derived.num_edges == graph.num_edges
            assert derived.node_size == graph.node_size
