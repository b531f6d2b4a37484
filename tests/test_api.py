"""Tests for the :class:`repro.api.CompressedGraph` facade.

Covers the acceptance criteria of the API redesign:

* round-trip ``compress -> save -> open -> query -> decompress``
  across every smoke-corpus family,
* facade query answers match an uncached handle over the same grammar,
  the grammar-level evaluators and the ground truth on the
  decompressed graph exactly,
* the lazy index canonicalizes the grammar exactly once per handle,
  even under concurrent query threads,
* streaming construction, batching, persistence accounting and the
  compatibility shims.
"""

import threading
import time

import pytest

from helpers import copies_graph, random_simple_graph, star_graph, \
    theta_graph

from repro import (
    CompressedGraph,
    CompressionResult,
    GRePairSettings,
    compress,
    derive,
)
from repro.bench.corpora import SMOKE_CORPORA
from repro.core.grammar import SLHRGrammar
from repro.exceptions import GrammarError, QueryError
from repro.queries import DegreeQueries

#: Small families for the exhaustive (all-node) equivalence checks.
_SMALL_BUILDERS = {
    "theta": theta_graph,
    "copies": lambda: copies_graph(24),
    "star": lambda: star_graph(60),
    "random": lambda: random_simple_graph(5),
}


def _adjacency(graph):
    out, inc = {}, {}
    for _, edge in graph.edges():
        source, target = edge.att
        out.setdefault(source, set()).add(target)
        inc.setdefault(target, set()).add(source)
    return out, inc


class TestRoundTrip:
    """compress -> save -> open -> query -> decompress, per family."""

    @pytest.mark.parametrize("name", list(SMOKE_CORPORA))
    def test_smoke_corpus_family(self, name, tmp_path):
        graph, alphabet = SMOKE_CORPORA[name]()
        handle = CompressedGraph.compress(graph, alphabet,
                                          validate=False)
        # The incremental engine seeds each phase (main loop, then
        # virtual edges) with one counting pass and never re-counts.
        phases = 2 if handle.stats["virtual_edges_added"] else 1
        assert handle.stats["recount_passes"] == 0
        assert handle.stats["passes"] == phases
        path = tmp_path / f"{name}.grpr"
        handle.save(path, include_names=False)
        reopened = CompressedGraph.open(path)

        # Counts survive the round trip and match the input graph.
        assert reopened.node_count() == handle.node_count()
        assert reopened.edge_count() == handle.edge_count()
        assert reopened.edge_count() == graph.num_edges

        # Query answers agree between the fresh and the opened handle.
        total = reopened.node_count()
        sample = range(1, min(total, 12) + 1)
        for node in sample:
            assert reopened.out(node) == handle.out(node)
            assert reopened.in_(node) == handle.in_(node)
        assert reopened.components() == handle.components()
        assert reopened.reach(1, total) == handle.reach(1, total)

        # Decompression from both sides yields the identical graph
        # (deterministic canonical numbering).
        derived = handle.decompress()
        rederived = reopened.decompress()
        assert derived.node_size == rederived.node_size
        assert sorted((e.label, e.att) for _, e in derived.edges()) == \
            sorted((e.label, e.att) for _, e in rederived.edges())

        # One canonicalization per handle despite the full query mix.
        assert handle.canonicalizations == 1
        assert reopened.canonicalizations == 1

    def test_bytes_round_trip(self):
        graph, alphabet = copies_graph(16)
        handle = CompressedGraph.compress(graph, alphabet)
        blob = handle.to_bytes()
        reopened = CompressedGraph.from_bytes(blob)
        assert reopened.to_bytes() == blob
        assert reopened.node_count() == handle.node_count()


class TestQueryEquivalence:
    """Facade answers == uncached facade == decompressed truth."""

    @pytest.mark.parametrize("family", list(_SMALL_BUILDERS))
    def test_all_nodes_all_queries(self, family):
        graph, alphabet = _SMALL_BUILDERS[family]()
        handle = CompressedGraph.compress(graph, alphabet)
        uncached = CompressedGraph.from_grammar(handle.grammar, cache_size=0)
        truth_out, truth_in = _adjacency(handle.decompress())

        total = handle.node_count()
        assert uncached.node_count() == total
        for node in range(1, total + 1):
            expected_out = sorted(truth_out.get(node, ()))
            expected_in = sorted(truth_in.get(node, ()))
            assert handle.out(node) == expected_out
            assert handle.out(node) == uncached.out(node)
            assert handle.in_(node) == expected_in
            assert handle.in_(node) == uncached.in_(node)
            assert handle.neighborhood(node) == uncached.neighborhood(node)
        assert handle.components() == uncached.components()
        assert handle.edge_count() == uncached.edge_count()
        extrema = handle.degree()
        grammar_degrees = DegreeQueries(uncached.canonical_grammar)
        assert extrema["max_out"] == grammar_degrees.max_out_degree()
        assert extrema["min_in"] == grammar_degrees.min_in_degree()
        for source in range(1, min(total, 6) + 1):
            for target in range(1, min(total, 6) + 1):
                assert handle.reach(source, target) == \
                    uncached.reach(source, target)

    def test_path_consistent_with_reach(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        path = handle.path(1, 2)
        assert path is not None and path[0] == 1 and path[-1] == 2
        # Every hop of the path is a real edge.
        for hop_from, hop_to in zip(path, path[1:]):
            assert hop_to in handle.out(hop_from)
        assert handle.path(2, 1) is None
        assert not handle.reach(2, 1)


class TestLazyIndexConcurrency:
    """The acceptance gate: one canonicalization, even under threads."""

    def test_index_builds_exactly_once_under_threads(self):
        graph, alphabet = copies_graph(24)
        handle = CompressedGraph.compress(graph, alphabet)
        assert not handle.index_built
        assert handle.canonicalizations == 0

        calls = []
        original = SLHRGrammar.canonicalize

        def slow_counting(grammar):
            calls.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return original(grammar)

        SLHRGrammar.canonicalize = slow_counting
        barrier = threading.Barrier(8)
        results = []
        errors = []

        def worker():
            try:
                barrier.wait()
                results.append((
                    handle.node_count(),
                    tuple(handle.out(1)),
                    handle.reach(1, 2),
                    handle.components(),
                ))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            SLHRGrammar.canonicalize = original

        assert not errors
        assert len(calls) == 1, "index must build exactly once"
        assert handle.canonicalizations == 1
        assert len(set(results)) == 1, "all threads see one index"

    def test_repeated_queries_never_rebuild(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        for _ in range(3):
            handle.node_count()
            handle.out(1)
            handle.reach(1, 2)
            handle.components()
            handle.degree()
            handle.edge_count()
        assert handle.canonicalizations == 1


class TestBatch:
    def test_mixed_batch_matches_single_queries(self):
        graph, alphabet = copies_graph(16)
        handle = CompressedGraph.compress(graph, alphabet)
        requests = [
            ("reach", 1, 2),
            ("out", 1),
            ("in", 2),
            ("neighborhood", 3),
            ("degree", 1),
            ("degree",),
            ("components",),
            ("nodes",),
            ("edges",),
            ("path", 1, 2),
        ]
        answers = handle.batch(requests)
        assert answers[0] == handle.reach(1, 2)
        assert answers[1] == handle.out(1)
        assert answers[2] == handle.in_(2)
        assert answers[3] == handle.neighborhood(3)
        assert answers[4] == handle.degree(1)
        assert answers[5] == handle.degree()
        assert answers[6] == handle.components()
        assert answers[7] == handle.node_count()
        assert answers[8] == handle.edge_count()
        assert answers[9] == handle.path(1, 2)
        assert handle.canonicalizations == 1

    def test_unknown_kind_rejected(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        with pytest.raises(QueryError):
            handle.batch([("frobnicate", 1)])
        with pytest.raises(QueryError):
            handle.batch([()])

    def test_wrong_arity_raises_query_error(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        with pytest.raises(QueryError):
            handle.batch([("reach", 1)])  # needs two IDs
        with pytest.raises(QueryError):
            handle.batch([("out", 1, 2)])  # needs one ID


class TestStreaming:
    def test_from_stream_matches_batch_compression_counts(self):
        graph, alphabet = copies_graph(32)
        edges = [(edge.label, edge.att) for _, edge in graph.edges()]
        chunks = [edges[i:i + 40] for i in range(0, len(edges), 40)]
        streamed = CompressedGraph.from_stream(
            chunks, alphabet, GRePairSettings(order="natural"))
        assert streamed.edge_count() == graph.num_edges
        assert streamed.node_count() == graph.node_size
        assert streamed.stats["recount_passes"] == 0


class TestPersistence:
    def test_sizes_reports_sections_for_fresh_and_opened(self):
        graph, alphabet = copies_graph(16)
        handle = CompressedGraph.compress(graph, alphabet)
        fresh = handle.sizes
        assert set(fresh) == {"header", "alphabet", "start", "rules"}
        reopened = CompressedGraph.from_bytes(handle.to_bytes())
        assert reopened.sizes == fresh
        assert reopened.total_bytes == handle.total_bytes

    def test_decompress_does_not_build_query_index(self):
        graph, alphabet = copies_graph(8)
        handle = CompressedGraph.compress(graph, alphabet)
        handle.decompress()
        # Derivation needs only the canonical grammar, not the index.
        assert not handle.index_built
        assert handle.canonicalizations == 1
        # A later query reuses the cached canonical grammar.
        handle.node_count()
        assert handle.index_built
        assert handle.canonicalizations == 1

    def test_opened_handle_reencodes_on_parameter_mismatch(self):
        graph, alphabet = copies_graph(8)
        fresh = CompressedGraph.compress(graph, alphabet)
        k4_blob = fresh.to_bytes(k=4)
        opened = CompressedGraph.from_bytes(k4_blob)
        # Matching parameters reuse the loaded bytes verbatim...
        assert opened.to_bytes(k=4) == k4_blob
        # ...a different k re-encodes instead of returning stale bytes.
        k2_blob = opened.to_bytes(k=2)
        assert k2_blob != k4_blob
        assert CompressedGraph.from_bytes(k2_blob).node_count() == \
            opened.node_count()

    def test_bits_per_edge(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        expected = 8.0 * handle.total_bytes / graph.num_edges
        assert handle.bits_per_edge(graph.num_edges) == \
            pytest.approx(expected)
        assert handle.bits_per_edge() == \
            pytest.approx(8.0 * handle.total_bytes / handle.edge_count())

    def test_save_returns_container(self, tmp_path):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        container = handle.save(tmp_path / "g.grpr")
        assert (tmp_path / "g.grpr").read_bytes() == container.data
        assert container.bits_per_edge(graph.num_edges) > 0

    def test_stats_for_each_construction_path(self, tmp_path):
        graph, alphabet = theta_graph()
        compressed = CompressedGraph.compress(graph, alphabet)
        assert compressed.stats["passes"] >= 1
        assert compressed.result is not None

        compressed.save(tmp_path / "g.grpr")
        opened = CompressedGraph.open(tmp_path / "g.grpr")
        assert opened.stats == {}
        assert opened.result is None
        assert "rules" in opened.summary()


class TestShims:
    """The legacy entry points delegate to the facade and still work."""

    def test_compress_returns_compression_result(self):
        graph, alphabet = theta_graph()
        result = compress(graph, alphabet)
        assert isinstance(result, CompressionResult)
        assert result.original_edges == graph.num_edges
        assert result.stats["passes"] >= 1

    def test_decompress_matches_derive_of_canonical(self):
        graph, alphabet = copies_graph(8)
        handle = CompressedGraph.compress(graph, alphabet)
        via_facade = handle.decompress()
        via_derive = derive(handle.grammar.canonicalize())
        assert sorted((e.label, e.att)
                      for _, e in via_facade.edges()) == \
            sorted((e.label, e.att) for _, e in via_derive.edges())


class TestSettingsValidation:
    """GRePairSettings fails at construction, not deep in the run."""

    def test_bad_max_rank(self):
        with pytest.raises(GrammarError):
            GRePairSettings(max_rank=1)

    def test_bad_order(self):
        from repro.exceptions import HypergraphError
        with pytest.raises(HypergraphError):
            GRePairSettings(order="bogus")

    def test_valid_settings_untouched(self):
        settings = GRePairSettings(max_rank=3, order="bfs")
        assert settings.max_rank == 3

    def test_degree_direction_validated(self):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        with pytest.raises(QueryError):
            handle.degree(1, "sideways")
