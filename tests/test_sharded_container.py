"""The multi-shard ("GRPS") container: framing, roundtrip, accounting.

The framing (magic dispatch, meta + per-shard blob splitting) lives in
:mod:`repro.encoding.container`; the meta semantics in
:mod:`repro.sharding`.  Both are exercised here, along with the
acceptance property that a save -> open roundtrip preserves every
query answer — the per-shard numbering survives because
``val(decoded)`` equals ``val(canonical)`` node for node.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro import CompressedGraph, ShardedCompressedGraph, open_compressed
from repro.bench.corpora import SMOKE_CORPORA
from repro.encoding.container import (
    decode_sharded_container,
    encode_sharded_container,
    is_sharded_container,
    sharded_container_sections,
)
from repro.exceptions import EncodingError

from helpers import exploding_build, theta_graph


def _sharded_handle(corpus="er-random", shards=3):
    graph, alphabet = SMOKE_CORPORA[corpus]()
    return ShardedCompressedGraph.compress(graph, alphabet,
                                           shards=shards,
                                           validate=False)


class TestFraming:
    def test_magic_detection(self):
        handle = _sharded_handle()
        blob = handle.to_bytes()
        assert is_sharded_container(blob)
        graph, alphabet = theta_graph()
        single = CompressedGraph.compress(graph, alphabet)
        assert not is_sharded_container(single.to_bytes())
        assert not is_sharded_container(b"")
        assert not is_sharded_container(b"GRPR")

    def test_meta_and_blobs_roundtrip(self):
        handle = _sharded_handle(shards=2)
        blob = handle.to_bytes()
        container = decode_sharded_container(blob)
        assert container.num_shards == 2
        assert not container.has_closure  # none was built before saving
        rebuilt = encode_sharded_container(container.meta,
                                           container.shards)
        assert rebuilt.data == blob

    def test_zero_shards_rejected(self):
        with pytest.raises(EncodingError, match=">= 1 shard"):
            encode_sharded_container(b"", [])

    def test_zero_shard_file_rejected_on_decode(self):
        # magic + version + shard-count 0 + empty meta: must be a
        # clean EncodingError, not an IndexError downstream.
        crafted = b"GRPS\x01\x00\x00"
        with pytest.raises(EncodingError, match=">= 1 shard"):
            decode_sharded_container(crafted)
        with pytest.raises(EncodingError):
            ShardedCompressedGraph.from_bytes(crafted)

    def test_non_grammar_blob_rejected(self):
        with pytest.raises(EncodingError, match="bad magic"):
            encode_sharded_container(b"", [b"not a container"])

    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError, match="bad magic"):
            decode_sharded_container(b"XXXX\x01\x00\x00")

    def test_truncation_rejected(self):
        blob = _sharded_handle().to_bytes()
        with pytest.raises(EncodingError):
            decode_sharded_container(blob[:len(blob) // 2])

    def test_trailing_garbage_rejected(self):
        blob = _sharded_handle().to_bytes()
        with pytest.raises(EncodingError, match="trailing"):
            decode_sharded_container(blob + b"\x00")

    def test_sections_accounting(self):
        handle = _sharded_handle(shards=3)
        container = handle.to_container()
        sections = container.section_bytes
        assert sections["header"] == 5
        assert sections["meta"] > 0
        for shard in range(3):
            for name in ("header", "alphabet", "start", "rules"):
                assert f"shard{shard}/{name}" in sections
        framing = 5 + sections["meta"]
        accounted = sum(size for key, size in sections.items()
                        if key.startswith("shard") or key == "meta")
        # header + meta + shard payloads + per-blob length varints
        assert accounted + 5 <= container.total_bytes
        assert sections == sharded_container_sections(container.data)

    def test_sections_of_garbage_is_empty(self):
        assert sharded_container_sections(b"nonsense") == {}


class TestRoundtrip:
    @pytest.mark.parametrize("corpus", ["er-random", "version-copies"])
    def test_queries_survive_save_open(self, corpus, tmp_path):
        handle = _sharded_handle(corpus, shards=4)
        path = tmp_path / "graph.grps"
        saved = handle.save(path)
        assert saved.total_bytes == path.stat().st_size
        reopened = ShardedCompressedGraph.open(path)
        assert reopened.num_shards == handle.num_shards
        assert reopened.node_count() == handle.node_count()
        assert reopened.edge_count() == handle.edge_count()
        assert (reopened.components()
                == handle.components())
        assert reopened.degree() == handle.degree()
        total = handle.node_count()
        rng = random.Random(41)
        requests = []
        for _ in range(120):
            kind = rng.choice(["out", "in", "neighborhood", "reach",
                               "path"])
            if kind in ("reach", "path"):
                requests.append((kind, rng.randint(1, total),
                                 rng.randint(1, total)))
            else:
                requests.append((kind, rng.randint(1, total)))
        assert reopened.batch(requests) == handle.batch(requests)

    def test_open_compressed_dispatches(self, tmp_path):
        sharded = _sharded_handle(shards=2)
        sharded_path = tmp_path / "a.grps"
        sharded.save(sharded_path)
        graph, alphabet = theta_graph()
        single = CompressedGraph.compress(graph, alphabet)
        single_path = tmp_path / "b.grpr"
        single.save(single_path)
        assert isinstance(open_compressed(sharded_path),
                          ShardedCompressedGraph)
        assert isinstance(open_compressed(single_path), CompressedGraph)

    def test_resave_is_stable(self, tmp_path):
        handle = _sharded_handle(shards=2)
        blob = handle.to_bytes()
        reopened = ShardedCompressedGraph.from_bytes(blob)
        assert reopened.to_bytes() == blob

    def test_loaded_handle_reports_the_loaded_file(self):
        """sizes/total_bytes come from the file, not a re-encoding."""
        handle = _sharded_handle(shards=2)
        blob = handle.to_bytes(include_names=False, k=4)
        reopened = ShardedCompressedGraph.from_bytes(blob)
        assert reopened.total_bytes == len(blob)
        assert reopened.sizes == sharded_container_sections(blob)

    def test_container_is_cached_per_parameters(self):
        handle = _sharded_handle(shards=2)
        first = handle.to_container()
        assert handle.to_container() is first          # cached
        other = handle.to_container(include_names=False)
        assert other is not first
        assert handle.to_container(include_names=False) is other

    def test_no_names_shrinks_container(self):
        handle = _sharded_handle(corpus="rdf-types", shards=2)
        assert (len(handle.to_bytes(include_names=False))
                < len(handle.to_bytes(include_names=True)))

    def test_decompress_after_open_matches(self, tmp_path):
        handle = _sharded_handle(shards=3)
        path = tmp_path / "g.grps"
        handle.save(path)
        reopened = ShardedCompressedGraph.open(path)
        assert reopened.decompress().structurally_equal(
            handle.decompress())

    def test_meta_shard_count_mismatch_rejected(self):
        handle = _sharded_handle(shards=2)
        container = decode_sharded_container(handle.to_bytes())
        with pytest.raises(EncodingError):
            ShardedCompressedGraph.from_bytes(
                encode_sharded_container(container.meta,
                                         container.shards[:1]))

    def test_cold_open_materializes_only_the_served_shard(self, tmp_path):
        """A one-shard host copies its shard blob and nothing else."""
        from repro.serving.router import ShardHost

        graph, alphabet = SMOKE_CORPORA["communication"]()
        path = tmp_path / "cold.grps"
        ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="bfs",
            validate=False).save(path)
        host = ShardHost(path, shard=1).start()
        try:
            container = host.container
            assert container.materialized_sections == {
                "shard1": len(container.shard(1))}
            assert container.materialized_bytes < \
                0.30 * container.total_bytes
        finally:
            host.close()

    def test_bits_per_edge(self):
        handle = _sharded_handle()
        bpe = handle.bits_per_edge()
        assert bpe == pytest.approx(
            8.0 * handle.total_bytes / handle.edge_count())
        with pytest.raises(EncodingError):
            handle.bits_per_edge(0)


# ----------------------------------------------------------------------
# Format pin: a file written before the closure classes merged
# ----------------------------------------------------------------------
#: Written by commit 3ac685c (PR 12, the parent of the reach-is-RPQ
#: merge) with: ``jamendo_graph(12, seed=13)``, 2 ``bfs`` shards,
#: the reach closure and a per-pattern closure for both patterns below
#: warmed, ``to_bytes()``.  Never regenerate it from current code — the point
#: is that today's reader and writer agree with yesterday's bytes.
PIN_FILE = Path(__file__).parent / "data" / "pin_jamendo12_bfs2.grps"
PIN_PATTERNS = ("<foaf:made> <dc:title>", "(<foaf:made>|<mo:tag>)+")


class TestFormatPin:
    def test_parent_written_file_reencodes_byte_for_byte(self):
        blob = PIN_FILE.read_bytes()
        loaded = ShardedCompressedGraph.from_bytes(blob)
        assert loaded.closure_built and loaded.closure_persisted
        assert loaded.rpq_info["rpq_closures"] == 2
        assert set(decode_sharded_container(blob).section_bytes()) == \
            set(loaded.sizes)
        # Same parameters -> the cached file; different parameters ->
        # a genuine re-encode of every section, closures included.
        assert loaded.to_bytes() == blob
        unnamed = loaded.to_bytes(include_names=False)
        assert unnamed != blob
        assert loaded.to_bytes() == blob
        again = decode_sharded_container(unnamed)
        pinned = decode_sharded_container(blob)
        assert again.meta == pinned.meta
        assert again.closure == pinned.closure
        assert again.rpq_closures == pinned.rpq_closures

    def test_fresh_build_equals_the_pinned_bytes(self):
        from repro.datasets.rdf import jamendo_graph
        graph, alphabet = jamendo_graph(12, seed=13)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs")
        handle.warm_closure()
        for pattern in PIN_PATTERNS:
            handle.warm_closure(pattern)
        assert handle.to_bytes() == PIN_FILE.read_bytes()

    def test_pinned_closures_answer_like_bfs(self, monkeypatch):
        from repro.partition import BoundaryClosure

        monkeypatch.setattr(BoundaryClosure, "build", exploding_build)
        loaded = ShardedCompressedGraph.open(PIN_FILE, cache_size=0)
        total = loaded.node_count()
        rng = random.Random(53)
        out = {}
        for _, edge in loaded.decompress().edges():
            out.setdefault(edge.att[0], []).append(edge.att[1])
        # Random walks give connected pairs (the graph is sparse, so
        # uniform pairs alone would almost all answer False).
        pairs = [(rng.randint(1, total), rng.randint(1, total))
                 for _ in range(40)]
        for start in rng.sample(sorted(out), 60):
            node = start
            for _ in range(rng.randint(1, 4)):
                node = rng.choice(out.get(node, [node]))
            pairs.append((start, node))
        requests = [("reach", s, t) for s, t in pairs]
        requests += [("rpq", pattern, s, t)
                     for pattern in PIN_PATTERNS for s, t in pairs]
        answers = {}
        for strategy in ("closure", "bfs"):
            loaded.planner.force = strategy
            answers[strategy] = loaded.batch(requests)
        assert answers["closure"] == answers["bfs"]
        assert any(answers["bfs"][:len(pairs)])
        assert any(answers["bfs"][len(pairs):])
