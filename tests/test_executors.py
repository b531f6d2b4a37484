"""Executor conformance: two strategies and the wire, one set of answers.

Both executors — Inline (sequential) and Thread (planned fan-out) —
and a served endpoint behind :class:`repro.serving.GraphClient` must
answer the full §V query family **bit-identically** on both handle
types.  The differential suite runs Thread and the served client
against Inline on *every* smoke corpus for the unsharded handle, and
on a corpus sample at 2 and 4 shards for the sharded one; a fast
``smoke``-marked lane covers one corpus per axis for tier-1 speed.

Also covered: ``fork_map`` (the primitive behind process-parallel
shard builds), process-parallel ``ShardedCompressedGraph.compress``,
and error-channel conformance across the socket boundary.
"""

from __future__ import annotations

import random

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import QueryError
from repro.serving import (
    GraphServer,
    InlineExecutor,
    ThreadExecutor,
    connect,
    fork_map,
)

CORPORA = list(SMOKE_CORPORA)
SHARDED_CORPORA = ["er-random", "communication", "rdf-types"]


def serving_workload(total_nodes, count=70, seed=13, labels=()):
    """A mixed request stream covering the full §V family.

    ``labels`` (terminal label names) turns on the RPQ extension
    kinds — ``rpq``, ``pattern_count``, ``out_edges`` — so the
    conformance lanes exercise the full served surface.
    """
    rng = random.Random(seed)
    requests = [("degree",), ("components",), ("nodes",), ("edges",)]
    for _ in range(count):
        kind = rng.choice(["out", "in", "neighborhood", "reach",
                           "degree", "path"])
        if kind in ("reach", "path"):
            requests.append((kind, rng.randint(1, min(total_nodes, 25)),
                             rng.randint(1, total_nodes)))
        else:
            requests.append((kind,
                             rng.randint(1, min(total_nodes, 50))))
    labels = list(labels)
    if labels:
        patterns = [labels[0], f"{labels[0]}+",
                    f"(<{labels[0]}>|<{labels[-1]}>) .*"]
        for index in range(max(count // 6, 3)):
            requests.append(("rpq", patterns[index % len(patterns)],
                             rng.randint(1, min(total_nodes, 25)),
                             rng.randint(1, total_nodes)))
        requests.extend([
            ("pattern_count", "label", labels[0]),
            ("pattern_count", "digram", labels[0], labels[-1]),
            ("pattern_count", "star", labels[0], 2),
            ("pattern_count", "node_out", labels[-1],
             rng.randint(1, total_nodes)),
            ("out_edges", rng.randint(1, total_nodes)),
            ("out_edges", rng.randint(1, total_nodes)),
        ])
    return requests


def label_names(handle):
    """Terminal label names of a handle, report order."""
    alphabet = handle.alphabet
    return [alphabet.name(label) for label in alphabet.terminals()]


def assert_identical(reference, candidate):
    """Value *and* type equality, element by element (bit-identical)."""
    assert len(reference) == len(candidate)
    for expected, actual in zip(reference, candidate):
        assert actual == expected
        assert type(actual) is type(expected)


# ----------------------------------------------------------------------
# Shared, lazily built handles and servers (compression dominates the
# suite's cost; every executor axis reuses one build per corpus)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def unsharded(request):
    handles = {}

    def build(corpus):
        if corpus not in handles:
            graph, alphabet = SMOKE_CORPORA[corpus]()
            handles[corpus] = CompressedGraph.compress(
                graph, alphabet, validate=False)
        return handles[corpus]

    return build


@pytest.fixture(scope="module")
def sharded(request):
    handles = {}

    def build(corpus, shards):
        key = (corpus, shards)
        if key not in handles:
            graph, alphabet = SMOKE_CORPORA[corpus]()
            handles[key] = ShardedCompressedGraph.compress(
                graph, alphabet, shards=shards, validate=False)
        return handles[key]

    return build


@pytest.fixture(scope="module")
def served(request, unsharded, sharded):
    """Socket servers over the same grammars, one per handle key."""
    servers = {}

    def start(corpus, shards=None):
        key = (corpus, shards)
        if key not in servers:
            handle = (unsharded(corpus) if shards is None
                      else sharded(corpus, shards))
            server = GraphServer(handle.to_bytes()).start()
            servers[key] = server
        return servers[key]

    yield start
    for server in servers.values():
        server.close()


def _values(results):
    errors = [result for result in results if not result.ok]
    assert not errors, f"unexpected errors: {errors[:3]}"
    return [result.value for result in results]


def run_through(executor, handle, requests):
    return _values(handle.execute(requests, executor=executor))


def run_served(server, requests):
    """The same batch through a client of ``server`` (one frame; the
    server plans and executes it)."""
    with connect(server.endpoint) as client:
        return _values(client.execute(requests))


# ----------------------------------------------------------------------
# The differential: Thread and the served client vs Inline
# ----------------------------------------------------------------------
class TestUnshardedConformance:
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_every_corpus_every_executor(self, corpus, unsharded,
                                         served):
        handle = unsharded(corpus)
        requests = serving_workload(handle.node_count(),
                                    labels=label_names(handle))
        reference = run_through(InlineExecutor(), handle, requests)
        assert_identical(reference, run_through(
            ThreadExecutor(max_workers=4), handle, requests))
        assert_identical(reference,
                         run_served(served(corpus), requests))

    @pytest.mark.smoke
    def test_smoke_lane(self, unsharded, served):
        handle = unsharded("er-random")
        requests = serving_workload(handle.node_count(), count=30,
                                    labels=label_names(handle))
        reference = run_through(InlineExecutor(), handle, requests)
        assert_identical(reference, run_through(ThreadExecutor(),
                                                handle, requests))
        assert_identical(reference,
                         run_served(served("er-random"), requests))


class TestShardedConformance:
    @pytest.mark.parametrize("corpus,shards",
                             [(corpus, 2) for corpus in SHARDED_CORPORA]
                             + [("communication", 4)])
    def test_executors_agree(self, corpus, shards, sharded, served):
        handle = sharded(corpus, shards)
        requests = serving_workload(handle.node_count(),
                                    labels=label_names(handle))
        reference = run_through(InlineExecutor(), handle, requests)
        assert_identical(reference, run_through(
            ThreadExecutor(max_workers=4), handle, requests))
        assert_identical(reference,
                         run_served(served(corpus, shards), requests))

    def test_served_router_equals_in_process_router(self, sharded,
                                                    served):
        """A second client-facing path: `GraphClient.batch` against
        the router (which plans + multiplexes to shard processes)
        must equal the in-process sharded handle verbatim."""
        handle = sharded("er-random", 2)
        requests = serving_workload(handle.node_count(), count=40,
                                    labels=label_names(handle))
        truth = handle.batch(requests)
        server = served("er-random", 2)
        with server.connect() as client:
            assert_identical(truth, client.batch(requests))

    @pytest.mark.parametrize("corpus,shards",
                             [(corpus, 2) for corpus in SHARDED_CORPORA]
                             + [("communication", 4)])
    @pytest.mark.timeout(120)
    def test_replicated_socket_with_one_dead_replica(self, corpus,
                                                     shards, sharded):
        """A *replicated* served endpoint with one replica of every
        shard killed mid-session must stay bit-identical to the inline
        reference — Inline ≡ Thread ≡ served already holds above, so
        Inline is the only oracle needed here."""
        handle = sharded(corpus, shards)
        requests = serving_workload(handle.node_count(),
                                    labels=label_names(handle))
        reference = run_through(InlineExecutor(), handle, requests)
        server = GraphServer(handle.to_bytes(), replicas=2,
                             cache_size=0).start()
        try:
            assert_identical(reference, run_served(server, requests))
            for shard in range(server.num_shards):
                server.kill_replica(shard, 0)
            assert_identical(reference, run_served(server, requests))
        finally:
            server.close()

    @pytest.mark.smoke
    def test_pipelined_client_equals_in_process_router(self, sharded,
                                                       served):
        """Conformance must survive pipelining: a multiplexing client
        with many concurrent in-flight batches gets answers
        bit-identical to the in-process sharded handle — reply order
        is free, answer content is not."""
        handle = sharded("er-random", 2)
        requests = serving_workload(handle.node_count(), count=40,
                                    labels=label_names(handle))
        truth = handle.batch(requests)
        server = served("er-random", 2)
        with server.connect(pipeline=True, pool_size=2) as client:
            futures = [client.execute_async(requests)
                       for _ in range(8)]
            for future in futures:
                got = [result.unwrap() for result in future.result(60)]
                assert_identical(truth, got)


# ----------------------------------------------------------------------
# Error-channel conformance across the socket boundary
# ----------------------------------------------------------------------
class TestRemoteErrorChannel:
    def test_served_client_preserves_errors(self, unsharded, served):
        handle = unsharded("er-random")
        server = served("er-random")
        total = handle.node_count()
        with connect(server.endpoint) as client:
            results = client.execute(
                [("out", total + 9), ("bogus",), ("nodes",)])
        assert results[0].error == handle.execute(
            [("out", total + 9)])[0].error
        assert "out of range" in results[0].error
        assert "unknown batch query" in results[1].error
        assert results[2].value == total

    def test_batch_adapter_raises_through_any_executor(self, unsharded):
        handle = unsharded("er-random")
        with pytest.raises(QueryError, match="unknown batch query"):
            handle.batch([("bogus",)],
                         executor=ThreadExecutor(max_workers=2))


# ----------------------------------------------------------------------
# fork_map and process-parallel shard builds
# ----------------------------------------------------------------------
class TestForkMap:
    def test_results_in_order(self):
        assert fork_map([lambda i=i: i * i for i in range(10)],
                        max_workers=3) == [i * i for i in range(10)]

    def test_failure_propagates_with_its_original_type(self):
        def boom():
            raise ValueError("broken task")

        with pytest.raises(ValueError, match="broken task"):
            fork_map([lambda: 1, boom, lambda: 3], max_workers=2)

    def test_library_errors_survive_the_fork(self):
        """`parallel=\"process\"` builds must keep the error contract
        of the thread path: a GrammarError stays a GrammarError (the
        CLI's ReproError -> exit-2 handling depends on it)."""
        from repro.exceptions import GrammarError

        def fail_like_a_build():
            raise GrammarError("shard went sideways")

        with pytest.raises(GrammarError, match="went sideways"):
            fork_map([fail_like_a_build, lambda: 2], max_workers=2)

    def test_single_task_runs_inline(self):
        assert fork_map([lambda: 41]) == [41]


class TestProcessParallelBuild:
    @pytest.mark.parametrize("partitioner", ["hash", "connectivity"])
    def test_identical_to_sequential(self, partitioner):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        sequential = ShardedCompressedGraph.compress(
            graph, alphabet, shards=3, partitioner=partitioner,
            validate=False)
        forked = ShardedCompressedGraph.compress(
            graph, alphabet, shards=3, partitioner=partitioner,
            parallel="process", validate=False)
        assert forked.to_bytes() == sequential.to_bytes()
        requests = serving_workload(sequential.node_count(), count=30)
        assert forked.batch(requests) == sequential.batch(requests)

    def test_build_stats_survive_the_fork(self):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        forked = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, parallel="process",
            validate=False)
        per_shard = forked.stats["per_shard"]
        assert len(per_shard) == 2
        assert all(shard_stats for shard_stats in per_shard)

    def test_unknown_mode_rejected(self):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        with pytest.raises(Exception, match="parallel mode"):
            ShardedCompressedGraph.compress(graph, alphabet, shards=2,
                                            parallel="quantum")
