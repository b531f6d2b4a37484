"""Multi-host topology: manifests, replica failover, fault injection.

The contract under test, three layers deep:

* :class:`ClusterManifest` — the pure-data topology file — rejects
  every malformed shape with a :class:`ManifestError` naming the
  offending field, and a router started from a stale or foreign
  manifest fails loudly *before* routing a single query.
* :class:`ReplicatedShard` — round-robin reads over N replica
  endpoints; a retryable link failure (kill, hang past the timeout,
  truncation, reset) is resent to a peer, and only when *every*
  replica fails does the request surface as a per-request
  :class:`ShardUnavailable` error — never a hang, never a batch abort.
* The fault matrix — :class:`faultinject.FaultyProxy` breaks one link
  on the Kth frame (kill / hang / truncate / delay, each direction,
  client↔router and router↔shard) and every lane must end with
  answers **bit-identical to the inline oracle** plus observable
  proof the fault actually fired (``proxy.triggered``) and was
  recovered from (``failovers``).

Determinism policy: no lane sleeps to "wait for" recovery — faults
trigger on frame counts, hangs are bounded by the per-request
timeout, and every test carries the suite's SIGALRM hard timeout.
"""

from __future__ import annotations

import json

import pytest

from faultinject import FaultyProxy

from repro import (
    Alphabet,
    CompressedGraph,
    Hypergraph,
    ShardedCompressedGraph,
)
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import ManifestError, ReproError, ShardUnavailable
from repro.serving import (
    ClusterManifest,
    GraphClient,
    GraphServer,
    ReplicatedShard,
    ShardHost,
    container_hash,
    serve,
)

pytestmark = pytest.mark.timeout(60)

SHARDS = 2
PER_SHARD = 5


def chain_handle(shards: int = SHARDS, per_shard: int = PER_SHARD
                 ) -> ShardedCompressedGraph:
    """A path graph with a pinned node→shard map.

    Node ``n`` lives on shard ``(n - 1) // per_shard``, so tests can
    aim a query at a specific shard without probing the partitioner.
    """
    alphabet = Alphabet()
    label = alphabet.add_terminal(rank=2, name="e")
    total = shards * per_shard
    graph = Hypergraph.from_edges(
        [(label, (node, node + 1)) for node in range(1, total)],
        num_nodes=total)
    assign = {node: (node - 1) // per_shard for node in graph.nodes()}
    return ShardedCompressedGraph.compress(
        graph, alphabet, shards=shards,
        partitioner=lambda g, k: assign)


def probe_requests(handle) -> list:
    """A mixed read batch touching every shard (owner-local kinds)."""
    total = handle.node_count()
    picks = list(range(1, total + 1, 2))
    return ([("out", node) for node in picks]
            + [("in", node) for node in picks[:3]]
            + [("degree", picks[0], "out"), ("nodes",), ("edges",)])


@pytest.fixture(scope="module")
def chain():
    handle = chain_handle()
    return handle, handle.to_bytes()


@pytest.fixture(scope="module")
def oracle(chain):
    handle, _ = chain
    requests = probe_requests(handle)
    return requests, handle.batch(requests)


# ----------------------------------------------------------------------
# The manifest: pure data, validated on every edge
# ----------------------------------------------------------------------
class TestManifestValidation:
    GOOD_HASH = "0" * 64

    def make(self, **overrides):
        fields = dict(shards=(("127.0.0.1:9000", "127.0.0.1:9001"),
                              ("127.0.0.1:9002",)),
                      grps_hash=self.GOOD_HASH)
        fields.update(overrides)
        return ClusterManifest(**fields)

    def test_round_trips_through_json(self, tmp_path):
        manifest = self.make(epoch=3)
        path = manifest.save(tmp_path / "cluster.json")
        loaded = ClusterManifest.load(path)
        assert loaded == manifest
        assert loaded.num_shards == 2
        assert loaded.endpoints_for(0) == ("127.0.0.1:9000",
                                           "127.0.0.1:9001")

    def test_relative_container_resolves_against_manifest_dir(
            self, tmp_path):
        manifest = self.make(container="graph.grps")
        path = manifest.save(tmp_path / "cluster.json")
        loaded = ClusterManifest.load(path)
        assert loaded.container == str(tmp_path / "graph.grps")

    @pytest.mark.parametrize("overrides,needle", [
        ({"epoch": -1}, "epoch"),
        ({"epoch": True}, "epoch"),
        ({"epoch": "3"}, "epoch"),
        ({"grps_hash": "abc"}, "grps_hash"),
        ({"grps_hash": "G" * 64}, "grps_hash"),
        ({"shards": ()}, "no shards"),
        ({"shards": ((),)}, "no replica endpoints"),
        ({"shards": (("localhost",),)}, "invalid"),
        ({"shards": ((12345,),)}, "not a string"),
        ({"version": 99}, "version"),
    ])
    def test_bad_fields_raise_naming_the_field(self, overrides,
                                               needle):
        with pytest.raises(ManifestError, match=needle):
            self.make(**overrides)

    def test_unknown_and_missing_fields(self):
        with pytest.raises(ManifestError, match="unknown"):
            ClusterManifest.from_dict(
                {"grps_hash": self.GOOD_HASH,
                 "shards": [["127.0.0.1:1"]], "surprise": 1})
        with pytest.raises(ManifestError, match="missing"):
            ClusterManifest.from_dict({"shards": [["127.0.0.1:1"]]})
        with pytest.raises(ManifestError, match="JSON object"):
            ClusterManifest.from_dict([1, 2])

    def test_codec_field_must_be_json(self, tmp_path):
        """A manifest naming the wire codec still loads when it names
        JSON; any other codec is refused, naming the field."""
        payload = {"grps_hash": self.GOOD_HASH,
                   "shards": [["127.0.0.1:1"]], "codec": "json"}
        assert ClusterManifest.from_dict(payload) == self.make(
            shards=(("127.0.0.1:1",),))
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(dict(payload, codec="binary")))
        with pytest.raises(ManifestError, match="codec"):
            ClusterManifest.load(path)
        assert "codec" not in self.make().to_dict()

    def test_load_failures_name_the_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ManifestError, match="cannot read"):
            ClusterManifest.load(missing)
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            ClusterManifest.load(garbled)

    def test_container_verification(self, chain):
        _, blob = chain
        manifest = ClusterManifest.for_container(
            blob, [["127.0.0.1:9000"]])
        assert manifest.matches(blob)
        manifest.verify_container(blob)
        with pytest.raises(ManifestError, match="hash mismatch"):
            manifest.verify_container(blob + b"x")

    def test_endpoints_for_range(self):
        manifest = self.make()
        with pytest.raises(ManifestError, match="out of range"):
            manifest.endpoints_for(2)


# ----------------------------------------------------------------------
# ReplicatedShard unit lanes (no processes)
# ----------------------------------------------------------------------
class TestReplicatedShardUnit:
    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ReproError):
            ReplicatedShard([])

    def test_all_replicas_unreachable_is_shard_unavailable(self):
        # Nothing listens on these ports: every connect is refused,
        # which is retryable, so the sweep exhausts both replicas.
        proxy = ReplicatedShard(["127.0.0.1:1", "127.0.0.1:2"],
                                timeout=1.0, shard_index=3)
        try:
            with pytest.raises(ShardUnavailable) as caught:
                proxy.node_count()
            message = str(caught.value)
            assert "shard 3" in message
            assert "all 2 replicas unavailable" in message
            assert proxy.failovers == 1  # one resend, then exhaustion
        finally:
            proxy.close()

    def test_query_errors_are_not_failed_over(self, chain):
        """A server that *answers* with an error must not be treated
        as down: resending a request the shard rejected would loop."""
        _, blob = chain
        with serve(blob, cache_size=0) as running:
            shard0 = running._proxies[0]
            before = shard0.replica_round_trips
            with pytest.raises(ReproError):
                shard0.batch([("nope", 1)])
            assert shard0.failovers == 0
            assert all(replica.failures == 0
                       for replica in shard0._replicas)
            # The rejected batch still cost exactly one exchange.
            assert sum(shard0.replica_round_trips) == sum(before) + 1


# ----------------------------------------------------------------------
# Forked replicas: round-robin, kill_replica, conformance
# ----------------------------------------------------------------------
class TestForkedReplicaFailover:
    def test_round_robin_distributes_reads(self, chain):
        _, blob = chain
        with serve(blob, replicas=2, cache_size=0) as running:
            with running.connect() as client:
                for node in range(1, 9):
                    client.query("out", node)
            for proxy in running._proxies:
                trips = proxy.replica_round_trips
                assert len(trips) == 2
                assert all(count > 0 for count in trips), trips

    def test_kill_one_replica_mid_session(self, chain, oracle):
        handle, blob = chain
        requests, expected = oracle
        with serve(blob, replicas=2, cache_size=0) as running:
            with running.connect() as client:
                assert client.batch(requests) == expected
                for shard in range(running.num_shards):
                    running.kill_replica(shard, 0)
                assert client.batch(requests) == expected
                assert client.batch(requests) == expected
            total_failovers = sum(proxy.failovers
                                  for proxy in running._proxies)
            assert total_failovers >= 1

    def test_all_replicas_down_is_per_request_error(self, chain):
        """Dead shard 0 answers *its* requests with a structured
        error; shard 1's requests keep answering — no hang, no batch
        abort, exactly the per-request semantics local batches have."""
        handle, blob = chain
        with serve(blob, replicas=2, cache_size=0,
                   shard_timeout=5.0) as running:
            for replica in range(2):
                running.kill_replica(0, replica)
            with running.connect() as client:
                results = client.execute([("out", 2), ("out", 7)])
            assert len(results) == 2
            assert results[0].error is not None
            assert "unavailable" in results[0].error
            assert results[1].error is None
            assert results[1].value == handle.out(7)

    def test_replica_killed_mid_pipelined_batch(self, chain, oracle):
        """Futures issued before the kill must resolve via retry."""
        handle, blob = chain
        requests, expected = oracle
        with serve(blob, replicas=2, cache_size=0) as running:
            with running.connect(pipeline=True) as client:
                # Warm both replicas of both shards so live (soon to
                # be poisoned) connections exist before the kill.
                assert client.execute(requests) == \
                    handle.execute(requests)
                for shard in range(running.num_shards):
                    running.kill_replica(shard, 0)
                futures = [client.execute_async([request])
                           for request in requests]
                values = [future.result(timeout=30)[0]
                          for future in futures]
            assert [result.value for result in values] == expected
            assert all(result.error is None for result in values)
            assert sum(proxy.failovers
                       for proxy in running._proxies) >= 1

    def test_single_grammar_replicas(self):
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        handle = CompressedGraph.compress(graph, alphabet)
        requests = [("out", node) for node in range(1, 9)] + \
            [("nodes",), ("edges",)]
        expected = handle.batch(requests)
        with serve(handle.to_bytes(), replicas=2,
                   cache_size=0) as running:
            assert running.num_shards == 1
            info = running.service.info()
            with running.connect() as client:
                assert client.info()["replicas"] == [2]
                assert client.batch(requests) == expected
                running.kill_replica(0, 0)
                # Two batches cover both round-robin start positions,
                # so one of them is guaranteed to hit the dead replica
                # and fail over.
                assert client.batch(requests) == expected
                assert client.batch(requests) == expected
            assert running.service.failovers >= 1
        assert info["nodes"] == handle.node_count()

    @pytest.mark.parametrize("corpus", sorted(SMOKE_CORPORA))
    def test_kill_replica_conformance_all_corpora(self, corpus):
        """The harness gate: on every smoke corpus, answers after a
        replica kill are bit-identical to the inline oracle."""
        graph, alphabet = SMOKE_CORPORA[corpus]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, validate=False)
        nodes = sorted(graph.nodes())
        picks = nodes[::max(1, len(nodes) // 8)][:8]
        requests = ([("out", node) for node in picks]
                    + [("in", picks[0]), ("degree",), ("nodes",),
                       ("edges",)])
        expected = handle.batch(requests)
        with serve(handle.to_bytes(), replicas=2,
                   cache_size=0) as running:
            with running.connect() as client:
                assert client.batch(requests) == expected
                for shard in range(running.num_shards):
                    running.kill_replica(shard, 0)
                assert client.batch(requests) == expected


# ----------------------------------------------------------------------
# The fault matrix: router↔shard links through a FaultyProxy
# ----------------------------------------------------------------------
class RouterShardCluster:
    """2 ShardHosts, each fronted twice: once directly, once proxied.

    The proxy endpoint and the direct endpoint of a shard hit the
    *same* host, so any answer that comes back is correct by
    construction — the lanes assert the failover happened *and* the
    answers match the oracle.
    """

    def __init__(self, blob: bytes, shard_timeout: float) -> None:
        self.hosts = [ShardHost(blob, shard=index).start()
                      for index in range(SHARDS)]
        self.proxies = [FaultyProxy(host.endpoint)
                        for host in self.hosts]
        manifest = ClusterManifest.for_container(
            blob, [[self.proxies[index].endpoint,
                    self.hosts[index].endpoint]
                   for index in range(SHARDS)])
        self.server = GraphServer(blob, manifest=manifest,
                                  cache_size=0,
                                  shard_timeout=shard_timeout)
        self.server.start()

    def close(self) -> None:
        self.server.close()
        for proxy in self.proxies:
            proxy.close()
        for host in self.hosts:
            host.close()

    def __enter__(self) -> "RouterShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TestRouterShardFaults:
    # (fault, direction, op filter, extra arm kwargs).  ``hang`` and
    # ``delay`` both rely on the router's per-request timeout; the
    # delay is longer than the timeout so the slow reply loses the
    # race and the request fails over.
    LANES = [
        ("kill", "request", "batch", {}),
        ("kill", "reply", "results", {}),
        ("truncate", "request", "batch", {}),
        ("truncate", "reply", "results", {}),
        ("hang", "request", "batch", {}),
        ("hang", "reply", "results", {}),
        ("delay", "reply", "results", {"delay": 3.0}),
    ]

    @pytest.mark.parametrize(
        "fault,direction,only_op,extra",
        LANES, ids=[f"{f}-{d}" for f, d, _, _ in LANES])
    def test_fault_on_shard_link_fails_over(self, chain, fault,
                                            direction, only_op,
                                            extra):
        handle, blob = chain
        with RouterShardCluster(blob, shard_timeout=1.0) as cluster:
            proxy = cluster.proxies[0]
            proxy.arm(fault, direction=direction, only_op=only_op,
                      **extra)
            with cluster.server.connect() as client:
                # Round-robin alternates the proxied and the direct
                # endpoint, so within two shard-0 reads the armed
                # frame is hit; every answer must equal the oracle
                # regardless of which replica served it.
                for attempt in range(4):
                    node = 1 + (attempt % PER_SHARD)
                    assert client.query("out", node) == \
                        handle.out(node)
                    if proxy.triggered.is_set():
                        break
                assert proxy.triggered.is_set()
                # And the cluster stays healthy afterwards.
                requests = probe_requests(handle)
                assert client.batch(requests) == \
                    handle.batch(requests)
            assert cluster.server._proxies[0].failovers >= 1


# ----------------------------------------------------------------------
# The fault matrix: the client↔router link
# ----------------------------------------------------------------------
class TestClientRouterFaults:
    LANES = [
        ("kill", {}),
        ("truncate", {}),
        ("hang", {}),
        ("delay", {"delay": 3.0}),
    ]

    @pytest.mark.parametrize("fault,extra", LANES,
                             ids=[f for f, _ in LANES])
    def test_strict_client_retries_through_fault(self, chain, oracle,
                                                 fault, extra):
        _, blob = chain
        requests, expected = oracle
        with serve(blob, cache_size=0) as running:
            with FaultyProxy(running.endpoint) as proxy:
                proxy.arm(fault, direction="reply",
                          only_op="results", **extra)
                client = GraphClient(proxy.endpoint, timeout=1.0,
                                     retries=1)
                try:
                    assert client.batch(requests) == expected
                    assert proxy.triggered.is_set()
                    # The retry burned the broken link; the replacement
                    # connection keeps serving.
                    assert client.batch(requests) == expected
                finally:
                    client.close()

    def test_pipelined_client_retries_through_kill(self, chain,
                                                   oracle):
        _, blob = chain
        requests, expected = oracle
        with serve(blob, cache_size=0) as running:
            with FaultyProxy(running.endpoint) as proxy:
                proxy.arm("kill", direction="reply",
                          only_op="results")
                client = GraphClient(proxy.endpoint, timeout=5.0,
                                     pipeline=True, retries=1)
                try:
                    results = client.execute(requests)
                    assert [result.value for result in results] == \
                        expected
                    assert proxy.triggered.is_set()
                finally:
                    client.close()

    def test_no_retries_surfaces_the_failure(self, chain, oracle):
        """retries=0 (the default) keeps the old contract: the link
        death is the caller's problem, raised as a wire error."""
        _, blob = chain
        requests, _ = oracle
        with serve(blob, cache_size=0) as running:
            with FaultyProxy(running.endpoint) as proxy:
                proxy.arm("kill", direction="reply",
                          only_op="results")
                client = GraphClient(proxy.endpoint, timeout=5.0)
                try:
                    with pytest.raises(ReproError):
                        client.batch(requests)
                finally:
                    client.close()


# ----------------------------------------------------------------------
# Manifest-mode clusters over ShardHosts
# ----------------------------------------------------------------------
class TestManifestCluster:
    def _hosts(self, blob, epoch=0, replicas=2):
        return [[ShardHost(blob, shard=index, epoch=epoch).start()
                 for _ in range(replicas)]
                for index in range(SHARDS)]

    def _manifest(self, blob, groups, epoch=0, **kwargs):
        return ClusterManifest.for_container(
            blob, [[host.endpoint for host in group]
                   for group in groups], epoch=epoch, **kwargs)

    def _close_all(self, groups):
        for group in groups:
            for host in group:
                host.close()

    def test_cluster_serves_and_survives_replica_death(self, chain,
                                                       oracle):
        handle, blob = chain
        requests, expected = oracle
        groups = self._hosts(blob, epoch=7)
        try:
            manifest = self._manifest(blob, groups, epoch=7)
            with GraphServer(blob, manifest=manifest,
                             cache_size=0).start() as running:
                assert not running._processes  # nothing was forked
                with running.connect() as client:
                    info = client.info()
                    assert info["epoch"] == 7
                    assert info["replicas"] == [2, 2]
                    assert client.batch(requests) == expected
                    # Kill replica 0 of every shard out from under
                    # the router; answers must not change.
                    for group in groups:
                        group[0].close()
                    assert client.batch(requests) == expected
                assert sum(proxy.failovers
                           for proxy in running._proxies) >= 1
        finally:
            self._close_all(groups)

    def test_stale_epoch_fails_before_routing(self, chain):
        _, blob = chain
        groups = self._hosts(blob, epoch=1)
        try:
            manifest = self._manifest(blob, groups, epoch=2)
            with pytest.raises(ManifestError, match="stale manifest"):
                GraphServer(blob, manifest=manifest).start()
        finally:
            self._close_all(groups)

    def test_foreign_container_hash_fails(self, chain):
        _, blob = chain
        groups = self._hosts(blob)
        try:
            manifest = ClusterManifest.for_container(
                blob + b"tampered",
                [[host.endpoint for host in group]
                 for group in groups])
            with pytest.raises(ManifestError, match="hash mismatch"):
                GraphServer(blob, manifest=manifest).start()
        finally:
            self._close_all(groups)

    def test_swapped_shard_groups_fail(self, chain):
        _, blob = chain
        groups = self._hosts(blob, replicas=1)
        try:
            manifest = self._manifest(blob, list(reversed(groups)))
            with pytest.raises(ManifestError, match="expects shard"):
                GraphServer(blob, manifest=manifest).start()
        finally:
            self._close_all(groups)

    def test_whole_shard_down_fails_at_start(self, chain):
        _, blob = chain
        groups = self._hosts(blob)
        try:
            for host in groups[1]:
                host.close()
            manifest = self._manifest(blob, groups)
            with pytest.raises(ManifestError,
                               match="no reachable replica"):
                GraphServer(blob, manifest=manifest).start()
        finally:
            self._close_all(groups)

    def test_shard_count_mismatch(self, chain):
        _, blob = chain
        manifest = ClusterManifest.for_container(
            blob, [["127.0.0.1:9000"]])  # one group, two shards
        with pytest.raises(ManifestError, match="lists 1 shards"):
            GraphServer(blob, manifest=manifest).start()

    def test_manifest_names_the_container(self, chain, oracle,
                                          tmp_path):
        """``serve(manifest=path)`` with no container argument loads
        the build the manifest names, relative to the manifest."""
        handle, blob = chain
        requests, expected = oracle
        (tmp_path / "graph.grps").write_bytes(blob)
        groups = self._hosts(blob, replicas=1)
        try:
            manifest = self._manifest(blob, groups,
                                      container="graph.grps")
            manifest_path = manifest.save(tmp_path / "cluster.json")
            with serve(manifest=manifest_path,
                       cache_size=0) as running:
                with running.connect() as client:
                    assert client.batch(requests) == expected
        finally:
            self._close_all(groups)

    def test_shard_host_info_self_description(self, chain):
        _, blob = chain
        with ShardHost(blob, shard=1, epoch=4) as host:
            client = GraphClient(host.endpoint)
            try:
                info = client.info()
            finally:
                client.close()
        assert info["type"] == "shard"
        assert info["shard"] == 1
        assert info["epoch"] == 4
        assert info["grps_hash"] == container_hash(blob)

    def test_shard_host_index_out_of_range(self, chain):
        _, blob = chain
        with pytest.raises(ReproError, match="out of range"):
            ShardHost(blob, shard=9).start()


# ----------------------------------------------------------------------
# The CLI face of the topology
# ----------------------------------------------------------------------
class TestClusterCLI:
    def test_manifest_subcommand_writes_a_valid_file(self, chain,
                                                     tmp_path,
                                                     capsys):
        from repro.cli import main
        _, blob = chain
        container = tmp_path / "graph.grps"
        container.write_bytes(blob)
        output = tmp_path / "cluster.json"
        code = main(["manifest", str(container), str(output),
                     "--endpoints",
                     "127.0.0.1:9000,127.0.0.1:9001",
                     "127.0.0.1:9002", "--epoch", "5"])
        assert code == 0
        assert "2 shards" in capsys.readouterr().out
        manifest = ClusterManifest.load(output)
        assert manifest.epoch == 5
        assert manifest.num_shards == 2
        assert manifest.grps_hash == container_hash(blob)
        payload = json.loads(output.read_text())
        assert payload["shards"] == [["127.0.0.1:9000",
                                      "127.0.0.1:9001"],
                                     ["127.0.0.1:9002"]]

    def test_manifest_subcommand_rejects_wrong_group_count(
            self, chain, tmp_path, capsys):
        from repro.cli import main
        _, blob = chain
        container = tmp_path / "graph.grps"
        container.write_bytes(blob)
        code = main(["manifest", str(container),
                     str(tmp_path / "cluster.json"),
                     "--endpoints", "127.0.0.1:9000"])
        assert code == 2
        assert "2 shards" in capsys.readouterr().err

    def test_serve_requires_container_or_manifest(self, capsys):
        from repro.cli import main
        code = main(["serve"])
        assert code == 2
        assert "--manifest" in capsys.readouterr().err
