"""The socket deployment: GraphServer, GraphClient, ReplicatedShard.

Executor-level conformance lives in ``test_executors.py``; this file
covers the deployment surface itself — lifecycle, liveness, info,
unix-domain endpoints, concurrent clients, and the router's
LRU sitting in front of the shard processes.
"""

from __future__ import annotations

import threading

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.exceptions import QueryError
from repro.serving import GraphServer, connect, serve

from helpers import theta_graph


@pytest.fixture(scope="module")
def sharded_bytes():
    graph, alphabet = SMOKE_CORPORA["er-random"]()
    handle = ShardedCompressedGraph.compress(graph, alphabet, shards=2,
                                             validate=False)
    return handle, handle.to_bytes()


@pytest.fixture(scope="module")
def server(sharded_bytes):
    _, blob = sharded_bytes
    with GraphServer(blob).start() as running:
        yield running


class TestLifecycle:
    def test_start_is_idempotent(self, sharded_bytes):
        _, blob = sharded_bytes
        running = serve(blob)
        endpoint = running.endpoint
        try:
            with running:  # __enter__ must not re-start
                assert running.endpoint == endpoint
        finally:
            running.close()

    def test_serve_from_file(self, tmp_path):
        graph, alphabet = theta_graph()
        handle = CompressedGraph.compress(graph, alphabet)
        path = tmp_path / "g.grpr"
        handle.save(path)
        with serve(path) as running:
            assert running.num_shards == 1
            with running.connect() as client:
                assert client.query("nodes") == handle.node_count()

    def test_shard_processes_die_with_close(self, sharded_bytes):
        _, blob = sharded_bytes
        running = serve(blob)
        processes = list(running._processes)
        assert all(process.is_alive() for process in processes)
        running.close()
        assert all(not process.is_alive() for process in processes)

    def test_unix_endpoint(self, tmp_path, sharded_bytes):
        _, blob = sharded_bytes
        address = f"unix:{tmp_path}/graph.sock"
        with serve(blob, address=address) as running:
            assert running.endpoint == address
            with connect(address) as client:
                assert client.ping()
        assert not (tmp_path / "graph.sock").exists()  # cleaned up


class TestClient:
    def test_ping_and_info(self, server, sharded_bytes):
        handle, _ = sharded_bytes
        with server.connect() as client:
            assert client.ping()
            info = client.info()
            assert info["type"] == "sharded"
            assert info["shards"] == 2
            assert info["nodes"] == handle.node_count()

    def test_query_matches_local(self, server, sharded_bytes):
        handle, _ = sharded_bytes
        with server.connect() as client:
            assert client.query("out", 1) == handle.out(1)
            assert client.query("degree") == handle.degree()
            assert client.query("path", 1, 1) == handle.path(1, 1)

    def test_batch_raises_first_error_like_the_handles(self, server):
        with server.connect() as client:
            with pytest.raises(QueryError, match="unknown batch query"):
                client.batch([("nope", 1)])

    def test_empty_batch(self, server):
        with server.connect() as client:
            assert client.batch([]) == []
            assert client.execute([]) == []

    def test_many_concurrent_clients(self, server, sharded_bytes):
        handle, _ = sharded_bytes
        expected = handle.batch([("out", node)
                                 for node in range(1, 21)])
        failures = []

        def worker():
            try:
                with server.connect() as client:
                    got = client.batch([("out", node)
                                        for node in range(1, 21)])
                    if got != expected:
                        failures.append(got)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestProtocolRobustness:
    def test_oversized_frame_answers_then_closes(self, server):
        """A length header past the frame limit desynchronizes the
        stream; the server must answer with a structured ``error``
        frame (fatal) and then close deterministically — not loop
        misparsing payload bytes, and not drop a bare RST — while
        continuing to serve new connections."""
        import socket as socket_module
        import struct

        from repro.serving.codec import parse_address, recv_message

        _, target = parse_address(server.endpoint)
        raw = socket_module.create_connection(target, timeout=5)
        try:
            raw.sendall(struct.pack("!I", 2 ** 31) + b"XXXX")
            raw.settimeout(5)
            # First: the structured verdict (the peer learns *why*).
            reply = recv_message(raw)
            assert reply["op"] == "error"
            assert reply["fatal"] is True
            assert "exceeds" in reply["message"]
            # Then: the deterministic close (FIN, or RST when our
            # unread payload bytes are still in its receive buffer).
            try:
                assert raw.recv(4096) == b""
            except ConnectionResetError:
                pass
        finally:
            raw.close()
        with server.connect() as client:  # the server itself survives
            assert client.ping()

    def test_undecodable_payload_keeps_the_connection(self, server):
        """A bad payload of a well-framed message is recoverable: the
        server answers with an error message and the same connection
        keeps working."""
        import socket as socket_module
        import struct

        from repro.serving.codec import parse_address, recv_message

        _, target = parse_address(server.endpoint)
        raw = socket_module.create_connection(target, timeout=5)
        try:
            payload = b"\x00not a known tag"
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            reply = recv_message(raw)
            assert reply["op"] == "error"
        finally:
            raw.close()


class _ChainBudgetHelpers:
    """The 4-shard chain graph + per-proxy round-trip accounting."""

    SHARDS = 4
    PER_SHARD = 5

    def _chain_handle(self):
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        total = self.SHARDS * self.PER_SHARD
        graph = Hypergraph.from_edges(
            [(label, (node, node + 1)) for node in range(1, total)],
            num_nodes=total)
        assign = {node: (node - 1) // self.PER_SHARD
                  for node in graph.nodes()}
        return ShardedCompressedGraph.compress(
            graph, alphabet, shards=self.SHARDS,
            partitioner=lambda g, k: assign)

    def _deltas(self, server, before):
        return [proxy.round_trips - start
                for proxy, start in zip(server._proxies, before)]


class TestCrossShardReachRoundTrips(_ChainBudgetHelpers):
    """Wire-cost budgets of the planned cross-shard reach routes.

    A 4-shard chain (1 -> 2 -> ... -> 20, five nodes per shard) makes
    the boundary sparse and the hop count maximal, so per-hop routing
    would cost one round trip per probe.  The batched routes must
    stay within one ``batch()`` frame per shard touched.
    """

    def test_closure_reach_one_frame_per_endpoint_shard(self):
        """Acceptance: a persisted closure answers cross-shard reach
        with at most one routed query per endpoint shard — middle
        shards are never contacted, and nothing is rebuilt."""
        handle = self._chain_handle()
        blob = handle.to_bytes(include_closure=True)
        with serve(blob) as running:
            service = running.service
            assert service.closure_built and service.closure_persisted
            with running.connect() as client:
                before = [proxy.round_trips
                          for proxy in running._proxies]
                # Shard 0 interior node -> shard 3 interior node.
                assert client.query("reach", 2, 18) is True
                deltas = self._deltas(running, before)
                assert deltas[0] <= 1          # source-shard batch
                assert deltas[-1] <= 1         # target-shard batch
                assert deltas[1] == deltas[2] == 0  # no chaining hops
                # The reverse direction is decided by the closure and
                # the source batch alone (no exit is reachable).
                before = [proxy.round_trips
                          for proxy in running._proxies]
                assert client.query("reach", 18, 2) is False
                deltas = self._deltas(running, before)
                assert sum(deltas) <= 2

    def test_chained_reach_ships_one_frame_per_shard_wave(self):
        """ROADMAP follow-on: when the router does fall back to
        chaining, each shard's exit probes travel as one ``batch()``
        frame — one round trip per (shard, wave), not one per hop."""
        handle = self._chain_handle()
        blob = handle.to_bytes(include_closure=False)
        with serve(blob) as running:
            service = running.service
            assert not service.closure_built
            service.planner.force = "chaining"
            with running.connect() as client:
                before = [proxy.round_trips
                          for proxy in running._proxies]
                assert client.query("reach", 2, 18) is True
                deltas = self._deltas(running, before)
                # The chain walks each shard exactly once; per-hop
                # routing would cost a round trip per exit probe.
                assert all(delta <= 1 for delta in deltas), deltas
                assert sum(deltas) <= self.SHARDS
                before = [proxy.round_trips
                          for proxy in running._proxies]
                assert client.query("reach", 18, 2) is False
                deltas = self._deltas(running, before)
                assert sum(deltas) <= 1

    def test_served_chain_answers_match_local(self):
        handle = self._chain_handle()
        total = handle.node_count()
        requests = [("reach", source, target)
                    for source in (1, 7, 13, 20)
                    for target in (1, 6, 12, 20)]
        expected = handle.batch(requests)
        with serve(handle.to_bytes(include_closure=True)) as running:
            with running.connect() as client:
                assert client.batch(requests) == expected
        assert total == self.SHARDS * self.PER_SHARD


class TestReplicatedRoundTripBudgets(_ChainBudgetHelpers):
    """The wire-cost budgets are **per logical shard**, not per
    endpoint: replicating a shard must not multiply round trips.

    Every lane here runs with ``replicas=2`` and asserts the *same*
    budgets the single-replica lanes above pin — one completed
    exchange per logical shard touched, no matter how many replicas
    stand behind it.
    """

    def test_closure_reach_budget_holds_under_replicas(self):
        handle = self._chain_handle()
        blob = handle.to_bytes(include_closure=True)
        with serve(blob, replicas=2, cache_size=0) as running:
            assert all(len(proxy.endpoints) == 2
                       for proxy in running._proxies)
            with running.connect() as client:
                before = [proxy.round_trips
                          for proxy in running._proxies]
                assert client.query("reach", 2, 18) is True
                deltas = self._deltas(running, before)
                assert deltas[0] <= 1          # source-shard batch
                assert deltas[-1] <= 1         # target-shard batch
                assert deltas[1] == deltas[2] == 0  # no chaining hops

    def test_replica_trips_sum_to_the_logical_counter(self):
        handle = self._chain_handle()
        blob = handle.to_bytes(include_closure=True)
        with serve(blob, replicas=2, cache_size=0) as running:
            with running.connect() as client:
                for node in range(1, 19):
                    assert client.query("out", node) == \
                        handle.out(node)
            for proxy in running._proxies:
                trips = proxy.replica_round_trips
                assert len(trips) == 2
                assert sum(trips) == proxy.round_trips

    def test_failover_costs_one_completed_exchange(self):
        """A request that failed over still counts a single completed
        exchange on the logical shard: the dead replica's aborted
        attempt never completed, so it never hits the meter."""
        handle = self._chain_handle()
        blob = handle.to_bytes(include_closure=True)
        with serve(blob, replicas=2, cache_size=0) as running:
            with running.connect() as client:
                # Warm the links so the kill poisons live connections.
                assert client.query("out", 2) == handle.out(2)
                assert client.query("out", 3) == handle.out(3)
                running.kill_replica(0, 0)
                before = running._proxies[0].round_trips
                failovers = running._proxies[0].failovers
                # Two queries cover both round-robin positions: one
                # of them fails over from the dead replica.
                assert client.query("out", 2) == handle.out(2)
                assert client.query("out", 4) == handle.out(4)
                assert running._proxies[0].failovers > failovers
                assert running._proxies[0].round_trips - before <= 2


class TestShutdownRaces:
    """Deliberate shutdown vs. unexpected death must be told apart.

    The old accept loop swallowed *every* ``OSError`` with a bare
    ``return``, so a listener dying under a healthy server looked
    exactly like ``close()``.  Now only the flagged path is silent;
    anything else records a :class:`ReproError` with the errno on
    ``fault``.
    """

    def test_deliberate_close_records_no_fault(self, sharded_bytes):
        _, blob = sharded_bytes
        running = serve(blob)
        loop = running._loop
        running.close()
        assert loop.fault is None
        assert running.fault is None

    def test_listener_death_is_a_fault_with_errno(self, sharded_bytes):
        import socket as socket_module
        import time

        from repro.exceptions import ReproError

        _, blob = sharded_bytes
        running = serve(blob)
        try:
            loop = running._loop
            # Not close(): yank the listener out from under a healthy
            # server (shutdown() wakes the pending accept; close()
            # would silently deregister the fd from the event loop).
            running._listener.shutdown(socket_module.SHUT_RDWR)
            deadline = time.monotonic() + 5
            while loop.fault is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert isinstance(loop.fault, ReproError)
            assert "unexpectedly" in str(loop.fault)
            assert "errno" in str(loop.fault)
        finally:
            running.close()


class TestRouterCache:
    def test_router_lru_absorbs_hot_traffic(self, sharded_bytes):
        """Repeated remote batches are answered by the router's LRU
        without another shard round trip (the cache-aware planner in
        front of ReplicatedShard links)."""
        _, blob = sharded_bytes
        with serve(blob) as running:
            with running.connect() as client:
                requests = [("out", node) for node in range(1, 9)]
                first = client.batch(requests)
                assert client.batch(requests) == first
                assert client.batch(list(reversed(requests))) == \
                    list(reversed(first))
