"""The partition layer: partitioners, boundary closure, reach planner.

Three pillars:

* **partitioner zoo** — every registered strategy covers every node
  deterministically; the edge-cut strategies (``bfs`` / ``label``)
  beat ``hash`` strictly on single-component corpora (the acceptance
  criterion: a giant component must stop degenerating to the
  dense-boundary regime).
* **strategy differential** — closure ≡ chaining ≡ BFS ≡ ground truth
  on all 10 smoke corpora, 2- and 4-shard lanes, all four
  partitioners.  Ground truth is BFS over the handle's own
  ``decompress()`` — the documented ID space of its answers, i.e. the
  unsharded answer up to the canonical renumbering (the k=1 lane in
  ``test_sharding.py`` pins the renumbering itself).
* **closure persistence** — a "GRPS" round trip preserves the closure
  byte-identically, and a loaded closure short-circuits the rebuild.
* **closure codec** — one lane over ``num_states`` in {1, 3} (reach
  and a pattern DFA are the same class): round trip, truncation,
  trailing bytes, bits beyond the vertex count, wrong node set.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import deque

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.encoding.container import (
    decode_sharded_container,
    encode_closure_table,
    encode_sharded_container,
)
from repro.exceptions import EncodingError, GrammarError
from repro.partition import (
    PARTITIONERS,
    BoundaryClosure,
    ReachPlanner,
    bfs_partition,
    cut_statistics,
    label_partition,
    resolve_partitioner,
)
from repro.rpq import compile_pattern

from helpers import exploding_build, theta_graph

#: The single-component smoke corpora (the edge-cut partitioners'
#: raison d'être: hash shreds these, connectivity cannot split them).
SINGLE_COMPONENT = ("copy-model", "rdf-identica")


def _ground_truth_out(val):
    out = {node: set() for node in val.nodes()}
    for _, edge in val.edges():
        if len(edge.att) == 2:
            out[edge.att[0]].add(edge.att[1])
    return out


def _bfs_reachable(out, source):
    seen = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for succ in out[node]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


# ----------------------------------------------------------------------
# The partitioner zoo
# ----------------------------------------------------------------------
class TestEdgeCutPartitioners:
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("corpus", ["er-random", "rdf-identica"])
    def test_total_deterministic_in_range(self, name, corpus):
        graph, _ = SMOKE_CORPORA[corpus]()
        partition = PARTITIONERS[name]
        first = partition(graph, 4)
        assert first == partition(graph, 4)
        assert set(first) == set(graph.nodes())
        assert set(first.values()) <= set(range(4))

    @pytest.mark.parametrize("name", ["bfs", "label"])
    @pytest.mark.parametrize("corpus", SINGLE_COMPONENT)
    def test_edge_cut_beats_hash_on_single_components(self, name,
                                                      corpus):
        """Acceptance: strictly fewer boundary edges than hash at k=4."""
        graph, _ = SMOKE_CORPORA[corpus]()
        hash_cut = cut_statistics(graph, PARTITIONERS["hash"](graph, 4),
                                  4)
        cut = cut_statistics(graph, PARTITIONERS[name](graph, 4), 4)
        assert cut["boundary_edges"] < hash_cut["boundary_edges"]
        assert cut["cut_ratio"] < hash_cut["cut_ratio"]

    @pytest.mark.parametrize("name", ["bfs", "label"])
    def test_balance_stays_bounded(self, name):
        graph, _ = SMOKE_CORPORA["copy-model"]()
        stats = cut_statistics(graph, PARTITIONERS[name](graph, 4), 4)
        # Both strategies enforce a per-shard node budget of ~n/k.
        assert stats["balance"] <= 1.5

    def test_bfs_handles_more_shards_than_nodes(self):
        graph, _ = theta_graph()
        assign = bfs_partition(graph, graph.node_size + 3)
        assert set(assign) == set(graph.nodes())

    def test_label_empty_graph(self):
        from repro import Hypergraph
        assert label_partition(Hypergraph(), 4) == {}

    def test_bfs_empty_graph(self):
        from repro import Hypergraph
        assert bfs_partition(Hypergraph(), 4) == {}

    def test_resolve_partitioner(self):
        fn, name = resolve_partitioner("bfs")
        assert fn is bfs_partition and name == "bfs"
        fn, name = resolve_partitioner(lambda g, k: {})
        assert name == "<lambda>"
        with pytest.raises(GrammarError, match="unknown partitioner"):
            resolve_partitioner("metis")

    def test_cut_statistics_small_graph(self):
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        graph = Hypergraph.from_edges(
            [(label, (1, 2)), (label, (2, 3)), (label, (3, 4))],
            num_nodes=4)
        stats = cut_statistics(graph, {1: 0, 2: 0, 3: 1, 4: 1}, 2)
        assert stats["boundary_edges"] == 1
        assert stats["cut_ratio"] == pytest.approx(1 / 3)
        assert stats["balance"] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["bfs", "label"])
    def test_compresses_end_to_end(self, name):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner=name,
            validate=False)
        assert handle.node_count() == graph.node_size
        assert handle.edge_count() == graph.num_edges
        assert handle.stats["partitioner"] == name


# ----------------------------------------------------------------------
# Strategy differential: closure ≡ chaining ≡ BFS ≡ ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("corpus", sorted(SMOKE_CORPORA))
def test_reach_strategies_agree_everywhere(corpus):
    """All 10 corpora, 2/4-shard lanes, all four partitioners."""
    graph, alphabet = SMOKE_CORPORA[corpus]()
    rng = random.Random(29)
    for shards in (2, 4):
        for partitioner in sorted(PARTITIONERS):
            handle = ShardedCompressedGraph.compress(
                graph, alphabet, shards=shards,
                partitioner=partitioner, validate=False, cache_size=0)
            out = _ground_truth_out(handle.decompress())
            total = handle.node_count()
            pairs = [(rng.randint(1, total), rng.randint(1, total))
                     for _ in range(12)]
            # Seed a few genuinely cross-shard pairs so boundary
            # routing is always exercised, not just sampled.
            boundary_nodes = sorted(handle.boundary.incident)
            if boundary_nodes:
                pairs.append((boundary_nodes[0], boundary_nodes[-1]))
                pairs.append((1, total))
            for source, target in pairs:
                truth = target in _bfs_reachable(out, source)
                for strategy in ("closure", "chaining", "bfs"):
                    handle.planner.force = strategy
                    answer = handle.reach(source, target)
                    handle.cache.clear()
                    assert answer == truth, (
                        f"{corpus} k={shards} {partitioner} "
                        f"{strategy}: reach({source}, {target}) = "
                        f"{answer}, truth {truth}"
                    )
                handle.planner.force = None
                assert handle.reach(source, target) == truth


def test_default_plan_uses_closure_on_edge_cut_partition():
    """Acceptance: the cost model itself (no forcing) picks the
    closure for an edge-cut partition of a single-component corpus."""
    graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
    handle = ShardedCompressedGraph.compress(
        graph, alphabet, shards=4, partitioner="bfs", validate=False)
    plan = handle.planner.plan(0, 3)
    assert plan.strategy == "closure"
    assert plan.costs["closure"] < plan.costs["bfs"]
    # ...and the hash partition of the same graph is dense enough
    # that the budget fences the closure off.
    dense = ShardedCompressedGraph.compress(
        graph, alphabet, shards=4, partitioner="hash", validate=False)
    assert dense.planner.plan(0, 3).strategy != "closure"


# ----------------------------------------------------------------------
# The planner's cost model
# ----------------------------------------------------------------------
class TestReachPlanner:
    def _handle(self, partitioner="bfs", shards=4):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        return ShardedCompressedGraph.compress(
            graph, alphabet, shards=shards, partitioner=partitioner,
            validate=False)

    def test_untouched_shard_is_local(self):
        graph, alphabet = SMOKE_CORPORA["version-copies"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="connectivity",
            validate=False)
        assert handle.boundary_edge_count == 0
        plan = handle.planner.plan(0, 1)
        assert plan.strategy == "local"

    def test_entryless_target_shard_is_local(self):
        """1 -> 2 | 3 -> 4: shard 0 exports but nothing enters it, so
        cross-shard reach *into* it is decidable without any probe."""
        from repro import Alphabet, Hypergraph
        alphabet = Alphabet()
        label = alphabet.add_terminal(rank=2, name="e")
        graph = Hypergraph.from_edges(
            [(label, (1, 2)), (label, (2, 3)), (label, (3, 4))],
            num_nodes=4)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {1: 0, 2: 0, 3: 1, 4: 1})
        assert handle.planner.plan(1, 0).strategy == "local"
        assert handle.planner.plan(0, 1).strategy != "local"
        # ...and the answers stay right either way.
        assert handle.reach(1, 4) is True
        assert handle.reach(4, 1) is False

    def test_partition_stats_stay_lazy(self):
        """Reading the cut statistics on a *loaded* handle must not
        canonicalize shards (the CLI `stats` command is a read-only
        printout; builds pay their per-shard pass anyway)."""
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        built = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="bfs",
            validate=False)
        handle = ShardedCompressedGraph.from_bytes(built.to_bytes())
        assert handle.canonicalizations == 0
        stats = handle.partition_stats
        assert stats["boundary_edges"] == handle.boundary_edge_count
        assert handle.canonicalizations == 0
        # Same numbers the full (index-building) count produces.
        assert stats["cut_ratio"] == pytest.approx(
            handle.boundary_edge_count / handle.edge_count())

    def test_budget_zero_disables_closure(self):
        handle = self._handle()
        handle.planner.closure_budget = 0
        plan = handle.planner.plan(0, 3)
        assert plan.strategy in ("chaining", "bfs")
        assert not handle.planner.closure_allowed()

    def test_built_closure_is_sunk_cost(self):
        handle = self._handle()
        handle.planner.closure_budget = 0
        handle.warm_closure()
        plan = handle.planner.plan(0, 3,
                                   closure_built=handle.closure_built)
        assert plan.strategy == "closure"
        assert "already paid" in plan.reason

    def test_force_overrides_costs(self):
        handle = self._handle()
        handle.planner.force = "bfs"
        plan = handle.planner.plan(0, 3)
        assert plan.strategy == "bfs" and "forced" in plan.reason

    def test_costs_are_reported(self):
        handle = self._handle()
        plan = handle.planner.plan(0, 3)
        for key in ("closure", "chaining", "bfs", "closure_build"):
            assert key in plan.costs
        assert plan.costs["closure_build"] == \
            handle.boundary.closure_pairs()

    def test_strategy_probe_matches_plan(self):
        """The hot-path probe and the introspection wrapper must be
        one decision: any drift is a routing bug."""
        handle = self._handle()
        planner = handle.planner
        for source in range(4):
            for target in range(4):
                for built in (False, True):
                    for states in (1, 3):
                        assert (planner.plan(source, target, built,
                                             states).strategy
                                == planner.strategy(source, target,
                                                    built, states))
        planner.force = "bfs"
        assert planner.strategy(0, 3) == "bfs"
        planner.force = None

    def test_planner_standalone(self):
        handle = self._handle()
        planner = ReachPlanner(handle.boundary, handle.node_count(),
                               closure_budget=10 ** 9)
        assert planner.closure_allowed()
        assert planner.plan(0, 3).strategy == "closure"

    def test_warm_builds_closure_within_budget(self):
        handle = self._handle()
        assert not handle.closure_built
        handle.warm()
        assert handle.closure_built

    def test_warm_skips_closure_over_budget(self):
        handle = self._handle(partitioner="hash")
        assert not handle.planner.closure_allowed()
        handle.warm()
        assert not handle.closure_built


# ----------------------------------------------------------------------
# Closure persistence (the "GRPS" trailer section)
# ----------------------------------------------------------------------
class TestClosurePersistence:
    def _warm_handle(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="bfs",
            validate=False)
        handle.warm_closure()
        return graph, alphabet, handle

    def test_roundtrip_is_byte_identical_to_rebuild(self, tmp_path):
        """Acceptance: loaded closure == independently rebuilt one."""
        graph, alphabet, handle = self._warm_handle()
        path = tmp_path / "g.grps"
        handle.save(path)
        loaded = ShardedCompressedGraph.open(path)
        assert loaded.closure_built and loaded.closure_persisted
        loaded_bytes = loaded.warm_closure().to_bytes()
        rebuilt = ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="bfs",
            validate=False)
        assert loaded_bytes == rebuilt.warm_closure().to_bytes()
        assert loaded.warm_closure() == rebuilt.warm_closure()

    def test_loaded_closure_skips_the_rebuild(self, tmp_path,
                                              monkeypatch):
        _, _, handle = self._warm_handle()
        path = tmp_path / "g.grps"
        handle.save(path)
        loaded = ShardedCompressedGraph.open(path)

        monkeypatch.setattr(BoundaryClosure, "build", exploding_build)
        closure = loaded.warm_closure()
        assert closure.nodes  # the loaded object, not a rebuild
        # ...and cross-shard reach works against the loaded closure.
        total = loaded.node_count()
        assert loaded.reach(1, total) in (True, False)

    def test_save_without_closure_by_default(self, tmp_path):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, validate=False)
        path = tmp_path / "g.grps"
        handle.save(path)  # closure never built -> no section
        loaded = ShardedCompressedGraph.open(path)
        assert not loaded.closure_built
        assert not loaded.closure_persisted
        assert "closure" not in loaded.sizes

    def test_save_with_forced_closure(self, tmp_path):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs",
            validate=False)
        container = handle.save(tmp_path / "g.grps",
                                include_closure=True)
        assert "closure" in container.section_bytes
        assert handle.closure_built  # the save forced the build

    def test_sections_account_for_the_closure(self):
        _, _, handle = self._warm_handle()
        sections = handle.to_container().section_bytes
        assert sections["closure"] == \
            len(handle.warm_closure().to_bytes())
        assert "closure" in handle.sizes

    def test_queries_survive_closure_roundtrip(self, tmp_path):
        _, _, handle = self._warm_handle()
        path = tmp_path / "g.grps"
        handle.save(path)
        loaded = ShardedCompressedGraph.open(path)
        total = loaded.node_count()
        rng = random.Random(31)
        requests = []
        for _ in range(80):
            kind = rng.choice(["out", "in", "reach", "path"])
            if kind in ("reach", "path"):
                requests.append((kind, rng.randint(1, total),
                                 rng.randint(1, total)))
            else:
                requests.append((kind, rng.randint(1, total)))
        assert loaded.batch(requests) == handle.batch(requests)

    def test_resave_of_closure_container_is_stable(self):
        _, _, handle = self._warm_handle()
        blob = handle.to_bytes()
        loaded = ShardedCompressedGraph.from_bytes(blob)
        assert loaded.to_bytes() == blob

    def test_closure_on_hyperedges_raises_cleanly(self, tmp_path):
        """Non-simple graphs cannot use reach, hence no closure: the
        build (and a forced persist) must fail with a clear error,
        while the default save still works closure-less."""
        from repro import Alphabet, Hypergraph
        from repro.exceptions import QueryError
        alphabet = Alphabet()
        simple = alphabet.add_terminal(rank=2, name="e")
        hyper = alphabet.add_terminal(rank=3, name="h")
        graph = Hypergraph.from_edges(
            [(simple, (1, 2)), (simple, (2, 3)), (hyper, (1, 2, 4))],
            num_nodes=4)
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2,
            partitioner=lambda g, k: {1: 0, 2: 0, 3: 1, 4: 1})
        with pytest.raises(QueryError, match="simple"):
            handle.warm_closure()
        with pytest.raises(QueryError, match="simple"):
            handle.to_container(include_closure=True)
        handle.save(tmp_path / "g.grps")  # default: no closure, fine
        loaded = ShardedCompressedGraph.open(tmp_path / "g.grps")
        assert not loaded.closure_persisted

# ----------------------------------------------------------------------
# The closure codec: one lane, reach (1 state) and a pattern DFA (3)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_states", [1, 3])
class TestClosureCodec:
    def _handle(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        return ShardedCompressedGraph.compress(
            graph, alphabet, shards=4, partitioner="bfs",
            validate=False)

    def _pattern(self, handle):
        name = handle.alphabet.name(
            next(iter(handle.alphabet.terminals())))
        pattern = f"<{name}> <{name}>"
        assert compile_pattern(pattern).num_states == 3
        return pattern

    def _spliced(self, handle, num_states, closure):
        """The handle's container with its closure swapped out."""
        container = decode_sharded_container(handle.to_bytes())
        if num_states == 1:
            return encode_sharded_container(
                container.meta, container.shards, closure.to_bytes())
        dfa = compile_pattern(self._pattern(handle))
        return encode_sharded_container(
            container.meta, container.shards, None,
            encode_closure_table([(dfa.to_bytes(), closure.num_states,
                                   closure.to_bytes())]))

    def test_roundtrip(self, num_states):
        handle = self._handle()
        closure = handle.warm_closure(
            None if num_states == 1 else self._pattern(handle))
        assert closure.num_states == num_states
        decoded = BoundaryClosure.from_bytes(closure.to_bytes(),
                                             num_states)
        assert decoded == closure
        assert decoded.num_states == num_states
        # The same rows under another state count are another closure.
        assert decoded != BoundaryClosure(closure.nodes, closure.rows,
                                          num_states + 1)

    def test_truncated_rejected(self, num_states):
        with pytest.raises(EncodingError, match="closure"):
            BoundaryClosure.from_bytes(b"\x05\x01", num_states)
        with pytest.raises(EncodingError, match="truncated"):
            BoundaryClosure.from_bytes(
                BoundaryClosure([3, 7], [0] * (2 * num_states),
                                num_states).to_bytes()[:-1], num_states)

    def test_trailing_bytes_rejected(self, num_states):
        closure = BoundaryClosure([], [], num_states)
        with pytest.raises(EncodingError, match="trailing"):
            BoundaryClosure.from_bytes(closure.to_bytes() + b"\x00",
                                       num_states)

    def test_bits_beyond_the_vertex_count_rejected(self, num_states):
        """Row bits past ``nodes * states`` mark a corrupt container."""
        crafted = BoundaryClosure([3, 7], [1] * (2 * num_states),
                                  num_states).to_bytes()
        corrupted = crafted[:-1] + bytes([crafted[-1] | 0x80])
        with pytest.raises(EncodingError, match="beyond"):
            BoundaryClosure.from_bytes(corrupted, num_states)

    def test_wrong_node_set_rejected_at_load(self, num_states):
        """A structurally valid closure over the wrong boundary node
        set (a spliced container) must fail at load like the meta
        shard-count mismatch does — not as a KeyError at query time."""
        handle = self._handle()
        wrong = BoundaryClosure([1, 2], [0] * (2 * num_states),
                                num_states)
        spliced = self._spliced(handle, num_states, wrong)
        with pytest.raises(EncodingError, match="boundary node"):
            ShardedCompressedGraph.from_bytes(spliced.data)

    def test_wrong_state_count_rejected_at_load(self, num_states):
        """An entry whose state count is not its DFA's (for reach:
        rows sized for a different count) cannot be loaded."""
        handle = self._handle()
        nodes = sorted(handle.boundary.incident)
        wrong = BoundaryClosure(nodes, [0] * (len(nodes) * 2), 2)
        spliced = self._spliced(handle, num_states, wrong)
        with pytest.raises(EncodingError,
                           match="closure|state count"):
            ShardedCompressedGraph.from_bytes(spliced.data)


# ----------------------------------------------------------------------
# A closure is built once per automaton key, also under concurrency
# ----------------------------------------------------------------------
class CountingShard:
    """A shard stub: counts ``batch()`` calls, optionally gating them."""

    def __init__(self, shard, gate=None):
        self._shard = shard
        self._gate = gate
        self._lock = threading.Lock()
        self.batches = 0

    def batch(self, requests, **kwargs):
        with self._lock:
            self.batches += 1
        if self._gate is not None:
            self._gate()
        return self._shard.batch(requests, **kwargs)

    def __getattr__(self, name):
        return getattr(self._shard, name)


class TestClosureBuildConcurrency:
    def _handle(self, gate=None):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs",
            validate=False)
        handle.warm()  # indexes first: only closure probes race below
        handle._shards[:] = [CountingShard(shard, gate)
                             for shard in handle._shards]
        names = [handle.alphabet.name(label)
                 for label in handle.alphabet.terminals()]
        return handle, names

    def _run(self, calls):
        """Run the callables on one thread each, released together."""
        start = threading.Barrier(len(calls))
        results = [None] * len(calls)

        def work(position):
            start.wait(timeout=30)
            try:
                results[position] = calls[position]()
            except BaseException as exc:  # surfaced by the assertions
                results[position] = exc

        threads = [threading.Thread(target=work, args=(position,),
                                    daemon=True)
                   for position in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return results

    @pytest.mark.timeout(120)
    def test_eight_threads_one_pattern_one_build(self, monkeypatch):
        handle, names = self._handle(gate=lambda: time.sleep(0.02))
        builds = []
        original = BoundaryClosure.build.__func__

        def counting_build(cls, *args, **kwargs):
            builds.append(threading.get_ident())
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(BoundaryClosure, "build",
                            classmethod(counting_build))
        # Two spellings of one canonical DFA: one key, one build.
        spellings = [f"(<{names[0]}>|<{names[-1]}>)+",
                     f"(<{names[-1]}>|<{names[0]}>)+"]
        before = sum(shard.batches for shard in handle._shards)
        closures = self._run(
            [lambda pattern=spellings[position % 2]:
             handle.warm_closure(pattern) for position in range(8)])
        assert len(builds) == 1
        assert all(closure is closures[0] for closure in closures)
        assert isinstance(closures[0], BoundaryClosure)
        # One build = one probe batch per shard, not eight.
        assert sum(shard.batches for shard in handle._shards) \
            - before == 2
        assert handle.rpq_info["rpq_closures"] == 1

    @pytest.mark.timeout(120)
    def test_different_patterns_build_concurrently(self):
        """Both builders must be inside their probe batch at once: a
        handle-wide lock around the build would break the barrier."""
        inside = threading.Barrier(2)
        handle, names = self._handle()
        handle._shards[0] = CountingShard(
            handle._shards[0]._shard,
            gate=lambda: inside.wait(timeout=20))
        closures = self._run(
            [lambda: handle.warm_closure(f"<{names[0]}>+"),
             lambda: handle.warm_closure(f"<{names[-1]}>+")])
        assert all(isinstance(closure, BoundaryClosure)
                   for closure in closures), closures
        assert closures[0] is not closures[1]
        assert handle.rpq_info["rpq_closures"] == 2

    @pytest.mark.timeout(120)
    def test_failed_build_is_retried_by_a_waiter(self):
        """A build that dies leaves no entry and no stuck waiters."""
        from repro.exceptions import QueryError
        failures = []

        def flaky():
            if not failures:
                failures.append(1)
                raise QueryError("injected probe failure")

        handle, names = self._handle()
        handle._shards[0] = CountingShard(handle._shards[0]._shard,
                                          gate=flaky)
        pattern = f"<{names[0]}>+"
        outcomes = self._run(
            [lambda: handle.warm_closure(pattern)] * 4)
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(errors) == 1 and "injected" in str(errors[0])
        built = [o for o in outcomes if isinstance(o, BoundaryClosure)]
        assert len(built) == 3 and all(c is built[0] for c in built)
        assert handle.rpq_info["rpq_closures"] == 1


# ----------------------------------------------------------------------
# The closure route keeps its probe promise
# ----------------------------------------------------------------------
def test_closure_reach_probes_at_most_one_batch_per_endpoint_shard():
    """Acceptance: cross-shard reach = one in-shard batch per endpoint
    shard (plus closure hops), never per-hop chaining."""
    graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
    handle = ShardedCompressedGraph.compress(
        graph, alphabet, shards=4, partitioner="bfs", validate=False,
        cache_size=0)
    handle.warm_closure()

    calls = []
    originals = [shard.batch for shard in handle.shards]
    for index, shard in enumerate(handle.shards):
        def counted(requests, _index=index,
                    _original=originals[index], **kwargs):
            calls.append(_index)
            return _original(requests, **kwargs)
        shard.batch = counted

    total = handle.node_count()
    rng = random.Random(37)
    checked = 0
    for _ in range(200):
        source = rng.randint(1, total)
        target = rng.randint(1, total)
        source_shard = handle._owner(source)
        target_shard = handle._owner(target)
        if source_shard == target_shard:
            continue
        plan = handle.planner.plan(source_shard, target_shard,
                                   closure_built=True)
        if plan.strategy != "closure":
            continue
        calls.clear()
        handle.reach(source, target)
        assert len(calls) <= 2, (source, target, calls)
        assert calls.count(source_shard) <= 1
        assert calls.count(target_shard) <= 1
        assert set(calls) <= {source_shard, target_shard}
        checked += 1
    assert checked >= 20  # the sample really exercised the route
