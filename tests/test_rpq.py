"""The RPQ subsystem: regex front end, engine, counts, sharding.

Differential acceptance for ``repro.rpq``:

* **front end** — the pattern language parses, canonicalizes
  (equivalent patterns share one minimized DFA / one cache key), and
  rejects malformed input with ``QueryError``; a property lane checks
  random patterns against Python's ``re`` on random words.
* **engine truth lane** — ``CompressedGraph.rpq`` must equal a naive
  product-BFS over the networkx view of the handle's own
  ``decompress()`` on every smoke corpus, for a fixed pattern set,
  on both the skeleton route and the forced-BFS fallback.
* **sharded lanes** — ``k=1`` is bit-identical to the unsharded
  handle; ``k>1`` is checked against its own decompression under
  every forced strategy (closure / chaining / bfs); ID-free
  pattern-count aggregates must equal the unsharded handle exactly.
* **persistence** — warmed per-pattern closures survive the GRPS 'R'
  trailer round-trip and a corrupt table is rejected (the closure
  codec itself is pinned for 1 and 3 states in ``test_partition.py``).
* **serving** — a socket-served handle answers ``rpq`` /
  ``pattern_count`` / ``out_edges`` byte-identically to the
  in-process handle, strict and pipelined (SIGALRM-bounded).
"""

from __future__ import annotations

import random
import re
import time

import pytest

from repro import CompressedGraph, ShardedCompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.encoding.container import (
    decode_closure_table,
    decode_sharded_container,
)
from repro.exceptions import EncodingError, QueryError
from repro.partition import BoundaryClosure, ReachPlanner
from repro.rpq import cache_key, compile_pattern
from repro.rpq.regex import MAX_DFA_STATES, MAX_PATTERN_LENGTH, PatternDFA
from repro.serving import GraphServer, connect
from repro.serving.protocol import QueryKind, QueryRequest

from helpers import exploding_build, truth_graph, truth_rpq

#: Pattern templates instantiated with each corpus's label names
#: (``{a}`` = first name, ``{z}`` = last name).
PATTERN_TEMPLATES = [
    "<{a}>",
    "<{a}>+",
    "<{a}> <{z}>",
    "(<{a}>|<{z}>)*<{z}>",
    ". .",
    "<{a}>?.",
]


def corpus_patterns(names):
    return [template.format(a=names[0], z=names[-1])
            for template in PATTERN_TEMPLATES]


def label_names(alphabet):
    return [alphabet.name(label) for label in alphabet.terminals()]


def probe_pairs(total_nodes, count=40, seed=7):
    rng = random.Random(seed)
    pairs = [(1, total_nodes), (total_nodes, 1), (1, 1)]
    pairs += [(rng.randint(1, total_nodes), rng.randint(1, total_nodes))
              for _ in range(count)]
    return pairs


# ----------------------------------------------------------------------
# Shared handles (compression dominates; one build per corpus)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flat():
    handles = {}

    def build(corpus):
        if corpus not in handles:
            graph, alphabet = SMOKE_CORPORA[corpus]()
            handles[corpus] = (CompressedGraph.compress(
                graph, alphabet, validate=False), label_names(alphabet))
        return handles[corpus]

    return build


# ----------------------------------------------------------------------
# Front end: parsing, canonicalization, rejection
# ----------------------------------------------------------------------
class TestRegexFrontEnd:
    def test_literal_and_concat(self):
        dfa = compile_pattern("a b")
        assert dfa.accepts(["a", "b"])
        assert not dfa.accepts(["a"])
        assert not dfa.accepts(["b", "a"])

    def test_union_star_plus_optional(self):
        dfa = compile_pattern("a(b|c)*")
        assert dfa.accepts(["a"])
        assert dfa.accepts(["a", "c", "b", "b"])
        assert not dfa.accepts(["c"])
        plus = compile_pattern("a+")
        assert not plus.accepts([])
        assert plus.accepts(["a", "a", "a"])
        opt = compile_pattern("a? b")
        assert opt.accepts(["b"]) and opt.accepts(["a", "b"])

    def test_dot_matches_unmentioned_labels(self):
        dfa = compile_pattern("a .")
        assert dfa.accepts(["a", "completely-new-label"])
        assert dfa.accepts(["a", "a"])
        assert not dfa.accepts(["completely-new-label", "a"])

    def test_quoted_names(self):
        dfa = compile_pattern("<rdf:type|odd name>+")
        assert dfa.accepts(["rdf:type|odd name"])
        assert not dfa.accepts(["rdf:type"])

    def test_subset_construction_is_capped(self):
        # (a|b)* a (a|b)^n needs 2**(n+1) subset states: n = 8 fits
        # under the cap, n = 14 (the 92-character bomb) does not and
        # is abandoned as soon as the cap is passed.
        assert compile_pattern("(a|b)* a" + " (a|b)" * 8).num_states \
            == 2 ** 9
        bomb = "(a|b)* a" + " (a|b)" * 14
        start = time.perf_counter()
        with pytest.raises(QueryError, match=f"{MAX_DFA_STATES} "
                                             "automaton states"):
            compile_pattern(bomb)
        assert time.perf_counter() - start < 1.0

    def test_pattern_length_is_capped(self):
        with pytest.raises(QueryError, match="characters long"):
            compile_pattern("a" * (MAX_PATTERN_LENGTH + 1))
        assert cache_key("a" * (MAX_PATTERN_LENGTH + 1))[0] == "raw"

    @pytest.mark.parametrize("left,right", [
        ("a|b", "b|a"),
        ("((a))", "a"),
        ("a+", "a a*"),
        ("(a|b)(a|b)", "(b|a)(b|a)"),
        ("a**", "a*"),
        ("(a*)*", "a*"),
        ("a|a", "a"),
    ])
    def test_equivalent_patterns_share_one_canonical_dfa(self, left,
                                                         right):
        assert compile_pattern(left).key == compile_pattern(right).key
        assert cache_key(left) == cache_key(right)

    def test_distinct_patterns_do_not_collide(self):
        assert compile_pattern("a").key != compile_pattern("b").key
        assert compile_pattern("a*").key != compile_pattern("a+").key
        assert cache_key("a b") != cache_key("b a")

    def test_empty_union_branches_mean_epsilon(self):
        assert compile_pattern("a|").accepts([])
        assert compile_pattern("|a").key == compile_pattern("a?").key

    @pytest.mark.parametrize("bad", [
        "a(b", "(", ")", "a)b", "*", "<unterminated", "a~b", "+",
    ])
    def test_malformed_patterns_raise_query_errors(self, bad):
        with pytest.raises(QueryError, match="malformed pattern"):
            compile_pattern(bad)

    def test_cache_key_falls_back_on_malformed_input(self):
        assert cache_key("a(b") == ("raw", "a(b")
        assert cache_key(17) == ("raw", 17)

    def test_dfa_codec_roundtrip(self):
        dfa = compile_pattern("a(b|c)*d?")
        again = PatternDFA.from_bytes(dfa.to_bytes())
        assert again == dfa
        assert again.key == dfa.key

    def test_property_lane_matches_python_re(self):
        """Random patterns over {a, b} vs ``re`` on random words.

        Every generated word only uses mentioned names, so the
        rest-class symbol never fires and ``.`` is exactly ``[ab]``.
        """
        rng = random.Random(99)

        def gen(depth):
            roll = rng.random()
            if depth <= 0 or roll < 0.4:
                return rng.choice(["a", "b", "."])
            if roll < 0.6:
                return f"{gen(depth - 1)} {gen(depth - 1)}"
            if roll < 0.75:
                left, right = gen(depth - 1), gen(depth - 1)
                return f"({left}|{right})"
            mark = rng.choice("*+?")
            return f"({gen(depth - 1)}){mark}"

        for _ in range(60):
            pattern = gen(3)
            dfa = compile_pattern(pattern)
            truth = re.compile(
                pattern.replace(" ", "").replace(".", "[ab]") + r"\Z")
            for _ in range(25):
                word = [rng.choice("ab")
                        for _ in range(rng.randint(0, 6))]
                expected = truth.match("".join(word)) is not None
                assert dfa.accepts(word) == expected, \
                    (pattern, word)


# ----------------------------------------------------------------------
# Engine truth lane: every smoke corpus vs networkx product-BFS
# ----------------------------------------------------------------------
class TestEngineDifferential:
    @pytest.mark.parametrize("corpus", list(SMOKE_CORPORA))
    def test_rpq_equals_product_bfs(self, corpus, flat):
        handle, names = flat(corpus)
        graph = truth_graph(handle)
        pairs = probe_pairs(handle.node_count())
        for pattern in corpus_patterns(names):
            dfa = compile_pattern(pattern)
            for source, target in pairs:
                assert handle.rpq(pattern, source, target) == \
                    truth_rpq(graph, dfa, source, target), \
                    (corpus, pattern, source, target)
        # No DFA's skeletons were built twice, however many probes it
        # answered (a corpus the cost gate sends to BFS builds none).
        info = handle.rpq_info
        assert info["skeleton_builds"] == info["cached_dfas"]

    @pytest.mark.smoke
    def test_state_to_state_probes(self, flat):
        """The wire probe forms: from-state and state-to-state."""
        handle, names = flat("rdf-identica")
        graph = truth_graph(handle)
        pattern = f"<{names[0]}>(<{names[-1]}>|<{names[0]}>)*"
        dfa = compile_pattern(pattern)
        pairs = probe_pairs(handle.node_count(), count=15, seed=3)
        for from_state in range(dfa.num_states):
            for to_state in range(dfa.num_states):
                for source, target in pairs:
                    expected = truth_rpq(
                        graph, dfa, source, target,
                        start=from_state,
                        accepting=frozenset([to_state]))
                    assert handle.rpq(pattern, source, target,
                                      from_state, to_state) == \
                        expected, (from_state, to_state, source, target)

    @pytest.mark.smoke
    def test_bfs_fallback_agrees_with_skeletons(self, flat):
        handle, names = flat("er-random")
        engine = handle._rpq_engine()
        pattern = f"(<{names[0]}>|.)<{names[0]}>*"
        pairs = probe_pairs(handle.node_count(), count=20, seed=5)
        skeleton = [engine.matches(pattern, s, t) for s, t in pairs]
        engine.force = "bfs"
        try:
            assert [engine.matches(pattern, s, t)
                    for s, t in pairs] == skeleton
        finally:
            engine.force = None

    def test_node_validation(self, flat):
        handle, names = flat("er-random")
        total = handle.node_count()
        with pytest.raises(QueryError, match="out of range"):
            handle.rpq(names[0], 0, 1)
        with pytest.raises(QueryError, match="out of range"):
            handle.rpq(names[0], 1, total + 1)
        with pytest.raises(QueryError, match="from_state"):
            handle.rpq(names[0], 1, 1, 99)


# ----------------------------------------------------------------------
# Cache correctness: canonical keys share entries and builds
# ----------------------------------------------------------------------
class TestCanonicalCaching:
    @pytest.mark.smoke
    def test_equivalent_patterns_hit_one_cache_entry(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        names = label_names(alphabet)
        handle = CompressedGraph.compress(graph, alphabet,
                                          validate=False)
        first = f"<{names[0]}>|<{names[1]}>"
        second = f"<{names[1]}>|<{names[0]}>"
        answer = handle.rpq(first, 1, 2)
        misses = handle.cache_info["misses"]
        hits = handle.cache_info["hits"]
        assert handle.rpq(second, 1, 2) == answer
        # The flipped union is the same canonical DFA: same LRU slot.
        assert handle.cache_info["hits"] == hits + 1
        assert handle.cache_info["misses"] == misses
        # ...and the engine built exactly one skeleton set for both.
        assert handle.rpq_info["skeleton_builds"] == 1
        assert handle.rpq_info["cached_dfas"] == 1

    def test_request_keys_canonicalize(self):
        one = QueryRequest(id=1, kind=QueryKind.RPQ,
                           args=("a|b", 3, 4))
        two = QueryRequest(id=2, kind=QueryKind.RPQ,
                           args=("b|a", 3, 4))
        other = QueryRequest(id=3, kind=QueryKind.RPQ,
                             args=("b|a", 4, 3))
        assert one.key == two.key
        assert one.key != other.key
        # Unparseable patterns still get a (raw) key — the error
        # surfaces at evaluation, not at cache-key time.
        bad = QueryRequest(id=4, kind=QueryKind.RPQ, args=("a(", 1, 2))
        assert bad.key[1] == ("raw", "a(")


# ----------------------------------------------------------------------
# Pattern counts: grammar pass vs decompressed truth, both handles
# ----------------------------------------------------------------------
class TestPatternCounts:
    @pytest.mark.parametrize("corpus", ["er-random", "rdf-identica",
                                        "version-dblp", "coauthorship"])
    def test_counts_equal_decompressed_truth(self, corpus, flat):
        handle, names = flat(corpus)
        graph = truth_graph(handle)
        edges = [(source, target, data["name"]) for source, target,
                 data in graph.edges(data=True)]
        for name in {names[0], names[-1], "no-such-label"}:
            assert handle.pattern_count("label", name) == \
                sum(1 for _, _, label in edges if label == name)
            out_by_node = {}
            in_by_node = {}
            for source, target, label in edges:
                if label == name:
                    out_by_node[source] = out_by_node.get(source, 0) + 1
                    in_by_node[target] = in_by_node.get(target, 0) + 1
            for threshold in (0, 1, 2, 5):
                expected = sum(
                    1 for node in graph.nodes()
                    if out_by_node.get(node, 0) >= threshold)
                assert handle.pattern_count("star", name,
                                            threshold) == expected
            other = names[-1]
            other_out = {}
            for source, target, label in edges:
                if label == other:
                    other_out[source] = other_out.get(source, 0) + 1
            assert handle.pattern_count("digram", name, other) == sum(
                count * other_out.get(node, 0)
                for node, count in in_by_node.items())
            probe = max(graph.nodes())
            assert handle.pattern_count("node_out", name, probe) == \
                out_by_node.get(probe, 0)
            assert handle.pattern_count("node_in", name, probe) == \
                in_by_node.get(probe, 0)

    @pytest.mark.smoke
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_aggregates_equal_unsharded(self, shards, flat):
        """The ID-free lane: aggregate counts are isomorphism
        invariants, so sharded and unsharded must agree exactly."""
        handle, names = flat("rdf-identica")
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=shards, partitioner="bfs",
            validate=False)
        for name in names:
            assert sharded.pattern_count("label", name) == \
                handle.pattern_count("label", name)
            for threshold in (0, 1, 3):
                assert sharded.pattern_count("star", name,
                                             threshold) == \
                    handle.pattern_count("star", name, threshold)
            assert sharded.pattern_count("digram", name, names[0]) == \
                handle.pattern_count("digram", name, names[0])

    def test_error_vocabulary_is_shared(self, flat):
        handle, names = flat("er-random")
        graph, alphabet = SMOKE_CORPORA["er-random"]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, validate=False)
        for target in (handle, sharded):
            with pytest.raises(QueryError,
                               match="unknown pattern_count kind"):
                target.pattern_count("triangle", names[0])
            with pytest.raises(QueryError, match="needs two label"):
                target.pattern_count("digram", names[0])
            with pytest.raises(QueryError, match="star threshold"):
                target.pattern_count("star", names[0], -1)
            with pytest.raises(QueryError, match="name string"):
                target.pattern_count("label", 3)


# ----------------------------------------------------------------------
# Sharded lanes: k=1 exact, k>1 truth under every forced strategy
# ----------------------------------------------------------------------
class TestShardedRPQ:
    def test_single_shard_is_bit_identical(self, flat):
        handle, names = flat("rdf-identica")
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        single = ShardedCompressedGraph.compress(
            graph, alphabet, shards=1, validate=False)
        pairs = probe_pairs(handle.node_count(), count=20)
        for pattern in corpus_patterns(names):
            for source, target in pairs:
                expected = handle.rpq(pattern, source, target)
                actual = single.rpq(pattern, source, target)
                assert actual == expected and \
                    type(actual) is type(expected)

    @pytest.mark.parametrize("corpus,shards", [
        ("rdf-identica", 2), ("rdf-identica", 4),
        ("version-dblp", 3), ("rdf-types", 2),
    ])
    def test_every_strategy_equals_own_truth(self, corpus, shards):
        graph, alphabet = SMOKE_CORPORA[corpus]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=shards, partitioner="bfs",
            validate=False)
        names = label_names(sharded.alphabet)
        truth = truth_graph(sharded)
        pairs = probe_pairs(sharded.node_count(), count=10, seed=11)
        patterns = corpus_patterns(names)[:4]
        for force in (None, "closure", "chaining", "bfs"):
            sharded._planner.force = force
            for pattern in patterns:
                dfa = compile_pattern(pattern)
                for source, target in pairs:
                    expected = truth_rpq(truth, dfa, source, target)
                    assert sharded._rpq_uncached(
                        pattern, source, target) == expected, \
                        (corpus, shards, force, pattern, source, target)
        sharded._planner.force = None

    @pytest.mark.smoke
    def test_out_edges_match_decompressed_truth(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=3, partitioner="bfs",
            validate=False)
        val = sharded.decompress()
        expected = {}
        for _, edge in val.edges():
            expected.setdefault(edge.att[0], set()).add(
                (edge.label, edge.att[1]))
        for node in probe_pairs(sharded.node_count(), count=15):
            node = node[0]
            assert sharded.out_edges(node) == sorted(
                [list(pair) for pair in expected.get(node, set())])

    def test_planner_prices_rpq_routes(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs",
            validate=False)
        planner = sharded.planner
        # More states -> strictly costlier closure builds; a huge
        # automaton must eventually fall out of the probe budget.
        assert planner.closure_allowed(1) == planner.closure_allowed()
        assert not planner.closure_allowed(10 ** 6)
        assert planner.strategy(0, 1, num_states=10 ** 6) != "closure"
        roomy = ReachPlanner(
            sharded.boundary, sharded.node_count(),
            closure_budget=4 * sharded.boundary.closure_pairs())
        assert roomy.closure_allowed(2)
        assert not roomy.closure_allowed(3)
        assert roomy.strategy(0, 1, num_states=3) != "closure"
        # ...unless the build is already paid for.
        assert roomy.strategy(0, 1, True, 3) == \
            roomy.strategy(0, 1, num_states=2)
        # Every estimate carries its |Q| factor.
        one, two = planner.plan(0, 1), planner.plan(0, 1, num_states=2)
        assert two.costs["closure"] == 2 * one.costs["closure"]
        assert two.costs["chaining"] == 4 * one.costs["chaining"]
        assert two.costs["bfs"] == 2 * one.costs["bfs"]
        assert two.costs["closure_build"] == \
            4 * one.costs["closure_build"]
        # planner.force is the one override, for reach and rpq alike.
        planner.force = "bfs"
        assert planner.strategy(0, 1, num_states=2) == "bfs"
        planner.force = None


# ----------------------------------------------------------------------
# Persistence: the GRPS 'R' trailer section
# ----------------------------------------------------------------------
class TestClosurePersistence:
    def build(self, shards=2):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        return ShardedCompressedGraph.compress(
            graph, alphabet, shards=shards, partitioner="bfs",
            validate=False)

    def test_roundtrip_preserves_closures_and_answers(self,
                                                      monkeypatch):
        sharded = self.build()
        names = label_names(sharded.alphabet)
        pattern = f"(<{names[0]}>|<{names[-1]}>)+"
        sharded.warm_closure(pattern)
        sharded.warm_closure(f"<{names[0]}>")
        assert sharded.rpq_info["rpq_closures"] == 2
        assert not sharded.closure_built  # patterns only, no reach
        blob = sharded.to_bytes()
        assert decode_sharded_container(blob).rpq_closures is not None
        assert "rpq_closures" in sharded.sizes
        assert "closure" not in sharded.sizes
        loaded = ShardedCompressedGraph.from_bytes(blob)
        assert loaded.rpq_info["rpq_closures"] == 2
        assert "rpq_closures" in loaded.sizes
        # The loaded closure answers without rebuilding: equivalent
        # patterns (same canonical DFA) reuse the persisted rows.
        monkeypatch.setattr(BoundaryClosure, "build", exploding_build)
        flipped = f"(<{names[-1]}>|<{names[0]}>)+"
        assert loaded.warm_closure(flipped) == \
            sharded.warm_closure(pattern)
        loaded._planner.force = "closure"
        pairs = probe_pairs(sharded.node_count(), count=12, seed=23)
        sharded._planner.force = "closure"
        for source, target in pairs:
            assert loaded.rpq(pattern, source, target) == \
                sharded.rpq(pattern, source, target)

    def test_corrupt_table_rejected(self):
        sharded = self.build()
        names = label_names(sharded.alphabet)
        sharded.warm_closure(f"<{names[0]}>")
        blob = sharded.to_bytes()
        rpq_blob = decode_sharded_container(blob).rpq_closures
        assert len(decode_closure_table(rpq_blob)) == 1
        with pytest.raises(EncodingError, match="rpq closure"):
            decode_closure_table(rpq_blob[:-2])
        with pytest.raises(EncodingError, match="trailing"):
            decode_closure_table(rpq_blob + b"\x00")

    def test_save_roundtrip_through_files(self, tmp_path):
        sharded = self.build()
        names = label_names(sharded.alphabet)
        sharded.warm_closure(f"<{names[0]}>")
        path = tmp_path / "with-rpq.grps"
        sharded.save(path)
        loaded = ShardedCompressedGraph.open(path)
        assert loaded.rpq_info["rpq_closures"] == 1
        assert loaded.stats["rpq_closures"] == 1


# ----------------------------------------------------------------------
# Serving: socket round trips, bounded with SIGALRM
# ----------------------------------------------------------------------
class TestServedRPQ:
    @pytest.fixture(scope="class")
    def deployment(self):
        graph, alphabet = SMOKE_CORPORA["rdf-identica"]()
        sharded = ShardedCompressedGraph.compress(
            graph, alphabet, shards=2, partitioner="bfs",
            validate=False)
        names = label_names(sharded.alphabet)
        sharded.warm_closure(f"(<{names[0]}>|<{names[-1]}>)+")
        with GraphServer(sharded.to_bytes()) as server:
            yield sharded, names, server

    def requests(self, names, total_nodes):
        rng = random.Random(31)
        requests = [
            ("rpq", f"(<{names[0]}>|<{names[-1]}>)+", 1, 2),
            ("rpq", f"<{names[0]}> .", 3, 40),
            ("pattern_count", "label", names[0]),
            ("pattern_count", "digram", names[0], names[-1]),
            ("pattern_count", "star", names[0], 1),
            ("out_edges", 5),
        ]
        requests += [("rpq", f"<{names[0]}>+",
                      rng.randint(1, total_nodes),
                      rng.randint(1, total_nodes)) for _ in range(6)]
        return requests

    @pytest.mark.smoke
    @pytest.mark.timeout(120)
    def test_served_answers_are_bit_identical(self, deployment):
        sharded, names, server = deployment
        requests = self.requests(names, sharded.node_count())
        truth = sharded.batch(requests)
        with server.connect() as client:
            answers = client.batch(requests)
        assert answers == truth
        for expected, actual in zip(truth, answers):
            assert type(actual) is type(expected)

    @pytest.mark.timeout(120)
    def test_pipelined_client_agrees(self, deployment):
        sharded, names, server = deployment
        requests = self.requests(names, sharded.node_count())
        truth = sharded.batch(requests)
        with server.connect(pipeline=True, pool_size=2) as client:
            futures = [client.execute_async(requests)
                       for _ in range(4)]
            for future in futures:
                values = [result.unwrap()
                          for result in future.result(60)]
                assert values == truth

    @pytest.mark.timeout(120)
    def test_pattern_bomb_is_a_fast_per_request_error(self, deployment):
        """The n = 14 subset-construction bomb comes back as the typed
        error, fast, and its neighbour in the batch is answered."""
        sharded, _, server = deployment
        bomb = "(a|b)* a" + " (a|b)" * 14
        with connect(server.endpoint) as client:
            start = time.perf_counter()
            results = client.execute([("rpq", bomb, 1, 2), ("nodes",)])
            elapsed = time.perf_counter() - start
        assert not results[0].ok
        assert "automaton states" in results[0].error
        with pytest.raises(QueryError, match="automaton states"):
            results[0].unwrap()
        assert results[1].value == sharded.node_count()
        assert elapsed < 1.0

    @pytest.mark.timeout(120)
    def test_served_errors_match_in_process(self, deployment):
        sharded, names, server = deployment
        bad = [("rpq", "a(b", 1, 2),
               ("pattern_count", "triangle", names[0]),
               ("rpq", names[0], 0, 1)]
        local = sharded.execute(bad)
        with server.connect() as client:
            remote = client.execute(bad)
        assert [r.ok for r in remote] == [r.ok for r in local]
        assert [r.error for r in remote] == [r.error for r in local]
