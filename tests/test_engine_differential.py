"""Differential suite: the incremental engine against the recount oracle.

The gRePair engine maintains occurrence lists and the bucket queue
purely by local deltas; the oracle (:class:`helpers.RecountGRePair`)
restores them with full counting passes.  On every dataset family
both must

* produce grammars that decompress to the original graph,
* end up with near-identical grammar sizes (the drain trajectories are
  designed to coincide; tolerance covers residual queue-order skew),
* report sane instrumentation — in particular the incremental engine
  must never perform a full re-count pass.
"""

import pytest

from helpers import (
    RecountGRePair,
    degree_label_fingerprint,
    isomorphic,
    recount_compress,
)

from repro import GRePairSettings, compress, derive
from repro.core.digram import occurrence_is_current
from repro.core.occurrences import BucketQueue, OccurrenceTable
from repro.core.repair import GRePair
from repro.datasets.rdf import (
    identica_graph,
    properties_graph,
    star_burst_graph,
    types_graph,
)
from repro.datasets.synthetic import (
    coauthorship_graph,
    communication_graph,
    copy_model_graph,
    random_graph,
)
from repro.datasets.versions import (
    dblp_version_graph,
    fig13_base_graph,
    identical_copies,
)

#: Relative grammar-size tolerance between the engines.  The drain
#: trajectories are engineered to coincide, so this is usually 0; the
#: allowance covers bucket-resolution skew (the incremental engine
#: keeps one queue sized for the original graph, the oracle re-sizes
#: per pass).
SIZE_TOLERANCE = 0.01

# Every synthetic family plus RDF-like and version-graph shapes.
CORPUS = [
    ("er-random", lambda: random_graph(80, 220, seed=11)),
    ("coauthorship", lambda: coauthorship_graph(60, seed=12)),
    ("communication", lambda: communication_graph(100, 320, seed=13)),
    ("copy-model", lambda: copy_model_graph(90, seed=14)),
    ("rdf-types", lambda: types_graph(150, seed=15)),
    ("rdf-properties", lambda: properties_graph(40, seed=16)),
    ("rdf-starburst", lambda: star_burst_graph(4, 40, seed=17)),
    ("rdf-identica", lambda: identica_graph(30, seed=18)),
    ("version-copies", lambda: identical_copies(fig13_base_graph(), 32)),
    ("version-dblp", lambda: dblp_version_graph(3, 14, seed=19)),
]

ORDERS = ["fp", "natural"]


def _both_engines(graph, alphabet, order="fp", **kwargs):
    settings = GRePairSettings(order=order, **kwargs)
    return (compress(graph, alphabet, settings, validate=True),
            recount_compress(graph, alphabet, settings))


@pytest.mark.smoke
@pytest.mark.parametrize("name,builder", CORPUS, ids=[c[0] for c in CORPUS])
def test_both_engines_roundtrip_and_agree(name, builder):
    graph, alphabet = builder()
    incremental, recount = _both_engines(graph, alphabet)

    # Lossless under both engines.
    for result in (incremental, recount):
        val = derive(result.grammar)
        assert val.node_size == graph.node_size
        assert val.num_edges == graph.num_edges
        assert degree_label_fingerprint(val) == \
            degree_label_fingerprint(graph)
        if graph.num_edges <= 250:
            assert isomorphic(val, graph)

    # Near-identical compression quality.
    size_inc = incremental.grammar.size
    size_rec = recount.grammar.size
    assert size_inc <= size_rec * (1 + SIZE_TOLERANCE) + 1, (
        f"{name}: incremental |G|={size_inc} vs recount |G|={size_rec}"
    )

    # The incremental engine never re-counts within a phase: it seeds
    # each phase (main loop, virtual-edge loop) with exactly one pass.
    # The oracle re-counts after every productive drain.
    phases = 2 if incremental.stats["virtual_edges_added"] else 1
    assert incremental.stats["recount_passes"] == 0
    assert incremental.stats["passes"] == phases
    assert recount.stats["recount_passes"] == \
        recount.stats["passes"] - phases


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engines_agree_across_orders_and_seeds(order, seed):
    graph, alphabet = random_graph(50, 140, seed=100 + seed)
    incremental, recount = _both_engines(graph, alphabet, order=order)
    assert isomorphic(derive(incremental.grammar), graph)
    assert isomorphic(derive(recount.grammar), graph)
    assert incremental.grammar.size <= \
        recount.grammar.size * (1 + SIZE_TOLERANCE) + 1


@pytest.mark.parametrize("max_rank", [2, 3, 5])
def test_engines_agree_across_max_rank(max_rank):
    graph, alphabet = coauthorship_graph(40, seed=7)
    incremental, recount = _both_engines(graph, alphabet,
                                         max_rank=max_rank)
    assert isomorphic(derive(incremental.grammar), graph)
    assert isomorphic(derive(recount.grammar), graph)
    assert incremental.grammar.size <= \
        recount.grammar.size * (1 + SIZE_TOLERANCE) + 1


@pytest.mark.smoke
def test_incremental_replacement_counts_match_oracle():
    """Occurrence replacement totals coincide, not just sizes."""
    graph, alphabet = communication_graph(80, 240, seed=3)
    incremental, recount = _both_engines(graph, alphabet)
    assert incremental.stats["occurrences_replaced"] == \
        pytest.approx(recount.stats["occurrences_replaced"], rel=0.02)


class TestMaintainedStateInvariants:
    """White-box checks of the incremental engine's invariants."""

    def _run_main_loop(self, graph, alphabet):
        algorithm = GRePair(graph.copy(), alphabet.copy(),
                            virtual_edges=False, prune=False)
        algorithm.run()
        return algorithm

    def test_final_state_is_saturated(self):
        """After the run, a fresh count finds no active digram.

        This is the heart of the "no re-count needed" claim: nothing a
        full counting pass could discover is missing from the
        incrementally maintained state.
        """
        graph, alphabet = coauthorship_graph(40, seed=21)
        algorithm = self._run_main_loop(graph, alphabet)
        table = OccurrenceTable()
        queue = BucketQueue(algorithm.graph.num_edges)
        probe = RecountGRePair(algorithm.graph, algorithm.alphabet)
        probe._begin()
        # The probe must count in the engine's own ω: the greedy
        # pairing construction is order-sensitive, so saturation is
        # defined relative to the order the engine maintains.
        probe._set_order([node for node in algorithm._order
                          if algorithm.graph.has_node(node)])
        probe._count_all(table, queue)
        active = [key for key in table.keys()
                  if len(table.get(key)) >= 2]
        assert active == []

    def test_recorded_occurrences_stay_current(self):
        """Maintained occurrences always reference live, current keys."""
        graph, alphabet = copy_model_graph(60, seed=22)
        algorithm = self._run_main_loop(graph, alphabet)
        table = algorithm._table
        live_graph = algorithm.graph
        for key in table.keys():
            for occ in list(table.get(key)):
                assert occurrence_is_current(live_graph, key, occ)

    def test_settles_touch_fewer_nodes_than_recount_passes(self):
        """The settle mechanism must beat whole-graph re-counting."""
        graph, alphabet = communication_graph(150, 450, seed=23)
        incremental, recount = _both_engines(graph, alphabet)
        # The oracle walks every live node once per pass; the settle
        # rounds only walk dirty regions.
        recount_node_visits = \
            recount.stats["recount_passes"] * graph.node_size
        assert incremental.stats["nodes_recounted"] < recount_node_visits
