"""Figure 10 — compression under different node orders.

Paper findings: the FP order achieves the best result on most graphs,
but the spread is surprisingly small on network and RDF graphs
(< 0.5 bpe on RDF); version graphs benefit *hugely* from FP, because
isomorphic versions are ordered similarly, aligning the greedy
occurrence search across copies.
"""

import pytest

from repro.bench import Report, bits_per_edge, grepair_bytes
from repro.core.pipeline import GRePairSettings
from repro.datasets import load_dataset

_SECTION = "Figure 10: node orders (bpe)"
_ORDERS = ["natural", "bfs", "random", "fp0", "fp"]
# One representative per family plus the paper's outliers.
_GRAPHS = ["ca-astroph", "email-euall", "rdf-properties-en",
           "rdf-jamendo", "tic-tac-toe", "dblp60-70"]


@pytest.mark.parametrize("name", _GRAPHS)
def test_fig10_order_comparison(benchmark, name):
    graph, alphabet = load_dataset(name)

    def run():
        row = {}
        for order in _ORDERS:
            size, _ = grepair_bytes(
                graph, alphabet,
                GRePairSettings(order=order, seed=17))
            row[order] = bits_per_edge(size, graph.num_edges)
        return row

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    cells = " ".join(f"{order}:{row[order]:6.2f}" for order in _ORDERS)
    best = min(row, key=row.get)
    Report.add(_SECTION, f"{name:18s} {cells}   best={best}")
    if name == "rdf-jamendo":
        # The paper singles Jamendo out as the one RDF graph where a
        # non-FP order wins by about 1 bpe; our stand-in reproduces
        # the outlier (BFS/natural ahead of FP).
        assert row["fp"] <= row[best] + 1.5
    else:
        # FP must be competitive everywhere else: within 15% of best.
        assert row["fp"] <= row[best] * 1.15 + 0.2


@pytest.mark.smoke
def test_fig10_fp_wins_big_on_version_graphs(benchmark):
    """The paper's headline Figure 10/14 effect."""
    graph, alphabet = load_dataset("dblp60-70")

    def run():
        fp_size, _ = grepair_bytes(graph, alphabet,
                                   GRePairSettings(order="fp"))
        rnd_size, _ = grepair_bytes(
            graph, alphabet, GRePairSettings(order="random", seed=23))
        return (bits_per_edge(fp_size, graph.num_edges),
                bits_per_edge(rnd_size, graph.num_edges))

    fp_bpe, random_bpe = benchmark.pedantic(run, rounds=1, iterations=1)
    Report.add(_SECTION,
               f"dblp60-70 version-graph effect: fp={fp_bpe:.2f} "
               f"random={random_bpe:.2f}")
    assert fp_bpe < random_bpe
