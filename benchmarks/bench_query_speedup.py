"""Section V — reachability speed-up on compressed graphs.

The paper proves (Theorem 6) that (s,t)-reachability runs in O(|G|)
over the grammar versus O(|g|) BFS over the decompressed graph —
"speed-ups proportional to the compression ratio" — but never
implemented it.  We did, so this bench *measures* the claim on a
highly compressible graph: grammar-based queries touch work
proportional to |G|, BFS touches |g|.

Timing microbenchmarks in Python carry constant-factor noise, so the
assertion is on the robust proxy: the grammar the query engine walks
is much smaller than the graph BFS walks, and query answers agree.
"""

import random
from collections import deque

import pytest

from repro import CompressedGraph
from repro.bench import Report
from repro.datasets import fig13_base_graph, identical_copies

_SECTION = "Section V: reachability over the grammar"


def _bfs_reachable(adjacency, source, target):
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            return True
        for succ in adjacency.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return target in seen


@pytest.mark.smoke
def test_query_speedup(benchmark):
    graph, alphabet = identical_copies(fig13_base_graph(), 512)
    handle = CompressedGraph.compress(graph, alphabet, validate=False)
    val = handle.decompress()
    adjacency = {}
    for _, edge in val.edges():
        adjacency.setdefault(edge.att[0], []).append(edge.att[1])
    rng = random.Random(7)
    nodes = sorted(val.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(50)]

    def run():
        return [handle.reach(s, t) for s, t in pairs]

    answers = benchmark.pedantic(run, rounds=3, iterations=1)
    expected = [_bfs_reachable(adjacency, s, t) for s, t in pairs]
    assert answers == expected
    ratio = val.total_size / handle.grammar.size
    Report.add(_SECTION,
               f"512 copies: |g|={val.total_size} vs "
               f"|G|={handle.grammar.size} -> query work bound "
               f"{ratio:.0f}x smaller; 50/50 answers correct")
    assert ratio > 20
