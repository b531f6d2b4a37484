"""numpy is optional: the whole read/write path runs with it blocked.

``setup.py`` does not require numpy; the k2-tree rank directory is the
only consumer and falls back to :class:`PythonRank`.  This lane runs a
subprocess whose ``sys.meta_path`` refuses to import numpy and checks
the fallback end to end against the same work done in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import CompressedGraph
from repro.bench.corpora import SMOKE_CORPORA

CORPUS = "rdf-identica"
#: Half reachable, half not on this corpus.
PAIRS = [(33, 33), (333, 225), (21, 269), (96, 2), (52, 118), (324, 155),
         (69, 292), (33, 131), (61, 254), (231, 242), (334, 195), (108, 49)]

_BLOCKED_SCRIPT = """
import json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this lane")
        return None

sys.meta_path.insert(0, RefuseNumpy())

from repro import CompressedGraph
from repro.bench.corpora import SMOKE_CORPORA
from repro.encoding.k2backend import PythonRank, build_rank
from repro.encoding.k2tree import K2Tree

corpus, pairs = json.loads(sys.argv[1])
assert type(build_rank([True, False, True])) is PythonRank
cells = [(0, 3), (2, 2), (5, 1), (7, 7), (6, 0)]
tree = K2Tree.from_cells(cells, 8)
clone = K2Tree.from_bytes(tree.to_bytes())
assert type(clone._rank) is PythonRank
assert clone.cells() == sorted(cells)
assert clone.row_ones(5) == [1] and clone.col_ones(7) == [7]

graph, alphabet = SMOKE_CORPORA[corpus]()
blob = CompressedGraph.compress(graph, alphabet).to_bytes()
handle = CompressedGraph.from_bytes(blob)
answers = [handle.reach(s, t) for s, t in pairs]
assert "numpy" not in sys.modules
print(json.dumps({"answers": answers, "blob": blob.hex()}))
"""


def test_full_path_without_numpy():
    graph, alphabet = SMOKE_CORPORA[CORPUS]()
    blob = CompressedGraph.compress(graph, alphabet).to_bytes()
    handle = CompressedGraph.from_bytes(blob)
    expected = [handle.reach(s, t) for s, t in PAIRS]

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCRIPT,
         json.dumps([CORPUS, PAIRS])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["answers"] == expected
    assert sorted(set(expected)) == [False, True]
    assert bytes.fromhex(result["blob"]) == blob
