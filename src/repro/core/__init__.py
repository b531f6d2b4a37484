"""Core data model and the gRePair algorithm.

Layering within this subpackage (lower layers never import higher ones):

1. :mod:`repro.core.alphabet`, :mod:`repro.core.hypergraph` — the data
   model of section II (ranked alphabets and directed edge-labeled
   hypergraphs with external nodes).
2. :mod:`repro.core.grammar`, :mod:`repro.core.derivation` — SL-HR
   grammars and their (deterministically numbered) derived graph
   ``val(G)``.
3. :mod:`repro.core.digram`, :mod:`repro.core.orders`,
   :mod:`repro.core.occurrences` — digram keys, node orders, and the
   occurrence bookkeeping (bucket priority queue).
4. :mod:`repro.core.repair`, :mod:`repro.core.pruning`,
   :mod:`repro.core.pipeline` — the compression loop, the pruning phase
   and the user-facing ``compress`` entry point.
"""

from repro.core.alphabet import Alphabet, VIRTUAL_LABEL_NAME
from repro.core.derivation import derive
from repro.core.digram import DigramKey, Occurrence
from repro.core.grammar import Rule, SLHRGrammar
from repro.core.hypergraph import Edge, Hypergraph
from repro.core.orders import (
    NODE_ORDERS,
    bfs_order,
    dfs_order,
    fixpoint_order,
    fp_equivalence_classes,
    natural_order,
    node_order,
    random_order,
)
from repro.core.pipeline import CompressionResult, GRePairSettings, compress
from repro.core.repair import CompressionStats, GRePair
from repro.core.streaming import StreamingCompressor

__all__ = [
    "Alphabet",
    "CompressionResult",
    "CompressionStats",
    "DigramKey",
    "Edge",
    "GRePair",
    "GRePairSettings",
    "Hypergraph",
    "NODE_ORDERS",
    "Occurrence",
    "Rule",
    "SLHRGrammar",
    "StreamingCompressor",
    "VIRTUAL_LABEL_NAME",
    "bfs_order",
    "compress",
    "derive",
    "dfs_order",
    "fixpoint_order",
    "fp_equivalence_classes",
    "natural_order",
    "node_order",
    "random_order",
]
