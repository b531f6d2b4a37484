"""Binary serialization of SL-HR grammars and k2-trees.

The paper's output format (section III-C2) has two parts:

* the **start graph**, encoded with one k2-tree per edge label
  (adjacency matrices for rank-2 labels, incidence matrices plus a
  permutation table for hyperedge labels) — :mod:`startgraph`;
* the **productions**, encoded as bit-level edge lists with Elias
  delta codes — :mod:`rules`.

:mod:`container` wraps both in a self-describing byte format with a
magic number and varint section lengths, and provides the decoder that
rebuilds a working :class:`repro.core.SLHRGrammar`.

:mod:`k2tree` is also used standalone as the paper's main baseline
compressor (see :mod:`repro.baselines.k2baseline`).
"""

from repro.encoding.container import (
    DecodedContainer,
    GrammarFile,
    ShardedFile,
    container_sections,
    decode_grammar,
    decode_sharded_container,
    encode_grammar,
    encode_sharded_container,
    is_sharded_container,
    map_file,
    sharded_container_sections,
)
from repro.encoding.k2backend import numpy_available
from repro.encoding.k2tree import K2Tree
from repro.encoding.rules import decode_rules, encode_rules
from repro.encoding.startgraph import decode_start_graph, encode_start_graph

__all__ = [
    "DecodedContainer",
    "GrammarFile",
    "K2Tree",
    "ShardedFile",
    "container_sections",
    "decode_grammar",
    "decode_rules",
    "decode_sharded_container",
    "decode_start_graph",
    "encode_grammar",
    "encode_rules",
    "encode_sharded_container",
    "encode_start_graph",
    "is_sharded_container",
    "map_file",
    "numpy_available",
    "sharded_container_sections",
]
