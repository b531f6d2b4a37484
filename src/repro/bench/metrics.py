"""Size metrics shared by the benchmark suite.

Sizes follow the paper's methodology (section IV):

* compression is reported in **bpe** (bits per edge) against the
  original edge count — ``8 * bytes / |E|``;
* gRePair sizes are the *serialized container* bytes with label names
  excluded (the dictionary is out of scope for all contenders, as in
  the paper's RDF methodology);
* baseline sizes are their own serialized formats.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.baselines import HNCompressor, K2Compressor, \
    ListMergeCompressor
from repro.core.alphabet import Alphabet
from repro.core.hypergraph import Hypergraph
from repro.core.pipeline import CompressionResult, GRePairSettings, \
    compress
from repro.encoding import encode_grammar


def bits_per_edge(num_bytes: int, num_edges: int) -> float:
    """bpe as used throughout the paper's evaluation."""
    if num_edges <= 0:
        return 0.0
    return 8.0 * num_bytes / num_edges


def grepair_bytes(
    graph: Hypergraph,
    alphabet: Alphabet,
    settings: Optional[GRePairSettings] = None,
) -> Tuple[int, CompressionResult]:
    """Compress with gRePair; return (serialized bytes, result)."""
    result = compress(graph, alphabet, settings, validate=False)
    blob = encode_grammar(result.grammar, include_names=False)
    return blob.total_bytes, result


def baseline_sizes(graph: Hypergraph, alphabet: Alphabet,
                   include_lm_hn: Optional[bool] = None) -> Dict[str,
                                                                 int]:
    """Byte sizes of the baselines applicable to ``graph``.

    LM and HN support unlabeled graphs only; by default they run
    exactly when the graph has a single edge label, matching the
    paper's comparison matrix ("LM and HN have not been extended to
    RDF graphs").
    """
    sizes = {"k2": len(K2Compressor().compress(graph))}
    if include_lm_hn is None:
        include_lm_hn = len(set(
            edge.label for _, edge in graph.edges()
        )) <= 1
    if include_lm_hn:
        sizes["lm"] = len(ListMergeCompressor().compress(graph))
        sizes["hn"] = len(HNCompressor().compress(graph))
    return sizes
