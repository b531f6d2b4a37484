"""High-level compression entry point (compatibility shim).

The canonical front door is :class:`repro.api.CompressedGraph` — one
long-lived handle unifying compress, persist, derive and query::

    from repro import CompressedGraph
    handle = CompressedGraph.compress(graph, alphabet)
    handle.save("graph.grpr")
    handle.reach(1, 9)

:func:`compress` predates the facade and is kept for compatibility: it
delegates to :meth:`CompressedGraph.compress` and returns the
:class:`CompressionResult` (sizes, compression ratio ``|G| / |g|`` as
reported in the paper's section IV-C, pass counts) without the handle.
New code should call the facade directly and keep the handle — it owns
the lazily built query index and the serialized container.

:class:`GRePairSettings` lives here and validates eagerly: a typo'd
order fails at construction, not deep inside a compression
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.alphabet import Alphabet
from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.core.orders import NODE_ORDERS
from repro.core.repair import CompressionStats
from repro.exceptions import GrammarError, HypergraphError


@dataclass
class GRePairSettings:
    """Tunable parameters of a gRePair run.

    Defaults follow the paper's recommended configuration
    (``maxRank = 4`` and the FP order, section IV-C).

    Misconfiguration fails eagerly at construction: an unknown
    ``order`` name and ``max_rank < 2`` raise immediately instead of
    surfacing from deep inside :class:`repro.core.repair.GRePair`.
    """

    max_rank: int = 4
    order: str = "fp"
    seed: int = 0
    virtual_edges: bool = True
    prune: bool = True

    def __post_init__(self) -> None:
        if self.max_rank < 2:
            raise GrammarError(
                f"max_rank must be >= 2, got {self.max_rank}")
        if self.order not in NODE_ORDERS:
            raise HypergraphError(
                f"unknown node order {self.order!r}; choose from "
                f"{sorted(NODE_ORDERS)}")

    def describe(self) -> str:
        """Short human-readable parameter summary."""
        return (f"maxRank={self.max_rank}, order={self.order}, "
                f"virtual={self.virtual_edges}, prune={self.prune}")


@dataclass
class CompressionResult:
    """Outcome of one compression run (see also ``CompressedGraph``)."""

    grammar: SLHRGrammar
    original_size: int
    original_edges: int
    settings: GRePairSettings
    stats: Dict[str, object] = field(default_factory=dict)
    stats_obj: Optional[CompressionStats] = None

    @property
    def grammar_size(self) -> int:
        """``|G|`` of the produced grammar."""
        return self.grammar.size

    @property
    def size_ratio(self) -> float:
        """``|G| / |g|`` — the paper's grammar-size compression ratio."""
        if self.original_size == 0:
            return 1.0
        return self.grammar.size / self.original_size

    def summary(self) -> str:
        """One-line report used by the examples."""
        return (
            f"|g|={self.original_size} -> |G|={self.grammar_size} "
            f"(ratio {self.size_ratio:.2%}), "
            f"{self.grammar.num_rules} rules, "
            f"{self.stats.get('passes', 0)} passes"
        )


def compress(
    graph: Hypergraph,
    alphabet: Alphabet,
    settings: Optional[GRePairSettings] = None,
    validate: bool = True,
) -> CompressionResult:
    """Compress ``graph`` with gRePair (compatibility shim).

    Delegates to :meth:`repro.api.CompressedGraph.compress` and returns
    only the :class:`CompressionResult`.  Prefer the facade: it keeps
    the handle that owns persistence and the cached query index.

    The input graph and alphabet are left untouched: compression works
    on copies (the grammar's start graph is derived from the copy).

    Parameters
    ----------
    graph:
        Input hypergraph (typically simple: rank-2 labeled edges).
    alphabet:
        Its label alphabet.
    settings:
        Algorithm parameters; defaults to the paper's recommendation.
    validate:
        Run the grammar validity check afterwards (cheap; disable only
        in tight benchmark loops).
    """
    from repro.api import CompressedGraph
    return CompressedGraph.compress(
        graph, alphabet, settings, validate=validate).result
