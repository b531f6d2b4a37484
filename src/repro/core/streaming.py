"""Streaming compression and decompression.

Decompression: ``derive`` builds the whole derived hypergraph in
memory, which defeats the purpose when the grammar is exponentially
smaller than the graph (Fig. 13).  :func:`iter_edges` walks the
derivation with an explicit stack and yields terminal edges one at a
time with their final node IDs — memory proportional to the grammar
height times the maximal rule size, not to |val(G)|.

The numbering is identical to :func:`repro.core.derivation.derive` on
a canonical grammar (tested), so streamed output can feed external
tools (edge-list writers, bulk loaders) directly.

Compression: :class:`StreamingCompressor` feeds edges to the
incremental gRePair engine in chunks.  The engine's occurrence table,
bucket queue and pairing index persist across chunks — each new edge
is counted purely locally (its endpoints become dirty and are settled
at the next drain), so compressing a stream never re-counts the edges
of earlier chunks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.core.alphabet import Alphabet
from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.core.repair import CompressionStats, GRePair
from repro.exceptions import GrammarError


def iter_edges(grammar: SLHRGrammar) -> Iterator[Tuple[int,
                                                       Tuple[int, ...]]]:
    """Yield ``(label, attachment)`` for every terminal edge of val(G).

    The grammar must be canonical (see
    :meth:`repro.core.SLHRGrammar.canonicalize`); node IDs in the
    yielded attachments follow the paper's deterministic numbering.
    Edges are emitted in derivation order: start-graph edges in edge
    order, with each nonterminal edge fully expanded in place.
    """
    start = grammar.start
    nodes = start.nodes()
    if nodes and (min(nodes) != 1 or max(nodes) != start.node_size):
        raise GrammarError(
            "streaming requires a canonical grammar; call "
            "grammar.canonicalize() first"
        )
    derived_nodes, _ = grammar.derived_counts()

    # Work items: (host graph, edge index list position, node mapping,
    # next fresh base).  We expand depth-first, mirroring derive().
    def expand(label: int, attachment: Tuple[int, ...],
               base: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        rhs = grammar.rhs(label)
        mapping: Dict[int, int] = dict(zip(rhs.ext, attachment))
        fresh = base
        for node in sorted(rhs.nodes()):
            if node not in mapping:
                mapping[node] = fresh
                fresh += 1
        child_base = fresh
        for _, edge in sorted(rhs.edges()):
            att = tuple(mapping[n] for n in edge.att)
            if grammar.has_rule(edge.label):
                yield from expand(edge.label, att, child_base)
                child_base += derived_nodes[edge.label]
            else:
                yield edge.label, att

    next_base = start.node_size + 1
    for _, edge in sorted(start.edges()):
        if grammar.has_rule(edge.label):
            yield from expand(edge.label, edge.att, next_base)
            next_base += derived_nodes[edge.label]
        else:
            yield edge.label, edge.att


def count_streamed_edges(grammar: SLHRGrammar) -> int:
    """Edge count via streaming (cross-check for tests)."""
    return sum(1 for _ in iter_edges(grammar))


class StreamingCompressor:
    """Chunked gRePair compression over an edge stream.

    Wraps the incremental engine's streaming API: edges arrive as
    ``(label, attachment)`` pairs (node IDs are created on demand), and
    between chunks the engine drains every digram that became active.
    The incremental state — occurrence table, bucket queue, pairing
    index — is reused across chunks, so each chunk costs work
    proportional to its own size and the digrams it activates
    (``stats.recount_passes == 0`` always).

    Mid-stream, only fully-external digrams are compressed: replacing
    an internal-node digram would delete the node, and a later chunk
    may still reference it — a node's degree is a lower bound until the
    stream closes.  :meth:`finish` therefore seeds one full-knowledge
    counting pass (plus the virtual-edge phase's seed) to pick up the
    deferred internal-node compression.

    Parameters mirror :class:`repro.core.repair.GRePair`; the alphabet
    is copied, so the caller's instance is left untouched.

    Example
    -------
    >>> compressor = StreamingCompressor(alphabet)
    >>> for chunk in chunks:
    ...     compressor.add_edges(chunk)
    >>> grammar = compressor.finish()
    """

    def __init__(
        self,
        alphabet: Alphabet,
        max_rank: int = 4,
        order: str = "fp",
        seed: int = 0,
        virtual_edges: bool = True,
        prune: bool = True,
    ) -> None:
        self._algorithm = GRePair(
            Hypergraph(),
            alphabet.copy(),
            max_rank=max_rank,
            order=order,
            seed=seed,
            virtual_edges=virtual_edges,
            prune=prune,
        )
        self._algorithm.begin_streaming()
        self._grammar: Optional[SLHRGrammar] = None
        self.edges_ingested = 0

    @property
    def stats(self) -> CompressionStats:
        """Live instrumentation counters of the underlying engine."""
        return self._algorithm.stats

    def add_edge(self, label: int, att: Sequence[int]) -> int:
        """Ingest a single edge; returns its edge ID."""
        if self._grammar is not None:
            raise GrammarError("StreamingCompressor is already finished")
        edge_id = self._algorithm.ingest_edge(label, att)
        self.edges_ingested += 1
        return edge_id

    def add_edges(
        self, edges: Iterable[Tuple[int, Sequence[int]]]
    ) -> int:
        """Ingest one chunk of ``(label, att)`` pairs, then drain.

        Returns the number of edges ingested from this chunk.
        """
        count = 0
        for label, att in edges:
            self.add_edge(label, att)
            count += 1
        self._algorithm.drain()
        return count

    def finish(self) -> SLHRGrammar:
        """Drain, run the virtual-edge pass and pruning; return grammar.

        The compressor is single-use afterwards (like ``GRePair``).
        """
        if self._grammar is None:
            self._grammar = self._algorithm.finish_streaming()
        return self._grammar
