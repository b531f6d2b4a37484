"""The serving-grade front door: :class:`CompressedGraph`.

The paper's central claim (conf_icde_ManethP16, gRePair) is that the
grammar is not just a smaller file but a *queryable* representation.
This module packages that claim as one long-lived handle — the way
production stores expose a single ``DB``/``Reader`` object instead of a
bag of free functions:

* **compress** — :meth:`CompressedGraph.compress` runs the gRePair
  pipeline; :meth:`CompressedGraph.from_stream` wraps the chunked
  :class:`repro.core.streaming.StreamingCompressor`.
* **persist** — :meth:`CompressedGraph.save` / :meth:`~CompressedGraph.to_bytes`
  write the paper's binary container; :meth:`CompressedGraph.open` /
  :meth:`~CompressedGraph.from_bytes` load one back.  :attr:`sizes`
  reports per-section byte accounting either way.
* **derive** — :meth:`CompressedGraph.decompress` expands ``val(G)``
  with the deterministic node numbering the queries use.
* **query** — the full section-V family (``out``, ``in_``,
  ``neighborhood``, ``out_edges``, ``degree``, ``reach``, ``path``,
  ``components``, ``node_count``, ``edge_count``, ``rpq``,
  ``pattern_count``; each spelled once, on
  :class:`repro.serving.GraphService`), evaluated against one lazily
  built, cached, **thread-safe** index: the grammar is canonicalized at
  most once per handle lifetime (guarded by a lock), no matter how many
  queries run or from how many threads.
* **serve** — the handle is a :class:`repro.serving.GraphService`:
  :meth:`execute` takes typed :class:`~repro.serving.QueryRequest`
  batches and returns per-request
  :class:`~repro.serving.QueryResult` answers (one bad request errors
  alone instead of aborting the batch) behind a pluggable
  :class:`~repro.serving.Executor` — inline, thread pool, forked
  process pool, or a socket round-trip to :func:`repro.serving.serve`.
  :meth:`batch` is the thin adapter over the same machinery:
  plain values, request order, first error raised;
  ``batch(..., parallel=True)`` plans the batch first (deduplicates
  repeated requests, pre-filters the LRU and fans the unique misses
  out across a thread pool).
* **cache** — every per-node/per-pair query consults a per-handle LRU
  (:class:`repro.queries.cache.QueryCache`) keyed by the same query
  tuples ``batch()`` uses; :attr:`cache_info` exposes ``hits`` /
  ``misses`` counters next to :attr:`canonicalizations`.

For graphs too large for one grammar, the same interface is served by
:class:`repro.sharding.ShardedCompressedGraph`, which partitions the
input across per-shard ``CompressedGraph`` handles and routes/merges
queries.

The older entry points (:func:`repro.core.pipeline.compress`,
:func:`repro.core.derive`) remain as compatibility shims delegating to
this facade.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.alphabet import Alphabet
from repro.core.derivation import derive as _derive
from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.core.pipeline import CompressionResult, GRePairSettings
from repro.core.repair import CompressionStats, GRePair
from repro.core.streaming import StreamingCompressor
from repro.encoding.container import (
    GrammarFile,
    container_arity,
    container_sections,
    decode_grammar,
    encode_grammar,
    map_file,
)
from repro.exceptions import QueryError
from repro.queries.cache import QueryCache
from repro.queries.components import ComponentQueries
from repro.queries.degrees import DegreeQueries
from repro.queries.index import GrammarIndex
from repro.queries.neighborhood import NeighborhoodQueries
from repro.queries.reachability import ReachabilityQueries
from repro.rpq.counts import PatternCounts
from repro.rpq.engine import PatternEngine
from repro.serving.protocol import GraphService

__all__ = ["CompressedGraph", "DEFAULT_CACHE_SIZE"]

#: Default per-handle query-result LRU capacity (``cache_size=0``
#: disables caching for a handle).
DEFAULT_CACHE_SIZE = 1024


class _QueryBundle:
    """Everything the query family shares: one canonical grammar + index.

    Built exactly once per handle (under the handle's lock).  The
    sub-evaluators that need their own precomputation pass
    (reachability skeletons, component summaries, degree summaries) are
    attached lazily, also under the lock; after construction every
    query is a pure read over immutable state, so concurrent use needs
    no further synchronization.
    """

    __slots__ = ("grammar", "index", "neighborhood", "reachability",
                 "degrees", "component_count", "edge_count",
                 "rpq_engine", "pattern_counts")

    def __init__(self, canonical: SLHRGrammar) -> None:
        self.grammar = canonical
        self.index = GrammarIndex(canonical)
        self.neighborhood = NeighborhoodQueries(self.index)
        self.reachability: Optional[ReachabilityQueries] = None
        self.degrees: Optional[DegreeQueries] = None
        self.component_count: Optional[int] = None
        self.edge_count: Optional[int] = None
        self.rpq_engine: Optional[PatternEngine] = None
        self.pattern_counts: Optional[PatternCounts] = None


class CompressedGraph(GraphService):
    """One grammar-compressed graph: compress, persist, derive, query.

    Construct through the classmethods — :meth:`compress`,
    :meth:`open`, :meth:`from_bytes`, :meth:`from_stream`,
    :meth:`from_grammar` — not directly.  The handle is immutable and
    safe to share between threads: the query index is built at most
    once (double-checked under an internal lock), and
    :attr:`canonicalizations` records how many canonicalization passes
    the handle has performed (0 before the first query, 1 ever after —
    ``tests/test_api.py`` holds this at "no more than one per
    lifetime").
    """

    def __init__(self, grammar: SLHRGrammar, *,
                 result: Optional[CompressionResult] = None,
                 container: Optional[GrammarFile] = None,
                 container_key: Optional[Tuple[bool, int]] = None,
                 stream_stats: Optional[CompressionStats] = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._grammar = grammar
        self._result = result
        self._container = container
        self._container_key = container_key
        self._stream_stats = stream_stats
        self._canonical: Optional[SLHRGrammar] = None
        self._bundle: Optional[_QueryBundle] = None
        self._lock = threading.RLock()
        #: Canonicalization passes performed by this handle (<= 1).
        self.canonicalizations = 0
        #: Per-handle query-result LRU (see :mod:`repro.queries.cache`).
        self._cache = QueryCache(cache_size)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def compress(cls, graph: Hypergraph, alphabet: Alphabet,
                 settings: Optional[GRePairSettings] = None,
                 validate: bool = True,
                 cache_size: int = DEFAULT_CACHE_SIZE
                 ) -> "CompressedGraph":
        """Compress ``graph`` with gRePair and return the handle.

        The input graph and alphabet are left untouched: compression
        works on copies.  ``settings`` defaults to the paper's
        recommendation (``maxRank=4``, FP order);
        ``validate=False`` skips the post-run grammar validity check
        (cheap; disable only in tight benchmark loops).  ``cache_size``
        caps the handle's query-result LRU (0 disables it).
        """
        if settings is None:
            settings = GRePairSettings()
        original_size = graph.total_size
        original_edges = graph.num_edges
        algorithm = GRePair(
            graph.copy(),
            alphabet.copy(),
            max_rank=settings.max_rank,
            order=settings.order,
            seed=settings.seed,
            virtual_edges=settings.virtual_edges,
            prune=settings.prune,
        )
        grammar = algorithm.run()
        if validate:
            grammar.validate()
        result = CompressionResult(
            grammar=grammar,
            original_size=original_size,
            original_edges=original_edges,
            settings=settings,
            stats=algorithm.stats.as_dict(),
            stats_obj=algorithm.stats,
        )
        return cls(grammar, result=result, cache_size=cache_size)

    @classmethod
    def from_stream(
        cls,
        chunks: Iterable[Iterable[Tuple[int, Sequence[int]]]],
        alphabet: Alphabet,
        settings: Optional[GRePairSettings] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "CompressedGraph":
        """Compress an edge stream chunk by chunk.

        ``chunks`` yields iterables of ``(label, attachment)`` pairs;
        each chunk is ingested and drained before the next (see
        :class:`repro.core.streaming.StreamingCompressor`).
        """
        if settings is None:
            settings = GRePairSettings()
        compressor = StreamingCompressor(
            alphabet,
            max_rank=settings.max_rank,
            order=settings.order,
            seed=settings.seed,
            virtual_edges=settings.virtual_edges,
            prune=settings.prune,
        )
        for chunk in chunks:
            compressor.add_edges(chunk)
        grammar = compressor.finish()
        return cls(grammar, stream_stats=compressor.stats,
                   cache_size=cache_size)

    @classmethod
    def from_grammar(cls, grammar: SLHRGrammar,
                     cache_size: int = DEFAULT_CACHE_SIZE
                     ) -> "CompressedGraph":
        """Wrap an existing grammar (no copy is taken)."""
        return cls(grammar, cache_size=cache_size)

    @classmethod
    def from_bytes(cls, buf: Union[bytes, bytearray, memoryview,
                                   GrammarFile],
                   cache_size: int = DEFAULT_CACHE_SIZE
                   ) -> "CompressedGraph":
        """Load a handle from serialized container bytes."""
        if isinstance(buf, GrammarFile):
            data = buf.data
        elif isinstance(buf, bytearray):
            data = bytes(buf)  # defend against caller mutation
        else:
            data = buf
        grammar = decode_grammar(data)
        container = GrammarFile(data=data,
                                section_bytes=container_sections(data))
        # The header records the k2-tree arity; remembering it lets
        # to_bytes()/save() reuse the loaded bytes only when the
        # requested parameters actually match the file's encoding.
        return cls(grammar, container=container,
                   container_key=(True, container_arity(data)),
                   cache_size=cache_size)

    @classmethod
    def open(cls, path: Union[str, Path],
             cache_size: int = DEFAULT_CACHE_SIZE) -> "CompressedGraph":
        """Load a handle from a ``.grpr`` container file (mmap-backed)."""
        return cls.from_bytes(map_file(path), cache_size=cache_size)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _ensure_container(self, include_names: bool = True,
                          k: int = 2) -> GrammarFile:
        key = (include_names, k)
        with self._lock:
            if self._container is not None and self._container_key == key:
                return self._container
            container = encode_grammar(self._grammar, k=k,
                                       include_names=include_names)
            self._container = container
            self._container_key = key
            return container

    def to_bytes(self, include_names: bool = True, k: int = 2) -> bytes:
        """Serialize to the paper's binary container format."""
        data = self._ensure_container(include_names, k).data
        return data if isinstance(data, bytes) else bytes(data)

    def save(self, path: Union[str, Path], include_names: bool = True,
             k: int = 2) -> GrammarFile:
        """Write the container to ``path``; returns the container."""
        container = self._ensure_container(include_names, k)
        container.write(path)
        return container

    def _current_container(self) -> GrammarFile:
        """The existing container if any, else a default encoding."""
        with self._lock:
            container = self._container
        if container is not None:
            return container
        return self._ensure_container()

    @property
    def sizes(self) -> Dict[str, int]:
        """Per-section byte accounting of the serialized container.

        Encodes lazily for in-memory handles; opened handles report the
        sections parsed from the loaded file.
        """
        return dict(self._current_container().section_bytes)

    @property
    def total_bytes(self) -> int:
        """Size of the serialized container in bytes."""
        return self._current_container().total_bytes

    def bits_per_edge(self, num_edges: Optional[int] = None) -> float:
        """bpe of the serialized container (the paper's size metric).

        ``num_edges`` defaults to the derived terminal edge count;
        benchmarks pass the original graph's edge count explicitly.
        """
        if num_edges is None:
            num_edges = self.edge_count()
        return self._current_container().bits_per_edge(num_edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def grammar(self) -> SLHRGrammar:
        """The underlying SL-HR grammar (as produced or decoded)."""
        return self._grammar

    @property
    def alphabet(self) -> Alphabet:
        """The grammar's alphabet (terminals + minted nonterminals)."""
        return self._grammar.alphabet

    @property
    def canonical_grammar(self) -> SLHRGrammar:
        """The canonical grammar (lazy; shared with the query index).

        Accessing this does *not* build the query index — derivation
        only needs the canonical numbering.
        """
        canonical = self._canonical
        if canonical is None:
            with self._lock:
                canonical = self._canonical
                if canonical is None:
                    canonical = self._grammar.canonicalize()
                    self.canonicalizations += 1
                    self._canonical = canonical
        return canonical

    @property
    def index(self) -> GrammarIndex:
        """The node-ID index (forces the lazy build)."""
        return self._queries().index

    @property
    def result(self) -> Optional[CompressionResult]:
        """The :class:`CompressionResult` when compressed in-process."""
        return self._result

    @property
    def stats(self) -> Dict[str, object]:
        """Compression statistics, ``{}`` for opened handles."""
        if self._result is not None:
            return dict(self._result.stats)
        if self._stream_stats is not None:
            return self._stream_stats.as_dict()
        return {}

    def summary(self) -> str:
        """One-line description of the handle."""
        if self._result is not None:
            return self._result.summary()
        return (f"{self._grammar.num_rules} rules, "
                f"|G|={self._grammar.size}, "
                f"{self.node_count()} derived nodes")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def decompress(self, max_edges: Optional[int] = None) -> Hypergraph:
        """Expand ``val(G)`` with the query numbering.

        The derived graph uses the canonical deterministic node IDs, so
        its nodes are exactly the IDs the query family answers with.
        """
        return _derive(self.canonical_grammar, max_edges=max_edges)

    # ------------------------------------------------------------------
    # The lazy, cached, thread-safe query index
    # ------------------------------------------------------------------
    def _queries(self) -> _QueryBundle:
        bundle = self._bundle
        if bundle is None:
            with self._lock:
                bundle = self._bundle
                if bundle is None:
                    bundle = _QueryBundle(self.canonical_grammar)
                    self._bundle = bundle
        return bundle

    @property
    def index_built(self) -> bool:
        """Whether the lazy query index exists yet (no side effects)."""
        return self._bundle is not None

    def _reachability(self) -> ReachabilityQueries:
        bundle = self._queries()
        if bundle.reachability is None:
            with self._lock:
                if bundle.reachability is None:
                    bundle.reachability = ReachabilityQueries(bundle.index)
        return bundle.reachability

    def _degrees(self) -> DegreeQueries:
        bundle = self._queries()
        if bundle.degrees is None:
            with self._lock:
                if bundle.degrees is None:
                    bundle.degrees = DegreeQueries(bundle.grammar)
        return bundle.degrees

    def _rpq_engine(self) -> PatternEngine:
        bundle = self._queries()
        if bundle.rpq_engine is None:
            with self._lock:
                if bundle.rpq_engine is None:
                    bundle.rpq_engine = PatternEngine(
                        bundle.index, bundle.grammar.alphabet,
                        bundle.neighborhood)
        return bundle.rpq_engine

    def _pattern_counts(self) -> PatternCounts:
        bundle = self._queries()
        if bundle.pattern_counts is None:
            with self._lock:
                if bundle.pattern_counts is None:
                    bundle.pattern_counts = PatternCounts(
                        bundle.index, bundle.grammar.alphabet)
        return bundle.pattern_counts

    def _component_count(self) -> int:
        bundle = self._queries()
        if bundle.component_count is None:
            with self._lock:
                if bundle.component_count is None:
                    bundle.component_count = ComponentQueries(
                        bundle.grammar).connected_components()
        return bundle.component_count

    def _edge_count(self) -> int:
        bundle = self._queries()
        if bundle.edge_count is None:
            bundle.edge_count = bundle.grammar.derived_edge_count()
        return bundle.edge_count

    def _degree_extrema(self) -> Dict[str, int]:
        extrema = self._degrees()
        return {
            "max_out": extrema.max_out_degree(),
            "min_out": extrema.min_out_degree(),
            "max_in": extrema.max_in_degree(),
            "min_in": extrema.min_in_degree(),
            "max": extrema.max_degree(),
            "min": extrema.min_degree(),
        }

    @property
    def rpq_info(self) -> Dict[str, int]:
        """RPQ engine accounting: skeleton builds, cached DFAs, entries."""
        return self._rpq_engine().info()

    # ------------------------------------------------------------------
    # The §V family (the methods themselves live on GraphService)
    # ------------------------------------------------------------------
    def _uncached_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """Evaluate one query against the grammar, bypassing the LRU.

        Neighbourhoods walk the index (Prop. 4); ``reach`` runs the
        Theorem-6 skeletons; ``rpq`` a per-handle memoized
        product-skeleton build (one per *canonical* DFA, with a
        cost-gated product-BFS fallback); ``path`` is a BFS over the
        cached :meth:`out`; the counts are one-pass grammar functions
        memoized on the bundle.
        """
        if kind == "out":
            return self._queries().neighborhood.out_neighbors(*args)
        if kind == "in":
            return self._queries().neighborhood.in_neighbors(*args)
        if kind == "neighborhood":
            return self._queries().neighborhood.neighbors(*args)
        if kind == "reach":
            return self._reachability().reachable(*args)
        if kind == "rpq":
            return self._rpq_engine().matches(*args)
        if kind == "out_edges":
            return [list(pair) for pair in
                    self._queries().neighborhood.out_edges(*args)]
        if kind == "degree" or kind == "path":
            return self._derived_query(kind, args)
        if kind == "pattern_count":
            return self._pattern_counts().count(*args)
        if kind == "components":
            return self._component_count()
        if kind == "nodes":
            return self._queries().index.total_nodes
        return self._edge_count()

    def warm(self) -> "CompressedGraph":
        """Force every lazy structure now (index, evaluators, counts).

        Serving paths call this before forking workers or accepting
        traffic, so the one canonicalization pass and the per-family
        precomputations happen once, in the parent, instead of once
        per worker.  Query-level errors (e.g. degree extrema on a
        non-simple graph) stay lazy — they belong to the queries that
        trigger them.
        """
        self._queries()
        self._reachability()
        self._edge_count()
        for build in (self._degrees, self._component_count):
            try:
                build()
            except QueryError:
                pass
        return self

    def __repr__(self) -> str:
        built = "built" if self.index_built else "lazy"
        return (f"CompressedGraph(rules={self._grammar.num_rules}, "
                f"|G|={self._grammar.size}, index={built})")
