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
* **query** — the full section-V family (``reach``, ``out``, ``in_``,
  ``neighborhood``, ``components``, ``degree``, ``path``) plus the
  legacy ``GrammarQueries`` spellings, evaluated against one lazily
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
  :meth:`batch` stays the legacy thin adapter over the same machinery:
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
:class:`repro.queries.GrammarQueries`, :func:`repro.core.derive`)
remain as compatibility shims delegating to this facade.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from repro.exceptions import GrammarError, QueryError
from repro.queries.cache import QueryCache
from repro.queries.components import ComponentQueries
from repro.queries.degrees import DegreeQueries
from repro.queries.index import GrammarIndex
from repro.queries.neighborhood import NeighborhoodQueries
from repro.queries.reachability import ReachabilityQueries
from repro.rpq.counts import PatternCounts
from repro.rpq.engine import PatternEngine
from repro.rpq.regex import cache_key as _rpq_cache_key
from repro.serving.executors import Executor, InlineExecutor, ThreadExecutor
from repro.serving.protocol import (
    KIND_ALIASES,
    KIND_METHODS,
    GraphService,
    QueryKind,
)

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
        recommendation (``maxRank=4``, FP order, incremental engine);
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
            engine=settings.engine,
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
        :class:`repro.core.streaming.StreamingCompressor`).  Streaming
        requires the incremental engine — ``settings.engine`` must be
        left at its default.
        """
        if settings is None:
            settings = GRePairSettings()
        if settings.engine != "incremental":
            raise GrammarError(
                "streaming compression requires engine='incremental', "
                f"got {settings.engine!r}"
            )
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

    # -- neighborhood ---------------------------------------------------
    def out_neighbors(self, node_id: int) -> List[int]:
        """Sorted out-neighbor IDs of ``node_id`` (paper's ``N+``)."""
        return self._cache.get_or_compute(
            ("out", node_id),
            lambda: self._queries().neighborhood.out_neighbors(node_id))

    def in_neighbors(self, node_id: int) -> List[int]:
        """Sorted in-neighbor IDs of ``node_id`` (paper's ``N-``)."""
        return self._cache.get_or_compute(
            ("in", node_id),
            lambda: self._queries().neighborhood.in_neighbors(node_id))

    def neighbors(self, node_id: int) -> List[int]:
        """Sorted undirected neighborhood ``N(v)``."""
        return self._cache.get_or_compute(
            ("neighborhood", node_id),
            lambda: self._queries().neighborhood.neighbors(node_id))

    # Short serving-style spellings.
    def out(self, node_id: int) -> List[int]:
        """Alias of :meth:`out_neighbors`."""
        return self.out_neighbors(node_id)

    def in_(self, node_id: int) -> List[int]:
        """Alias of :meth:`in_neighbors` (``in`` is a keyword)."""
        return self.in_neighbors(node_id)

    def neighborhood(self, node_id: int) -> List[int]:
        """Alias of :meth:`neighbors`."""
        return self.neighbors(node_id)

    # -- speed-up queries -----------------------------------------------
    def reachable(self, source_id: int, target_id: int) -> bool:
        """(s,t)-reachability in ``O(|G|)`` (Theorem 6)."""
        return self._cache.get_or_compute(
            ("reach", source_id, target_id),
            lambda: self._reachability().reachable(source_id, target_id))

    def reach(self, source_id: int, target_id: int) -> bool:
        """Alias of :meth:`reachable`."""
        return self.reachable(source_id, target_id)

    def connected_components(self) -> int:
        """Number of connected components of ``val(G)`` (one pass)."""
        bundle = self._queries()
        if bundle.component_count is None:
            with self._lock:
                if bundle.component_count is None:
                    bundle.component_count = ComponentQueries(
                        bundle.grammar).connected_components()
        return bundle.component_count

    def components(self) -> int:
        """Alias of :meth:`connected_components`."""
        return self.connected_components()

    def degrees(self) -> DegreeQueries:
        """The degree-extrema evaluator (CMSO function, one pass)."""
        return self._degrees()

    def degree(self, node_id: Optional[int] = None,
               direction: str = "out") -> Union[int, Dict[str, int]]:
        """Degree information without decompressing.

        With ``node_id``: the number of distinct ``out``/``in``/``any``
        neighbors of that node.  Without: the true degree extrema of
        ``val(G)`` (edge multiplicities included) as a dict with keys
        ``max_out``/``min_out``/``max_in``/``min_in``/``max``/``min``.
        """
        if node_id is None:
            extrema = self._degrees()
            return {
                "max_out": extrema.max_out_degree(),
                "min_out": extrema.min_out_degree(),
                "max_in": extrema.max_in_degree(),
                "min_in": extrema.min_in_degree(),
                "max": extrema.max_degree(),
                "min": extrema.min_degree(),
            }
        if direction == "out":
            return len(self.out_neighbors(node_id))
        if direction == "in":
            return len(self.in_neighbors(node_id))
        if direction == "any":
            return len(self.neighbors(node_id))
        raise QueryError(f"unknown direction {direction!r}; "
                         "expected 'out', 'in' or 'any'")

    def path(self, source_id: int, target_id: int
             ) -> Optional[List[int]]:
        """A shortest directed path as node IDs, or ``None``."""
        from repro.queries.traversal import shortest_path
        return self._cache.get_or_compute(
            ("path", source_id, target_id),
            lambda: shortest_path(self, source_id, target_id))

    # -- regular path queries / pattern counts --------------------------
    @staticmethod
    def _rpq_key(pattern: str, source: int, target: int,
                 from_state: Optional[int],
                 to_state: Optional[int]) -> Tuple[Any, ...]:
        """The LRU key an RPQ shares with the typed protocol.

        Matches ``QueryRequest.key``: the pattern text is replaced by
        its minimized-DFA canonical form, so equivalent spellings
        (``a|b`` / ``b|a``) share one entry; the optional state
        overrides trail in wire order.
        """
        states: Tuple[Any, ...] = ()
        if to_state is not None:
            states = (from_state, to_state)
        elif from_state is not None:
            states = (from_state,)
        return ("rpq", _rpq_cache_key(pattern), source, target, *states)

    def rpq(self, pattern: str, source: int, target: int,
            from_state: Optional[int] = None,
            to_state: Optional[int] = None) -> bool:
        """Does some ``source -> target`` path spell a word of ``pattern``?

        ``pattern`` is a regex over edge-label names (literals, ``.``,
        concatenation, ``|``, ``*``, ``+``, ``?``, parentheses — see
        :mod:`repro.rpq.regex`).  Evaluation runs on a per-handle
        memoized product-skeleton build (one per *canonical* DFA), with
        a cost-gated product-automaton BFS fallback for automata large
        relative to the grammar.

        ``from_state`` / ``to_state`` override the DFA's start and
        accepting states (states use the canonical DFA's numbering) —
        the probe surface the sharded evaluator batches.
        """
        return self._cache.get_or_compute(
            self._rpq_key(pattern, source, target, from_state, to_state),
            lambda: self._rpq_engine().matches(
                pattern, source, target, from_state, to_state))

    def pattern_count(self, sub_kind: str, *args: Any) -> int:
        """GraphZip-style labeled pattern counts over ``val(G)``.

        ``("label", a)`` counts ``a``-edges; ``("digram", a, b)``
        counts length-2 label paths; ``("star", a, k)`` counts nodes
        with ``>= k`` outgoing ``a``-edges; ``("node_out", a, v)`` /
        ``("node_in", a, v)`` are one node's labeled degrees with
        multiplicity.  Labels are *names*; unknown names count zero.
        """
        return self._cache.get_or_compute(
            ("pattern_count", sub_kind, *args),
            lambda: self._pattern_counts().count(sub_kind, *args))

    def out_edges(self, node_id: int) -> List[List[int]]:
        """Labeled outgoing edges as sorted ``[label, target]`` pairs.

        The labeled variant of :meth:`out_neighbors` (list-of-lists for
        wire type-stability across the serving codecs).
        """
        return self._cache.get_or_compute(
            ("out_edges", node_id),
            lambda: [list(pair) for pair in
                     self._queries().neighborhood.out_edges(node_id)])

    @property
    def rpq_info(self) -> Dict[str, int]:
        """RPQ engine accounting: skeleton builds, cached DFAs, entries."""
        return self._rpq_engine().info()

    def node_count(self) -> int:
        """``|val(G)|_V`` without decompressing."""
        return self._queries().index.total_nodes

    def edge_count(self) -> int:
        """Terminal edge count of ``val(G)`` without decompressing."""
        bundle = self._queries()
        if bundle.edge_count is None:
            bundle.edge_count = bundle.grammar.derived_edge_count()
        return bundle.edge_count

    # ------------------------------------------------------------------
    # Batched evaluation for serving workloads
    # ------------------------------------------------------------------
    #: Legacy spelling -> method map (kept for introspection; the
    #: typed protocol in :mod:`repro.serving.protocol` is canonical).
    _BATCH_KINDS = {alias: KIND_METHODS[kind]
                    for alias, kind in KIND_ALIASES.items()}

    def _uncached_query(self, kind: QueryKind,
                        args: Tuple[Any, ...]) -> Any:
        """Evaluate one typed request *bypassing* the result LRU.

        The planned executors pre-filter the cache and bulk-insert
        the misses afterwards; consulting the LRU again per job would
        double-count every lookup.  Non-cacheable kinds route through
        their public methods (their memoization lives on the bundle,
        not the LRU).
        """
        if kind is QueryKind.OUT:
            return self._queries().neighborhood.out_neighbors(*args)
        if kind is QueryKind.IN:
            return self._queries().neighborhood.in_neighbors(*args)
        if kind is QueryKind.NEIGHBORHOOD:
            return self._queries().neighborhood.neighbors(*args)
        if kind is QueryKind.REACH:
            return self._reachability().reachable(*args)
        if kind is QueryKind.PATH:
            from repro.queries.traversal import shortest_path
            return shortest_path(self, *args)
        if kind is QueryKind.RPQ:
            return self._rpq_engine().matches(*args)
        if kind is QueryKind.PATTERN_COUNT:
            return self._pattern_counts().count(*args)
        if kind is QueryKind.OUT_EDGES:
            return [list(pair) for pair in
                    self._queries().neighborhood.out_edges(*args)]
        return getattr(self, KIND_METHODS[kind])(*args)

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
        self.edge_count()
        for build in (self._degrees, self.connected_components):
            try:
                build()
            except QueryError:
                pass
        return self

    def batch(self, requests: Iterable[Sequence[Any]],
              parallel: bool = False,
              max_workers: Optional[int] = None,
              executor: Optional[Executor] = None) -> List[Any]:
        """Evaluate many queries against one index build.

        Each request is a ``(kind, *args)`` sequence, e.g.
        ``("reach", 1, 9)``, ``("out", 4)``, ``("components",)``,
        ``("degree", 4, "in")`` or ``("path", 1, 7)``.  Results come
        back in request order.  The index (and every shared
        precomputation a request needs) is built once for the whole
        batch, which is the intended shape for serving loops.

        ``parallel=True`` selects the *planned* execution path: the
        batch is deduplicated (serving traffic is skewed — identical
        requests are the common case), pre-filtered against the
        result LRU, and the unique misses are fanned out across a
        thread pool.  ``executor`` overrides the strategy entirely
        (any :class:`repro.serving.Executor`).  Answers are identical
        whichever path runs, in request order; the first failing
        request raises its :class:`QueryError` — the typed
        :meth:`execute` surface is the one with per-request errors.
        """
        if executor is None:
            executor = (ThreadExecutor(max_workers) if parallel
                        else InlineExecutor())
        self._queries()
        results = executor.run(self, list(requests), strict=True)
        return [result.unwrap() for result in results]

    def __repr__(self) -> str:
        built = "built" if self.index_built else "lazy"
        return (f"CompressedGraph(rules={self._grammar.num_rules}, "
                f"|G|={self._grammar.size}, index={built})")

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> QueryCache:
        """The handle's query-result LRU."""
        return self._cache

    @property
    def cache_info(self) -> Dict[str, Any]:
        """LRU counters: capacity, size, hits, misses, evictions."""
        return self._cache.info()

    @property
    def cache_hits(self) -> int:
        """Queries answered from the result LRU."""
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        """Queries that fell through to grammar evaluation."""
        return self._cache.misses
