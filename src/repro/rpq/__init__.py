"""repro.rpq — regular path queries over the compressed grammar.

The RPQ subsystem in three layers:

``regex``
    The pattern language: regex over edge labels (literals, ``.``,
    concatenation, ``|``, ``*``, ``+``, ``?``, parentheses) compiled
    through Thompson NFA -> subset construction -> minimization into a
    canonical, alphabet-independent :class:`PatternDFA`.  Equivalent
    patterns share one canonical :attr:`PatternDFA.key`, which is what
    query caches and skeleton memos key on.
``engine``
    :class:`PatternEngine`: per-handle evaluation with one memoized
    product-skeleton build per canonical DFA
    (:class:`repro.queries.paths.RegularPathQueries`) and a cost-gated
    product-automaton BFS fallback for DFAs large relative to the
    grammar.
``counts``
    :class:`PatternCounts`: GraphZip-style labeled pattern counts
    (single labels, digrams, out-stars) via one bottom-up grammar pass
    per label.

Served end to end as ``QueryKind.RPQ`` and
``QueryKind.PATTERN_COUNT`` — see :mod:`repro.serving.protocol` — and
evaluated over shards by the same cross-shard routes ``reach`` takes
(reach being the one-state instance): a
:class:`repro.partition.boundary.BoundaryClosure` over
``(boundary node, state)`` vertices per pattern.
"""

from repro.rpq.counts import PATTERN_COUNT_KINDS, PatternCounts
from repro.rpq.engine import PatternEngine
from repro.rpq.regex import (
    OTHER,
    PatternDFA,
    cache_key,
    compile_pattern,
    parse,
)

__all__ = [
    "OTHER",
    "PATTERN_COUNT_KINDS",
    "PatternCounts",
    "PatternDFA",
    "PatternEngine",
    "cache_key",
    "compile_pattern",
    "parse",
]
