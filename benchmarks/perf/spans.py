"""Driver-side spans: the benchmark's only clock.

Every layer is measured from outside, by timing calls into public
functions.  A :class:`Tracer` always times; it keeps what it timed
only when ``record`` is set (the traced run), so the untraced run
pays two ``perf_counter`` reads per call and nothing else.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the span that caused it (``None`` for a root), ``request``
the position of the request in its list, shared by every span that
served that request.  Self time is a span's duration minus the part
of it its children cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class _Timed:
    """One open span; ``seconds`` and ``id`` are set when it closes."""

    __slots__ = ("_tracer", "name", "parent", "request", "start",
                 "seconds", "id")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: Optional[int], request: Optional[int]) -> None:
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.request = request
        self.seconds = 0.0
        self.id: Optional[int] = None

    def __enter__(self) -> "_Timed":
        if self._tracer.record:
            # Reserve the slot now so children can name their parent.
            self.id = len(self._tracer.spans)
            self._tracer.spans.append(
                (self.name, 0.0, 0.0, self.parent, self.request))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.seconds = end - self.start
        if self.id is not None:
            self._tracer.spans[self.id] = (
                self.name, self.start, end, self.parent, self.request)


class Tracer:
    """Times spans; keeps them in memory when ``record`` is true."""

    def __init__(self, record: bool = False) -> None:
        self.record = record
        self.spans: List[Span] = []

    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[int] = None) -> _Timed:
        """``with tracer.span("layer.thing") as s: ...; s.seconds``."""
        return _Timed(self, name, parent, request)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], request: Optional[int]) -> None:
        """Record a span a hot loop timed itself (no-op untraced)."""
        if self.record:
            self.spans.append((name, start, end, parent, request))

    def write(self, path: Path) -> None:
        """Dump the spans (with self times) as JSON."""
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [
            {"id": index, "name": name, "start": start, "end": end,
             "parent": parent, "request": request, "self": own[index]}
            for index, (name, start, end, parent, request)
            in enumerate(self.spans)]}))


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its children cover.

    Children may overlap (pipelined batches in flight together), so
    what they cover is the union of their intervals, not the sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    own = [end - start for _, start, end, _, _ in spans]
    for parent, intervals in children.items():
        covered_to = float("-inf")
        for start, end in sorted(intervals):
            if end > covered_to:
                own[parent] -= end - max(start, covered_to)
                covered_to = end
    return own
