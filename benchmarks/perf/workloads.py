"""The four workloads, closed loop, one process, one after another.

Each workload function sets the program up (several times — set-up
time is a median), runs its timed passes over a request list fixed
before timing, reads the process's peak memory, and only then checks
every answer against :mod:`oracle`.  It returns the end-to-end
metrics; in the traced run it also fills ``run.layer`` from the spans
it recorded.

What each workload is for is written once, in ``BENCHMARK.json``
(``why``) and at length in ``README.md``.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro import (
    CompressedGraph,
    ShardedCompressedGraph,
    compile_pattern,
    connect,
    serve,
)
from repro.encoding.container import decode_sharded_container, map_file
from repro.encoding.k2tree import K2Tree
from repro.partition import bfs_partition
from repro.serving import QueryResult, plan_batch
from repro.serving.codec import (
    decode_frame,
    encode_frame,
    requests_to_wire,
    results_from_wire,
    results_to_wire,
)

from fixtures import (
    FAMILIES,
    HOT_SET,
    KINDS,
    PATTERNS,
    STREAMED,
    Request,
    chunked,
    mix_graph,
    node_order,
    request_list,
    stratified,
    stream_chunks,
)
from oracle import Failure, Oracle, round_trip_failures
from spans import Span, Tracer

WORKLOADS = ("compress-families", "local-uniform", "local-hot",
             "serve-mixed")

#: ``--seconds`` at which the list sizes below were tuned on the
#: reference box (2 vCPU); other values scale every list.
REFERENCE_SECONDS = 10
#: Requests per kept pass at the reference length.
UNIFORM_REQUESTS = 3000
HOT_REQUESTS = 2944
READBACK_REQUESTS = 300        # per family
READBACK_PASSES = 2
#: serve-mixed's lists are long and repeated only twice: a cross-shard
#: path costs ~50x the median request, so its throughput steadies with
#: the number of *distinct* requests, not with repeats of a short list.
STRICT_REQUESTS = 1000         # serve-mixed phase A
PIPELINED_REQUESTS = 1536      # serve-mixed phase B
SERVED_PASSES = 2
KEPT_PASSES = 3
WARMUP_SHARE = 0.2             # of a list, run first and discarded
SETUP_REPEATS = 3
#: Per set-up repeat: the short measurements ride along with set-up so
#: that their repeats span seconds, not one unlucky half-second.
FIRST_ANSWER_REPEATS = 3
DECOMPRESS_REPEATS = 2

#: ``mix@size`` (see fixtures.mix_graph) served by each fixture at
#: ``--scale 1``: 10.4k edges in-process, 5.2k edges behind sockets
#: (closure build grows ~6x per doubling; see README).
MIX_LOCAL = 0.4
MIX_SERVED = 0.25
SHARDS = 2
BATCH = 64                     # local-hot requests per handle.batch
WIRE_BATCH = 32                # serve-mixed requests per pipelined batch
IN_FLIGHT = 4                  # pipelined batches kept outstanding

Metric = Tuple[float, str]

# Every timing metric below is the *smallest* time over its repeats
# (``min``), not their median.  Everything that disturbs a timing on a
# shared box -- a neighbour, a migration, a page fault -- makes it
# longer, never shorter; the fastest repeat is the one least disturbed,
# and the only statistic of a handful of repeats that a slow spell
# covering most of them leaves alone.


class Run:
    """One invocation: its settings, its clock, what it found."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scale: float, trace: bool, out: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.out = out
        self.tracer = Tracer(record=trace)
        #: Share of the reference list sizes; the traced run repeats
        #: each workload at half length.
        self.length = seconds / REFERENCE_SECONDS * (0.5 if trace else 1)
        #: Set-up time is an end-to-end metric; the traced run needs
        #: the fixtures once.
        self.setup_repeats = 1 if trace else SETUP_REPEATS
        self.attempted = 0
        self.failed = 0
        self.layer: Dict[str, Metric] = {}
        self._plain_seconds = 0.0
        self._traced_seconds = 0.0
        out.mkdir(parents=True, exist_ok=True)
        # One CPU for this process, another for the served process
        # tree.  On a VM a wake-up that crosses vCPUs costs about as
        # much as a whole served request (0.5 ms pinned, 1.2-2 ms
        # wherever the scheduler happens to put four processes), so
        # unpinned runs measure placement, not the program.
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus = {cpus[1]} if len(cpus) > 1 else set(cpus)
        os.sched_setaffinity(0, {cpus[0]})

    def count(self, reference: int, multiple: int = 1) -> int:
        """A list size: ``reference`` scaled to this run's length."""
        wanted = max(20, round(reference * self.length))
        return max(multiple, wanted // multiple * multiple)

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}/{salt}")

    def passes(self, workload: str, do_pass: Callable[[], "Pass"],
               kept: int = KEPT_PASSES) -> List["Pass"]:
        """The kept passes of a timed region.

        Untraced: ``kept`` passes.  Traced: one pass with spans —
        and, for the workload this run was asked for, the same pass
        once more without them, so the tracing overhead is measured
        rather than assumed.
        """
        tracer = self.tracer
        if not tracer.record:
            return [do_pass() for _ in range(kept)]
        if workload == self.workload:
            tracer.record = False
            try:
                self._plain_seconds += do_pass().seconds
            finally:
                tracer.record = True
        traced = do_pass()
        if workload == self.workload:
            self._traced_seconds += traced.seconds
        return [traced]

    def trace_overhead_share(self) -> float:
        return ((self._traced_seconds - self._plain_seconds)
                / self._plain_seconds)

    def score(self, oracle: Oracle, requests: Sequence[Request],
              passes: Sequence["Pass"]) -> None:
        """Check every kept pass's answers (after timing); a pass
        that answered exactly like the one before it shares its count."""
        answers, wrong = None, 0
        for one in passes:
            if one.answers != answers:
                answers = one.answers
                wrong = oracle.failures(requests, answers)
            self.attempted += len(requests)
            self.failed += wrong


class Pass(NamedTuple):
    """One timed pass: wall seconds, per-operation latencies, answers."""

    seconds: float
    latencies: List[float]
    answers: List[Any]


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(share * len(sorted_values)))]


def latency_metrics(run: Run, workload: str, passes: Sequence[Pass]
                    ) -> Dict[str, Metric]:
    """Per-pass percentiles, fastest pass.

    p99 sits in the ``path`` tail and swings with the seed; it is a
    per-layer metric (traced run), not an end-to-end one.
    """
    ranked = [sorted(one.latencies) for one in passes]
    if run.tracer.record:
        run.layer[f"latency_p99_ms.{workload}"] = (
            min(percentile(one, 0.99) for one in ranked) * 1e3, "ms")
    return {
        "latency_p50_ms": (
            min(percentile(one, 0.50) for one in ranked) * 1e3, "ms"),
        "latency_p90_ms": (
            min(percentile(one, 0.90) for one in ranked) * 1e3, "ms"),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> Metric:
    return resource.getrusage(who).ru_maxrss / 1024.0, "MB"


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [end - start for span_name, start, end, _, _ in spans
            if span_name == name]


def methods(handle: Any) -> Dict[str, Callable[..., Any]]:
    """Request kind -> the public method that answers it."""
    return {"out": handle.out, "in": handle.in_,
            "neighborhood": handle.neighborhood,
            "degree": handle.degree, "out_edges": handle.out_edges,
            "reach": handle.reach, "rpq": handle.rpq,
            "path": handle.path}


def same_list(requests: Sequence[Request], digest: int) -> None:
    """Fail loudly if a pass is about to run a different list."""
    if hash(tuple(requests)) != digest:
        raise RuntimeError("the request list changed between passes")


def single_pass(tracer: Tracer, parent: Optional[int], prefix: str,
                ask: Dict[str, Callable[..., Any]],
                requests: Sequence[Request]) -> Pass:
    """One call per request, the next only after the last returned."""
    ops = [(ask[request[0]], request[1:], prefix + request[0])
           for request in requests]
    latencies: List[float] = []
    answers: List[Any] = []
    clock = time.perf_counter
    with tracer.span(prefix + "pass", parent) as whole:
        for position, (call, args, name) in enumerate(ops):
            start = clock()
            try:
                value = call(*args)
            except Exception as exc:   # a failed operation, counted
                value = Failure(exc)
            end = clock()
            latencies.append(end - start)
            answers.append(value)
            tracer.add(name, start, end, whole.id, position)
    return Pass(whole.seconds, latencies, answers)


def ready_handle(tracer: Tracer, parent: Optional[int], path: Path,
                 **cache: int) -> CompressedGraph:
    """Open a container and finish every lazy build before traffic."""
    with tracer.span("encoding.open", parent):
        handle = CompressedGraph.open(path, **cache)
    with tracer.span("queries.index_build", parent):
        handle.index
    with tracer.span("queries.warm", parent):
        handle.warm()
    for pattern in PATTERNS:
        with tracer.span("rpq.skeleton_build", parent):
            handle.rpq(pattern, 1, 1)
    return handle


def first_answer_seconds(tracer: Tracer, parent: Optional[int],
                         paths: Sequence[Path], rng: random.Random
                         ) -> float:
    """Cold ``open`` + one ``reach`` — what ``repro query FILE`` pays
    (seconds per file; best of a few rounds over ``paths``)."""
    rounds = []
    for _ in range(FIRST_ANSWER_REPEATS):
        with tracer.span("first_answer", parent) as first:
            for path in paths:
                handle = CompressedGraph.open(path)
                nodes = handle.node_count()
                handle.reach(1 + int(rng.random() * nodes),
                             1 + int(rng.random() * nodes))
        rounds.append(first.seconds)
    return min(rounds) / len(paths)


def decompress_seconds(tracer: Tracer, parent: Optional[int],
                       load: Callable[[], Any]) -> float:
    """Decode + derive, best of a few."""
    times = []
    for _ in range(DECOMPRESS_REPEATS):
        with tracer.span("decompress", parent) as whole:
            with tracer.span("encoding.decode", whole.id):
                handle = load()
            with tracer.span("core.derive", whole.id):
                handle.decompress()
        times.append(whole.seconds)
    return min(times)


def kind_metrics(layer: Dict[str, Metric], spans: Sequence[Span],
                 prefix: str, kinds: Sequence[str],
                 median: bool = True) -> None:
    """``<prefix><kind>.mean_us`` (and ``.p50_us``) from the spans
    called ``<prefix><kind>``."""
    for kind in kinds:
        times = durations(spans, prefix + kind)
        layer[f"{prefix}{kind}.mean_us"] = (
            statistics.mean(times) * 1e6, "us")
        if median:
            layer[f"{prefix}{kind}.p50_us"] = (
                statistics.median(times) * 1e6, "us")


# ----------------------------------------------------------------------
# compress-families
# ----------------------------------------------------------------------
def compress_families(run: Run) -> Dict[str, Metric]:
    tracer = run.tracer
    mark = len(tracer.spans)
    with tracer.span("workload.compress-families") as root:
        setups = []
        for _ in range(run.setup_repeats):
            with tracer.span("fixture.generate", root.id) as made:
                graphs = {name: make(run.scale)
                          for name, make in FAMILIES.items()}
                chunks = stream_chunks(graphs[STREAMED][0],
                                       run.rng("stream"))
            setups.append(made.seconds)
        order = list(FAMILIES) + ["stream"]
        run.rng("order").shuffle(order)
        kept: Dict[str, Tuple[Any, Any]] = {}   # name -> handle, restored
        paths = {name: run.out / f"{name}.grpr" for name in FAMILIES}
        write = {"seconds": 0.0, "edges": 0}
        read = {"seconds": 0.0, "edges": 0}

        def one_pass() -> Pass:
            with tracer.span("compress.pass", root.id) as whole:
                for name in order:
                    family = STREAMED if name == "stream" else name
                    graph, alphabet = graphs[family]
                    if name == "stream":
                        handle, seconds = _ingest(tracer, whole.id,
                                                  chunks, alphabet)
                    else:
                        with tracer.span(f"core.repair.compress.{name}",
                                         whole.id) as squeezed:
                            handle = CompressedGraph.compress(graph,
                                                              alphabet)
                        seconds = squeezed.seconds
                    with tracer.span("encoding.encode",
                                     whole.id) as encoded:
                        data = handle.to_bytes()
                    with tracer.span("encoding.decode",
                                     whole.id) as decoded:
                        restored = CompressedGraph.from_bytes(data)
                    with tracer.span("core.derive", whole.id) as derived:
                        restored.decompress()
                    write["seconds"] += seconds + encoded.seconds
                    write["edges"] += graph.num_edges
                    read["seconds"] += decoded.seconds + derived.seconds
                    read["edges"] += graph.num_edges
                    kept[name] = (handle, restored)
            return Pass(whole.seconds, [], [])

        run.passes("compress-families", one_pass,
                   kept=max(1, round(run.length)))
        for name, path in paths.items():
            kept[name][0].save(path)
        first = first_answer_seconds(tracer, root.id,
                                     list(paths.values()),
                                     run.rng("first"))

        # Read-back: the containers just written answer the query mix.
        lists = {name: request_list(run.rng(f"readback/{name}"),
                                    run.count(READBACK_REQUESTS),
                                    node_order(kept[name][1].decompress()))
                 for name in FAMILIES}
        digests = {name: hash(tuple(lists[name])) for name in FAMILIES}

        def read_back(share: float = 1.0) -> Dict[str, Pass]:
            answered = {}
            for name in FAMILIES:
                same_list(lists[name], digests[name])
                handle = ready_handle(tracer, root.id, paths[name])
                cut = max(1, int(share * len(lists[name])))
                answered[name] = single_pass(
                    tracer, root.id, "readback.", methods(handle),
                    lists[name][:cut])
            return answered

        read_back(WARMUP_SHARE)
        readbacks = [read_back() for _ in range(READBACK_PASSES)]
        rss = peak_rss_mb()

    # -- after timing: correctness ------------------------------------
    for name in order:
        handle, restored = kept[name]
        family = STREAMED if name == "stream" else name
        made, wrong = round_trip_failures(graphs[family], handle,
                                          restored,
                                          isolated=name != "stream")
        run.attempted += made
        run.failed += wrong
    for name in FAMILIES:
        restored = kept[name][1]
        run.score(Oracle(restored.decompress(), restored.alphabet),
                  lists[name], [answered[name] for answered in readbacks])
    sizes = [8.0 * paths[name].stat().st_size / graphs[name][0].num_edges
             for name in FAMILIES]
    # One Pass per read-back round (the five families back to back),
    # and per family its faster round.
    rounds = [Pass(sum(one.seconds for one in answered.values()),
                   [value for one in answered.values()
                    for value in one.latencies], [])
              for answered in readbacks]

    if tracer.record:
        _compress_layers(run, tracer.spans[mark:], kept)
    return {
        "setup_s": (min(setups), "s"),
        "compress_edges_per_s": (write["edges"] / write["seconds"],
                                 "1/s"),
        "decompress_edges_per_s": (read["edges"] / read["seconds"],
                                   "1/s"),
        "bits_per_edge": (statistics.geometric_mean(sizes), "bits/edge"),
        "queries_per_s": (sum(map(len, lists.values()))
                          / min(one.seconds for one in rounds), "1/s"),
        **latency_metrics(run, "compress-families", rounds),
        "first_answer_ms": (first * 1e3, "ms"),
        "peak_rss_mb": rss,
    }


def _ingest(tracer: Tracer, parent: Optional[int],
            chunks: Sequence[Sequence[Any]], alphabet: Any
            ) -> Tuple[CompressedGraph, float]:
    """``from_stream`` with the hand-over to ``finish`` timestamped."""
    handed: List[float] = []

    def feed():
        yield from chunks
        handed.append(time.perf_counter())

    start = time.perf_counter()
    handle = CompressedGraph.from_stream(feed(), alphabet)
    end = time.perf_counter()
    tracer.add("core.streaming.ingest", start, handed[0], parent, None)
    tracer.add("core.streaming.finish", handed[0], end, parent, None)
    return handle, end - start


def _compress_layers(run: Run, spans: Sequence[Span],
                     kept: Dict[str, Tuple[Any, Any]]) -> None:
    layer = run.layer
    for name in FAMILIES:
        layer[f"core.repair.compress_s.{name}"] = (
            sum(durations(spans, f"core.repair.compress.{name}")), "s")
    stats = [kept[name][0].stats for name in FAMILIES]
    layer["core.repair.passes"] = (
        sum(s["passes"] for s in stats), "count")
    layer["core.repair.queue_ops"] = (
        sum(s["queue_pushes"] + s["queue_pops"] for s in stats), "count")
    layer["core.repair.grammar_size"] = (
        sum(kept[name][0].grammar.size for name in FAMILIES), "count")
    # validate() ran inside compress(); its share is timed by running
    # it once more on the finished grammars.
    with run.tracer.span("core.validate") as checked:
        for name in FAMILIES:
            kept[name][0].grammar.validate()
    layer["core.validate_s"] = (checked.seconds, "s")
    for step in ("ingest", "finish"):
        layer[f"core.streaming.{step}_s"] = (
            sum(durations(spans, f"core.streaming.{step}")), "s")
    layer["core.derive_s"] = (sum(durations(spans, "core.derive")), "s")
    layer["encoding.encode_s"] = (
        sum(durations(spans, "encoding.encode")), "s")
    layer["encoding.decode_s"] = (
        sum(durations(spans, "encoding.decode")), "s")
    sizes = [kept[name][0].sizes for name in FAMILIES]
    layer["encoding.startgraph_bytes"] = (
        sum(s["start"] for s in sizes), "bytes")
    layer["encoding.rules_bytes"] = (
        sum(s["rules"] for s in sizes), "bytes")


# ----------------------------------------------------------------------
# local-uniform / local-hot
# ----------------------------------------------------------------------
def _local_setup(run: Run, parent: Optional[int], **cache: int
                 ) -> Dict[str, Any]:
    """Generate ``mix``, compress, save, open, warm — several times —
    and what does not depend on the traffic: the fixture's metrics."""
    tracer = run.tracer
    path = run.out / "mix.grpr"
    rng = run.rng("first")
    setups, writes, firsts, unpacks = [], [], [], []
    for _ in range(run.setup_repeats):
        with tracer.span("setup", parent) as whole:
            with tracer.span("fixture.generate", whole.id):
                graph, alphabet = mix_graph(MIX_LOCAL * run.scale)
            with tracer.span("core.repair.compress.mix",
                             whole.id) as squeezed:
                built = CompressedGraph.compress(graph, alphabet)
            with tracer.span("encoding.encode", whole.id) as encoded:
                built.save(path)
            handle = ready_handle(tracer, whole.id, path, **cache)
        setups.append(whole.seconds)
        writes.append(squeezed.seconds + encoded.seconds)
        firsts.append(first_answer_seconds(tracer, parent, [path], rng))
        data = path.read_bytes()
        unpacks.append(decompress_seconds(
            tracer, parent, lambda: CompressedGraph.from_bytes(data)))
    edges = graph.num_edges
    return {
        "path": path, "handle": handle,
        "order": node_order(handle.decompress()),
        "metrics": {
            "setup_s": (min(setups), "s"),
            "compress_edges_per_s": (edges / min(writes), "1/s"),
            "decompress_edges_per_s": (edges / min(unpacks), "1/s"),
            "bits_per_edge": (8.0 * path.stat().st_size / edges,
                              "bits/edge"),
            "first_answer_ms": (min(firsts) * 1e3, "ms"),
        },
    }


def _local_finish(run: Run, workload: str, fixture: Dict[str, Any],
                  requests: Sequence[Request], passes: Sequence[Pass]
                  ) -> Dict[str, Metric]:
    """What both local workloads report once their passes are done."""
    metrics = dict(fixture["metrics"])
    metrics["queries_per_s"] = (
        len(requests) / min(one.seconds for one in passes), "1/s")
    metrics.update(latency_metrics(run, workload, passes))
    metrics["peak_rss_mb"] = peak_rss_mb()
    handle = fixture["handle"]
    run.score(Oracle(handle.decompress(), handle.alphabet), requests,
              passes)
    return metrics


def local_uniform(run: Run) -> Dict[str, Metric]:
    tracer = run.tracer
    mark = len(tracer.spans)
    with tracer.span("workload.local-uniform") as root:
        fixture = _local_setup(run, root.id, cache_size=0)
        requests = request_list(run.rng("uniform"),
                                run.count(UNIFORM_REQUESTS),
                                fixture["order"])
        digest = hash(tuple(requests))

        def one_pass(share: float = 1.0) -> Pass:
            # A fresh handle per pass: the traversal kernel memoizes
            # per-source closure rows, so a reused handle would turn
            # the second pass into a cache benchmark.
            same_list(requests, digest)
            handle = ready_handle(tracer, root.id, fixture["path"],
                                  cache_size=0)
            fixture["handle"] = handle
            cut = max(1, int(share * len(requests)))
            return single_pass(tracer, root.id, "queries.",
                               methods(handle), requests[:cut])

        one_pass(WARMUP_SHARE)
        passes = run.passes("local-uniform", one_pass)
        metrics = _local_finish(run, "local-uniform", fixture, requests,
                                passes)
    if tracer.record:
        _uniform_layers(run, tracer.spans[mark:], fixture["handle"])
    return metrics


def _uniform_layers(run: Run, spans: Sequence[Span],
                    handle: CompressedGraph) -> None:
    layer = run.layer
    # Every handle made ready recorded these; report the median one.
    for metric, span in (("encoding.open_s", "encoding.open"),
                         ("queries.index_build_s", "queries.index_build"),
                         ("queries.warm_s", "queries.warm")):
        layer[metric] = (statistics.median(durations(spans, span)), "s")
    times = durations(spans, "rpq.skeleton_build")
    layer["rpq.skeleton_build_s"] = (statistics.median(
        sum(times[start:start + len(PATTERNS)])
        for start in range(0, len(times), len(PATTERNS))), "s")
    compile_pattern.cache_clear()   # compiled patterns are memoized
    with run.tracer.span("rpq.compile") as compiled:
        for pattern in PATTERNS:
            compile_pattern(pattern)
    layer["rpq.compile_s"] = (compiled.seconds, "s")
    layer["queries.canonicalizations"] = (handle.canonicalizations,
                                          "count")
    layer["rpq.skeleton_entries"] = (
        handle.rpq_info["skeleton_entries"], "count")
    kind_metrics(layer, spans, "queries.",
                 [kind for kind in KINDS if kind != "rpq"])
    layer["rpq.query.p50_us"] = (
        statistics.median(durations(spans, "queries.rpq")) * 1e6, "us")
    names = [handle.alphabet.name(label)
             for label in handle.alphabet.terminals()]
    with run.tracer.span("rpq.pattern_count") as counted:
        for name in names:
            handle.pattern_count("label", name)
            handle.pattern_count("digram", name, name)
            handle.pattern_count("star", name, 2)
    layer["rpq.pattern_count_s"] = (counted.seconds, "s")
    # The start graph's adjacency matrix, through the k2-tree layer.
    start = handle.grammar.start
    index = {node: row for row, node in enumerate(sorted(start.nodes()))}
    cells = [(index[edge.att[0]], index[edge.att[1]])
             for _, edge in start.edges() if len(edge.att) == 2]
    with run.tracer.span("encoding.k2.build") as built:
        tree = K2Tree.from_cells(cells, max(1, len(index)))
    with run.tracer.span("encoding.k2.rows_ones") as swept:
        tree.rows_ones(range(len(index)))
    layer["encoding.k2.build_s"] = (built.seconds, "s")
    layer["encoding.k2.rows_ones_s"] = (swept.seconds, "s")


def local_hot(run: Run) -> Dict[str, Metric]:
    tracer = run.tracer
    with tracer.span("workload.local-hot") as root:
        fixture = _local_setup(run, root.id)
        handle = fixture["handle"]
        rng = run.rng("hot")
        hot = stratified(rng, HOT_SET, fixture["order"])
        requests = request_list(rng, run.count(HOT_REQUESTS, BATCH),
                                fixture["order"], hot)
        digest = hash(tuple(requests))

        def one_pass(share: float = 1.0) -> Pass:
            same_list(requests, digest)
            chunks = chunked(requests, BATCH)
            chunks = chunks[:max(1, int(share * len(chunks)))]
            latencies: List[float] = []
            answers: List[Any] = []
            clock = time.perf_counter
            with tracer.span("hot.pass", root.id) as whole:
                for position, chunk in enumerate(chunks):
                    start = clock()
                    try:
                        values = handle.batch(chunk)
                    except Exception as exc:   # the whole batch failed
                        values = [Failure(exc)] * len(chunk)
                    end = clock()
                    latencies.append(end - start)
                    answers += values
                    tracer.add("queries.batch", start, end, whole.id,
                               position)
            return Pass(whole.seconds, latencies, answers)

        one_pass(WARMUP_SHARE)
        passes = run.passes("local-hot", one_pass)
        info = handle.cache_info
        metrics = _local_finish(run, "local-hot", fixture, requests,
                                passes)
    if tracer.record:
        run.layer["queries.cache.hit_rate"] = (
            info["hits"] / max(1, info["hits"] + info["misses"]),
            "share")
        # The planned path's front end (dedup + LRU pre-filter) on the
        # same chunks, after the counters above were read.
        chunks = chunked(requests, BATCH)
        with tracer.span("queries.plan_batch") as planned:
            for chunk in chunks:
                plan_batch(chunk, cache=handle.cache)
        run.layer["queries.plan_batch_us"] = (
            planned.seconds / len(chunks) * 1e6, "us")
    return metrics


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _source_root() -> str:
    import repro
    return str(Path(repro.__file__).resolve().parent.parent)


def start_server(tracer: Tracer, parent: Optional[int], path: Path,
                 out: Path, cpus: set) -> Tuple[subprocess.Popen, str]:
    """``python -m repro.cli serve`` in its own process, on ``cpus``
    (router and forked shards alike); returns it and its endpoint."""
    ready = out / "ready"
    ready.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_source_root()] + ([env["PYTHONPATH"]]
                            if env.get("PYTHONPATH") else []))
    mine = os.sched_getaffinity(0)
    with tracer.span("serving.start", parent):
        os.sched_setaffinity(0, cpus)   # inherited by the child
        try:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(path),
                 "--cache-size", "0", "--ready-file", str(ready)],
                env=env, stdout=subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, mine)
        try:
            deadline = time.monotonic() + 60
            while True:
                endpoint = ready.read_text() if ready.exists() else ""
                if endpoint.endswith("\n"):
                    break
                if server.poll() is not None:
                    raise RuntimeError("the server exited at start-up")
                if time.monotonic() > deadline:
                    raise RuntimeError("the server never became ready")
                time.sleep(0.002)
        except BaseException:
            stop_server(server)
            raise
    return server, endpoint.strip()


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM (the CLI closes its shard processes), then wait."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _values(results: Sequence[QueryResult]) -> List[Any]:
    return [result.value if result.ok else Failure(result.error)
            for result in results]


def pipelined_pass(tracer: Tracer, parent: Optional[int], client: Any,
                   chunks: Sequence[Sequence[Request]]) -> Pass:
    """Keep ``IN_FLIGHT`` batches outstanding on one connection."""
    answers: List[List[Any]] = [[] for _ in chunks]
    latencies: List[float] = []
    window: deque = deque()
    clock = time.perf_counter

    def collect(whole_id: Optional[int]) -> None:
        position, start, future = window.popleft()
        try:
            answers[position] = _values(future.result(timeout=120))
        except Exception as exc:   # the whole batch failed
            answers[position] = [Failure(exc)] * len(chunks[position])
        end = clock()
        latencies.append(end - start)
        tracer.add("serving.batch", start, end, whole_id, position)

    with tracer.span("serving.pipelined_pass", parent) as whole:
        for position, chunk in enumerate(chunks):
            if len(window) == IN_FLIGHT:
                collect(whole.id)
            window.append((position, clock(),
                           client.execute_async(chunk)))
        while window:
            collect(whole.id)
    return Pass(whole.seconds, latencies,
                [value for batch in answers for value in batch])


def serve_mixed(run: Run) -> Dict[str, Metric]:
    tracer = run.tracer
    mark = len(tracer.spans)
    path = run.out / "mix.grps"
    server = client = None
    setups, writes, firsts, unpacks = [], [], [], []
    with tracer.span("workload.serve-mixed") as root:
        try:
            for _ in range(run.setup_repeats):
                if server is not None:
                    client.close()
                    stop_server(server)
                    server = None
                with tracer.span("setup", root.id) as whole:
                    with tracer.span("fixture.generate", whole.id):
                        graph, alphabet = mix_graph(MIX_SERVED * run.scale)
                    if tracer.record:
                        with tracer.span("partition.bfs_partition",
                                         whole.id):
                            bfs_partition(graph, SHARDS)
                    with tracer.span("sharding.compress",
                                     whole.id) as squeezed:
                        built = ShardedCompressedGraph.compress(
                            graph, alphabet, shards=SHARDS,
                            partitioner="bfs")
                    with tracer.span("partition.closure_build",
                                     whole.id) as closed:
                        built.warm_closure()
                    with tracer.span("encoding.encode",
                                     whole.id) as encoded:
                        built.save(path)
                    with tracer.span("serving.first_answer",
                                     whole.id) as first:
                        server, endpoint = start_server(
                            tracer, first.id, path, run.out,
                            run.server_cpus)
                        with tracer.span("serving.connect", first.id):
                            client = connect(endpoint)
                        client.query("reach", 1, built.node_count())
                setups.append(whole.seconds)
                writes.append(squeezed.seconds + closed.seconds
                              + encoded.seconds)
                firsts.append(first.seconds)
                unpacks.append(decompress_seconds(
                    tracer, root.id,
                    lambda: ShardedCompressedGraph.open(path)))
            edges = graph.num_edges
            order = node_order(built.decompress())

            # Phase A: one strict client, one request per frame.
            strict = request_list(run.rng("strict"),
                                  run.count(STRICT_REQUESTS), order)
            strict_digest = hash(tuple(strict))
            ask = {kind: (lambda *args, kind=kind:
                          client.query(kind, *args)) for kind in KINDS}

            def strict_pass(share: float = 1.0) -> Pass:
                same_list(strict, strict_digest)
                cut = max(1, int(share * len(strict)))
                return single_pass(tracer, root.id, "serving.strict.",
                                   ask, strict[:cut])

            strict_pass(WARMUP_SHARE)
            strict_passes = run.passes("serve-mixed", strict_pass,
                                       kept=SERVED_PASSES)
            pings = []
            if tracer.record:
                for _ in range(200):
                    with tracer.span("serving.ping", root.id) as ping:
                        client.ping()
                    pings.append(ping.seconds)
            client.close()

            # Phase B: one pipelined client, 4 x 32 requests in flight.
            piped = request_list(run.rng("pipelined"),
                                 run.count(PIPELINED_REQUESTS, WIRE_BATCH),
                                 order)
            piped_digest = hash(tuple(piped))
            client = connect(endpoint, pipeline=True)

            def piped_pass(share: float = 1.0) -> Pass:
                same_list(piped, piped_digest)
                chunks = chunked(piped, WIRE_BATCH)
                chunks = chunks[:max(1, int(share * len(chunks)))]
                return pipelined_pass(tracer, root.id, client, chunks)

            piped_pass(WARMUP_SHARE)
            piped_passes = run.passes("serve-mixed", piped_pass,
                                      kept=SERVED_PASSES)
        finally:
            if client is not None:
                client.close()
            if server is not None:
                stop_server(server)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

    # -- after timing: correctness, against an in-process open ---------
    truth = ShardedCompressedGraph.open(path)
    oracle = Oracle(truth.decompress(), truth.alphabet)
    run.score(oracle, strict, strict_passes)
    run.score(oracle, piped, piped_passes)

    if tracer.record:
        _serving_layers(run, tracer.spans[mark:], path, strict, piped,
                        strict_passes[0], piped_passes[0], pings)
    return {
        "setup_s": (min(setups), "s"),
        "compress_edges_per_s": (edges / min(writes), "1/s"),
        "decompress_edges_per_s": (edges / min(unpacks), "1/s"),
        "bits_per_edge": (8.0 * path.stat().st_size / edges,
                          "bits/edge"),
        "queries_per_s": (
            len(piped) / min(one.seconds for one in piped_passes), "1/s"),
        **latency_metrics(run, "serve-mixed", strict_passes),
        "first_answer_ms": (min(firsts) * 1e3, "ms"),
        "peak_rss_mb": rss,
    }


def _serving_layers(run: Run, spans: Sequence[Span], path: Path,
                    strict: Sequence[Request], piped: Sequence[Request],
                    strict_pass: Pass, piped_pass: Pass,
                    pings: Sequence[float]) -> None:
    """Sharding with no wire, the wire with no sharding, and counts."""
    layer = run.layer
    tracer = run.tracer
    for metric, span in (
            ("partition.bfs_partition_s", "partition.bfs_partition"),
            ("partition.closure_build_s", "partition.closure_build"),
            ("sharding.compress_s", "sharding.compress"),
            ("serving.start_s", "serving.start"),
            ("serving.connect_s", "serving.connect")):
        layer[metric] = (statistics.median(durations(spans, span)), "s")

    with tracer.span("encoding.grps.open") as opened:
        inproc = ShardedCompressedGraph.open(path, cache_size=0)
    layer["encoding.grps.open_s"] = (opened.seconds, "s")
    container = decode_sharded_container(map_file(path))
    container.meta
    container.shards
    container.closure
    layer["encoding.grps.materialized_bytes"] = (
        container.materialized_bytes, "bytes")
    stats = inproc.partition_stats
    layer["partition.cut_ratio"] = (stats["cut_ratio"], "ratio")
    layer["partition.balance"] = (stats["balance"], "ratio")
    layer["partition.closure_bytes"] = (inproc.sizes["closure"], "bytes")
    pairs = [(source, target) for source in range(SHARDS)
             for target in range(SHARDS)]
    layer["partition.planner.closure_share"] = (
        sum(inproc.planner.strategy(source, target, inproc.closure_built)
            == "closure" for source, target in pairs) / len(pairs),
        "share")

    # The phase-A list on the same container in-process: sharding and
    # planner cost with no wire.
    inproc.warm()
    mark = len(tracer.spans)
    local = single_pass(tracer, None, "sharding.inproc.",
                        methods(inproc), strict)
    run.attempted += len(strict)
    run.failed += sum(a != b for a, b in zip(local.answers,
                                             strict_pass.answers))
    kind_metrics(layer, tracer.spans[mark:], "sharding.inproc.",
                 ("out", "reach", "rpq", "path"), median=False)
    layer["sharding.inproc.queries_per_s"] = (
        len(strict) / local.seconds, "1/s")
    served_p50 = statistics.median(strict_pass.latencies)
    layer["serving.wire_overhead_ms"] = (
        (served_p50 - statistics.median(local.latencies)) * 1e3, "ms")
    layer["serving.ping_rtt_us"] = (statistics.median(pings) * 1e6, "us")

    # Codec cost per 32-request batch, default codec, both directions.
    encodes, decodes = [], []
    for position, chunk in enumerate(chunked(piped, WIRE_BATCH)):
        values = piped_pass.answers[position * WIRE_BATCH:
                                    (position + 1) * WIRE_BATCH]
        reply = encode_frame({"op": "results", "results": results_to_wire(
            [QueryResult(id=index, value=value)
             for index, value in enumerate(values)])})
        with tracer.span("serving.codec.encode") as encoded:
            encode_frame({"op": "batch",
                          "requests": requests_to_wire(chunk)})
        with tracer.span("serving.codec.decode") as decoded:
            results_from_wire(decode_frame(reply)[1]["results"])
        encodes.append(encoded.seconds)
        decodes.append(decoded.seconds)
    layer["serving.codec.encode_us"] = (
        statistics.median(encodes) * 1e6, "us")
    layer["serving.codec.decode_us"] = (
        statistics.median(decodes) * 1e6, "us")

    # Router-to-shard exchanges per query: only readable in-process.
    with serve(path, cache_size=0) as server:
        proxies = server.service.shards
        with connect(server.endpoint) as client:
            before = sum(proxy.round_trips for proxy in proxies)
            for kind, *args in strict:
                client.query(kind, *args)
            trips = sum(proxy.round_trips for proxy in proxies) - before
    layer["serving.shard_round_trips_per_query"] = (
        trips / len(strict), "count")


RUNNERS: Dict[str, Callable[[Run], Dict[str, Metric]]] = {
    "compress-families": compress_families,
    "local-uniform": local_uniform,
    "local-hot": local_hot,
    "serve-mixed": serve_mixed,
}
