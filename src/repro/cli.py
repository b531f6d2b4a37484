"""Command-line interface: compress, inspect, query — and serve.

A thin production-style front end over
:class:`repro.api.CompressedGraph` and
:class:`repro.sharding.ShardedCompressedGraph`, so the compressor is
usable without writing Python::

    python -m repro.cli compress graph.tsv graph.grpr
    python -m repro.cli compress graph.tsv graph.grps --shards 4 --parallel
    python -m repro.cli compress graph.tsv graph.grps --shards 4 \
        --parallel process
    python -m repro.cli stats graph.grpr
    python -m repro.cli decompress graph.grpr roundtrip.tsv
    python -m repro.cli query graph.grpr reach 4 17
    python -m repro.cli query graph.grps out 4
    python -m repro.cli query graph.grps rpq 'a(b|c)*' 4 17
    python -m repro.cli query graph.grps pattern-count digram a b
    python -m repro.cli serve graph.grps --address 127.0.0.1:8437
    python -m repro.cli serve graph.grps --replicas 2
    python -m repro.cli shard-serve graph.grps --shard 1 --epoch 3
    python -m repro.cli manifest graph.grps cluster.json \
        --endpoints 10.0.0.5:9000,10.0.0.6:9000 10.0.0.7:9000
    python -m repro.cli serve --manifest cluster.json
    python -m repro.cli connect 127.0.0.1:8437 rpq 'a(b|c)*' 4 17
    python -m repro.cli connect 127.0.0.1:8437 --info

``serve`` starts the socket deployment of
:mod:`repro.serving.router` — one forked process per shard
(``--replicas N`` forks N failover copies of each) plus a router
multiplexing planned batches — and blocks until interrupted.  For
multi-host topologies the pieces start independently: ``shard-serve``
brings up one shard standalone, ``manifest`` writes the cluster file
naming every shard's replica endpoints, and ``serve --manifest``
starts a router over those pre-existing servers (validating the
container hash and epoch of each before answering).  ``connect`` runs
the same query surface as ``query`` against a running server,
printing identical output (so scripts can switch between a local file
and a served endpoint by swapping one word).

Graphs are read/written as edge lists (``source target [label]`` per
line, ``#`` comments allowed); compressed grammars use the paper's
binary container format — single-grammar ("GRPR") or multi-shard
("GRPS"), selected at compression time with ``--shards`` and
auto-detected everywhere else.  Every subcommand reports library
errors (:class:`repro.exceptions.ReproError`) and I/O failures on
stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro import (
    CompressedGraph,
    GRePairSettings,
    ShardedCompressedGraph,
    open_compressed,
)
from repro.core.orders import NODE_ORDERS
from repro.datasets.io import read_edge_list, write_edge_list
from repro.exceptions import ReproError
from repro.sharding import PARTITIONERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gRePair grammar-based graph compression "
                    "(Maneth & Peternek, ICDE 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compress", help="edge list -> .grpr")
    comp.add_argument("input", type=Path)
    comp.add_argument("output", type=Path)
    comp.add_argument("--max-rank", type=int, default=4,
                      help="maximal digram rank (paper default: 4)")
    comp.add_argument("--order", choices=sorted(NODE_ORDERS),
                      default="fp", help="node order (default: fp)")
    comp.add_argument("--seed", type=int, default=0,
                      help="seed for the random order")
    comp.add_argument("--no-virtual-edges", action="store_true",
                      help="disable the disconnected-components pass")
    comp.add_argument("--no-prune", action="store_true",
                      help="disable grammar pruning")
    comp.add_argument("--no-names", action="store_true",
                      help="drop label names from the output")
    comp.add_argument("--no-validate", action="store_true",
                      help="skip the post-run grammar validity check "
                           "(for tight benchmark loops)")
    comp.add_argument("--shards", type=int, default=1,
                      help="partition across N per-shard grammars "
                           "(writes a multi-shard container; default 1)")
    comp.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                      default="hash",
                      help="node-to-shard assignment (default: hash; "
                           "connectivity keeps components together; "
                           "bfs/label minimize the edge cut so even a "
                           "single component splits cleanly)")
    comp.add_argument("--closure", action="store_true",
                      help="build the boundary transitive closure and "
                           "persist it in the container, so servers "
                           "answer cross-shard reach without a warm-up "
                           "rebuild (needs --shards > 1)")
    comp.add_argument("--parallel", nargs="?", const="thread",
                      choices=["thread", "process"], default=None,
                      help="compress shards concurrently: 'thread' "
                           "(the default when the flag is given bare) "
                           "or 'process' (forked workers, one "
                           "compression per core; only meaningful "
                           "with --shards > 1)")

    dec = sub.add_parser("decompress", help=".grpr -> edge list")
    dec.add_argument("input", type=Path)
    dec.add_argument("output", type=Path)

    stats = sub.add_parser("stats", help="inspect a .grpr container")
    stats.add_argument("input", type=Path)
    stats.add_argument("--timing", action="store_true",
                       help="also measure cold/warm open time and "
                            "report per-section bytes materialized "
                            "by the decoder (full open vs a "
                            "single-shard lazy open)")

    query = sub.add_parser("query", help="evaluate queries on a .grpr")
    query.add_argument("input", type=Path)
    query.add_argument("kind",
                       choices=["reach", "out", "in", "neighborhood",
                                "degree", "path", "components",
                                "nodes", "edges", "rpq",
                                "pattern-count", "out-edges"])
    query.add_argument("args", nargs="*",
                       help="node IDs (reach/path: two; out/in/"
                            "neighborhood/degree/out-edges: one); "
                            "rpq: PATTERN SRC DST; pattern-count: "
                            "SUBKIND plus its arguments")

    srv = sub.add_parser("serve",
                         help="serve a container on a socket "
                              "(forked shard processes + a router, "
                              "or --manifest for remote shards)")
    srv.add_argument("input", type=Path, nargs="?", default=None,
                     help="the container to serve (optional with "
                          "--manifest when the manifest names one)")
    srv.add_argument("--address", default="127.0.0.1:0",
                     help="endpoint to bind: 'host:port' (port 0 "
                          "picks a free one) or 'unix:/path' "
                          "(default: 127.0.0.1:0)")
    srv.add_argument("--cache-size", type=int, default=None,
                     help="router-side query-result LRU capacity "
                          "(default: the library default)")
    srv.add_argument("--pipeline", type=int, default=None,
                     help="concurrently evaluating batches per server "
                          "process (the event loop's worker pool; "
                          "default: 16)")
    srv.add_argument("--replicas", type=int, default=1,
                     help="forked replica processes per shard "
                          "(round-robin reads + failover; default: 1)")
    srv.add_argument("--manifest", type=Path, default=None,
                     help="route to pre-existing shard servers named "
                          "by this cluster-manifest file instead of "
                          "forking loopback children")
    srv.add_argument("--shard-timeout", type=float, default=None,
                     help="per-request timeout on router-to-shard "
                          "links, seconds (default: 30)")
    srv.add_argument("--ready-file", type=Path, default=None,
                     help="write the bound endpoint to this file "
                          "once serving (for scripts and tests)")

    shardsrv = sub.add_parser(
        "shard-serve",
        help="serve ONE shard of a container standalone (the "
             "building block of a --manifest deployment)")
    shardsrv.add_argument("input", type=Path)
    shardsrv.add_argument("--shard", type=int, default=0,
                          help="which shard of the container to "
                               "serve (default: 0)")
    shardsrv.add_argument("--address", default="127.0.0.1:0",
                          help="endpoint to bind (default: "
                               "127.0.0.1:0)")
    shardsrv.add_argument("--epoch", type=int, default=0,
                          help="deployment generation reported to "
                               "routers (default: 0)")
    shardsrv.add_argument("--cache-size", type=int, default=None,
                          help="query-result LRU capacity")
    shardsrv.add_argument("--pipeline", type=int, default=None,
                          help="concurrently evaluating batches "
                               "(default: 16)")
    shardsrv.add_argument("--ready-file", type=Path, default=None,
                          help="write the bound endpoint to this "
                               "file once serving")

    man = sub.add_parser(
        "manifest",
        help="write a cluster-manifest file for already-running "
             "shard servers")
    man.add_argument("input", type=Path,
                     help="the container the shard servers decoded")
    man.add_argument("output", type=Path,
                     help="manifest file to write (JSON)")
    man.add_argument("--endpoints", nargs="+", required=True,
                     metavar="EP[,EP...]",
                     help="one argument per shard: that shard's "
                          "replica endpoints, comma-separated")
    man.add_argument("--epoch", type=int, default=0,
                     help="deployment generation (default: 0)")

    conn = sub.add_parser("connect",
                          help="run a query against a served graph")
    conn.add_argument("endpoint",
                      help="a serve endpoint: 'host:port' or "
                           "'unix:/path'")
    conn.add_argument("kind", nargs="?",
                      choices=["reach", "out", "in", "neighborhood",
                               "degree", "path", "components",
                               "nodes", "edges", "rpq",
                               "pattern-count", "out-edges"])
    conn.add_argument("args", nargs="*",
                      help="node IDs (reach/path: two; out/in/"
                           "neighborhood/degree/out-edges: one); "
                           "rpq: PATTERN SRC DST; pattern-count: "
                           "SUBKIND plus its arguments")
    conn.add_argument("--info", action="store_true",
                      help="print the server's self-description "
                           "instead of querying")

    return parser


def _cmd_compress(args: argparse.Namespace) -> int:
    graph, alphabet, _ = read_edge_list(args.input)
    settings = GRePairSettings(
        max_rank=args.max_rank,
        order=args.order,
        seed=args.seed,
        virtual_edges=not args.no_virtual_edges,
        prune=not args.no_prune,
    )
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if args.closure and args.shards <= 1:
        raise ReproError("--closure needs --shards > 1 (a single "
                         "grammar has no boundary to close)")
    if args.closure and any(len(edge.att) != 2
                            for _, edge in graph.edges()):
        # Fail before paying the compression: reach (and hence the
        # closure) is only defined on simple graphs.
        raise ReproError("--closure requires a simple graph "
                         "(rank-2 edges only); the input has a "
                         "hyperedge")
    save_kwargs = {"include_names": not args.no_names}
    if args.shards > 1:
        handle = ShardedCompressedGraph.compress(
            graph, alphabet, settings,
            shards=args.shards,
            partitioner=args.partitioner,
            parallel=args.parallel,
            validate=not args.no_validate,
        )
        if args.closure:
            save_kwargs["include_closure"] = True
    else:
        handle = CompressedGraph.compress(graph, alphabet, settings,
                                          validate=not args.no_validate)
    blob = handle.save(args.output, **save_kwargs)
    bpe = blob.bits_per_edge(max(1, graph.num_edges))
    print(f"{args.input}: |V|={graph.node_size} |E|={graph.num_edges}")
    print(f"grammar: {handle.summary()}")
    print(f"output:  {blob.total_bytes} bytes ({bpe:.2f} bpe) "
          f"-> {args.output}")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    handle = open_compressed(args.input)
    graph = handle.decompress()
    write_edge_list(graph, handle.alphabet, args.output)
    print(f"{args.input}: {handle.summary()} -> "
          f"|V|={graph.node_size} |E|={graph.num_edges} "
          f"-> {args.output}")
    return 0


def _stats_timing(path: Path, cold_seconds: float) -> None:
    """The ``stats --timing`` tail: open times + materialization.

    The cold open is the one :func:`_cmd_stats` already paid (first
    decode in this process); the warm open repeats it with the page
    cache and mmap hot.  The materialization report replays the
    container's span decoder twice — a full open (every section
    copied, what a local handle pays) and a shard-0-only lazy open
    (what a :class:`~repro.serving.router.ShardHost` pays) — and
    prints the :attr:`DecodedContainer.materialized_sections`
    counters of each.
    """
    import time

    from repro.encoding.container import (
        decode_sharded_container,
        is_sharded_container,
        map_file,
    )

    start = time.perf_counter()
    open_compressed(path)
    warm_seconds = time.perf_counter() - start
    print(f"cold open:      {cold_seconds * 1e3:.2f} ms")
    print(f"warm open:      {warm_seconds * 1e3:.2f} ms")

    data = map_file(path)
    if not is_sharded_container(data):
        total = len(data)
        print(f"materialized:   {total}/{total} bytes (100.0%; "
              f"single-grammar containers decode eagerly)")
        return

    full = decode_sharded_container(data)
    full.meta
    for index in range(full.num_shards):
        full.shard(index)
    if full.has_closure:
        full.closure
    if full.has_rpq_closures:
        full.rpq_closures
    breakdown = ", ".join(f"{name}={size}" for name, size
                          in full.materialized_sections.items())
    print(f"materialized:   {full.materialized_bytes}/"
          f"{full.total_bytes} bytes "
          f"({full.materialized_bytes / full.total_bytes:.1%} "
          f"full open)")
    print(f"  sections:     {breakdown}")

    lazy = decode_sharded_container(data)
    lazy.shard(0)
    print(f"  shard 0 only: {lazy.materialized_bytes}/"
          f"{lazy.total_bytes} bytes "
          f"({lazy.materialized_bytes / lazy.total_bytes:.1%} "
          f"lazy open)")


def _cmd_stats(args: argparse.Namespace) -> int:
    import time

    start = time.perf_counter()
    handle = open_compressed(args.input)
    cold_seconds = time.perf_counter() - start
    sections = handle.sizes
    print(f"container:      {handle.total_bytes} bytes")
    if sections:
        breakdown = ", ".join(f"{name}={size}"
                              for name, size in sections.items())
        print(f"sections:       {breakdown}")
    if isinstance(handle, ShardedCompressedGraph):
        partition = handle.partition_stats
        print(f"shards:         {handle.num_shards}")
        print(f"partitioner:    {handle.stats['partitioner']}")
        print(f"boundary edges: {handle.boundary_edge_count}")
        print(f"cut ratio:      {partition['cut_ratio']:.3f}")
        print(f"shard balance:  {partition['balance']:.2f}")
        print(f"closure:        "
              f"{'persisted' if handle.closure_persisted else 'absent'}")
        for index, shard in enumerate(handle.shards):
            grammar = shard.grammar
            print(f"shard {index}:        {grammar.num_rules} rules, "
                  f"|G|={grammar.size}, "
                  f"{shard.node_count()} derived nodes")
    else:
        grammar = handle.grammar
        print(f"rules:          {grammar.num_rules}")
        print(f"grammar size:   |G| = {grammar.size}")
        print(f"grammar height: {grammar.height()}")
        print(f"start graph:    {grammar.start.node_size} nodes, "
              f"{grammar.start.num_edges} edges")
    print(f"derived graph:  {handle.node_count()} nodes, "
          f"{handle.edge_count()} edges")
    edges = max(1, handle.edge_count())
    print(f"bpe:            {8.0 * handle.total_bytes / edges:.2f}")
    cache = handle.cache_info
    print(f"query cache:    capacity={cache['capacity']} "
          f"hits={cache['hits']} misses={cache['misses']}")
    if args.timing:
        _stats_timing(args.input, cold_seconds)
    return 0


def _require_arity(kind: str, args: List[str], arity: int) -> None:
    if len(args) != arity:
        noun = "node ID" if arity == 1 else "node IDs"
        raise ReproError(f"{kind} needs exactly {arity} {noun}")


def _as_int(kind: str, value: str, what: str = "node ID") -> int:
    try:
        return int(value)
    except ValueError:
        raise ReproError(f"{kind} expects an integer {what}, "
                         f"got {value!r}")


def _run_query(ask: Callable[..., Any], kind: str,
               args: List[str]) -> int:
    """Evaluate and print one query through any query surface.

    ``ask(kind, *args)`` answers a single request — a local handle or
    a :class:`repro.serving.GraphClient` — so ``query`` (file) and
    ``connect`` (socket) print byte-identical output for the same
    graph.  Arguments arrive as strings (RPQ patterns and
    pattern-count label names are not integers); each branch converts
    its node IDs.
    """
    if kind == "reach":
        _require_arity(kind, args, 2)
        source, target = (_as_int(kind, arg) for arg in args)
        answer = ask("reach", source, target)
        print(f"reach({source}, {target}) = {answer}")
        return 0 if answer else 1
    if kind == "rpq":
        if len(args) != 3:
            raise ReproError("rpq needs a pattern and two node IDs, "
                             "e.g. rpq 'a(b|c)*' 4 17")
        pattern = args[0]
        source = _as_int(kind, args[1])
        target = _as_int(kind, args[2])
        answer = ask("rpq", pattern, source, target)
        print(f"rpq({pattern!r}, {source}, {target}) = {answer}")
        return 0 if answer else 1
    if kind == "pattern-count":
        if not args:
            raise ReproError(
                "pattern-count needs a sub-kind (label / digram / "
                "star / node_out / node_in) plus its arguments")
        sub_kind = args[0].replace("-", "_")
        rest: List[Any] = list(args[1:])
        if sub_kind == "star" and len(rest) == 2:
            rest[1] = _as_int(kind, rest[1], "star threshold")
        elif sub_kind in ("node_out", "node_in") and len(rest) == 2:
            rest[1] = _as_int(kind, rest[1])
        print(ask("pattern_count", sub_kind, *rest))
        return 0
    if kind == "out-edges":
        _require_arity(kind, args, 1)
        for label, target in ask("out_edges", _as_int(kind, args[0])):
            print(f"{label} {target}")
        return 0
    if kind == "path":
        _require_arity(kind, args, 2)
        path = ask("path", *(_as_int(kind, arg) for arg in args))
        if path is None:
            print("none")
            return 1
        print(" ".join(map(str, path)))
        return 0
    if kind in ("out", "in", "neighborhood"):
        _require_arity(kind, args, 1)
        print(" ".join(map(str, ask(kind, _as_int(kind, args[0])))))
        return 0
    if kind == "degree":
        if not args:
            # Extrema count every edge (true degrees, one grammar pass).
            extrema = ask("degree")
            for name in ("max_out", "min_out", "max_in", "min_in",
                         "max", "min"):
                print(f"{name}: {extrema[name]}")
            return 0
        _require_arity(kind, args, 1)
        node = _as_int(kind, args[0])
        print(f"out={ask('degree', node, 'out')} "
              f"in={ask('degree', node, 'in')} (distinct neighbors)")
        return 0
    if kind == "components":
        print(ask("components"))
        return 0
    if kind == "nodes":
        print(ask("nodes"))
        return 0
    print(ask("edges"))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    handle = open_compressed(args.input)

    def ask(kind: str, *query_args: Any) -> Any:
        return handle.execute([(kind, *query_args)])[0].unwrap()

    return _run_query(ask, args.kind, args.args)


def _serve_until_signalled(server: Any, banner: str,
                           ready_file: Optional[Path]) -> int:
    import signal

    # SIGTERM must tear the shard processes down like Ctrl-C does.
    def _terminate(*_: Any) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        print(banner, flush=True)
        if ready_file is not None:
            ready_file.write_text(server.endpoint + "\n")
        try:
            while True:
                signal.pause()
        except (KeyboardInterrupt, SystemExit):
            pass
        return 0
    finally:
        server.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import DEFAULT_SHARD_TIMEOUT, serve

    if args.input is None and args.manifest is None:
        raise ReproError("serve needs a container path or --manifest")
    timeout = (DEFAULT_SHARD_TIMEOUT if args.shard_timeout is None
               else args.shard_timeout)
    server = serve(args.input, address=args.address,
                   cache_size=args.cache_size, pipeline=args.pipeline,
                   replicas=args.replicas, manifest=args.manifest,
                   shard_timeout=timeout)
    what = args.input if args.input is not None else args.manifest
    banner = (f"serving {what} ({server.num_shards} shard"
              f"{'s' if server.num_shards != 1 else ''}) "
              f"at {server.endpoint}")
    return _serve_until_signalled(server, banner, args.ready_file)


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from repro.serving import ShardHost

    host = ShardHost(args.input, shard=args.shard,
                     address=args.address, epoch=args.epoch,
                     cache_size=args.cache_size,
                     pipeline=args.pipeline)
    host.start()
    banner = (f"serving shard {args.shard} of {args.input} "
              f"(epoch {args.epoch}) at {host.endpoint}")
    return _serve_until_signalled(host, banner, args.ready_file)


def _cmd_manifest(args: argparse.Namespace) -> int:
    from repro.encoding.container import (
        decode_sharded_container,
        is_sharded_container,
    )
    from repro.serving import ClusterManifest

    data = args.input.read_bytes()
    shards = tuple(
        tuple(part for part in group.split(",") if part)
        for group in args.endpoints
    )
    if any(not group for group in shards):
        raise ReproError("every shard needs at least one endpoint")
    if is_sharded_container(data):
        num_shards = decode_sharded_container(data).num_shards
    else:
        num_shards = 1
    if len(shards) != num_shards:
        raise ReproError(
            f"{args.input} holds {num_shards} shard"
            f"{'s' if num_shards != 1 else ''} but --endpoints "
            f"names {len(shards)} group"
            f"{'s' if len(shards) != 1 else ''}")
    manifest = ClusterManifest.for_container(
        data, shards, epoch=args.epoch, container=args.input)
    manifest.save(args.output)
    print(f"wrote {args.output}: {len(shards)} shard"
          f"{'s' if len(shards) != 1 else ''}, "
          f"epoch {args.epoch}")
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    from repro.serving import connect
    with connect(args.endpoint) as client:
        if args.info:
            for key, value in sorted(client.info().items()):
                print(f"{key}: {value}")
            return 0
        if args.kind is None:
            raise ReproError("connect needs a query kind "
                             "(or --info)")
        return _run_query(client.query, args.kind, args.args)


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "shard-serve": _cmd_shard_serve,
    "manifest": _cmd_manifest,
    "connect": _cmd_connect,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Library errors (every :class:`ReproError` subclass) and I/O
    failures print ``error: ...`` to stderr and exit with code 2,
    uniformly across subcommands.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
