"""Container file format tying alphabet, start graph and rules together.

Layout (all byte-aligned sections, lengths as LEB128 varints)::

    magic   "GRPR"                     4 bytes
    version 0x01                       1 byte
    k       varint                     k2-tree arity (2 by default)
    [alphabet section]   varint length + payload
    [start section]      varint bit length + payload (padded to bytes)
    [rules section]      varint bit length + payload (padded to bytes)

The alphabet section stores every label's rank, a terminal flag and an
optional UTF-8 name, so a decoded grammar is fully self-describing
(RDF predicates keep their names).

:class:`GrammarFile` is the user-facing handle: it knows its section
sizes (the paper reports that the start-graph k2-trees dominate the
output; :attr:`GrammarFile.section_bytes` lets benchmarks verify that)
and converts to/from ``bytes`` and files.

Multi-shard framing
-------------------
:class:`repro.sharding.ShardedCompressedGraph` persists one grammar per
shard plus a routing summary.  The framing lives here so every
container kind shares one magic-dispatch and one size-accounting
convention::

    magic   "GRPS"                     4 bytes
    version 0x01                       1 byte
    shards  varint                     number of shard grammars
    [meta section]       varint length + payload (routing summary,
                         encode_sharded_meta / decode_sharded_meta)
    per shard: varint length + a complete "GRPR" container
    [closure section]    optional: tag 'C' + varint length + payload
                         (the one-state boundary closure: the body
                         repro.partition.BoundaryClosure.to_bytes
                         writes — count, delta-coded nodes, rows)
    [rpq closures]       optional: tag 'R' + varint length + payload
                         (encode_closure_table / decode_closure_table:
                         count, then per pattern a length-prefixed
                         canonical DFA and a length-prefixed state
                         count + the same closure body)

Every byte layout of the format is in this module; the closure body
and the DFA bytes are opaque here and belong to their classes.  The
trailer sections are optional and tagged: old files (which end exactly
at the last shard blob) keep decoding, while an *unknown* tag is
rejected as corruption — adding a new trailer section therefore goes
hand in hand with teaching this decoder its tag (readers predating a
section cannot open files that carry it).  A persisted closure lets a
cold-started server answer cross-shard queries without re-probing the
shards.

:func:`sharded_container_sections` reports ``meta`` (plus ``closure``
when present) next to the existing per-section accounting of every
embedded shard container under ``shard<i>/<section>`` keys, so
benchmarks keep the same size breakdown they have for single grammars.

Zero-copy decode
----------------
Nothing in the framing requires the payloads up front:
:func:`decode_sharded_container` parses only the length headers and
returns a :class:`DecodedContainer` whose sections are *spans* into the
source buffer, materialized (copied into owned ``bytes``) one at a time
on first access.  Files enter as ``mmap``-backed memoryviews
(:func:`map_file`, used by :meth:`GrammarFile.read` /
:meth:`ShardedFile.read`), so a :class:`~repro.serving.router.ShardHost`
opening a many-shard container copies exactly its own shard blob, and a
manifest-mode router copies only the meta and closure trailers — the
kernel never even pages in the shards it does not touch.  The
:attr:`DecodedContainer.materialized_bytes` counter is the observable
the cold-open benchmark gate checks.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, \
    Union

from repro.core.alphabet import Alphabet
from repro.core.grammar import SLHRGrammar
from repro.exceptions import EncodingError
from repro.util.bitio import BitReader, BitWriter
from repro.util.varint import read_uvarint, write_uvarint
from repro.encoding.rules import decode_rules, encode_rules
from repro.encoding.startgraph import decode_start_graph, encode_start_graph

_MAGIC = b"GRPR"
_SHARDED_MAGIC = b"GRPS"
_VERSION = 1

#: Anything the decoders accept: parsing indexes single bytes and
#: compares slices, both of which memoryviews support, so file-backed
#: containers never round-trip through an up-front ``read_bytes`` copy.
Buffer = Union[bytes, bytearray, memoryview]


def map_file(path: Union[str, Path]) -> Buffer:
    """Map ``path`` read-only into memory, returning a memoryview.

    The view keeps its ``mmap`` exporter alive, so callers treat the
    result like bytes; pages are faulted in on access rather than read
    eagerly.  Empty files (``mmap`` rejects length 0) and filesystems
    without mmap support fall back to a plain read.
    """
    try:
        with open(path, "rb") as handle:
            return memoryview(mmap.mmap(handle.fileno(), 0,
                                        access=mmap.ACCESS_READ))
    except (ValueError, OSError):
        return Path(path).read_bytes()


@dataclass
class GrammarFile:
    """A serialized grammar plus size accounting.

    ``data`` is any buffer (freshly encoded ``bytes``, or an
    mmap-backed memoryview when loaded with :meth:`read`).
    """

    data: Buffer
    section_bytes: Dict[str, int]

    @property
    def total_bytes(self) -> int:
        """Size of the complete container in bytes."""
        return len(self.data)

    def bits_per_edge(self, num_edges: int) -> float:
        """bpe against a given original edge count (paper's metric)."""
        if num_edges <= 0:
            raise EncodingError("num_edges must be positive for bpe")
        return 8.0 * self.total_bytes / num_edges

    def write(self, path: Union[str, Path]) -> None:
        """Write the container to ``path``."""
        Path(path).write_bytes(self.data)

    @classmethod
    def read(cls, path: Union[str, Path]) -> "GrammarFile":
        """Load a container previously written with :meth:`write`.

        Zero-copy: the data is memory-mapped, not read eagerly.
        """
        data = map_file(path)
        return cls(data=data, section_bytes=container_sections(data))


def container_sections(data: Buffer) -> Dict[str, int]:
    """Per-section byte sizes of a serialized container.

    Parses only the length headers (no payload decoding), so loaded
    containers report the same accounting as freshly encoded ones.
    Returns ``{}`` for data that is not a well-formed container header
    — full validation happens in :func:`decode_grammar`.
    """
    try:
        if len(data) < 6 or data[:4] != _MAGIC or data[4] != _VERSION:
            return {}
        pos = 5
        _, pos = read_uvarint(data, pos)  # k
        alpha_len, pos = read_uvarint(data, pos)
        pos += alpha_len
        start_bits, pos = read_uvarint(data, pos)
        start_bytes = (start_bits + 7) // 8
        pos += start_bytes
        rules_bits, pos = read_uvarint(data, pos)
        rules_bytes = (rules_bits + 7) // 8
        if pos + rules_bytes > len(data):
            return {}
        return {
            "header": 5,
            "alphabet": alpha_len,
            "start": start_bytes,
            "rules": rules_bytes,
        }
    except (EncodingError, IndexError, ValueError):
        return {}


def _encode_alphabet(alphabet: Alphabet, include_names: bool) -> bytes:
    out = bytearray()
    write_uvarint(out, len(alphabet))
    for label in alphabet:
        write_uvarint(out, alphabet.rank(label))
        name = alphabet.name(label) if include_names else None
        flags = (1 if alphabet.is_terminal(label) else 0)
        flags |= (2 if name is not None else 0)
        out.append(flags)
        if name is not None:
            encoded = name.encode("utf-8")
            write_uvarint(out, len(encoded))
            out.extend(encoded)
    return bytes(out)


def _decode_alphabet(data: bytes) -> Alphabet:
    alphabet = Alphabet()
    count, pos = read_uvarint(data, 0)
    if count > 8 * len(data) + 8:
        raise EncodingError("alphabet count exceeds section size")
    for _ in range(count):
        rank, pos = read_uvarint(data, pos)
        if pos >= len(data):
            raise EncodingError("truncated alphabet section")
        flags = data[pos]
        pos += 1
        name = None
        if flags & 2:
            length, pos = read_uvarint(data, pos)
            if pos + length > len(data):
                raise EncodingError("truncated label name")
            try:
                name = bytes(data[pos:pos + length]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(f"corrupt label name: {exc}") \
                    from None
            pos += length
        if flags & 1:
            alphabet.add_terminal(rank, name)
        else:
            alphabet.fresh_nonterminal(rank)
    return alphabet


def _compact_labels(grammar: SLHRGrammar) -> SLHRGrammar:
    """Drop unused nonterminal labels, renumbering the survivors.

    gRePair mints a nonterminal per replaced digram, but pruning
    typically removes most rules again; serializing the dead labels
    would waste alphabet space and inflate every delta-coded label
    reference.  Terminals keep their IDs (all of them, used or not), so
    the derived graph ``val(G)`` is unchanged; only nonterminal IDs are
    compacted.
    """
    from repro.core.alphabet import Alphabet
    from repro.core.hypergraph import Hypergraph

    old = grammar.alphabet
    compact = Alphabet()
    mapping: dict = {}
    for label in old:
        if old.is_terminal(label):
            mapping[label] = compact.add_terminal(old.rank(label),
                                                  old.name(label))
    for label in sorted(grammar.nonterminals()):
        mapping[label] = compact.fresh_nonterminal(old.rank(label))

    def relabel(graph: Hypergraph) -> Hypergraph:
        result = Hypergraph()
        for node in sorted(graph.nodes()):
            result.add_node(node)
        for _, edge in graph.edges():
            result.add_edge(mapping[edge.label], edge.att)
        result.set_external(graph.ext)
        return result

    rebuilt = SLHRGrammar(compact, relabel(grammar.start))
    for lhs in sorted(grammar.nonterminals()):
        rebuilt.add_rule(mapping[lhs], relabel(grammar.rhs(lhs)))
    return rebuilt


def encode_grammar(grammar: SLHRGrammar, k: int = 2,
                   include_names: bool = True) -> GrammarFile:
    """Serialize ``grammar`` (canonicalizing it first) to a container.

    ``include_names=False`` drops label names from the output — this is
    the setting the benchmarks use, matching the paper's convention of
    excluding the RDF dictionary from all size comparisons.
    """
    canonical = _compact_labels(grammar.canonicalize())
    alphabet_bytes = _encode_alphabet(canonical.alphabet, include_names)

    start_writer = BitWriter()
    encode_start_graph(canonical.start, start_writer, k=k)
    start_payload = start_writer.to_bytes()

    rules_writer = BitWriter()
    encode_rules(canonical, rules_writer)
    rules_payload = rules_writer.to_bytes()

    out = bytearray()
    out.extend(_MAGIC)
    out.append(_VERSION)
    write_uvarint(out, k)
    write_uvarint(out, len(alphabet_bytes))
    out.extend(alphabet_bytes)
    write_uvarint(out, len(start_writer))
    out.extend(start_payload)
    write_uvarint(out, len(rules_writer))
    out.extend(rules_payload)
    return GrammarFile(
        data=bytes(out),
        section_bytes={
            "header": 5,
            "alphabet": len(alphabet_bytes),
            "start": len(start_payload),
            "rules": len(rules_payload),
        },
    )


def decode_grammar(source: Union[GrammarFile, Buffer]) -> SLHRGrammar:
    """Rebuild a working grammar from a container.

    The result is canonical: ``val(decoded)`` equals
    ``val(grammar.canonicalize())`` of the encoded grammar node for
    node.
    """
    data = source.data if isinstance(source, GrammarFile) else source
    if len(data) < 6:
        raise EncodingError("container too short")
    if data[:4] != _MAGIC:
        raise EncodingError("not a grammar container (bad magic)")
    if data[4] != _VERSION:
        raise EncodingError(f"unsupported container version {data[4]}")
    pos = 5
    k, pos = read_uvarint(data, pos)

    alpha_len, pos = read_uvarint(data, pos)
    alphabet = _decode_alphabet(data[pos:pos + alpha_len])
    pos += alpha_len

    start_bits, pos = read_uvarint(data, pos)
    start_bytes = (start_bits + 7) // 8
    start_reader = BitReader(data[pos:pos + start_bytes], start_bits)
    start = decode_start_graph(start_reader, alphabet, k=k)
    pos += start_bytes

    rules_bits, pos = read_uvarint(data, pos)
    rules_bytes = (rules_bits + 7) // 8
    rules_reader = BitReader(data[pos:pos + rules_bytes], rules_bits)
    grammar = SLHRGrammar(alphabet, start)
    decode_rules(rules_reader, alphabet, grammar)
    grammar.validate()
    return grammar


# ----------------------------------------------------------------------
# Multi-shard container framing
# ----------------------------------------------------------------------
@dataclass
class ShardedFile:
    """A serialized multi-shard container plus size accounting.

    Mirrors :class:`GrammarFile` for the sharded format: the
    ``section_bytes`` breakdown nests every shard's own sections under
    ``shard<i>/<section>`` keys next to the framing's ``meta`` entry.
    """

    data: Buffer
    section_bytes: Dict[str, int]

    @property
    def total_bytes(self) -> int:
        """Size of the complete container in bytes."""
        return len(self.data)

    def bits_per_edge(self, num_edges: int) -> float:
        """bpe against a given original edge count (paper's metric)."""
        if num_edges <= 0:
            raise EncodingError("num_edges must be positive for bpe")
        return 8.0 * self.total_bytes / num_edges

    def write(self, path: Union[str, Path]) -> None:
        """Write the container to ``path``."""
        Path(path).write_bytes(self.data)

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ShardedFile":
        """Load a container previously written with :meth:`write`.

        Zero-copy: the data is memory-mapped, not read eagerly.
        """
        data = map_file(path)
        return cls(data=data,
                   section_bytes=sharded_container_sections(data))


def container_arity(blob: Buffer) -> int:
    """The k2-tree arity a "GRPR" container's header records."""
    return read_uvarint(blob, 5)[0]


def is_sharded_container(data: Buffer) -> bool:
    """True when ``data`` frames a multi-shard ("GRPS") container."""
    return len(data) >= 5 and data[:4] == _SHARDED_MAGIC


#: Trailer-section tags -> section names, in the order the writer
#: emits them: ``'C'`` is the (one-state) boundary transitive closure,
#: ``'R'`` the per-pattern closure table.
_TRAILER_TAGS = {0x43: "closure", 0x52: "rpq_closures"}


def encode_sharded_container(meta: bytes,
                             shard_blobs: Sequence[bytes],
                             closure: Optional[bytes] = None,
                             rpq_closures: Optional[bytes] = None
                             ) -> ShardedFile:
    """Frame a routing summary plus per-shard "GRPR" blobs.

    ``meta`` is an :func:`encode_sharded_meta` payload; every shard
    blob must be a complete single-grammar container so the per-shard
    section accounting can be reused as-is.  ``closure`` (the body of
    the one-state :class:`repro.partition.boundary.BoundaryClosure`)
    and ``rpq_closures`` (an :func:`encode_closure_table` payload) are
    written as tagged trailer sections when given.
    """
    if not shard_blobs:
        raise EncodingError("a sharded container needs >= 1 shard")
    sections: Dict[str, int] = {"header": 5, "meta": len(meta)}
    out = bytearray()
    out.extend(_SHARDED_MAGIC)
    out.append(_VERSION)
    write_uvarint(out, len(shard_blobs))
    write_uvarint(out, len(meta))
    out.extend(meta)
    for index, blob in enumerate(shard_blobs):
        if blob[:4] != _MAGIC:
            raise EncodingError(
                f"shard {index} is not a grammar container (bad magic)"
            )
        write_uvarint(out, len(blob))
        out.extend(blob)
        for section, size in container_sections(blob).items():
            sections[f"shard{index}/{section}"] = size
    for (tag, name), payload in zip(_TRAILER_TAGS.items(),
                                    (closure, rpq_closures)):
        if payload is not None:
            out.append(tag)
            write_uvarint(out, len(payload))
            out.extend(payload)
            sections[name] = len(payload)
    return ShardedFile(data=bytes(out), section_bytes=sections)


#: One parsed section: ``(start offset, byte length)`` into the buffer.
_Span = Tuple[int, int]


class DecodedContainer:
    """A parsed "GRPS" framing with lazily materialized sections.

    Holds *spans* into the source buffer rather than copies: ``meta``,
    ``shard(i)``, ``closure`` and ``rpq_closures`` copy their payload
    into owned ``bytes`` on first access and cache it, so a reader that
    serves one shard of an N-shard file materializes ~1/N of the
    container (plus the trailers it asks for).
    :attr:`materialized_bytes` / :attr:`materialized_sections` account
    every copy — the cold-open benchmark gate and
    ``repro stats --timing`` read them.
    """

    __slots__ = ("data", "_meta_span", "_shard_spans", "_trailer_spans",
                 "_meta", "_shards", "_trailers",
                 "materialized_bytes", "materialized_sections")

    def __init__(self, data: Buffer, meta_span: _Span,
                 shard_spans: Sequence[_Span],
                 trailer_spans: Dict[str, _Span]) -> None:
        self.data = data
        self._meta_span = meta_span
        self._shard_spans = tuple(shard_spans)
        #: Section name (a ``_TRAILER_TAGS`` value) -> span, in file
        #: order, for the trailers this container carries.
        self._trailer_spans = trailer_spans
        self._meta: Optional[bytes] = None
        self._shards: List[Optional[bytes]] = [None] * len(shard_spans)
        self._trailers: Dict[str, bytes] = {}
        #: Bytes copied out of the buffer so far, total / per section.
        self.materialized_bytes = 0
        self.materialized_sections: Dict[str, int] = {}

    def _take(self, name: str, span: _Span) -> bytes:
        start, length = span
        self.materialized_bytes += length
        self.materialized_sections[name] = length
        return bytes(self.data[start:start + length])

    @property
    def total_bytes(self) -> int:
        """Size of the complete container in bytes."""
        return len(self.data)

    @property
    def num_shards(self) -> int:
        """Number of embedded shard blobs (without decoding any)."""
        return len(self._shard_spans)

    @property
    def meta(self) -> bytes:
        """The routing-summary payload (materialized on first access)."""
        if self._meta is None:
            self._meta = self._take("meta", self._meta_span)
        return self._meta

    def shard(self, index: int) -> bytes:
        """Shard ``index``'s "GRPR" blob (materialized on first access)."""
        blob = self._shards[index]
        if blob is None:
            blob = self._take(f"shard{index}",
                              self._shard_spans[index])
            self._shards[index] = blob
        return blob

    def shard_view(self, index: int) -> Buffer:
        """A zero-copy view of shard ``index``'s blob.

        For header-only consumers (size accounting, k sniffing) that
        must not count as materialization.
        """
        start, length = self._shard_spans[index]
        return self.data[start:start + length]

    @property
    def shards(self) -> List[bytes]:
        """All shard blobs — the eager path for full-open readers."""
        return [self.shard(index) for index in range(self.num_shards)]

    def _trailer(self, name: str) -> Optional[bytes]:
        span = self._trailer_spans.get(name)
        if span is None:
            return None
        if name not in self._trailers:
            self._trailers[name] = self._take(name, span)
        return self._trailers[name]

    @property
    def has_closure(self) -> bool:
        """Whether a boundary-closure trailer is present."""
        return "closure" in self._trailer_spans

    @property
    def has_rpq_closures(self) -> bool:
        """Whether a per-pattern closure-table trailer is present."""
        return "rpq_closures" in self._trailer_spans

    @property
    def closure(self) -> Optional[bytes]:
        """The boundary-closure payload, or ``None`` when absent."""
        return self._trailer("closure")

    @property
    def rpq_closures(self) -> Optional[bytes]:
        """The closure-table payload, or ``None`` when absent."""
        return self._trailer("rpq_closures")

    def section_bytes(self) -> Dict[str, int]:
        """Per-section size breakdown without materializing anything.

        Same shape :func:`sharded_container_sections` always reported:
        framing entries plus every shard's own sections under
        ``shard<i>/<section>`` keys.
        """
        sections: Dict[str, int] = {"header": 5,
                                    "meta": self._meta_span[1]}
        for index in range(self.num_shards):
            for name, size in container_sections(
                    self.shard_view(index)).items():
                sections[f"shard{index}/{name}"] = size
        for name, span in self._trailer_spans.items():
            sections[name] = span[1]
        return sections


def decode_sharded_container(data: Buffer) -> DecodedContainer:
    """Parse a "GRPS" container into a :class:`DecodedContainer`.

    Only the framing is validated (and only the length headers are
    read — payloads stay in the source buffer until accessed); the
    shard blobs are decoded by :func:`decode_grammar`, the meta payload
    by :func:`decode_sharded_meta`, the closure trailer by
    :mod:`repro.partition.boundary` and the per-pattern trailer by
    :func:`decode_closure_table`.
    """
    if len(data) < 6:
        raise EncodingError("sharded container too short")
    if data[:4] != _SHARDED_MAGIC:
        raise EncodingError("not a sharded container (bad magic)")
    if data[4] != _VERSION:
        raise EncodingError(
            f"unsupported sharded container version {data[4]}")
    try:
        pos = 5
        num_shards, pos = read_uvarint(data, pos)
        if num_shards < 1:
            raise EncodingError(
                "a sharded container needs >= 1 shard")
        meta_len, pos = read_uvarint(data, pos)
        if pos + meta_len > len(data):
            raise EncodingError("truncated sharded meta section")
        meta_span = (pos, meta_len)
        pos += meta_len
        shard_spans: List[_Span] = []
        for _ in range(num_shards):
            blob_len, pos = read_uvarint(data, pos)
            if pos + blob_len > len(data):
                raise EncodingError("truncated shard blob")
            shard_spans.append((pos, blob_len))
            pos += blob_len
        trailer_spans: Dict[str, _Span] = {}
        while pos < len(data):
            name = _TRAILER_TAGS.get(data[pos])
            if name is None or name in trailer_spans:
                raise EncodingError(
                    f"unknown trailing section tag {data[pos]:#04x} "
                    "after the last shard")
            section_len, pos = read_uvarint(data, pos + 1)
            if pos + section_len > len(data):
                raise EncodingError(f"truncated {name} section")
            trailer_spans[name] = (pos, section_len)
            pos += section_len
    except (IndexError, ValueError) as exc:
        raise EncodingError(f"corrupt sharded container: {exc}") \
            from None
    if pos != len(data):
        raise EncodingError(
            f"{len(data) - pos} trailing bytes after the last section")
    return DecodedContainer(data, meta_span, shard_spans, trailer_spans)


def sharded_container_sections(data: Buffer) -> Dict[str, int]:
    """Per-section byte sizes of a serialized sharded container.

    ``{}`` for data that is not a well-formed "GRPS" container,
    matching the :func:`container_sections` convention.  Header-only:
    no payload is materialized.
    """
    try:
        return decode_sharded_container(data).section_bytes()
    except EncodingError:
        return {}


# ----------------------------------------------------------------------
# Meta section codec (the routing summary inside the "GRPS" container)
# ----------------------------------------------------------------------
_META_VERSION = 1
_EXTREMA_FIELDS = ("max_out", "min_out", "max_in", "min_in", "max", "min")


class ShardedMeta(NamedTuple):
    """The routing summary a sharded handle is rebuilt from.

    Boundary edges and blocks are in global (shard-major) node IDs;
    boundary-edge labels are compact container IDs (terminal position,
    1-based) on the wire.
    """

    shard_nodes: List[int]
    boundary_edges: List[Tuple[int, Tuple[int, ...]]]
    blocks: List[List[Tuple[int, ...]]]
    extrema: Optional[Dict[str, int]]
    degree_error: Optional[str]
    simple: bool
    partitioner: str


def encode_sharded_meta(meta: ShardedMeta) -> bytes:
    """Serialize the routing summary (the "GRPS" meta section)."""
    out = bytearray()
    write_uvarint(out, _META_VERSION)
    name = meta.partitioner.encode("utf-8")
    write_uvarint(out, len(name))
    out.extend(name)
    out.append(1 if meta.simple else 0)
    write_uvarint(out, len(meta.shard_nodes))
    for count in meta.shard_nodes:
        write_uvarint(out, count)
    if meta.extrema is not None:
        out.append(1)
        for field in _EXTREMA_FIELDS:
            write_uvarint(out, meta.extrema[field])
    else:
        out.append(0)
        message = (meta.degree_error or "").encode("utf-8")
        write_uvarint(out, len(message))
        out.extend(message)
    write_uvarint(out, len(meta.boundary_edges))
    for label, att in meta.boundary_edges:
        write_uvarint(out, label)
        write_uvarint(out, len(att))
        for node in att:
            write_uvarint(out, node)
    write_uvarint(out, len(meta.blocks))
    for shard_blocks in meta.blocks:
        write_uvarint(out, len(shard_blocks))
        for block in shard_blocks:
            write_uvarint(out, len(block))
            for node in block:
                write_uvarint(out, node)
    return bytes(out)


def decode_sharded_meta(data: bytes, num_shards: int) -> ShardedMeta:
    """Parse a meta section written by :func:`encode_sharded_meta`."""
    try:
        pos = 0
        version, pos = read_uvarint(data, pos)
        if version != _META_VERSION:
            raise EncodingError(
                f"unsupported sharded meta version {version}")
        name_len, pos = read_uvarint(data, pos)
        partitioner = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        simple = bool(data[pos])
        pos += 1
        count, pos = read_uvarint(data, pos)
        shard_nodes: List[int] = []
        for _ in range(count):
            nodes, pos = read_uvarint(data, pos)
            shard_nodes.append(nodes)
        extrema: Optional[Dict[str, int]] = None
        degree_error: Optional[str] = None
        flag = data[pos]
        pos += 1
        if flag:
            values = []
            for _ in _EXTREMA_FIELDS:
                value, pos = read_uvarint(data, pos)
                values.append(value)
            extrema = dict(zip(_EXTREMA_FIELDS, values))
        else:
            msg_len, pos = read_uvarint(data, pos)
            degree_error = (data[pos:pos + msg_len].decode("utf-8")
                            or None)
            pos += msg_len
        edge_count, pos = read_uvarint(data, pos)
        boundary_edges: List[Tuple[int, Tuple[int, ...]]] = []
        for _ in range(edge_count):
            label, pos = read_uvarint(data, pos)
            rank, pos = read_uvarint(data, pos)
            att = []
            for _ in range(rank):
                node, pos = read_uvarint(data, pos)
                att.append(node)
            boundary_edges.append((label, tuple(att)))
        block_shards, pos = read_uvarint(data, pos)
        if block_shards != num_shards:
            raise EncodingError(
                f"meta blocks cover {block_shards} shards, expected "
                f"{num_shards}"
            )
        blocks: List[List[Tuple[int, ...]]] = []
        for _ in range(block_shards):
            shard_count, pos = read_uvarint(data, pos)
            shard_blocks = []
            for _ in range(shard_count):
                size, pos = read_uvarint(data, pos)
                block = []
                for _ in range(size):
                    node, pos = read_uvarint(data, pos)
                    block.append(node)
                shard_blocks.append(tuple(block))
            blocks.append(shard_blocks)
        if pos != len(data):
            raise EncodingError(
                f"{len(data) - pos} trailing bytes in sharded meta")
    except (IndexError, ValueError) as exc:
        raise EncodingError(f"corrupt sharded meta: {exc}") from None
    return ShardedMeta(shard_nodes, boundary_edges, blocks, extrema,
                       degree_error, simple, partitioner)


# ----------------------------------------------------------------------
# Per-pattern closure table codec (the "GRPS" 'R' trailer section)
# ----------------------------------------------------------------------
#: One table entry: the canonical pattern-DFA bytes, the automaton's
#: state count, and the closure body (the same body the 'C' section
#: holds for one state).
ClosureEntry = Tuple[bytes, int, bytes]


def encode_closure_table(entries: Sequence[ClosureEntry]) -> bytes:
    """``count`` + per entry the DFA and ``num_states`` + closure body,
    each length-prefixed.  Callers pass entries sorted by DFA bytes, so
    the section is deterministic for a given set of warmed patterns."""
    out = bytearray()
    write_uvarint(out, len(entries))
    for dfa_bytes, num_states, body in entries:
        write_uvarint(out, len(dfa_bytes))
        out.extend(dfa_bytes)
        closure = bytearray()
        write_uvarint(closure, num_states)
        closure.extend(body)
        write_uvarint(out, len(closure))
        out.extend(closure)
    return bytes(out)


def decode_closure_table(data: bytes) -> List[ClosureEntry]:
    """Split an ``'R'`` section into its entries (payloads undecoded)."""
    try:
        count, pos = read_uvarint(data, 0)
        entries: List[ClosureEntry] = []
        for _ in range(count):
            dfa_len, pos = read_uvarint(data, pos)
            if pos + dfa_len > len(data):
                raise EncodingError("truncated rpq closure DFA")
            dfa_bytes = data[pos:pos + dfa_len]
            pos += dfa_len
            closure_len, pos = read_uvarint(data, pos)
            end = pos + closure_len
            if end > len(data):
                raise EncodingError("truncated rpq closure rows")
            num_states, pos = read_uvarint(data, pos)
            if pos > end:
                raise EncodingError("truncated rpq closure rows")
            entries.append((dfa_bytes, num_states, data[pos:end]))
            pos = end
    except (IndexError, ValueError) as exc:
        raise EncodingError(
            f"corrupt rpq closure section: {exc}") from None
    if pos != len(data):
        raise EncodingError(
            f"{len(data) - pos} trailing bytes in rpq closure section")
    return entries
