"""The RPQ regex front end: pattern text -> canonical pattern DFA.

Grammar (whitespace between tokens is ignored)::

    pattern := alt
    alt     := concat ("|" concat)*
    concat  := postfix*                  (empty -> the empty word)
    postfix := atom ("*" | "+" | "?")*
    atom    := NAME | "<" any text ">" | "." | "(" alt ")"

``NAME`` is a maximal run of label-name characters
(``A-Z a-z 0-9 _ : / # -``), so multi-character edge labels like
``rdf:type`` or ``prop/7`` are single tokens; names containing other
characters can be quoted as ``<name>``.  ``.`` matches any edge label.

Compilation is the textbook chain — Thompson NFA, subset construction,
partition-refinement minimization — but over a *symbolic* alphabet:
the names mentioned in the pattern plus one rest-class symbol
(:data:`OTHER`) standing for every label the pattern does not name.
That makes the result independent of any concrete graph alphabet, so
the canonical form (minimal DFA, states renumbered by BFS discovery
order) can be computed once per pattern text and shared across
handles; equivalent patterns such as ``a|b`` and ``b|a`` produce the
same :attr:`PatternDFA.key` and therefore share cache entries and
skeleton builds everywhere.  :meth:`PatternDFA.ground` instantiates
the symbolic DFA against one alphabet's terminal labels, yielding the
:class:`repro.queries.paths.LabelDFA` the product-skeleton engine
consumes.

Malformed patterns raise :class:`repro.exceptions.QueryError` (a
``ReproError``), so the CLI reports them on stderr with exit code 2
and the serving layer returns them on the per-request error channel.
So do patterns over budget: subset construction can need ``2**n``
states for an ``n``-symbol pattern (``(a|b)* a (a|b)`` … with ``n``
trailing groups), and compilation runs during batch *planning*, so a
pattern longer than :data:`MAX_PATTERN_LENGTH` characters is refused
before parsing and one whose subset construction passes
:data:`MAX_DFA_STATES` states is abandoned the moment it does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, \
    Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.queries.paths import LabelDFA
from repro.util.varint import read_uvarint, write_uvarint

#: Longest pattern text :func:`compile_pattern` accepts.
MAX_PATTERN_LENGTH = 256

#: Most subset-construction states one pattern may build.
MAX_DFA_STATES = 1024

#: Symbolic rest-class: any edge label the pattern does not name.
OTHER: Tuple[str, ...] = ("other",)

#: A symbolic DFA input: ``("lit", name)`` or :data:`OTHER`.
Symbol = Tuple[str, ...]

_NAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    "0123456789_:/#-"
)


def _lit(name: str) -> Symbol:
    return ("lit", name)


# ----------------------------------------------------------------------
# AST (exposed for the differential test suite's reference matcher)
# ----------------------------------------------------------------------
class Node:
    """Base class of the tiny pattern AST."""


class Lit(Node):
    def __init__(self, name: str) -> None:
        self.name = name


class Any(Node):
    pass


class Concat(Node):
    def __init__(self, items: List[Node]) -> None:
        self.items = items


class Alt(Node):
    def __init__(self, items: List[Node]) -> None:
        self.items = items


class Star(Node):
    def __init__(self, item: Node) -> None:
        self.item = item


class Plus(Node):
    def __init__(self, item: Node) -> None:
        self.item = item


class Opt(Node):
    def __init__(self, item: Node) -> None:
        self.item = item


# ----------------------------------------------------------------------
# Lexer + recursive-descent parser
# ----------------------------------------------------------------------
def _tokenize(pattern: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(pattern):
        char = pattern[pos]
        if char.isspace():
            pos += 1
            continue
        if char in "|*+?().":
            tokens.append((char, char))
            pos += 1
            continue
        if char == "<":
            end = pattern.find(">", pos + 1)
            if end < 0:
                raise QueryError(
                    f"malformed pattern {pattern!r}: unterminated "
                    f"'<' quote at position {pos}")
            tokens.append(("name", pattern[pos + 1:end]))
            pos = end + 1
            continue
        if char in _NAME_CHARS:
            end = pos
            while end < len(pattern) and pattern[end] in _NAME_CHARS:
                end += 1
            tokens.append(("name", pattern[pos:end]))
            pos = end
            continue
        raise QueryError(
            f"malformed pattern {pattern!r}: unexpected character "
            f"{char!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.tokens = _tokenize(pattern)
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def fail(self, message: str) -> QueryError:
        return QueryError(
            f"malformed pattern {self.pattern!r}: {message}")

    def parse(self) -> Node:
        node = self.alt()
        if self.pos != len(self.tokens):
            kind, text = self.tokens[self.pos]
            raise self.fail(f"unexpected {text!r}")
        return node

    def alt(self) -> Node:
        items = [self.concat()]
        while self.peek() == "|":
            self.pos += 1
            items.append(self.concat())
        return items[0] if len(items) == 1 else Alt(items)

    def concat(self) -> Node:
        items: List[Node] = []
        while self.peek() in ("name", ".", "("):
            items.append(self.postfix())
        return items[0] if len(items) == 1 else Concat(items)

    def postfix(self) -> Node:
        node = self.atom()
        while self.peek() in ("*", "+", "?"):
            op = self.tokens[self.pos][0]
            self.pos += 1
            node = {"*": Star, "+": Plus, "?": Opt}[op](node)
        return node

    def atom(self) -> Node:
        kind = self.peek()
        if kind == "name":
            name = self.tokens[self.pos][1]
            self.pos += 1
            return Lit(name)
        if kind == ".":
            self.pos += 1
            return Any()
        if kind == "(":
            self.pos += 1
            node = self.alt()
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.pos += 1
            return node
        if kind in ("*", "+", "?"):
            raise self.fail(f"dangling {self.tokens[self.pos][1]!r}")
        raise self.fail("expected a label, '.', or '('")


def parse(pattern: str) -> Node:
    """Parse ``pattern`` to its AST; raises QueryError when malformed."""
    if not isinstance(pattern, str):
        raise QueryError(
            f"pattern must be a string, got {type(pattern).__name__}")
    if len(pattern) > MAX_PATTERN_LENGTH:
        raise QueryError(
            f"pattern is {len(pattern)} characters long; the limit is "
            f"{MAX_PATTERN_LENGTH}")
    return _Parser(pattern).parse()


def pattern_names(node: Node) -> Set[str]:
    """Every label name the pattern mentions literally."""
    names: Set[str] = set()
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Lit):
            names.add(item.name)
        elif isinstance(item, (Concat, Alt)):
            stack.extend(item.items)
        elif isinstance(item, (Star, Plus, Opt)):
            stack.append(item.item)
    return names


# ----------------------------------------------------------------------
# Thompson NFA
# ----------------------------------------------------------------------
_ANY = ("any",)  # NFA-only wildcard; expanded during determinization


class _NFA:
    def __init__(self) -> None:
        self.eps: Dict[int, List[int]] = {}
        self.edges: Dict[int, List[Tuple[Symbol, int]]] = {}
        self.count = 0

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, src: int, dst: int) -> None:
        self.eps.setdefault(src, []).append(dst)

    def add_edge(self, src: int, symbol: Symbol, dst: int) -> None:
        self.edges.setdefault(src, []).append((symbol, dst))


def _build_nfa(node: Node, nfa: _NFA) -> Tuple[int, int]:
    """Thompson fragment for ``node``; returns (entry, exit) states."""
    if isinstance(node, Lit):
        entry, exit_ = nfa.state(), nfa.state()
        nfa.add_edge(entry, _lit(node.name), exit_)
        return entry, exit_
    if isinstance(node, Any):
        entry, exit_ = nfa.state(), nfa.state()
        nfa.add_edge(entry, _ANY, exit_)
        return entry, exit_
    if isinstance(node, Concat):
        entry = exit_ = nfa.state()
        for item in node.items:
            sub_entry, sub_exit = _build_nfa(item, nfa)
            nfa.add_eps(exit_, sub_entry)
            exit_ = sub_exit
        return entry, exit_
    if isinstance(node, Alt):
        entry, exit_ = nfa.state(), nfa.state()
        for item in node.items:
            sub_entry, sub_exit = _build_nfa(item, nfa)
            nfa.add_eps(entry, sub_entry)
            nfa.add_eps(sub_exit, exit_)
        return entry, exit_
    if isinstance(node, (Star, Plus, Opt)):
        entry, exit_ = nfa.state(), nfa.state()
        sub_entry, sub_exit = _build_nfa(node.item, nfa)
        nfa.add_eps(entry, sub_entry)
        nfa.add_eps(sub_exit, exit_)
        if isinstance(node, (Star, Opt)):
            nfa.add_eps(entry, exit_)
        if isinstance(node, (Star, Plus)):
            nfa.add_eps(sub_exit, sub_entry)
        return entry, exit_
    raise QueryError(f"unknown pattern node {type(node).__name__}")


def _eps_closure(nfa: _NFA, states: Iterable[int]) -> FrozenSet[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        state = stack.pop()
        for succ in nfa.eps.get(state, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return frozenset(seen)


def _symbol_order(symbol: Symbol) -> Tuple[int, str]:
    """Sort key placing literal symbols (by name) before OTHER."""
    if symbol == OTHER:
        return (1, "")
    return (0, symbol[1])


def _determinize(nfa: _NFA, entry: int, exit_: int,
                 names: Set[str]) -> Tuple[int, FrozenSet[int],
                                           Dict[Tuple[int, Symbol], int]]:
    """Subset construction over {named symbols} + OTHER, abandoned
    (``QueryError``) as soon as it would pass :data:`MAX_DFA_STATES`."""
    symbols = sorted([_lit(name) for name in names] + [OTHER],
                     key=_symbol_order)
    start = _eps_closure(nfa, [entry])
    subset_ids: Dict[FrozenSet[int], int] = {start: 0}
    worklist = [start]
    transitions: Dict[Tuple[int, Symbol], int] = {}
    while worklist:
        subset = worklist.pop()
        src = subset_ids[subset]
        for symbol in symbols:
            move: Set[int] = set()
            for state in subset:
                for edge_symbol, dst in nfa.edges.get(state, ()):
                    # ANY edges fire on every input symbol; literal
                    # edges only on their own name (never on OTHER).
                    if edge_symbol == _ANY or edge_symbol == symbol:
                        move.add(dst)
            if not move:
                continue
            closure = _eps_closure(nfa, move)
            if closure not in subset_ids:
                if len(subset_ids) == MAX_DFA_STATES:
                    raise QueryError(
                        f"pattern needs more than {MAX_DFA_STATES} "
                        f"automaton states")
                subset_ids[closure] = len(subset_ids)
                worklist.append(closure)
            transitions[(src, symbol)] = subset_ids[closure]
    accepting = frozenset(index for subset, index in subset_ids.items()
                          if exit_ in subset)
    return len(subset_ids), accepting, transitions


def _minimize(num_states: int, accepting: FrozenSet[int],
              transitions: Dict[Tuple[int, Symbol], int],
              names: Set[str]) -> Tuple[int, int, FrozenSet[int],
                                        Dict[Tuple[int, Symbol], int]]:
    """Moore partition refinement with an implicit dead state.

    Useless states (those that cannot reach acceptance) refine into the
    dead state's block and are dropped with it, leaving a partial
    minimal DFA.  Returns (num_states, start, accepting, transitions)
    with states renumbered canonically: BFS discovery order from the
    start state, expanding transitions in sorted symbol order (literal
    names ascending, OTHER last).
    """
    symbols = sorted([_lit(name) for name in names] + [OTHER],
                     key=_symbol_order)
    dead = num_states
    block = [1 if state in accepting else 0
             for state in range(num_states)] + [0]

    def target_block(state: int, symbol: Symbol) -> int:
        if state == dead:
            return block[dead]
        return block[transitions.get((state, symbol), dead)]

    while True:
        signatures: Dict[Tuple, int] = {}
        next_block = [0] * (num_states + 1)
        for state in range(num_states + 1):
            signature = (block[state],
                         tuple(target_block(state, symbol)
                               for symbol in symbols))
            if signature not in signatures:
                signatures[signature] = len(signatures)
            next_block[state] = signatures[signature]
        if next_block == block:
            break
        block = next_block

    dead_block = block[dead]
    if block[0] == dead_block:
        # The empty language: unreachable in this regex algebra (every
        # pattern matches at least one word), kept for safety.
        return 1, 0, frozenset(), {}

    # Canonical renumbering by BFS discovery order.
    order: Dict[int, int] = {block[0]: 0}
    queue = [block[0]]
    minimal: Dict[Tuple[int, Symbol], int] = {}
    while queue:
        src_block = queue.pop(0)
        src = order[src_block]
        # Any member state represents the block.
        member = next(state for state in range(num_states)
                      if block[state] == src_block)
        for symbol in symbols:
            dst_state = transitions.get((member, symbol))
            if dst_state is None:
                continue
            dst_block = block[dst_state]
            if dst_block == dead_block:
                continue
            if dst_block not in order:
                order[dst_block] = len(order)
                queue.append(dst_block)
            minimal[(src, symbol)] = order[dst_block]
    minimal_accepting = frozenset(
        order[block[state]] for state in accepting
        if block[state] in order)
    return len(order), 0, minimal_accepting, minimal


# ----------------------------------------------------------------------
# The canonical symbolic DFA
# ----------------------------------------------------------------------
class PatternDFA:
    """A minimal, canonically numbered DFA over pattern symbols.

    Alphabet-independent: inputs are the label names the pattern
    mentions plus :data:`OTHER` for every other label.  Equivalent
    patterns (over the same mentioned-name set) share one canonical
    form, exposed as the hashable :attr:`key`.
    """

    def __init__(self, num_states: int, start: int,
                 accepting: Iterable[int],
                 transitions: Mapping[Tuple[int, Symbol], int]) -> None:
        self.num_states = num_states
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        self.names = frozenset(symbol[1]
                               for _, symbol in self.transitions
                               if symbol != OTHER)
        self.key: Tuple = (
            num_states, start, tuple(sorted(self.accepting)),
            tuple(sorted((state, symbol, dst) for (state, symbol), dst
                         in self.transitions.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternDFA) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def step_name(self, state: int, name: Optional[str]) -> Optional[int]:
        """Next state after reading an edge whose label is ``name``."""
        if name is not None and name in self.names:
            return self.transitions.get((state, _lit(name)))
        return self.transitions.get((state, OTHER))

    def accepts(self, word: Sequence[Optional[str]]) -> bool:
        """True when the label-name sequence ``word`` is in L(M)."""
        state: Optional[int] = self.start
        for name in word:
            state = self.step_name(state, name)
            if state is None:
                return False
        return state in self.accepting

    def ground_names(self, label_names: Mapping[int, Optional[str]]
                     ) -> LabelDFA:
        """Instantiate over concrete labels via a label->name mapping.

        Labels whose name the pattern mentions follow that literal's
        transitions; every other label (including unnamed ones) follows
        the OTHER rest-class.
        """
        transitions: Dict[Tuple[int, int], int] = {}
        for label, name in label_names.items():
            for state in range(self.num_states):
                dst = self.step_name(state, name)
                if dst is not None:
                    transitions[(state, label)] = dst
        return LabelDFA(max(1, self.num_states), self.start,
                        self.accepting, transitions)

    def ground(self, alphabet) -> LabelDFA:
        """Instantiate over one :class:`Alphabet`'s terminal labels."""
        return self.ground_names({label: alphabet.name(label)
                                  for label in alphabet.terminals()})

    # ------------------------------------------------------------------
    # Serialization (for the GRPS product-closure trailer)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        out = bytearray()
        write_uvarint(out, self.num_states)
        write_uvarint(out, self.start)
        write_uvarint(out, len(self.accepting))
        for state in sorted(self.accepting):
            write_uvarint(out, state)
        names = sorted(self.names)
        write_uvarint(out, len(names))
        for name in names:
            encoded = name.encode("utf-8")
            write_uvarint(out, len(encoded))
            out.extend(encoded)
        entries = sorted((state, symbol, dst) for (state, symbol), dst
                         in self.transitions.items())
        write_uvarint(out, len(entries))
        for state, symbol, dst in entries:
            write_uvarint(out, state)
            # Symbol index: position in the sorted name list, or
            # len(names) for OTHER.
            index = (len(names) if symbol == OTHER
                     else names.index(symbol[1]))
            write_uvarint(out, index)
            write_uvarint(out, dst)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PatternDFA":
        from repro.exceptions import EncodingError

        try:
            num_states, pos = read_uvarint(data, 0)
            start, pos = read_uvarint(data, pos)
            count, pos = read_uvarint(data, pos)
            accepting = []
            for _ in range(count):
                state, pos = read_uvarint(data, pos)
                accepting.append(state)
            count, pos = read_uvarint(data, pos)
            names: List[str] = []
            for _ in range(count):
                length, pos = read_uvarint(data, pos)
                if pos + length > len(data):
                    raise EncodingError("truncated pattern DFA name")
                names.append(data[pos:pos + length].decode("utf-8"))
                pos += length
            count, pos = read_uvarint(data, pos)
            transitions: Dict[Tuple[int, Symbol], int] = {}
            for _ in range(count):
                state, pos = read_uvarint(data, pos)
                index, pos = read_uvarint(data, pos)
                dst, pos = read_uvarint(data, pos)
                symbol = (OTHER if index == len(names)
                          else _lit(names[index]))
                transitions[(state, symbol)] = dst
        except (ValueError, IndexError, UnicodeDecodeError) as exc:
            raise EncodingError(
                f"corrupt pattern DFA section: {exc}") from None
        if pos != len(data):
            raise EncodingError(
                f"{len(data) - pos} trailing bytes after pattern DFA")
        return cls(num_states, start, accepting, transitions)


@lru_cache(maxsize=512)
def compile_pattern(pattern: str) -> PatternDFA:
    """Compile pattern text to its canonical :class:`PatternDFA`.

    Memoized on the pattern text: repeated requests (cache keys, probe
    frames, per-shard grounding) parse and minimize once per process.
    """
    ast = parse(pattern)
    names = pattern_names(ast)
    nfa = _NFA()
    entry, exit_ = _build_nfa(ast, nfa)
    num_states, accepting, transitions = _determinize(
        nfa, entry, exit_, names)
    return PatternDFA(*_minimize(num_states, accepting, transitions,
                                 names))


def cache_key(pattern) -> Tuple:
    """The LRU/dedup key component for a pattern argument.

    Canonical whenever the pattern compiles — ``a|b`` and ``b|a`` map
    to the same key — and a raw fallback otherwise, so malformed
    patterns surface their error at evaluation time instead of
    breaking key computation during batch planning.
    """
    try:
        return compile_pattern(pattern).key
    except (QueryError, TypeError):
        return ("raw", pattern)
