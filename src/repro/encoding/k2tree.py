"""k2-trees: compact compressed binary matrices (Brisaboa et al. [21]).

A k2-tree represents an ``n x n`` binary matrix (conceptually expanded
with zeros to the next power of ``k``) as a ``k^2``-ary tree: each node
covers a square submatrix; a submatrix of all zeros is a 0-leaf, other
submatrices are 1-nodes partitioned further, down to single cells.  The
tree is stored as two bit arrays in level order:

* ``T`` — the internal levels (one bit per node: 1 = subdivided),
* ``L`` — the last level (one bit per cell of each subdivided 2x2
  block... generally ``k^2`` cells per subdivided minimal block).

Navigation uses rank queries on ``T``: the children of the i-th 1-bit
of ``T`` start at position ``rank1(T, i) * k^2``.  We precompute a
block-wise rank directory at decode time, so cell / row / column
queries run in O(k^2 log_k n) as in the paper.

The paper uses k2-trees with ``k = 2`` ("as this provides the best
compression") for the start graph of the grammar, for the plain
k2-tree baseline compressor, and (per edge label) for the RDF
representation of [8].

The rank directory comes from :mod:`repro.encoding.k2backend`: when
numpy imports, ``T`` is packed and ``rank1`` answers in O(1) off a
cumsum directory; without numpy a pure-Python 64-bit-block directory
gives the same answers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.encoding.k2backend import build_rank
from repro.exceptions import EncodingError
from repro.util.bitio import BitReader, BitWriter
from repro.util.varint import read_uvarint, write_uvarint


def _next_power(base: int, minimum: int) -> int:
    power = 1
    while power < minimum:
        power *= base
    return power


class K2Tree:
    """An immutable k2-tree over a set of (row, column) 1-cells.

    Rows and columns are 0-based.  Build with :meth:`from_cells`,
    serialize with :meth:`to_bytes`, restore with :meth:`from_bytes`.
    """

    def __init__(self, k: int, size: int, virtual_size: int,
                 t_bits: List[bool], l_bits: List[bool]) -> None:
        if k < 2:
            raise EncodingError(f"k must be >= 2, got {k}")
        self.k = k
        #: Logical matrix dimension (before power-of-k expansion).
        self.size = size
        #: Expanded dimension (power of k).
        self.virtual_size = virtual_size
        self._t = t_bits
        self._l = l_bits
        #: Rank support over ``T``.
        self._rank = build_rank(t_bits)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_cells(cls, cells: Iterable[Tuple[int, int]], size: int,
                   k: int = 2) -> "K2Tree":
        """Build a k2-tree for the 1-cells of an ``size x size`` matrix.

        Cells outside the matrix raise :class:`EncodingError`.  The
        construction is level-order over the occupied blocks only, so
        it runs in O(m log n) for m cells.
        """
        cell_list = sorted(set(cells))
        for row, col in cell_list:
            if not (0 <= row < size and 0 <= col < size):
                raise EncodingError(
                    f"cell ({row}, {col}) outside {size}x{size} matrix"
                )
        virtual = _next_power(k, max(size, 1))
        t_bits: List[bool] = []
        l_bits: List[bool] = []
        if cell_list and virtual > 1:
            # Each level maps occupied blocks to their cells.  A block
            # is identified by its (block_row, block_col) at the
            # current granularity.
            level_cells: List[Tuple[int, int]] = cell_list
            block = virtual // k  # child block size at the root level
            # Root is implicit (the whole matrix, known non-empty).
            current_blocks: List[Tuple[int, int, List[Tuple[int, int]]]]
            current_blocks = [(0, 0, level_cells)]
            while block >= 1:
                next_blocks = []
                target = l_bits if block == 1 else t_bits
                for base_row, base_col, members in current_blocks:
                    buckets: dict = {}
                    for row, col in members:
                        idx = (((row - base_row) // block) * k
                               + (col - base_col) // block)
                        buckets.setdefault(idx, []).append((row, col))
                    for idx in range(k * k):
                        sub = buckets.get(idx)
                        target.append(sub is not None)
                        if sub is not None and block > 1:
                            next_blocks.append(
                                (base_row + (idx // k) * block,
                                 base_col + (idx % k) * block,
                                 sub)
                            )
                current_blocks = next_blocks
                block //= k
        return cls(k, size, virtual, t_bits, l_bits)

    # ------------------------------------------------------------------
    # Rank support
    # ------------------------------------------------------------------
    def _rank1(self, position: int) -> int:
        """Number of 1-bits in ``T[0:position]``."""
        return self._rank.rank1(position)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def bit_count(self) -> int:
        """Total payload bits (|T| + |L|), the paper's size measure."""
        return len(self._t) + len(self._l)

    @property
    def t_length(self) -> int:
        """Number of internal-level bits (``|T|``)."""
        return len(self._t)

    @property
    def l_length(self) -> int:
        """Number of last-level bits (``|L|``)."""
        return len(self._l)

    def is_empty(self) -> bool:
        """True if the matrix has no 1-cells."""
        return not self._t and not self._l

    def _children_start(self, node_pos: int) -> int:
        """Bit offset of the children block of the 1-bit at node_pos."""
        return self._rank1(node_pos + 1) * self.k * self.k

    def _t_bit(self, index: int) -> bool:
        """Bounds-checked internal-level bit (corrupt streams raise)."""
        if not 0 <= index < len(self._t):
            raise EncodingError(
                f"k2-tree T index {index} out of range (corrupt tree?)"
            )
        return self._t[index]

    def _l_bit(self, index: int) -> bool:
        """Bounds-checked last-level bit (corrupt streams raise)."""
        if not 0 <= index < len(self._l):
            raise EncodingError(
                f"k2-tree L index {index} out of range (corrupt tree?)"
            )
        return self._l[index]

    def get(self, row: int, col: int) -> bool:
        """Cell query: True if (row, col) is a 1."""
        if not (0 <= row < self.size and 0 <= col < self.size):
            raise EncodingError(
                f"cell ({row}, {col}) outside {self.size}x{self.size}"
            )
        if self.is_empty():
            return False
        k = self.k
        block = self.virtual_size // k
        offset = 0  # position of the current children block in T (bits)
        while True:
            idx = offset + (row // block) * k + (col // block)
            row %= block
            col %= block
            if block == 1:
                return self._l_bit(idx - len(self._t))
            if not self._t_bit(idx):
                return False
            offset = self._children_start(idx)
            block //= k

    def row_ones(self, row: int) -> List[int]:
        """Direct neighbors: columns with a 1 in ``row``."""
        return sorted(col for col in self._axis_ones(row, transposed=False))

    def col_ones(self, col: int) -> List[int]:
        """Reverse neighbors: rows with a 1 in ``col``."""
        return sorted(row for row in self._axis_ones(col, transposed=True))

    def rows_ones(self, rows: Sequence[int]) -> List[List[int]]:
        """Batched :meth:`row_ones`: one answer list per queried row.

        Queries descending into the same subtree share the traversal
        (and its rank calls), so a batch costs one tree walk over the
        union of the paths instead of one walk per row.  Answers equal
        ``[self.row_ones(r) for r in rows]`` exactly.
        """
        return self._axis_ones_batch(rows, transposed=False)

    def cols_ones(self, cols: Sequence[int]) -> List[List[int]]:
        """Batched :meth:`col_ones` (see :meth:`rows_ones`)."""
        return self._axis_ones_batch(cols, transposed=True)

    def _axis_ones_batch(self, fixed_list: Sequence[int],
                         transposed: bool) -> List[List[int]]:
        for fixed in fixed_list:
            if not 0 <= fixed < self.size:
                raise EncodingError(f"index {fixed} outside {self.size}")
        results: List[List[int]] = [[] for _ in fixed_list]
        if self.is_empty() or not fixed_list:
            return results
        k = self.k
        # stack: (children-block offset, block size, base of the free
        # axis, [(fixed offset within block, query number), ...])
        stack = [(0, self.virtual_size // k, 0,
                  [(fixed, query) for query, fixed
                   in enumerate(fixed_list)])]
        while stack:
            offset, block, base, members = stack.pop()
            groups: dict = {}
            for fix, query in members:
                groups.setdefault(fix // block, []).append(
                    (fix % block, query))
            for j in range(k):
                free_base = base + j * block
                if free_base >= self.size:
                    continue
                for fixed_child, sub in groups.items():
                    if transposed:
                        idx = offset + j * k + fixed_child
                    else:
                        idx = offset + fixed_child * k + j
                    if block == 1:
                        if self._l_bit(idx - len(self._t)):
                            for _, query in sub:
                                results[query].append(free_base)
                    elif self._t_bit(idx):
                        stack.append((self._children_start(idx),
                                      block // k, free_base, sub))
        return [sorted(result) for result in results]

    def _axis_ones(self, fixed: int, transposed: bool) -> Iterator[int]:
        if not 0 <= fixed < self.size:
            raise EncodingError(f"index {fixed} outside {self.size}")
        if self.is_empty():
            return
        k = self.k
        # stack: (bit offset of children block, block size, fixed offset
        # within block, base of the free axis)
        stack = [(0, self.virtual_size // k, fixed, 0)]
        while stack:
            offset, block, fix, base = stack.pop()
            for j in range(k):
                if transposed:
                    idx = offset + j * k + fix // block
                else:
                    idx = offset + (fix // block) * k + j
                free_base = base + j * block
                if free_base >= self.size:
                    continue
                if block == 1:
                    if self._l_bit(idx - len(self._t)):
                        yield free_base
                elif self._t_bit(idx):
                    stack.append((self._children_start(idx), block // k,
                                  fix % block, free_base))

    def cells(self) -> List[Tuple[int, int]]:
        """All 1-cells, sorted (decompression)."""
        result: List[Tuple[int, int]] = []
        if self.is_empty():
            return result
        k = self.k
        stack = [(0, self.virtual_size // k, 0, 0)]
        while stack:
            offset, block, base_row, base_col = stack.pop()
            for idx in range(k * k):
                row = base_row + (idx // k) * block
                col = base_col + (idx % k) * block
                position = offset + idx
                if block == 1:
                    if self._l_bit(position - len(self._t)):
                        result.append((row, col))
                elif self._t_bit(position):
                    stack.append((self._children_start(position),
                                  block // k, row, col))
        return sorted(result)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def write(self, writer: BitWriter) -> None:
        """Append the payload bits (T then L) to an open bit stream."""
        writer.write_bools(self._t)
        writer.write_bools(self._l)

    def to_bytes(self) -> bytes:
        """Standalone serialization: header varints + payload bits."""
        header = bytearray()
        write_uvarint(header, self.k)
        write_uvarint(header, self.size)
        write_uvarint(header, len(self._t))
        write_uvarint(header, len(self._l))
        writer = BitWriter()
        self.write(writer)
        return bytes(header) + writer.to_bytes()

    @classmethod
    def read(cls, reader: BitReader, k: int, size: int, t_len: int,
             l_len: int) -> "K2Tree":
        """Read payload bits from an open stream (header known)."""
        t_bits = reader.read_bools(t_len)
        l_bits = reader.read_bools(l_len)
        return cls(k, size, _next_power(k, max(size, 1)), t_bits, l_bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "K2Tree":
        """Inverse of :meth:`to_bytes`."""
        k, pos = read_uvarint(data, 0)
        size, pos = read_uvarint(data, pos)
        t_len, pos = read_uvarint(data, pos)
        l_len, pos = read_uvarint(data, pos)
        reader = BitReader(data[pos:])
        return cls.read(reader, k, size, t_len, l_len)

    @property
    def byte_size(self) -> int:
        """Serialized size in bytes (header + payload)."""
        return len(self.to_bytes())

    def __repr__(self) -> str:
        return (f"K2Tree(k={self.k}, size={self.size}, "
                f"bits={self.bit_count})")
