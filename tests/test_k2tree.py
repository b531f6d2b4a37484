"""Unit and property tests for the k2-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.k2tree import K2Tree
from repro.exceptions import EncodingError


class TestConstruction:
    def test_empty_matrix(self):
        tree = K2Tree.from_cells([], size=8)
        assert tree.is_empty()
        assert tree.bit_count == 0
        assert not tree.get(3, 3)
        assert tree.cells() == []

    def test_single_cell(self):
        tree = K2Tree.from_cells([(2, 5)], size=8)
        assert tree.get(2, 5)
        assert not tree.get(5, 2)
        assert tree.cells() == [(2, 5)]

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(EncodingError):
            K2Tree.from_cells([(8, 0)], size=8)

    def test_size_not_power_of_k(self):
        """The paper's 9x9 example expands to 16x16 internally."""
        cells = [(0, 1), (0, 3), (0, 5), (0, 7), (2, 8), (4, 6)]
        tree = K2Tree.from_cells(cells, size=9)
        assert tree.virtual_size == 16
        assert tree.cells() == sorted(cells)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(EncodingError):
            K2Tree(1, 4, 4, [], [])

    def test_duplicate_cells_collapse(self):
        tree = K2Tree.from_cells([(1, 1), (1, 1)], size=4)
        assert tree.cells() == [(1, 1)]

    def test_k3(self):
        cells = [(0, 0), (8, 8), (4, 4)]
        tree = K2Tree.from_cells(cells, size=9, k=3)
        assert tree.virtual_size == 9
        assert tree.cells() == sorted(cells)


class TestQueries:
    def _dense_tree(self):
        cells = [(r, c) for r in range(6) for c in range(6)
                 if (r * 7 + c * 3) % 5 == 0]
        return K2Tree.from_cells(cells, size=6), set(cells)

    def test_get_matches_membership(self):
        tree, cells = self._dense_tree()
        for r in range(6):
            for c in range(6):
                assert tree.get(r, c) == ((r, c) in cells)

    def test_row_ones(self):
        tree, cells = self._dense_tree()
        for r in range(6):
            assert tree.row_ones(r) == sorted(c for (rr, c) in cells
                                              if rr == r)

    def test_col_ones(self):
        tree, cells = self._dense_tree()
        for c in range(6):
            assert tree.col_ones(c) == sorted(r for (r, cc) in cells
                                              if cc == c)

    def test_query_out_of_range(self):
        tree = K2Tree.from_cells([(0, 0)], size=2)
        with pytest.raises(EncodingError):
            tree.get(2, 0)
        with pytest.raises(EncodingError):
            tree.row_ones(5)


class TestSerialization:
    def test_bytes_roundtrip(self):
        cells = [(0, 1), (3, 3), (7, 0), (5, 6)]
        tree = K2Tree.from_cells(cells, size=8)
        clone = K2Tree.from_bytes(tree.to_bytes())
        assert clone.cells() == sorted(cells)
        assert clone.size == 8
        assert clone.k == 2

    def test_empty_roundtrip(self):
        tree = K2Tree.from_cells([], size=5)
        clone = K2Tree.from_bytes(tree.to_bytes())
        assert clone.is_empty()
        assert clone.size == 5

    def test_byte_size_reports_serialized_length(self):
        tree = K2Tree.from_cells([(1, 2)], size=4)
        assert tree.byte_size == len(tree.to_bytes())

    def test_sparse_is_smaller_than_dense(self):
        sparse = K2Tree.from_cells([(0, 0)], size=64)
        dense = K2Tree.from_cells(
            [(r, c) for r in range(64) for c in range(64)
             if (r + c) % 3 == 0], size=64)
        assert sparse.byte_size < dense.byte_size


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_random_matrix_roundtrip(seed, k):
    rng = random.Random(seed)
    size = rng.randint(1, 40)
    count = rng.randint(0, size * size // 2)
    cells = {(rng.randrange(size), rng.randrange(size))
             for _ in range(count)}
    tree = K2Tree.from_cells(cells, size, k=k)
    assert tree.cells() == sorted(cells)
    clone = K2Tree.from_bytes(tree.to_bytes())
    assert clone.cells() == sorted(cells)
    row = rng.randrange(size)
    assert clone.row_ones(row) == sorted(c for (r, c) in cells
                                         if r == row)
    col = rng.randrange(size)
    assert clone.col_ones(col) == sorted(r for (r, c) in cells
                                         if c == col)


# ----------------------------------------------------------------------
# Rank structures (pure Python, and numpy when it imports)
# ----------------------------------------------------------------------
def _rank_classes():
    from repro.encoding.k2backend import NumpyRank, PythonRank, \
        numpy_available
    classes = {"python": PythonRank}
    if numpy_available():
        classes["numpy"] = NumpyRank
    return classes


def _assert_rank_matches_popcount(rank_class, bits):
    rank = rank_class(bits)
    naive = 0
    for position, bit in enumerate(bits):
        assert rank.rank1(position) == naive, (rank_class, position)
        naive += 1 if bit else 0
    assert rank.rank1(len(bits)) == naive


@pytest.mark.parametrize("backend", sorted(_rank_classes()))
@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_rank_directory_block_boundaries(backend, seed):
    """``rank1`` ≡ naive popcount at every position of real ``T`` arrays.

    The directory is block-structured (64-bit blocks in pure Python, a
    byte-cumsum in numpy), so every position includes every exact
    block multiple and its neighbours — the off-by-one surface of any
    prefix directory.
    """
    rng = random.Random(seed)
    size = rng.randint(1, 80)
    count = rng.randint(0, size * size // 2)
    cells = {(rng.randrange(size), rng.randrange(size))
             for _ in range(count)}
    tree = K2Tree.from_cells(cells, size)
    _assert_rank_matches_popcount(_rank_classes()[backend], tree._t)


@pytest.mark.parametrize("backend", sorted(_rank_classes()))
def test_rank_directory_at_exact_block_multiples(backend):
    """Bit arrays of exactly N*64 bits (and one either side)."""
    rng = random.Random(99)
    for blocks in (1, 2, 5):
        for length in (blocks * 64 - 1, blocks * 64, blocks * 64 + 1):
            bits = [rng.random() < 0.5 for _ in range(length)]
            _assert_rank_matches_popcount(_rank_classes()[backend], bits)
    # And a real tree whose T spans several blocks.
    size = 128
    cells = {(rng.randrange(size), rng.randrange(size))
             for _ in range(size * size // 3)}
    tree = K2Tree.from_cells(cells, size)
    assert len(tree._t) >= 256, "tree too small to cross blocks"
    _assert_rank_matches_popcount(_rank_classes()[backend], tree._t)


def test_backend_selection_and_fallback():
    """``build_rank`` picks numpy's directory exactly when numpy
    imported; the numpy-blocked fallback runs in ``test_optional_numpy``.
    """
    from repro.encoding import k2backend

    try:
        import numpy  # noqa: F401
        imported = True
    except ImportError:
        imported = False
    assert k2backend.numpy_available() is imported
    expected = k2backend.NumpyRank if imported else k2backend.PythonRank
    assert type(k2backend.build_rank([True, False])) is expected
    tree = K2Tree.from_cells([(1, 2), (3, 0)], size=4)
    assert type(tree._rank) is expected
