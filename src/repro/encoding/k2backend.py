"""Rank support for k2-trees, numpy-accelerated when numpy imports.

The k2-tree's only random-access primitive is ``rank1`` over the
internal-level bit array ``T`` (child navigation is
``rank1(i+1) * k^2``), so the whole query surface accelerates through
one data structure: the rank directory.  :func:`build_rank` picks it
from the platform:

* :class:`NumpyRank` when ``import numpy`` succeeds — ``T`` packed
  MSB-first with ``np.packbits``, a byte-popcount lookup table and one
  ``np.cumsum`` building a byte-granular prefix directory in a handful
  of vector ops; ``rank1`` is then O(1) (one directory load plus one
  masked-byte popcount).
* :class:`PythonRank` otherwise — prefix 1-counts every 64 bits, O(64)
  tail scan per query.  numpy is an accelerator here, never a
  dependency (``setup.py`` does not require it).

Outputs are bit-identical by construction — ``tests/test_k2tree.py``
holds both to a naive popcount at every position, including exact
64-bit block boundaries.
"""

from __future__ import annotations

from typing import Sequence, Union

try:  # soft dependency: the accelerated path only
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-blocked subprocess lane
    _np = None


def numpy_available() -> bool:
    """Whether :func:`build_rank` builds :class:`NumpyRank`."""
    return _np is not None


class PythonRank:
    """Prefix 1-counts every 64 bits; O(64) tail scan per query."""

    __slots__ = ("_bits", "_dir")

    def __init__(self, bits: Sequence[bool]) -> None:
        self._bits = bits
        directory = [0]
        count = 0
        for index, bit in enumerate(bits):
            if index and index % 64 == 0:
                directory.append(count)
            if bit:
                count += 1
        directory.append(count)
        self._dir = directory

    def rank1(self, position: int) -> int:
        """Number of 1-bits in ``bits[0:position]``."""
        block = position // 64
        count = self._dir[min(block, len(self._dir) - 1)]
        for index in range(block * 64, position):
            if self._bits[index]:
                count += 1
        return count


if _np is not None:
    #: Per-byte popcounts, and the mask keeping a byte's first ``r``
    #: (most significant) bits — the partial-byte tail of a rank query.
    _POPCOUNT = _np.array([bin(value).count("1") for value in range(256)],
                          dtype=_np.int64)
    _HEAD_MASK = [0] + [(0xFF << (8 - rem)) & 0xFF for rem in range(1, 8)]


class NumpyRank:
    """Packed bits + cumsum byte directory; O(1) per query."""

    __slots__ = ("_packed", "_dir")

    def __init__(self, bits: Sequence[bool]) -> None:
        packed = _np.packbits(_np.asarray(bits, dtype=_np.uint8))
        self._packed = packed
        self._dir = _np.concatenate(
            (_np.zeros(1, dtype=_np.int64),
             _np.cumsum(_POPCOUNT[packed], dtype=_np.int64)))

    def rank1(self, position: int) -> int:
        """Number of 1-bits in ``bits[0:position]``."""
        byte, rem = divmod(position, 8)
        count = int(self._dir[byte])
        if rem:
            count += int(_POPCOUNT[self._packed[byte] & _HEAD_MASK[rem]])
        return count


def build_rank(bits: Sequence[bool]) -> Union[NumpyRank, PythonRank]:
    """A rank structure over ``bits``: numpy's when numpy imported."""
    if _np is not None:
        return NumpyRank(bits)
    return PythonRank(bits)
