"""Van der Corput (VDC) low-discrepancy sequence generator.

The base-2 Van der Corput sequence is the bit-reversal permutation: the
``t``-th value is ``reverse_bits(t, width) / 2**width``. Driving a D/S
converter with it produces SNs whose 1s are maximally evenly spread, which
both reduces quantisation noise and (per the paper's Table II) makes the
synchronizer/desynchronizer FSMs more effective, because runs of identical
bits are short.

Over one period of ``2**width`` cycles every residue appears exactly once,
so a VDC-driven D/S converter is *exact*: an input ``x`` yields a stream
with exactly ``x`` ones.

Wide registers (width > 16) are windowed, not period-cached. A window of
at least 2**16 indices is built from one lazily built 2**16-entry
reversal table: the reversed low 16 index bits, shifted into the top of
the register, plus the block's reversed high bits as one scalar per
aligned 2**16 block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from .base import PERIOD_CACHE_LIMIT, StreamRNG, _aligned_blocks

__all__ = ["VanDerCorput"]


# byte -> its bit-reversal, e.g. 0b00000001 -> 0b10000000.
_BYTE_REVERSED = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8
)


def _reverse_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Bit-reverse each element of ``values`` as a ``width``-bit integer.

    Byte-wise: the low ``ceil(width / 8)`` bytes go through a 256-entry
    reversal table in swapped order (one gather), and one shift drops the
    padding below bit 0. Exact for ``width <= 62`` and any non-negative
    ``values`` (bits at or above ``width`` are discarded).
    """
    nbytes = -(-width // 8)
    le = np.ascontiguousarray(values, dtype="<i8").reshape(-1).view(np.uint8)
    le = le.reshape(-1, 8)
    out = np.zeros_like(le)
    out[:, :nbytes] = _BYTE_REVERSED[le[:, nbytes - 1::-1]]
    reversed_ = (out.view("<u8") >> np.uint64(8 * nbytes - width)).view("<i8")
    return reversed_.reshape(np.shape(values)).astype(values.dtype, copy=False)


_LOW_BITS = 16


@lru_cache(maxsize=1)
def _low_reversal_table() -> np.ndarray:
    """The 16-bit reversal of every 16-bit value (read-only uint16)."""
    table = _reverse_bits(np.arange(1 << _LOW_BITS, dtype=np.int64), _LOW_BITS)
    table = table.astype(np.uint16)
    table.setflags(write=False)
    return table


def _reverse_run(first: int, count: int, width: int) -> np.ndarray:
    """``_reverse_bits(arange(first, first + count), width)``, served from
    the low reversal table when ``width > 16`` and the run covers at
    least one 2**16 block (the byte-table reversal otherwise)."""
    if width <= _LOW_BITS or count < 1 << _LOW_BITS:
        return _reverse_bits(np.arange(first, first + count, dtype=np.int64), width)
    table = _low_reversal_table()
    high_bits = width - _LOW_BITS
    out = np.empty(count, dtype=np.int64)
    for offset, lo, hi, block in _aligned_blocks(first, count, 1 << _LOW_BITS):
        seg = out[offset:offset + hi - lo]
        np.left_shift(table[lo:hi], high_bits, out=seg, dtype=np.int64)
        # Index bits at or above ``width`` wrap away with the period.
        high = block & ((1 << high_bits) - 1)
        if high:
            seg |= int(f"{high:0{high_bits}b}"[::-1], 2)
    return out


class VanDerCorput(StreamRNG):
    """Base-2 Van der Corput sequence as a ``width``-bit integer stream.

    Args:
        width: bit width; the period is ``2**width``.
        phase: start the sequence at index ``phase`` (rotating the sequence
            gives decorrelated variants sharing one generator core).
    """

    def __init__(self, width: int = 8, phase: int = 0) -> None:
        width = check_positive_int(width, name="width")
        super().__init__(modulus=1 << width)
        self._width = width
        self._phase = check_non_negative_int(phase, name="phase")

    @property
    def name(self) -> str:
        suffix = f"+{self._phase}" if self._phase else ""
        return f"vdc{self._width}{suffix}"

    @property
    def width(self) -> int:
        return self._width

    @property
    def period(self) -> int:
        return self.modulus

    # The reversal reads only the low ``width`` index bits, so the index
    # wraps modulo the period without a ``%`` pass.
    def _generate(self, length: int) -> np.ndarray:
        return _reverse_run(self._phase, length, self._width)

    def _generate_window(self, start: int, stop: int):
        # Bit reversal is index-addressable, so windows cost O(window)
        # at any width — wide-register VDC sources stay streamable even
        # when the period is too large for the period cache. Narrow
        # registers decline (return None): tiling the cached period is
        # cheaper than a reversal pass over the window.
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return _reverse_run(start + self._phase, stop - start, self._width)

    def _generate_at(self, indices: np.ndarray):
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return _reverse_bits(indices + self._phase, self._width)
