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
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from .base import PERIOD_CACHE_LIMIT, StreamRNG

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

    # _reverse_bits reads only the low ``width`` bits, so the index wraps
    # modulo the period without a ``%`` pass.
    def _generate(self, length: int) -> np.ndarray:
        index = np.arange(length, dtype=np.int64) + self._phase
        return _reverse_bits(index, self._width)

    def _generate_window(self, start: int, stop: int):
        # Bit reversal is index-addressable, so windows cost O(window)
        # at any width — wide-register VDC sources stay streamable even
        # when the period is too large for the period cache. Narrow
        # registers decline (return None): tiling the cached period is
        # cheaper than a byte-table pass over the window.
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return self._generate_at(np.arange(start, stop, dtype=np.int64))

    def _generate_at(self, indices: np.ndarray):
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return _reverse_bits(indices + self._phase, self._width)
