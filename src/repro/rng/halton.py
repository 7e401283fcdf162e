"""Halton (generalised Van der Corput) low-discrepancy sequences.

The base-``b`` radical inverse of ``t`` reflects ``t``'s base-``b`` digits
about the radix point: ``t = d0 + d1*b + d2*b^2 + ...`` maps to
``d0/b + d1/b^2 + d2/b^3 + ...``. Base 2 recovers the Van der Corput
sequence; distinct (coprime) bases give mutually uncorrelated sequences,
which is how the paper's Table II/III builds its *uncorrelated* input
configurations (VDC base 2 against Halton base 3).

Values are quantised to ``width``-bit integers (``floor(frac * 2**width)``)
so the generator is drop-in compatible with the comparator-based D/S
converter.

Windows of consecutive indices (the tile-streaming case) come from a
per-base table ``P[lo]`` of the float partial sums of the low ``k``
digits (``b**k <= 2**16``: 2**16, 3**10, 5**6, 7**5), built lazily by the
digit loop itself. A window copies ``P`` once per aligned block of
``b**k`` indices and adds the block's high digits as scalars in digit
order — the same float64 operations in the same order as the digit
loop, so the fractions are bit-identical to :func:`radical_inverse` —
then quantises the block into the output window.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import RNGConfigurationError
from .base import StreamRNG, _aligned_blocks

__all__ = ["Halton", "radical_inverse"]

# Low-digit tables hold at most this many entries (512 KiB of float64).
_TABLE_LIMIT = 1 << 16


def radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Vectorised base-``b`` radical inverse, returning float64 in [0, 1)."""
    index = np.asarray(index, dtype=np.int64)
    result = np.zeros(index.shape, dtype=np.float64)
    scale = 1.0 / base
    remaining = index.copy()
    # 64-bit indices have at most ~40 base-3 digits; loop until all zero.
    while remaining.max(initial=0) > 0:
        digit = remaining % base
        result += digit * scale
        scale /= base
        remaining //= base
    return result


def _block_digits(base: int) -> int:
    """The largest ``k`` with ``base**k <= 2**16`` (0 for larger bases)."""
    digits = 0
    while base ** (digits + 1) <= _TABLE_LIMIT:
        digits += 1
    return digits


@lru_cache(maxsize=8)
def _low_digit_table(base: int) -> Tuple[np.ndarray, List[float]]:
    """``(P, scales)`` for a base: ``P[lo] = radical_inverse(lo)`` over
    the ``b**k`` values of ``k`` low digits (read-only), and the digit
    loop's scale sequence ``1/b, 1/b/b, ...`` for 64 digits."""
    size = base ** _block_digits(base)
    table = radical_inverse(np.arange(size, dtype=np.int64), base)
    table.setflags(write=False)
    scales = [1.0 / base]
    while len(scales) < 64:
        scales.append(scales[-1] / base)
    return table, scales


def _radical_inverse_blocks(first: int, count: int, base: int):
    """Yield ``(offset, fracs)``: the radical inverses of indices
    ``first + offset, first + offset + 1, ...``, bit for bit those of
    :func:`radical_inverse`, covering ``count`` indices in order.

    A run of at least one table block is served block by block from the
    low-digit table, in one scratch buffer that the next block
    overwrites; a shorter run is one digit-loop block.
    """
    digits = _block_digits(base)
    if digits == 0 or count < base ** digits:
        yield 0, radical_inverse(np.arange(first, first + count, dtype=np.int64), base)
        return
    table, scales = _low_digit_table(base)
    scratch = np.empty(table.size, dtype=np.float64)
    for offset, lo, hi, block in _aligned_blocks(first, count, table.size):
        fracs = scratch[:hi - lo]
        fracs[...] = table[lo:hi]
        # The digit loop's remaining iterations: result += digit * scale
        # for each high digit, low to high (a zero digit adds 0.0).
        position = digits
        while block:
            block, digit = divmod(block, base)
            if digit:
                fracs += digit * scales[position]
            position += 1
        yield offset, fracs


class Halton(StreamRNG):
    """Base-``b`` Halton sequence quantised to ``width``-bit integers.

    Args:
        base: radix of the radical inverse (>= 2). Use coprime bases for
            independent sequences.
        width: output bit width (modulus ``2**width``).
        phase: start index offset (skipping the 0th value, which is 0, is
            conventional; default phase=1 matches common SC practice).
    """

    def __init__(self, base: int = 3, width: int = 8, phase: int = 1) -> None:
        if base < 2:
            raise RNGConfigurationError(f"Halton base must be >= 2, got {base}")
        width = check_positive_int(width, name="width")
        super().__init__(modulus=1 << width)
        self._base = base
        self._width = width
        self._phase = check_non_negative_int(phase, name="phase")

    @property
    def name(self) -> str:
        return f"halton{self._base}"

    @property
    def base(self) -> int:
        return self._base

    @property
    def width(self) -> int:
        return self._width

    def _generate(self, length: int) -> np.ndarray:
        return self._generate_window(0, length)

    def _generate_window(self, start: int, stop: int) -> np.ndarray:
        # The radical inverse is index-addressable, so a window costs
        # O(stop - start) regardless of where it starts — the aperiodic
        # generator the tile-streaming sources still window for free.
        out = np.empty(stop - start, dtype=np.int64)
        for offset, fracs in _radical_inverse_blocks(
            start + self._phase, stop - start, self._base
        ):
            self._quantise(fracs, out[offset:offset + fracs.size])
        return out

    def _generate_at(self, indices: np.ndarray) -> np.ndarray:
        out = np.empty(indices.shape, dtype=np.int64)
        self._quantise(radical_inverse(indices + self._phase, self._base), out)
        return out

    def _quantise(self, fracs: np.ndarray, out: np.ndarray) -> None:
        # Scales ``fracs`` in place. ``fracs * 2**width`` is exact, and
        # reaches the modulus only when rounding made a fraction 1.0;
        # uint64 holds that value even at width 63, where int64 would
        # overflow.
        fracs *= self.modulus
        scaled = out.view(np.uint64)
        np.copyto(scaled, fracs, casting="unsafe")
        np.minimum(scaled, np.uint64(self.modulus - 1), out=scaled)
