"""Counter ("ramp") sequence generator.

A plain modulo counter is the cheapest possible "RNG": it emits
``0, 1, 2, ..., N-1`` cyclically. A D/S converter driven by a counter
produces a deterministic *unary burst* stream (all 1s first). Counters are
exact (every residue once per period) but maximally structured, so two
counter-driven SNs are maximally positively correlated — useful as the
anchor for correlated-input experiments and for the accumulative parallel
counter converters.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from .base import PERIOD_CACHE_LIMIT, StreamRNG

__all__ = ["CounterRNG"]


class CounterRNG(StreamRNG):
    """Modulo-``2**width`` up-counter with an optional start offset."""

    def __init__(self, width: int = 8, offset: int = 0) -> None:
        width = check_positive_int(width, name="width")
        super().__init__(modulus=1 << width)
        self._width = width
        self._offset = check_non_negative_int(offset, name="offset")

    @property
    def name(self) -> str:
        suffix = f"+{self._offset}" if self._offset else ""
        return f"counter{self._width}{suffix}"

    @property
    def width(self) -> int:
        return self._width

    @property
    def period(self) -> int:
        """One full ramp: ``2**width`` cycles."""
        return self.modulus

    # ``& (modulus - 1)`` is the modulo for a power-of-two modulus, and
    # unlike ``% modulus`` it stays in int64 at width 63.
    def _generate(self, length: int) -> np.ndarray:
        return (np.arange(length, dtype=np.int64) + self._offset) & (self.modulus - 1)

    def _generate_window(self, start: int, stop: int):
        # Narrow counters decline: tiling the cached ramp beats an
        # arange + mask over the window.
        if self.modulus <= PERIOD_CACHE_LIMIT:
            return None
        return (np.arange(start, stop, dtype=np.int64) + self._offset) & (self.modulus - 1)

    def _generate_at(self, indices: np.ndarray):
        if self.modulus <= PERIOD_CACHE_LIMIT:
            return None
        return (indices + self._offset) & (self.modulus - 1)
