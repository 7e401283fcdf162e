"""Bench: table-driven RNG windows vs the per-element loops they replaced.

The long-stream audit (N = 2^20, width-20 registers) asks each source
RNG for one window per 2^18-bit tile. This bench times exactly those
four windows for the two generators the paper pairs for uncorrelated
inputs — ``halton3`` and ``vdc`` — against frozen copies of the old
per-element code, kept here as the baseline:

* Halton: the base-``b`` digit loop over every index of the window,
  then quantisation to ``width`` bits;
* VDC: the byte-table bit reversal over every index of the window.

The new path serves each window from a cached low-part table with one
combine step per aligned block. Both sides must return identical int64
arrays (the work witness), and the floors are Halton >= 10x and
VDC >= 3x. The one-off table build (the first window after the cache
is cleared) is reported as its own column, not folded into the warm
timing.

Results are archived under ``benchmarks/results/rng_windows.txt`` (human
table, with the machine it ran on) and
``benchmarks/results/BENCH_rng_windows.json`` (machine snapshot). Run
directly (``python benchmarks/bench_rng_windows.py``) or through pytest
(``pytest benchmarks/bench_rng_windows.py -s``).
"""

import os
import pathlib
import platform
import time

import numpy as np
import pytest

import _snapshot
from repro.rng import make_rng
from repro.rng.halton import _low_digit_table
from repro.rng.vandercorput import _low_reversal_table

WIDTH = 20
N = 1 << 20
TILE = 1 << 18
TILES = [(start, start + TILE) for start in range(0, N, TILE)]
FLOORS = {"halton3": 10.0, "vdc": 3.0}
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CONFIG = {"width": WIDTH, "n": N, "tile": TILE}


def _best_of(fn, repeats=5):
    """Best-of-N wall time (min is the standard noise-robust estimator)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------- #
# Frozen baselines: the per-element loops before the low-part tables
# ---------------------------------------------------------------------- #

def _digit_loop_window(base, start, stop, phase, width):
    """Old Halton window: digit loop over every index, then quantise."""
    remaining = np.arange(start, stop, dtype=np.int64) + phase
    result = np.zeros(remaining.shape, dtype=np.float64)
    scale = 1.0 / base
    while remaining.max(initial=0) > 0:
        digit = remaining % base
        result += digit * scale
        scale /= base
        remaining //= base
    modulus = 1 << width
    return np.minimum((result * modulus).astype(np.int64), modulus - 1)


_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _byte_table_window(start, stop, phase, width):
    """Old VDC window: byte-table reversal of every index."""
    index = np.arange(start, stop, dtype=np.int64) + phase
    nbytes = -(-width // 8)
    le = index.reshape(-1, 1).view(np.uint8)
    out = np.zeros_like(le)
    out[:, :nbytes] = _BYTE_REVERSED[le[:, nbytes - 1::-1]]
    return (out.view("<u8") >> np.uint64(8 * nbytes - width)).view("<i8").reshape(-1)


def _baseline(spec):
    if spec == "vdc":
        return lambda s, e: _byte_table_window(s, e, 0, WIDTH)
    return lambda s, e: _digit_loop_window(3, s, e, 1, WIDTH)


def _all_tiles(window):
    return [window(s, e) for s, e in TILES]


def _walk_tiles(window):
    # Timed like the tile walk consumes them: each window is dropped
    # before the next is made, so both sides reuse the freed buffer.
    for s, e in TILES:
        window(s, e)


def _measure():
    rows = []
    for spec, table in (("halton3", _low_digit_table), ("vdc", _low_reversal_table)):
        rng = make_rng(spec, width=WIDTH)
        old = _baseline(spec)
        table.cache_clear()
        started = time.perf_counter()
        rng.sequence_window(*TILES[0])
        cold_ms = (time.perf_counter() - started) * 1e3
        identical = all(
            np.array_equal(a, b)
            for a, b in zip(_all_tiles(old), _all_tiles(rng.sequence_window))
        )
        t_old = _best_of(lambda: _walk_tiles(old), repeats=3) / len(TILES)
        t_new = _best_of(lambda: _walk_tiles(rng.sequence_window)) / len(TILES)
        rows.append((spec, t_old * 1e3, t_new * 1e3, cold_ms, t_old / t_new, identical))
    return rows


def _machine():
    import numpy

    return (f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}")


def _render(rows):
    lines = [
        f"RNG windows: per 2^18 tile of an N=2^20 stream, width {WIDTH} ({_machine()})",
        f"{'generator':<10} {'loop ms':>9} {'table ms':>9} {'cold ms':>8} "
        f"{'speedup':>8} {'floor':>6}  identical",
    ]
    for spec, old_ms, new_ms, cold_ms, speedup, identical in rows:
        lines.append(
            f"{spec:<10} {old_ms:>9.2f} {new_ms:>9.2f} {cold_ms:>8.2f} "
            f"{speedup:>7.1f}x {FLOORS[spec]:>5.0f}x  {identical}"
        )
    return "\n".join(lines)


def _run_and_archive():
    rows = _measure()
    text = _render(rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "rng_windows.txt").write_text(text + "\n")
    for spec, old_ms, new_ms, cold_ms, speedup, _ in rows:
        _snapshot.add_entry("rng_windows", op=f"{spec} [table window]",
                            wall_ms=new_ms, config=CONFIG, speedup=speedup)
        _snapshot.add_entry("rng_windows", op=f"{spec} [per-element loop]",
                            wall_ms=old_ms, config=CONFIG)
        _snapshot.add_entry("rng_windows", op=f"{spec} [first window, table build]",
                            wall_ms=cold_ms, config=CONFIG)
    _snapshot.write("rng_windows")
    print("\n" + text)
    return rows, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_windows_identical_to_loops(measured):
    rows, text = measured
    bad = [row[0] for row in rows if not row[-1]]
    assert not bad, f"table windows differ from the per-element loops for {bad}\n{text}"


def test_windows_beat_loops(measured):
    rows, text = measured
    slow = [(row[0], round(row[4], 1)) for row in rows if row[4] < FLOORS[row[0]]]
    assert not slow, f"table windows under their floors {FLOORS}: {slow}\n{text}"


if __name__ == "__main__":
    _run_and_archive()
