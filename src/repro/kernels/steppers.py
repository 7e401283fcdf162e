"""Time-parallel execution of compiled transition tables.

The reference FSM loops run one numpy masked-update pass *per stream bit*
— ``O(length)`` python-level iterations, each touching only ``batch``
elements. Given a :class:`~repro.kernels.tables.CompiledFSM`, the steppers
here recover the state trajectory with far fewer, far fatter numpy calls:

* **chunked-LUT stepper** — pre-composes the per-symbol transition
  functions over every possible ``k``-symbol window into one LUT
  ``(symbol-chunk code, state) -> state`` (``n_symbols**k * n_states``
  entries, cached per FSM), so one gather advances ``k`` cycles. The
  chunk codes of a stream are then **row-folded**: the ``(batch,
  chunks)`` code matrix is laid out as ``(batch, rows, cols)`` and
  stepped one *column* per gather, in three phases —

  1. every row but the last is stepped from *every* entry state at once
     (``cols`` gathers over ``(batch, rows - 1, n_states)``), giving each
     row's state map;
  2. a log-doubling scan composes the row maps into prefixes, which
     resolves the state each row is entered in;
  3. all rows are evaluated as one batch from their resolved entry
     states (``cols`` gathers over ``(batch, rows)``).

  That is ``2 cols + log2(rows)`` python iterations instead of
  ``chunks``. The compose / prefix-scan / evaluate algebra is the one
  :mod:`repro.engine.parallel` runs across processes, applied here across
  the rows of one array. ``rows = 1`` skips phases 1-2 and is the plain
  per-chunk loop; :func:`choose_rows` picks the row count per ``(batch,
  chunks, n_states)`` with a bounded ``(batch, rows, n_states)`` scratch.
  Large batches over short streams keep ``rows = 1``: each gather already
  spans the batch, and stepping every entry state would multiply the
  work by ``n_states``.
* **log-doubling scan stepper** — materialises each cycle's transition
  function as a ``(batch, length, n_states)`` state-map tensor and
  composes prefixes associatively by Hillis–Steele doubling:
  ``O(log length)`` python iterations of ``O(batch * length * n_states)``
  gathers. Only reachable as a forced strategy: ``auto`` never picks
  it (see :func:`choose_strategy` for the measurement).

Both produce the exact state sequence of the reference loop — the
trajectory is defined by the tables, and the tables are exact — so the
outputs gathered from them are bit-identical. ``strategy="auto"`` runs
the chunked stepper with the row count its cost model picks per
``(batch, chunks, n_states)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tables import CompiledFSM

__all__ = [
    "state_trajectory",
    "chunked_outputs",
    "step_chunk",
    "compose_chunk",
    "choose_chunk",
    "choose_rows",
    "choose_strategy",
    "STRATEGIES",
]

STRATEGIES = ("auto", "chunked", "scan", "step")

# Composed chunk LUTs are capped at this many entries (~2 MB of int16).
_CHUNK_TABLE_LIMIT = 1 << 20
_MAX_CHUNK = 16

# Element-equivalent cost of one python-level stepping iteration (its
# few numpy dispatches, ~4 us, over ~4 ns per gathered element on a
# 2-vCPU x86 box); used only to pick a row count, so the exact value is
# uncritical.
_CALL_OVERHEAD = 1024

# The fold's phase-1 state maps are (batch, rows - 1, n_states); the row
# count is capped so they stay within this many elements (4 MB of uint32).
_FOLD_SCRATCH_LIMIT = 1 << 20


def choose_chunk(n_symbols: int, n_states: int) -> int:
    """Largest ``k`` whose composed chunk LUT stays within the size cap."""
    k = 1
    while (
        k < _MAX_CHUNK
        and n_symbols ** (k + 1) * n_states <= _CHUNK_TABLE_LIMIT
    ):
        k += 1
    return k


def _fold_cost(batch: int, chunks: int, n_states: int, rows: int) -> int:
    """Element-equivalent cost of stepping ``chunks`` chunk codes folded
    into ``rows`` rows (phase 1 + scan + evaluate)."""
    cols = -(-chunks // rows)
    if rows == 1:
        return batch * cols + _CALL_OVERHEAD * cols
    rounds = (rows - 2).bit_length()        # ceil(log2(rows - 1))
    maps = batch * (rows - 1) * n_states
    return (
        maps * (cols + rounds) + batch * rows * cols
        + _CALL_OVERHEAD * (2 * cols + rounds)
    )


def choose_rows(batch: int, chunks: int, n_states: int) -> int:
    """Row count of the chunk fold; ``1`` is the plain per-chunk loop.

    The cheapest power of two under :func:`_fold_cost` whose phase-1
    scratch, ``batch * rows * n_states`` elements, fits the cap.
    """
    best, best_cost = 1, _fold_cost(batch, chunks, n_states, 1)
    rows = 2
    while rows <= chunks and batch * rows * n_states <= _FOLD_SCRATCH_LIMIT:
        cost = _fold_cost(batch, chunks, n_states, rows)
        if cost < best_cost:
            best, best_cost = rows, cost
        rows *= 2
    return best


def choose_strategy(batch: int, length: int, n_states: int, n_symbols: int) -> str:
    """Stepper pick for one ``(batch, length)`` evaluation.

    The row-folded chunked stepper, whose row count :func:`choose_rows`
    prices from ``(batch, chunks, n_states)``. The scan stepper is not
    picked: measured through the circuits' dispatch, it was ahead by at
    most 0.04 ms (batch 1, streams of at most 128 bits) and behind by up
    to two orders of magnitude on longer streams and larger batches.
    """
    return "step" if length <= 1 else "chunked"


def _composed_table(fsm: CompiledFSM, k: int, fused: bool) -> np.ndarray:
    """The k-step composition LUT, cached per ``(k, fused)``.

    Chunk codes pack symbols little-endian: ``code = sum_j sym_j *
    n_symbols**j`` where step ``j`` is applied ``j``-th.

    * ``fused=False`` — the plain state map: ``comp[code, s]`` is the
      state after the k steps (trajectory steppers).
    * ``fused=True`` — a uint32 LUT whose low 16 bits hold that state and
      whose high 16 bits pack the k per-step output bits: bit
      ``16 + 2j`` is step ``j``'s ``out_x``, bit ``16 + 2j + 1`` its
      ``out_y`` (single-output circuits use bit ``16 + j``). One gather
      per chunk then yields both the state advance and the output bits.
      Requires ``stride * k <= 16`` (the caller caps k).
    """
    key = (k, fused)
    cached = fsm._composed.get(key)
    if cached is None:
        n_codes = fsm.n_symbols ** k
        comp = np.broadcast_to(
            np.arange(fsm.n_states, dtype=fsm.steady.next_state.dtype),
            (n_codes, fsm.n_states),
        ).copy()
        out_words = np.zeros((n_codes, fsm.n_states), dtype=np.uint32) if fused else None
        codes = np.arange(n_codes, dtype=np.int64)
        stride = 2 if fsm.steady.out_y is not None else 1
        for j in range(k):
            digit = (codes // fsm.n_symbols ** j) % fsm.n_symbols
            if fused:
                bits_x = fsm.steady.out_x[digit[:, None], comp]
                out_words |= bits_x.astype(np.uint32) << np.uint32(stride * j)
                if stride == 2:
                    bits_y = fsm.steady.out_y[digit[:, None], comp]
                    out_words |= bits_y.astype(np.uint32) << np.uint32(2 * j + 1)
            comp = fsm.steady.next_state[digit[:, None], comp]
        if fused:
            cached = comp.astype(np.uint32) | (out_words << np.uint32(16))
        else:
            cached = comp
        fsm._composed[key] = cached
    return cached


def _chunk_codes(sym3: np.ndarray, n_symbols: int, k: int) -> np.ndarray:
    """Pack each row of k symbols into one chunk code, ``(batch, chunks)``.

    Symbol alphabets here are powers of two (4 for pair circuits, 2 for
    single-input ones), so the pack is a shift-accumulate over uint32;
    the general multiply-sum is kept for completeness.
    """
    bits = n_symbols.bit_length() - 1
    if n_symbols == 1 << bits:
        codes = sym3[:, :, 0].astype(np.uint32)
        for j in range(1, k):
            codes |= sym3[:, :, j].astype(np.uint32) << np.uint32(bits * j)
        return codes
    powers = n_symbols ** np.arange(k, dtype=np.int64)
    return (sym3.astype(np.int64) * powers).sum(axis=2)


_MORTON_LUT: Optional[np.ndarray] = None


def _morton_lut() -> np.ndarray:
    """byte -> uint32 with bit j spread to bit 2j (build once)."""
    global _MORTON_LUT
    if _MORTON_LUT is None:
        b = np.arange(256, dtype=np.uint32)
        spread = np.zeros(256, dtype=np.uint32)
        for j in range(8):
            spread |= ((b >> np.uint32(j)) & np.uint32(1)) << np.uint32(2 * j)
        _MORTON_LUT = spread
    return _MORTON_LUT


def _pair_chunk_codes(
    x: np.ndarray, y: np.ndarray, chunks: int, k: int,
) -> np.ndarray:
    """Chunk codes for a 4-symbol pair circuit straight from the two bit
    planes: ``code = sum_j (2 x_j + y_j) 4^j``.

    For the byte-aligned case (k = 8) this is one ``np.packbits`` per
    plane plus a Morton-spread LUT gather — no per-symbol python loop at
    all; other k fall back to the shift-accumulate over the symbol array.
    """
    batch = x.shape[0]
    if k == 8:
        xb = np.packbits(x[:, : chunks * 8], axis=1, bitorder="little")
        yb = np.packbits(y[:, : chunks * 8], axis=1, bitorder="little")
        lut = _morton_lut()
        return (lut[xb] << np.uint32(1)) | lut[yb]
    span = chunks * k
    sym3 = (
        ((x[:, :span] << np.uint8(1)) | y[:, :span]).reshape(batch, chunks, k)
    )
    return _chunk_codes(sym3, 4, k)


def _step_trajectory(
    next_state: np.ndarray, symbols: np.ndarray, state: np.ndarray,
    states: np.ndarray, start: int, stop: int,
) -> np.ndarray:
    """Reference per-cycle stepping over ``[start, stop)`` (also the tail
    helper for the chunked stepper's sub-chunk remainder)."""
    for t in range(start, stop):
        states[:, t] = state
        state = next_state[symbols[:, t], state]
    return state


def _fold_grid(codes: np.ndarray, n_states: int) -> Tuple[np.ndarray, int]:
    """Lay ``(batch, chunks)`` chunk codes out as the fold's column-major
    ``(cols, batch, rows)`` grid, premultiplied by ``n_states`` so a flat
    LUT index is ``grid[c] + state``.

    Row ``r`` holds chunks ``[r * cols, (r + 1) * cols)``; the last row
    is zero-padded past the stream's end and its true length returned.
    """
    batch, chunks = codes.shape
    rows = choose_rows(batch, chunks, n_states)
    cols = -(-chunks // rows)
    rows = -(-chunks // cols)
    padded = np.zeros((batch, rows * cols), dtype=codes.dtype)
    padded[:, :chunks] = codes
    grid = np.ascontiguousarray(padded.reshape(batch, rows, cols).transpose(2, 0, 1))
    grid *= codes.dtype.type(n_states)
    return grid, chunks - (rows - 1) * cols


def _walk(
    lut: np.ndarray, grid: np.ndarray, state: np.ndarray, last_len: int,
    mask: Optional[np.uint32] = None, history: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance ``state`` ``(batch, rows, width)`` along the grid's
    columns, one flat LUT ``take`` per column; the last row stops after
    ``last_len`` columns (its padding is stepped, then discarded).

    ``mask`` strips a fused LUT's output bits off the state;
    ``history[c]`` receives column ``c``'s raw LUT words (``width == 1``).
    """
    cols = grid.shape[0]
    last = None
    for c in range(cols):
        f = lut.take(grid[c, :, :, None] + state)
        if history is not None:
            history[c] = f[:, :, 0]
        state = f if mask is None else f & mask
        if c == last_len - 1 and last_len < cols:
            last = state[:, -1].copy()
    if last is not None:
        state[:, -1] = last
    return state


def _prefix_maps(maps: np.ndarray) -> np.ndarray:
    """Hillis–Steele scan over rows: ``out[:, r]`` is the composition of
    row maps ``0..r`` (row 0 applied first)."""
    d = 1
    while d < maps.shape[1]:
        maps[:, d:] = np.take_along_axis(maps[:, d:], maps[:, :-d], axis=2)
        d *= 2
    return maps


def _row_entries(
    lut: np.ndarray, grid: np.ndarray, state: np.ndarray, n_states: int,
    mask: Optional[np.uint32] = None,
) -> np.ndarray:
    """Phases 1-2 of the fold: the ``(batch, rows)`` state each row is
    entered in, given the ``(batch,)`` state entering row 0."""
    batch, rows = grid.shape[1:]
    entries = np.empty((batch, rows), dtype=state.dtype)
    entries[:, 0] = state
    if rows > 1:
        identity = np.broadcast_to(
            np.arange(n_states, dtype=state.dtype), (batch, rows - 1, n_states)
        )
        maps = _walk(lut, grid[:, :, :-1], identity, grid.shape[0], mask)
        maps = _prefix_maps(maps)
        entries[:, 1:] = np.take_along_axis(
            maps, state.astype(np.intp)[:, None, None], axis=2
        )[:, :, 0]
    return entries


def _unfold(history: np.ndarray, chunks: int) -> np.ndarray:
    """``(cols, batch, rows)`` per-column values back to ``(batch, chunks)``
    stream order."""
    cols, batch, rows = history.shape
    return history.transpose(1, 2, 0).reshape(batch, rows * cols)[:, :chunks]


def _chunked_trajectory(
    fsm: CompiledFSM, symbols: np.ndarray, state: np.ndarray, states: np.ndarray,
) -> np.ndarray:
    next_state = fsm.steady.next_state
    batch, length = symbols.shape
    k = choose_chunk(fsm.n_symbols, fsm.n_states)
    chunks = length // k
    if chunks:
        lut = _composed_table(fsm, k, fused=False).ravel()
        sym3 = symbols[:, : chunks * k].reshape(batch, chunks, k)
        codes = _chunk_codes(sym3, fsm.n_symbols, k)
        grid, last_len = _fold_grid(codes, fsm.n_states)
        entries = _row_entries(lut, grid, state, fsm.n_states)
        after = np.empty(grid.shape, dtype=next_state.dtype)
        state = _walk(lut, grid, entries[:, :, None], last_len, history=after)[:, -1, 0]
        entry = np.empty((batch, chunks), dtype=next_state.dtype)
        entry[:, 0] = entries[:, 0]
        entry[:, 1:] = _unfold(after, chunks - 1)
        # Expand intra-chunk states: k gathers over (batch, chunks).
        traj = np.empty((batch, chunks, k), dtype=next_state.dtype)
        st = entry
        for j in range(k):
            traj[:, :, j] = st
            if j + 1 < k:
                st = next_state[sym3[:, :, j], st]
        states[:, : chunks * k] = traj.reshape(batch, chunks * k)
    return _step_trajectory(next_state, symbols, state, states, chunks * k, length)


def chunked_outputs(
    fsm: CompiledFSM, x: np.ndarray, y: np.ndarray, state: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Chunked-LUT execution of a 4-symbol pair circuit, emitting output
    bits directly from the input bit planes.

    The fused chunk LUT carries, next to the k-step state map, the k
    packed per-step output bits — so each step of the row-folded walk is
    a *single* flat ``take`` per column of the chunk grid and the state
    trajectory is never materialised. Chunk codes come straight from the
    bit planes (:func:`_pair_chunk_codes`), and the packed output words are split
    into bit matrices with one ``np.unpackbits`` pass. Returns
    ``(out_x, out_y, final_state)`` over the inputs' full extent
    (``out_y`` is ``None`` for single-output circuits).
    """
    next_state = fsm.steady.next_state
    batch, length = x.shape
    two = fsm.steady.out_y is not None
    stride = 2 if two else 1
    out_x = np.empty((batch, length), dtype=np.uint8)
    out_y = np.empty((batch, length), dtype=np.uint8) if two else None
    # The fused LUT spends 16 bits on the state and 16 on output bits.
    k = min(choose_chunk(fsm.n_symbols, fsm.n_states), 16 // stride)
    chunks = length // k
    if chunks:
        lut = _composed_table(fsm, k, fused=True).ravel()
        mask = np.uint32(0xFFFF)
        # Flat indices fit uint32: n_codes * n_states <= the table cap.
        grid, last_len = _fold_grid(_pair_chunk_codes(x, y, chunks, k), fsm.n_states)
        entries = _row_entries(lut, grid, state.astype(np.uint32), fsm.n_states, mask)
        history = np.empty(grid.shape, dtype=np.uint32)
        st = _walk(lut, grid, entries[:, :, None], last_len, mask, history)
        state = st[:, -1, 0].astype(next_state.dtype)
        words = np.ascontiguousarray(_unfold(history >> np.uint32(16), chunks))
        # Split the packed words into bits: little-endian byte view ->
        # one unpackbits pass -> strided slices per output.
        byte_view = words.astype("<u4", copy=False).view(np.uint8)
        allbits = np.unpackbits(byte_view, axis=1, bitorder="little")
        allbits = allbits.reshape(batch, chunks, 32)
        out_x[:, : chunks * k] = (
            allbits[:, :, 0 : stride * k : stride].reshape(batch, chunks * k)
        )
        if two:
            out_y[:, : chunks * k] = (
                allbits[:, :, 1 : 2 * k : 2].reshape(batch, chunks * k)
            )
    # Sub-chunk remainder: per-cycle gathers, at most k - 1 iterations.
    for t in range(chunks * k, length):
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = fsm.steady.out_x[sym_t, state]
        if two:
            out_y[:, t] = fsm.steady.out_y[sym_t, state]
        state = next_state[sym_t, state]
    return out_x, out_y, state


def step_chunk(
    fsm: CompiledFSM,
    state: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    *,
    remaining_after: int = 0,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Resumable chunk execution: advance the FSM over one chunk of the
    stream, carrying state across chunk boundaries.

    One-shot stepping restarts the FSM from its initial state on every
    call — fine for whole streams, impossible for tile streaming, where a
    stream arrives as a sequence of chunks. ``step_chunk`` instead takes
    the state the previous chunk ended in and returns the state this one
    ends in, so splitting a stream at *any* boundaries reproduces the
    one-shot run bit for bit::

        state = initial
        for chunk in chunks:
            state, ox, oy = step_chunk(fsm, state, cx, cy,
                                       remaining_after=cycles_after_chunk)

    Args:
        fsm: a compiled pair FSM (``n_symbols == 4``, ``outputs >= 1``;
            trajectory-only circuits resume via
            :func:`state_trajectory`'s ``initial`` argument instead).
        state: ``(batch,)`` states entering the chunk (start a stream
            with ``fsm.initial_state`` everywhere).
        x, y: ``(batch, chunk_len)`` input bit planes.
        remaining_after: stream cycles that follow this chunk (0 for the
            final chunk). Flush-mode circuits consult it to decide which
            cycles fall in the tail region: a cycle with
            ``remaining <= len(fsm.tails)`` steps its per-remaining tail
            table — even when the tail region straddles chunk boundaries.

    Returns:
        ``(state_after, out_x, out_y)`` — ``out_y`` is ``None`` for
        single-output circuits.
    """
    if fsm.n_symbols != 4 or not fsm.outputs:
        raise ValueError(
            f"step_chunk needs a pair FSM with outputs (got n_symbols="
            f"{fsm.n_symbols}, outputs={fsm.outputs})"
        )
    if remaining_after < 0:
        raise ValueError(f"remaining_after must be >= 0, got {remaining_after}")
    batch, length = x.shape
    two = fsm.steady.out_y is not None
    # Cycles of this chunk that fall in the flush-tail region (remaining
    # counts down to remaining_after + 1 at the chunk's last cycle).
    tail_here = max(0, min(length, len(fsm.tails) - remaining_after))
    steady_len = length - tail_here
    state = state.astype(fsm.steady.next_state.dtype, copy=True)
    if steady_len:
        ox_steady, oy_steady, state = chunked_outputs(
            fsm, x[:, :steady_len], y[:, :steady_len], state
        )
    out_x = np.empty((batch, length), dtype=np.uint8)
    out_y = np.empty((batch, length), dtype=np.uint8) if two else None
    if steady_len:
        out_x[:, :steady_len] = ox_steady
        if two:
            out_y[:, :steady_len] = oy_steady
    for t in range(steady_len, length):
        remaining = length - t + remaining_after
        table = fsm.tails[remaining - 1]
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = table.out_x[sym_t, state]
        if two:
            out_y[:, t] = table.out_y[sym_t, state]
        state = table.next_state[sym_t, state]
    return state, out_x, out_y


def compose_chunk(
    fsm: CompiledFSM,
    maps: np.ndarray,
    symbols: np.ndarray,
    *,
    remaining_after: int = 0,
) -> np.ndarray:
    """Advance a batch of *state maps* over one symbol chunk.

    Where :func:`step_chunk` advances one concrete state per row, this
    advances the whole transition *function*: ``maps[b, s]`` is the state
    row ``b`` would be in after the already-composed prefix **if** it had
    entered that prefix in state ``s``. Feeding consecutive chunks
    composes their transition functions, so a span of a stream can be
    summarised as a single ``(batch, n_states)`` map without knowing the
    span's entry state — the enabler for prefix-scanned parallel tile
    scheduling (:mod:`repro.engine.parallel`).

    The steady region advances ``k`` symbols per gather through the same
    composed chunk LUT as the trajectory steppers, row-folded (phase 1
    over every row, then the scan; no evaluate pass); flush-tail cycles
    (``remaining <= len(fsm.tails)``) step their per-remaining tail
    table exactly as :func:`step_chunk` does, so maps composed across a
    tail-straddling boundary stay exact.

    Args:
        fsm: compiled transition tables (any ``n_symbols``).
        maps: ``(batch, n_states)`` prefix maps (start a span with the
            identity map ``arange(n_states)`` broadcast over the batch).
        symbols: ``(batch, length)`` symbol indices.
        remaining_after: stream cycles that follow this chunk.

    Returns the advanced ``(batch, n_states)`` maps (a fresh array; the
    input is never mutated).
    """
    if remaining_after < 0:
        raise ValueError(f"remaining_after must be >= 0, got {remaining_after}")
    batch, length = symbols.shape
    n_states = fsm.n_states
    if maps.shape != (batch, n_states):
        raise ValueError(
            f"maps shape {maps.shape} does not match (batch, n_states) = "
            f"({batch}, {n_states})"
        )
    maps = maps.astype(fsm.steady.next_state.dtype, copy=True)
    tail_here = max(0, min(length, len(fsm.tails) - remaining_after))
    steady_len = length - tail_here
    k = choose_chunk(fsm.n_symbols, n_states)
    chunks = steady_len // k
    if chunks:
        lut = _composed_table(fsm, k, fused=False).ravel()
        sym3 = symbols[:, : chunks * k].reshape(batch, chunks, k)
        grid, last_len = _fold_grid(_chunk_codes(sym3, fsm.n_symbols, k), n_states)
        # Row 0 continues the given prefix maps; every later row starts
        # from the identity. The scan's last prefix is the whole span.
        row_maps = np.empty((batch, grid.shape[2], n_states), dtype=maps.dtype)
        row_maps[:, 0] = maps
        row_maps[:, 1:] = np.arange(n_states, dtype=maps.dtype)
        row_maps = _walk(lut, grid, row_maps, last_len)
        maps = _prefix_maps(row_maps)[:, -1]
    for t in range(chunks * k, steady_len):
        maps = fsm.steady.next_state[symbols[:, t, None], maps]
    for t in range(steady_len, length):
        remaining = length - t + remaining_after
        table = fsm.tails[remaining - 1]
        maps = table.next_state[symbols[:, t, None], maps]
    return maps


def _scan_trajectory(
    fsm: CompiledFSM, symbols: np.ndarray, state: np.ndarray, states: np.ndarray,
) -> np.ndarray:
    next_state = fsm.steady.next_state
    batch, length = symbols.shape
    # g[b, t, s] = state after step t if the state before step 0 was s;
    # initialised to the per-step maps, then prefix-composed by doubling.
    g = next_state[symbols]                       # (batch, length, n_states)
    d = 1
    while d < length:
        g[:, d:, :] = np.take_along_axis(g[:, d:, :], g[:, :-d, :], axis=2)
        d *= 2
    # The trajectory needs one starting column per distinct initial state;
    # every caller starts all rows at fsm.initial_state, so a single
    # column gather suffices.
    init = int(state[0])
    states[:, 0] = init
    states[:, 1:] = g[:, :-1, init]
    return g[:, -1, init].astype(next_state.dtype, copy=False)


def state_trajectory(
    fsm: CompiledFSM,
    symbols: np.ndarray,
    *,
    strategy: str = "auto",
    initial: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """States *before* each steady-state step, plus the final state.

    Args:
        fsm: compiled transition tables (steady table only; flush tails
            are the dispatcher's job).
        symbols: ``(batch, length)`` symbol indices in
            ``[0, fsm.n_symbols)``.
        strategy: ``"auto"`` | ``"chunked"`` | ``"scan"`` | ``"step"``.
        initial: optional ``(batch,)`` starting states (defaults to
            ``fsm.initial_state`` everywhere). The scan stepper requires
            a uniform start and falls back to chunked otherwise.

    Returns:
        ``(states, final)`` — ``states[b, t]`` is row ``b``'s state
        entering step ``t`` (shape of ``symbols``); ``final`` the state
        after the last step.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    batch, length = symbols.shape
    dtype = fsm.steady.next_state.dtype
    if initial is None:
        state = np.full(batch, fsm.initial_state, dtype=dtype)
        uniform = True
    else:
        state = initial.astype(dtype, copy=True)
        uniform = bool(batch) and bool(np.all(state == state[0]))
    states = np.empty((batch, length), dtype=dtype)
    if length == 0 or batch == 0:
        return states, state
    if strategy == "auto":
        strategy = choose_strategy(batch, length, fsm.n_states, fsm.n_symbols)
    if strategy == "scan" and not uniform:
        strategy = "chunked"
    if strategy == "scan":
        final = _scan_trajectory(fsm, symbols, state, states)
    elif strategy == "chunked":
        final = _chunked_trajectory(fsm, symbols, state, states)
    else:
        final = _step_trajectory(
            fsm.steady.next_state, symbols, state, states, 0, length
        )
    return states, final
