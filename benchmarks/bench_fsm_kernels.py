"""Bench: time-parallel FSM kernels vs the per-bit reference loops.

The acceptance scenario for :mod:`repro.kernels`: a 1024-configuration,
N = 1024, depth-4 synchronizer sweep — the last interpreter-bound hot
path after the packed combinational domain (PR 1) and the compiled
engine (PR 2). The reference implementation steps a python loop once per
stream bit; the kernel layer compiles the FSM to transition tables and
advances whole symbol chunks per numpy gather, batch axis intact.

The ``>= 10x`` assertion mirrors the repo's acceptance floor for this
subsystem (measured margins on a dev box are ~20-30x). Equivalence is
not just spot-checked here — every row timed is also compared
bit-for-bit against its reference, and the engine audit of the FSM zoo
graph is checked float-identical across backends, so the bench cannot
report a speedup for wrong bits.

A second table times the row-folded stepper on one long stream (batch
1, N = 2^20) against a frozen copy of the per-chunk loop it replaced —
one ``take`` per 8 input bits — kept here as the baseline. Each row must
emit identical output bits on both sides (the work witness) and the fold
must clear a ``>= 10x`` floor.

Results are archived under ``benchmarks/results/fsm_kernels.txt`` and
``fsm_kernels_long_stream.txt`` (human tables) and
``benchmarks/results/BENCH_fsm_kernels.json`` (machine snapshot). Run directly (``python benchmarks/bench_fsm_kernels.py``) or
through pytest (``pytest benchmarks/bench_fsm_kernels.py -s``).
"""

import pathlib
import time

import numpy as np
import pytest

import _snapshot
from repro import engine, kernels
from repro.kernels import steppers
from repro.arith.agnostic import CAAdder, CAMax
from repro.arith.divide import CorDiv
from repro.core import Decorrelator, Desynchronizer, Synchronizer, TrackingForecastMemory
from repro.engine.library import build_graph
from repro.rng import LFSR, Halton, VanDerCorput

CONFIGS = 1024
N = 1024
DEPTH = 4
MIN_SPEEDUP = 10.0
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CONFIG = {"configs": CONFIGS, "n": N, "depth": DEPTH}
LONG_N = 1 << 20
LONG_CONFIG = {"batch": 1, "n": LONG_N}


def _best_of(fn, repeats=5):
    """Best-of-N wall time (min is the standard noise-robust estimator)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_pair():
    """The 1024-configuration sweep batch: comparator D/S conversion of
    evenly spread level pairs through two independent RNGs."""
    levels = np.linspace(0, N - 1, CONFIGS).astype(np.int64)
    sx = VanDerCorput(10).sequence(N)
    sy = Halton(3, 10).sequence(N)
    x = (levels[:, None] > sx[None, :]).astype(np.uint8)
    y = (levels[::-1, None] > sy[None, :]).astype(np.uint8)
    return x, y


def _case(call):
    """Time ``call`` on both backends (the dispatch switch selects the
    reference loops) and verify the outputs are bit-identical."""
    out = call()
    with kernels.use_backend("reference"):
        ref = call()
        t_ref = _best_of(call)
    t_kernel = _best_of(call)
    if isinstance(out, tuple):
        identical = all(np.array_equal(r, o) for r, o in zip(ref, out))
    else:
        identical = np.array_equal(ref, out)
    return t_ref, t_kernel, identical


def _pair_case(circuit, x, y):
    return _case(lambda: circuit._process_bits(x, y))


def _op_case(circuit, x, y):
    return _case(lambda: circuit.compute(x, y))


def _stream_case(circuit, x):
    return _case(lambda: circuit._process_stream_bits(x))


def _measure():
    x, y = _sweep_pair()
    cases = [
        ("synchronizer(D=4)", _pair_case, Synchronizer(DEPTH)),
        ("synchronizer(D=4,flush)", _pair_case, Synchronizer(DEPTH, flush=True)),
        ("desynchronizer(D=4)", _pair_case, Desynchronizer(DEPTH)),
        ("desynchronizer(D=4,flush)", _pair_case, Desynchronizer(DEPTH, flush=True)),
        ("decorrelator(D=4)", _pair_case,
         Decorrelator(LFSR(10, seed=45), LFSR(10, seed=142), depth=4)),
        ("tfm(bits=8)", _stream_case, TrackingForecastMemory(LFSR(10, seed=7))),
        ("cordiv", _op_case, CorDiv()),
        ("ca_adder", _op_case, CAAdder()),
        ("ca_max(6b)", _op_case, CAMax()),
    ]
    rows = []
    for name, runner, circuit in cases:
        args = (circuit, x) if runner is _stream_case else (circuit, x, y)
        t_ref, t_kernel, identical = runner(*args)
        rows.append((name, t_ref * 1e3, t_kernel * 1e3, t_ref / t_kernel, identical))
    return rows


def _render(rows):
    lines = [
        f"fsm kernels vs per-bit reference loops "
        f"({CONFIGS} configs, N={N}, depth={DEPTH})",
        f"{'circuit':<28} {'ref ms':>10} {'kernel ms':>10} {'speedup':>9}  bit-identical",
    ]
    for name, ref_ms, kernel_ms, speedup, identical in rows:
        lines.append(
            f"{name:<28} {ref_ms:>10.2f} {kernel_ms:>10.2f} {speedup:>8.1f}x  {identical}"
        )
    return "\n".join(lines)


def _run_and_archive():
    rows = _measure()
    text = _render(rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fsm_kernels.txt").write_text(text + "\n")
    for name, ref_ms, kernel_ms, speedup, _ in rows:
        _snapshot.add_entry(
            "fsm_kernels", op=name, wall_ms=kernel_ms,
            config=CONFIG, speedup=speedup,
        )
        _snapshot.add_entry(
            "fsm_kernels", op=f"{name} [reference]", wall_ms=ref_ms, config=CONFIG,
        )
    _snapshot.write("fsm_kernels")
    print("\n" + text)
    return rows, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_all_rows_bit_identical(measured):
    rows, text = measured
    bad = [name for name, *_, identical in rows if not identical]
    assert not bad, f"kernel output differs from reference for {bad}\n{text}"


def test_synchronizer_sweep_speedup(measured):
    rows, text = measured
    speedup = {r[0]: r[3] for r in rows}["synchronizer(D=4)"]
    assert speedup >= MIN_SPEEDUP, (
        f"depth-{DEPTH} synchronizer kernel only {speedup:.1f}x over the "
        f"per-bit reference (floor is {MIN_SPEEDUP}x)\n{text}"
    )


def test_every_fsm_kernel_beats_reference(measured):
    rows, text = measured
    slow = [(name, speedup) for name, _, _, speedup, _ in rows if speedup < 1.0]
    assert not slow, f"kernels slower than their reference loops: {slow}\n{text}"


def test_engine_audit_float_identical_across_backends():
    plan = engine.compile(build_graph("fsm_zoo"))
    with_kernels = plan.audit(256)
    with kernels.use_backend("reference"):
        reference = plan.audit(256)
    assert with_kernels.values == reference.values
    for a, b in zip(with_kernels.entries, reference.entries):
        assert a.measured_scc == b.measured_scc
        assert a.measured_value == b.measured_value


# ---------------------------------------------------------------------- #
# One long stream: row-folded stepping vs the per-chunk loop
# ---------------------------------------------------------------------- #

def _per_chunk_outputs(fsm, x, y, state):
    """Frozen baseline: the per-chunk loop of ``chunked_outputs`` before
    row folding — one fused-LUT ``take`` per chunk over the batch axis."""
    next_state = fsm.steady.next_state
    batch, length = x.shape
    two = fsm.steady.out_y is not None
    stride = 2 if two else 1
    out_x = np.empty((batch, length), dtype=np.uint8)
    out_y = np.empty((batch, length), dtype=np.uint8) if two else None
    k = min(steppers.choose_chunk(fsm.n_symbols, fsm.n_states), 16 // stride)
    chunks = length // k
    if chunks:
        fused = steppers._composed_table(fsm, k, fused=True).ravel()
        n_states = np.uint32(fsm.n_states)
        state_mask = np.uint32(0xFFFF)
        codes = steppers._pair_chunk_codes(x, y, chunks, k)
        words = np.empty((batch, chunks), dtype=np.uint32)
        st = state.astype(np.uint32)
        for c in range(chunks):
            f = fused.take(codes[:, c] * n_states + st)
            words[:, c] = f >> np.uint32(16)
            st = f & state_mask
        state = st.astype(next_state.dtype)
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
    for t in range(chunks * k, length):
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = fsm.steady.out_x[sym_t, state]
        if two:
            out_y[:, t] = fsm.steady.out_y[sym_t, state]
        state = next_state[sym_t, state]
    return out_x, out_y, state


def _measure_long_stream():
    rng = np.random.default_rng(20)
    x = rng.integers(0, 2, (1, LONG_N), dtype=np.uint8)
    y = rng.integers(0, 2, (1, LONG_N), dtype=np.uint8)
    rows = []
    for name, circuit in [
        ("synchronizer(D=1)", Synchronizer(1)),
        ("desynchronizer(D=1)", Desynchronizer(1)),
        ("synchronizer(D=4)", Synchronizer(DEPTH)),
    ]:
        fsm = kernels.compile_transform(circuit)
        state = np.full(1, fsm.initial_state, dtype=fsm.steady.next_state.dtype)
        base = _per_chunk_outputs(fsm, x, y, state)
        folded = steppers.chunked_outputs(fsm, x, y, state)
        identical = all(
            (a is None and b is None) or np.array_equal(a, b)
            for a, b in zip(base, folded)
        )
        t_loop = _best_of(lambda: _per_chunk_outputs(fsm, x, y, state), repeats=3)
        t_fold = _best_of(lambda: steppers.chunked_outputs(fsm, x, y, state))
        chunks = LONG_N // 8
        fold_rows = steppers.choose_rows(1, chunks, fsm.n_states)
        rows.append((name, fold_rows, t_loop * 1e3, t_fold * 1e3, t_loop / t_fold, identical))
    return rows


def _render_long_stream(rows):
    lines = [
        f"row-folded stepping vs per-chunk loop (batch 1, N={LONG_N})",
        f"{'circuit':<22} {'rows':>5} {'loop ms':>10} {'fold ms':>10} {'speedup':>9}  bit-identical",
    ]
    for name, fold_rows, loop_ms, fold_ms, speedup, identical in rows:
        lines.append(
            f"{name:<22} {fold_rows:>5} {loop_ms:>10.2f} {fold_ms:>10.2f} "
            f"{speedup:>8.1f}x  {identical}"
        )
    return "\n".join(lines)


def _run_and_archive_long_stream():
    rows = _measure_long_stream()
    text = _render_long_stream(rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fsm_kernels_long_stream.txt").write_text(text + "\n")
    for name, _, loop_ms, fold_ms, speedup, _ in rows:
        _snapshot.add_entry(
            "fsm_kernels", op=f"{name} [long stream, fold]", wall_ms=fold_ms,
            config=LONG_CONFIG, speedup=speedup,
        )
        _snapshot.add_entry(
            "fsm_kernels", op=f"{name} [long stream, per-chunk loop]",
            wall_ms=loop_ms, config=LONG_CONFIG,
        )
    _snapshot.write("fsm_kernels")
    print("\n" + text)
    return rows, text


@pytest.fixture(scope="module")
def long_stream():
    return _run_and_archive_long_stream()


def test_long_stream_fold_bit_identical(long_stream):
    rows, text = long_stream
    bad = [row[0] for row in rows if not row[-1]]
    assert not bad, f"fold output differs from the per-chunk loop for {bad}\n{text}"


def test_long_stream_fold_speedup(long_stream):
    rows, text = long_stream
    slow = [(row[0], row[4]) for row in rows if row[4] < MIN_SPEEDUP]
    assert not slow, (
        f"row fold under the {MIN_SPEEDUP}x floor over the per-chunk loop: {slow}\n{text}"
    )


if __name__ == "__main__":
    _run_and_archive()
    _run_and_archive_long_stream()
