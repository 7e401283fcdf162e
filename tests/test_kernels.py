"""Equivalence and determinism suite for :mod:`repro.kernels`.

The contract under test: for every circuit with a registered kernel, the
time-parallel execution is **bit-identical** to the circuit's per-cycle
reference loop — across depths, flush modes, encodings, odd/short
lengths, batch sizes, and every stepper strategy — and compilation is a
deterministic pure function of the circuit's constructor parameters.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.kernels import steppers
from repro.arith.agnostic import CAAdder, CAMax
from repro.arith.divide import CorDiv
from repro.bitstream import Bitstream, BitstreamBatch
from repro.bitstream.encoding import Encoding
from repro.core import (
    Decorrelator,
    Desynchronizer,
    IsolatorPair,
    SeriesPair,
    ShuffleBuffer,
    Synchronizer,
    TFMPair,
    TrackingForecastMemory,
)
from repro.rng import LFSR

DEPTHS = (1, 2, 4, 8)
BATCHES = (1, 7, 256)
LENGTHS = (1, 3, 17, 64, 255, 256)


def _bits(rng, batch, length):
    return rng.integers(0, 2, (batch, length)).astype(np.uint8)


@pytest.fixture(autouse=True)
def _restore_dispatch():
    yield
    kernels.set_backend("auto")
    kernels.set_strategy("auto")


# ---------------------------------------------------------------------- #
# Pair transforms: full (depth, flush, length, batch, strategy) grid
# ---------------------------------------------------------------------- #

class TestPairEquivalence:
    @pytest.mark.parametrize("cls", [Synchronizer, Desynchronizer])
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("flush", [False, True])
    def test_bit_identical_to_reference(self, cls, depth, flush):
        rng = np.random.default_rng(depth * 10 + flush)
        circuit = cls(depth, flush=flush)
        for batch in BATCHES:
            for length in LENGTHS:
                x = _bits(rng, batch, length)
                y = _bits(rng, batch, length)
                ref = circuit._reference_process_bits(x, y)
                for strategy in ("chunked", "scan", "step", "auto"):
                    kernels.set_strategy(strategy)
                    got = circuit._process_bits(x, y)
                    assert np.array_equal(ref[0], got[0]), (
                        f"{circuit.name} X differs: {strategy}, "
                        f"batch={batch}, length={length}"
                    )
                    assert np.array_equal(ref[1], got[1]), (
                        f"{circuit.name} Y differs: {strategy}, "
                        f"batch={batch}, length={length}"
                    )

    def test_biased_initial_state(self):
        rng = np.random.default_rng(5)
        x, y = _bits(rng, 16, 199), _bits(rng, 16, 199)
        for initial in (-2, -1, 0, 1, 2):
            sync = Synchronizer(2, flush=True, initial_state=initial)
            ref = sync._reference_process_bits(x, y)
            got = sync._process_bits(x, y)
            assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])

    def test_desynchronizer_first_save(self):
        rng = np.random.default_rng(6)
        x, y = _bits(rng, 8, 130), _bits(rng, 8, 130)
        for first in ("x", "y"):
            desync = Desynchronizer(3, flush=True, first_save=first)
            ref = desync._reference_process_bits(x, y)
            got = desync._process_bits(x, y)
            assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])

    @pytest.mark.parametrize("encoding", [Encoding.UNIPOLAR, Encoding.BIPOLAR])
    def test_both_encodings_via_process_pair(self, encoding):
        rng = np.random.default_rng(7)
        bits_x, bits_y = _bits(rng, 1, 256)[0], _bits(rng, 1, 256)[0]
        x = Bitstream(bits_x, encoding=encoding)
        y = Bitstream(bits_y, encoding=encoding)
        sync = Synchronizer(2, flush=True)
        kx, ky = sync.process_pair(x, y)
        kernels.set_backend("reference")
        rx, ry = sync.process_pair(x, y)
        assert np.array_equal(kx.bits, rx.bits)
        assert np.array_equal(ky.bits, ry.bits)
        assert kx.encoding is encoding and ky.encoding is encoding

    def test_stuck_bits_diagnostic_matches_reference(self):
        rng = np.random.default_rng(8)
        x, y = _bits(rng, 32, 255), _bits(rng, 32, 255)
        sync = Synchronizer(4)
        with_kernel = sync.stuck_bits(x, y)
        kernels.set_backend("reference")
        assert np.array_equal(with_kernel, sync.stuck_bits(x, y))


# ---------------------------------------------------------------------- #
# Stream transforms
# ---------------------------------------------------------------------- #

class TestStreamEquivalence:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    @pytest.mark.parametrize("init", ["half_ones", "zeros", "ones"])
    def test_shuffle_buffer(self, depth, init):
        rng = np.random.default_rng(depth)
        for batch, length in ((1, 1), (7, 63), (256, 256)):
            buf = ShuffleBuffer(LFSR(8, seed=45), depth, init=init)
            bits = _bits(rng, batch, length)
            assert np.array_equal(
                buf._reference_process_stream_bits(bits),
                buf._process_stream_bits(bits),
            )

    def test_shuffle_residual_ones_matches_reference(self):
        rng = np.random.default_rng(11)
        bits = _bits(rng, 16, 200)
        buf = ShuffleBuffer(LFSR(8, seed=45), 4)
        with_kernel = buf.residual_ones(bits)
        kernels.set_backend("reference")
        assert np.array_equal(with_kernel, buf.residual_ones(bits))

    def test_decorrelator(self):
        rng = np.random.default_rng(12)
        x, y = _bits(rng, 33, 257), _bits(rng, 33, 257)
        deco = Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4)
        kx, ky = deco._process_bits(x, y)
        kernels.set_backend("reference")
        rx, ry = deco._process_bits(x, y)
        assert np.array_equal(kx, rx) and np.array_equal(ky, ry)

    @pytest.mark.parametrize("bits_width", [4, 8])
    @pytest.mark.parametrize("shift", [1, 3])
    def test_tfm(self, bits_width, shift):
        rng = np.random.default_rng(13)
        tfm = TrackingForecastMemory(LFSR(8, seed=7), bits_width, shift=shift)
        for batch, length in ((1, 3), (7, 100), (64, 257)):
            stream = _bits(rng, batch, length)
            assert np.array_equal(
                tfm._reference_process_stream_bits(stream),
                tfm._process_stream_bits(stream),
            )

    def test_tfm_pair(self):
        rng = np.random.default_rng(14)
        x, y = _bits(rng, 9, 256), _bits(rng, 9, 256)
        pair = TFMPair(LFSR(8, seed=77))
        kx, ky = pair._process_bits(x, y)
        kernels.set_backend("reference")
        rx, ry = pair._process_bits(x, y)
        assert np.array_equal(kx, rx) and np.array_equal(ky, ry)


# ---------------------------------------------------------------------- #
# Single-output FSM operators
# ---------------------------------------------------------------------- #

class TestOpEquivalence:
    @pytest.mark.parametrize("op", [
        CorDiv(), CorDiv(initial=1), CAAdder(),
        CAMax(), CAMax(counter_bits=3), CAMax(counter_bits=10),
    ], ids=lambda op: f"{type(op).__name__}")
    def test_bit_identical(self, op):
        rng = np.random.default_rng(21)
        for batch in BATCHES:
            for length in (1, 17, 256):
                x = _bits(rng, batch, length)
                y = _bits(rng, batch, length)
                ref = op._reference_compute_bits(x, y)
                got = np.asarray(op.compute(BitstreamBatch(x), BitstreamBatch(y)).bits)
                assert np.array_equal(ref, got), (type(op).__name__, batch, length)

    def test_oversized_counter_declines_compilation(self):
        wide = CAMax(counter_bits=16)      # 65536 states > MAX_TABLE_STATES
        assert kernels.compiled_kernel(wide) is None
        rng = np.random.default_rng(22)
        x, y = _bits(rng, 4, 64), _bits(rng, 4, 64)
        # compute still works — through the reference loop.
        out = wide.compute(x, y)
        assert np.array_equal(out, wide._reference_compute_bits(x, y))


# ---------------------------------------------------------------------- #
# Compilation properties
# ---------------------------------------------------------------------- #

class TestCompilation:
    @pytest.mark.parametrize("make", [
        lambda: Synchronizer(3, flush=True, initial_state=-1),
        lambda: Desynchronizer(2, flush=True, first_save="y"),
        lambda: CorDiv(initial=1),
        lambda: CAAdder(),
        lambda: CAMax(counter_bits=4),
        lambda: TrackingForecastMemory(LFSR(8, seed=7), 6, shift=2),
    ])
    def test_compilation_is_deterministic(self, make):
        a = kernels.compile_transform(make())
        b = kernels.compile_transform(make())
        assert a.n_states == b.n_states
        assert a.n_symbols == b.n_symbols
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.steady.next_state, b.steady.next_state)
        for out_a, out_b in ((a.steady.out_x, b.steady.out_x),
                             (a.steady.out_y, b.steady.out_y)):
            assert (out_a is None) == (out_b is None)
            if out_a is not None:
                assert np.array_equal(out_a, out_b)
        assert len(a.tails) == len(b.tails)
        for ta, tb in zip(a.tails, b.tails):
            assert np.array_equal(ta.next_state, tb.next_state)

    @given(
        depth=st.integers(1, 8),
        flush=st.booleans(),
        cls_index=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_compilation_deterministic_property(self, depth, flush, cls_index):
        # Property: compilation is a pure function of the constructor
        # parameters — two independent compiles of equal circuits yield
        # identical tables, tail count, and initial state.
        cls = (Synchronizer, Desynchronizer)[cls_index]
        a = kernels.compile_transform(cls(depth, flush=flush))
        b = kernels.compile_transform(cls(depth, flush=flush))
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.steady.next_state, b.steady.next_state)
        assert np.array_equal(a.steady.out_x, b.steady.out_x)
        assert np.array_equal(a.steady.out_y, b.steady.out_y)
        assert len(a.tails) == len(b.tails) == (depth if flush else 0)
        for ta, tb in zip(a.tails, b.tails):
            assert np.array_equal(ta.next_state, tb.next_state)
            assert np.array_equal(ta.out_x, tb.out_x)
            assert np.array_equal(ta.out_y, tb.out_y)

    @given(
        pair=st.integers(4, 96).flatmap(
            lambda n: st.tuples(
                arrays(np.uint8, (3, n), elements=st.integers(0, 1)),
                arrays(np.uint8, (3, n), elements=st.integers(0, 1)),
            )
        ),
        depth=st.integers(1, 4),
        flush=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_reference_property(self, pair, depth, flush):
        x, y = pair
        for cls in (Synchronizer, Desynchronizer):
            circuit = cls(depth, flush=flush)
            ref = circuit._reference_process_bits(x, y)
            got = circuit._process_bits(x, y)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])

    def test_state_space_sizes(self):
        assert kernels.compile_transform(Synchronizer(4)).n_states == 9
        assert kernels.compile_transform(Desynchronizer(4)).n_states == 10
        assert kernels.compile_transform(CorDiv()).n_states == 2
        assert kernels.compile_transform(CAAdder()).n_states == 2

    def test_flush_adds_tail_tables(self):
        assert len(kernels.compile_transform(Synchronizer(4)).tails) == 0
        assert len(kernels.compile_transform(Synchronizer(4, flush=True)).tails) == 4
        assert len(kernels.compile_transform(Desynchronizer(2, flush=True)).tails) == 2

    def test_kernel_cached_per_instance(self):
        sync = Synchronizer(2)
        assert kernels.compiled_kernel(sync) is kernels.compiled_kernel(sync)

    def test_subclass_is_not_kernelized(self):
        class Tweaked(Synchronizer):
            pass

        assert kernels.compiled_kernel(Tweaked(1)) is None
        assert not kernels.is_kernelized(Tweaked(1))

    def test_is_kernelized_composites(self):
        assert kernels.is_kernelized(Synchronizer(1))
        assert kernels.is_kernelized(Decorrelator(LFSR(8, seed=1), LFSR(8, seed=2)))
        assert kernels.is_kernelized(TFMPair(LFSR(8, seed=3)))
        assert kernels.is_kernelized(IsolatorPair(delay=2))
        assert kernels.is_kernelized(
            SeriesPair([Synchronizer(1), Synchronizer(1)])
        )

    def test_backend_and_strategy_validation(self):
        with pytest.raises(ValueError):
            kernels.set_backend("gpu")
        with pytest.raises(ValueError):
            kernels.set_strategy("warp")
        with kernels.use_backend("reference", strategy="step"):
            assert kernels.get_backend() == "reference"
            assert kernels.get_strategy() == "step"
        assert kernels.get_backend() == "auto"
        assert kernels.get_strategy() == "auto"


# ---------------------------------------------------------------------- #
# Steppers
# ---------------------------------------------------------------------- #

class TestSteppers:
    def test_trajectory_strategies_agree(self):
        rng = np.random.default_rng(31)
        fsm = kernels.compile_transform(Synchronizer(4))
        symbols = rng.integers(0, 4, (13, 301)).astype(np.uint8)
        baseline = kernels.state_trajectory(fsm, symbols, strategy="step")
        for strategy in ("chunked", "scan", "auto"):
            states, final = kernels.state_trajectory(fsm, symbols, strategy=strategy)
            assert np.array_equal(states, baseline[0]), strategy
            assert np.array_equal(final, baseline[1]), strategy

    def test_strategy_choice_scales_with_shape(self):
        # The chunked stepper is picked at every shape (batch 1 at
        # N = 2^16, depth-4 synchronizer: scan 76 ms, plain loop 30 ms,
        # row fold 1.2 ms); the row count is what scales with shape.
        assert kernels.choose_strategy(1024, 1024, 9, 4) == "chunked"
        assert kernels.choose_strategy(1, 1 << 16, 9, 4) == "chunked"
        # Long batch-1 streams fold; large batches over short streams
        # (the tables shards, the 1024 x 1024 sweep) keep the plain loop.
        assert kernels.choose_rows(1, (1 << 16) // 8, 9) > 1
        assert kernels.choose_rows(1, (1 << 20) // 8, 9) > 1
        assert kernels.choose_rows(4096, 1016 // 8, 9) == 1
        assert kernels.choose_rows(1024, 1024 // 8, 9) == 1

    def test_fold_scratch_is_capped(self):
        from repro.kernels.steppers import _FOLD_SCRATCH_LIMIT

        for batch, chunks, n_states in [(1, 1 << 20, 9), (1, 1 << 17, 256), (64, 1 << 14, 9)]:
            rows = kernels.choose_rows(batch, chunks, n_states)
            assert batch * rows * n_states <= _FOLD_SCRATCH_LIMIT

    def test_chunk_size_respects_table_cap(self):
        # 4 symbols, 9 states -> 4^k * 9 <= 2^20 caps k at 8.
        assert kernels.choose_chunk(4, 9) == 8
        # 2 symbols, 256 states (TFM) packs longer chunks.
        assert kernels.choose_chunk(2, 256) == 12

    def test_empty_batch(self):
        # Degenerate but reference-supported shape: zero rows.
        empty = np.zeros((0, 64), np.uint8)
        sync = Synchronizer(2)
        ref = sync._reference_process_bits(empty, empty)
        got = sync._process_bits(empty, empty)
        assert got[0].shape == ref[0].shape == (0, 64)
        for strategy in ("chunked", "scan", "step"):
            kernels.set_strategy(strategy)
            assert sync._process_bits(empty, empty)[0].shape == (0, 64)

    def test_trajectory_rejects_unknown_strategy(self):
        fsm = kernels.compile_transform(Synchronizer(1))
        with pytest.raises(ValueError):
            kernels.state_trajectory(fsm, np.zeros((1, 4), np.uint8), strategy="nope")


# ---------------------------------------------------------------------- #
# Row-folded stepping: any forced row count is bit-identical
# ---------------------------------------------------------------------- #

def _forced_rows(rows):
    """Force the fold's row count (the cost model is otherwise free to
    pick ``1`` on short streams and never exercise phases 1-2)."""
    return mock.patch.object(steppers, "choose_rows", lambda batch, chunks, n: rows)


FOLD_PAIRS = [
    lambda depth, flush: Synchronizer(depth, flush=flush),
    lambda depth, flush: Desynchronizer(depth, flush=flush),
]
FOLD_OPS = [CorDiv, CAAdder, lambda: CAMax(counter_bits=3)]
FOLD_ROWS = st.sampled_from([1, 2, 3, 5, 8, 64])


def _reference_map(fsm, symbols, remaining_after=0):
    """Per-cycle state-map walk: the oracle for :func:`compose_chunk`."""
    batch, length = symbols.shape
    maps = np.broadcast_to(np.arange(fsm.n_states), (batch, fsm.n_states)).copy()
    for t in range(length):
        remaining = length - t + remaining_after
        table = fsm.tails[remaining - 1] if remaining <= len(fsm.tails) else fsm.steady
        maps = table.next_state[symbols[:, t, None], maps]
    return maps


class TestRowFold:
    @given(
        family=st.sampled_from(FOLD_PAIRS),
        depth=st.sampled_from([1, 2, 4]),
        flush=st.booleans(),
        batch=st.integers(1, 4),
        length=st.integers(1, 700),
        rows=FOLD_ROWS,
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_match_reference_and_step(
        self, family, depth, flush, batch, length, rows, seed
    ):
        circuit = family(depth, flush)
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, batch, length), _bits(rng, batch, length)
        with kernels.use_backend("reference"):
            ref = circuit._process_bits(x, y)
        with kernels.use_backend("auto", strategy="step"):
            step = circuit._process_bits(x, y)
        with _forced_rows(rows):
            got = circuit._process_bits(x, y)
        for r, s, g in zip(ref, step, got):
            assert np.array_equal(r, g) and np.array_equal(s, g)

    @given(
        factory=st.sampled_from(FOLD_OPS),
        batch=st.integers(1, 4),
        length=st.integers(1, 500),
        rows=FOLD_ROWS,
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_ops_match_reference(self, factory, batch, length, rows, seed):
        op = factory()
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, batch, length), _bits(rng, batch, length)
        with kernels.use_backend("reference"):
            ref = op.compute(x, y)
        with _forced_rows(rows):
            got = op.compute(x, y)
        assert np.array_equal(np.asarray(ref), np.asarray(got))

    @given(
        batch=st.integers(1, 4),
        length=st.integers(1, 900),
        rows=FOLD_ROWS,
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_tfm_trajectory_matches_reference(self, batch, length, rows, seed):
        tfm = TrackingForecastMemory(LFSR(10, seed=7), bits=6)
        rng = np.random.default_rng(seed)
        bits = _bits(rng, batch, length)
        ref = tfm._reference_process_stream_bits(bits)
        with _forced_rows(rows):
            got = tfm._process_stream_bits(bits)
        assert np.array_equal(ref, got)

    @given(
        family=st.sampled_from(FOLD_PAIRS),
        depth=st.sampled_from([1, 3]),
        flush=st.booleans(),
        batch=st.integers(1, 3),
        tiles=st.lists(st.integers(1, 300), min_size=1, max_size=5),
        tail=st.lists(st.integers(1, 4), max_size=4),
        rows=FOLD_ROWS,
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tile_splits_resume_exactly(
        self, family, depth, flush, batch, tiles, tail, rows, seed
    ):
        # Short trailing tiles put the chunk boundaries inside the flush
        # tail, so remaining_after straddles it.
        circuit = family(depth, flush)
        fsm = kernels.compile_transform(circuit)
        sizes = tiles + tail
        total = sum(sizes)
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, batch, total), _bits(rng, batch, total)
        ref = circuit._reference_process_bits(x, y)
        state = np.full(batch, fsm.initial_state, dtype=fsm.steady.next_state.dtype)
        outs, offset = [], 0
        with _forced_rows(rows):
            for size in sizes:
                state, ox, oy = kernels.step_chunk(
                    fsm, state, x[:, offset:offset + size], y[:, offset:offset + size],
                    remaining_after=total - offset - size,
                )
                outs.append((ox, oy))
                offset += size
        assert np.array_equal(np.concatenate([o[0] for o in outs], axis=1), ref[0])
        assert np.array_equal(np.concatenate([o[1] for o in outs], axis=1), ref[1])

    @given(
        which=st.sampled_from(["sync", "desync", "tfm"]),
        batch=st.integers(1, 3),
        length=st.integers(1, 600),
        remaining_after=st.integers(0, 6),
        rows=FOLD_ROWS,
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_compose_matches_per_cycle_maps(
        self, which, batch, length, remaining_after, rows, seed
    ):
        circuit = {
            "sync": lambda: Synchronizer(3, flush=True),
            "desync": lambda: Desynchronizer(2, flush=True),
            "tfm": lambda: TrackingForecastMemory(LFSR(8, seed=3), bits=5),
        }[which]()
        fsm = kernels.compile_transform(circuit)
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, fsm.n_symbols, (batch, length)).astype(np.uint8)
        entry = rng.integers(0, fsm.n_states, (batch, fsm.n_states))
        entry = entry.astype(fsm.steady.next_state.dtype)
        expected = np.take_along_axis(
            _reference_map(fsm, symbols, remaining_after), entry.astype(np.intp), axis=1
        )
        with _forced_rows(rows):
            got = steppers.compose_chunk(
                fsm, entry, symbols, remaining_after=remaining_after
            )
        assert np.array_equal(got, expected)

    def test_ragged_last_row(self):
        # 10 chunks over 3 requested rows: cols = 4, last row 2 chunks.
        fsm = kernels.compile_transform(Synchronizer(2))
        codes = np.arange(10, dtype=np.uint32)[None, :]
        with _forced_rows(3):
            grid, last_len = steppers._fold_grid(codes, fsm.n_states)
        assert grid.shape == (4, 1, 3) and last_len == 2
        rng = np.random.default_rng(0)
        x, y = _bits(rng, 2, 8 * 10 + 5), _bits(rng, 2, 8 * 10 + 5)
        ref = Synchronizer(2)._reference_process_bits(x, y)
        with _forced_rows(3):
            got = Synchronizer(2)._process_bits(x, y)
        assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])


# ---------------------------------------------------------------------- #
# Engine integration
# ---------------------------------------------------------------------- #

class TestEngineIntegration:
    def test_audit_float_identical_across_backends(self):
        from repro import engine
        from repro.engine.library import build_graph

        plan = engine.compile(build_graph("fsm_zoo"))
        with_kernels = plan.audit(256)
        kernels.set_backend("reference")
        reference = plan.audit(256)
        assert with_kernels.values == reference.values
        for a, b in zip(with_kernels.entries, reference.entries):
            assert a.measured_scc == b.measured_scc
            assert a.measured_value == b.measured_value

    def test_run_batch_rows_bit_identical_across_backends(self):
        from repro import engine
        from repro.engine.library import build_graph

        plan = engine.compile(build_graph("fsm_zoo"))
        values = {"a": np.linspace(0.1, 0.9, 17)}
        with_kernels = plan.run_batch(255, values=values)
        kernels.set_backend("reference")
        reference = plan.run_batch(255, values=values)
        for name in with_kernels.names:
            assert np.array_equal(
                with_kernels.words(name), reference.words(name)
            ), name
