"""Unit tests for the RNG zoo (repro.rng)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RNGConfigurationError
from repro.rng import (
    LFSR,
    MAXIMAL_TAPS,
    CounterRNG,
    Halton,
    Sobol,
    SystemRNG,
    VanDerCorput,
    available_rngs,
    make_rng,
    radical_inverse,
)


class TestLFSR:
    def test_full_period_covers_all_nonzero_states(self):
        for width in (3, 4, 5, 8):
            lfsr = LFSR(width=width)
            seq = lfsr.sequence((1 << width) - 1)
            # Mapped to state-1: every residue 0..2^w-2 exactly once.
            assert sorted(seq.tolist()) == list(range((1 << width) - 1))

    def test_period_property(self):
        assert LFSR(width=8).period == 255

    def test_deterministic_replay(self):
        a = LFSR(width=8, seed=17).sequence(100)
        b = LFSR(width=8, seed=17).sequence(100)
        assert np.array_equal(a, b)

    def test_different_seeds_are_rotations(self):
        base = LFSR(width=4, seed=1).sequence(15)
        other = LFSR(width=4, seed=7).sequence(15)
        assert sorted(base.tolist()) == sorted(other.tolist())
        assert not np.array_equal(base, other)

    def test_phase_skips_outputs(self):
        base = LFSR(width=8).sequence(20)
        shifted = LFSR(width=8, phase=5).sequence(15)
        assert np.array_equal(base[5:], shifted)

    def test_zero_seed_rejected(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=8, seed=0)

    def test_seed_too_large_rejected(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=4, seed=16)

    def test_unknown_width_needs_taps(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=99)

    def test_custom_taps(self):
        lfsr = LFSR(width=3, taps=(3, 2))
        assert lfsr.sequence(7).size == 7

    def test_taps_must_include_width(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=4, taps=(3, 2))

    def test_taps_table_covers_common_widths(self):
        for width in range(2, 25):
            assert width in MAXIMAL_TAPS


class TestVanDerCorput:
    def test_first_values_width3(self):
        # Bit-reversal of 0,1,2,3,... in 3 bits: 0,4,2,6,1,5,3,7.
        seq = VanDerCorput(width=3).sequence(8)
        assert seq.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_full_period_is_permutation(self):
        seq = VanDerCorput(width=8).sequence(256)
        assert sorted(seq.tolist()) == list(range(256))

    def test_period_wraps(self):
        v = VanDerCorput(width=3)
        seq = v.sequence(16)
        assert np.array_equal(seq[:8], seq[8:])

    def test_phase(self):
        base = VanDerCorput(width=4).sequence(16)
        shifted = VanDerCorput(width=4, phase=3).sequence(13)
        assert np.array_equal(base[3:], shifted)

    def test_low_discrepancy_prefix(self):
        # Every prefix of length 2^k hits each residue class mod 2^k once.
        seq = VanDerCorput(width=8).sequence(16)
        assert sorted((seq >> 4).tolist()) == list(range(16))


class TestHalton:
    def test_radical_inverse_base2(self):
        out = radical_inverse(np.array([1, 2, 3, 4]), 2)
        assert out.tolist() == [0.5, 0.25, 0.75, 0.125]

    def test_radical_inverse_base3(self):
        out = radical_inverse(np.array([1, 2, 3]), 3)
        assert out.tolist() == [1 / 3, 2 / 3, 1 / 9]

    def test_values_in_range(self):
        seq = Halton(base=3, width=8).sequence(500)
        assert seq.min() >= 0 and seq.max() <= 255

    def test_base_must_be_at_least_two(self):
        with pytest.raises(RNGConfigurationError):
            Halton(base=1)

    def test_distinct_bases_decorrelated(self):
        a = Halton(base=3, width=8).fractions(512)
        b = Halton(base=5, width=8).fractions(512)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_approximate_uniformity(self):
        seq = Halton(base=3, width=8).sequence(3**5)
        hist, _ = np.histogram(seq, bins=4, range=(0, 256))
        assert hist.max() - hist.min() <= 4


class TestSobol:
    def test_dimension_zero_is_vdc_family(self):
        # Gray-code Sobol dimension 0 visits the same values as the Van der
        # Corput sequence (it is the VDC net in Gray-code order), and every
        # power-of-two prefix is balanced across halves like VDC.
        sobol = Sobol(dimension=0, width=8).sequence(256)
        vdc = VanDerCorput(width=8).sequence(256)
        assert sorted(sobol.tolist()) == sorted(vdc.tolist())
        assert sorted((sobol[:16] >> 4).tolist()) == list(range(16))

    def test_full_period_is_permutation(self):
        for dim in (1, 2, 3):
            seq = Sobol(dimension=dim, width=6).sequence(64)
            assert sorted(seq.tolist()) == list(range(64))

    def test_dimensions_decorrelated(self):
        a = Sobol(dimension=1, width=8).fractions(256)
        b = Sobol(dimension=2, width=8).fractions(256)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.15

    def test_dimension_out_of_range(self):
        with pytest.raises(RNGConfigurationError):
            Sobol(dimension=99)

    def test_phase(self):
        base = Sobol(dimension=1, width=6).sequence(20)
        shifted = Sobol(dimension=1, width=6, phase=4).sequence(16)
        assert np.array_equal(base[4:], shifted)


class TestCounter:
    def test_ramp(self):
        assert CounterRNG(width=3).sequence(10).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_offset(self):
        assert CounterRNG(width=3, offset=6).sequence(4).tolist() == [6, 7, 0, 1]


class TestSystemRNG:
    def test_reproducible(self):
        assert np.array_equal(
            SystemRNG(width=8, seed=9).sequence(64), SystemRNG(width=8, seed=9).sequence(64)
        )

    def test_range(self):
        seq = SystemRNG(width=4, seed=0).sequence(1000)
        assert seq.min() >= 0 and seq.max() < 16


class TestStreamRNGBase:
    def test_fractions_in_unit_interval(self):
        f = VanDerCorput(width=8).fractions(256)
        assert f.min() >= 0.0 and f.max() < 1.0

    def test_integers_rescale(self):
        ints = VanDerCorput(width=8).integers(256, 4)
        assert set(ints.tolist()) == {0, 1, 2, 3}
        # Balanced: the VDC is exactly uniform over a full period.
        assert np.bincount(ints).tolist() == [64, 64, 64, 64]

    def test_next_value_streaming_matches_sequence(self):
        rng = Halton(base=3, width=8)
        streamed = [rng.next_value() for _ in range(300)]
        assert streamed == rng.sequence(300).tolist()

    def test_reset(self):
        rng = LFSR(width=8)
        first = [rng.next_value() for _ in range(5)]
        rng.reset()
        again = [rng.next_value() for _ in range(5)]
        assert first == again


class TestFactory:
    def test_known_specs(self):
        for spec in ("lfsr", "vdc", "halton3", "halton5", "sobol1", "counter", "system"):
            rng = make_rng(spec)
            assert rng.sequence(16).size == 16

    def test_unknown_spec(self):
        with pytest.raises(RNGConfigurationError):
            make_rng("quantum")

    def test_available_list(self):
        names = available_rngs()
        assert "lfsr" in names and "vdc" in names

    def test_kwargs_forwarded(self):
        rng = make_rng("lfsr", seed=33)
        assert "seed=33" in rng.name


class TestDefaultSeed:
    """The ambient seed the runner installs around shard execution."""

    def test_no_ambient_seed_keeps_builder_defaults(self):
        from repro.rng import get_default_seed

        assert get_default_seed() is None
        assert "seed=1" in make_rng("lfsr").name

    def test_ambient_seed_reaches_seedable_specs(self):
        from repro.rng import default_seed, get_default_seed

        with default_seed(42):
            assert get_default_seed() == 42
            assert "seed=43" in make_rng("lfsr").name  # folded: 1 + 42 % 255
        assert get_default_seed() is None

    def test_out_of_range_seed_folds_into_lfsr_domain(self):
        from repro.rng import default_seed

        with default_seed(0):
            assert "seed=1" in make_rng("lfsr").name
        with default_seed(255):  # 255 % 255 == 0 -> folded to 1
            assert "seed=1" in make_rng("lfsr").name
        with default_seed(10**9):
            make_rng("lfsr").sequence(8)  # any int is a valid ambient seed

    def test_explicit_seed_wins_over_ambient(self):
        from repro.rng import default_seed

        with default_seed(42):
            assert "seed=33" in make_rng("lfsr", seed=33).name

    def test_seedless_specs_unaffected(self):
        from repro.rng import default_seed

        base = make_rng("vdc").sequence(32)
        with default_seed(42):
            assert np.array_equal(make_rng("vdc").sequence(32), base)
            assert np.array_equal(
                make_rng("halton3").sequence(32), make_rng("halton3").sequence(32)
            )

    def test_nesting_restores_previous_seed(self):
        from repro.rng import default_seed, get_default_seed

        with default_seed(1):
            with default_seed(2):
                assert get_default_seed() == 2
            assert get_default_seed() == 1

    def test_system_rng_is_seedable(self):
        from repro.rng import default_seed

        with default_seed(7):
            a = make_rng("system").sequence(32)
        with default_seed(8):
            b = make_rng("system").sequence(32)
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------- #
# VDC bit reversal: byte lookup table vs the per-bit shift loop
# ---------------------------------------------------------------------- #

def _reverse_bits_by_shifts(values, width):
    """The per-bit reference: ``width`` shift passes."""
    result = np.zeros_like(values)
    v = values.copy()
    for _ in range(width):
        result = (result << 1) | (v & 1)
        v >>= 1
    return result


@pytest.mark.parametrize("width", range(1, 63))
def test_vdc_byte_table_reversal_is_exact(width):
    from repro.rng.vandercorput import _reverse_bits

    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    values = np.concatenate([
        np.array([0, 1, top, top >> 1, 1 << (width - 1)], dtype=np.int64),
        rng.integers(0, top, 512, dtype=np.int64, endpoint=True),
    ])
    got = _reverse_bits(values, width)
    assert got.dtype == values.dtype
    assert np.array_equal(got, _reverse_bits_by_shifts(values, width))


# ---------------------------------------------------------------------- #
# Sample-type width limit: int64 samples hold widths <= 63
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("spec", available_rngs())
def test_width_64_rejected_at_construction(spec):
    with pytest.raises(RNGConfigurationError):
        make_rng(spec, width=64)


@pytest.mark.parametrize("spec", available_rngs())
def test_width_63_windows_stay_in_range(spec):
    # The LFSR has no built-in width-63 taps; x^63 + x^62 + 1 is maximal.
    kwargs = {"taps": (63, 62)} if spec == "lfsr" else {}
    rng = make_rng(spec, width=63, **kwargs)
    windows = [(0, 100), (5, 3000)]
    if spec not in ("system", "lfsr"):
        # Index-addressable: far windows, long enough for the table paths.
        windows.append((2 ** 40 - 7, 2 ** 40 + 70_000))
    for start, stop in windows:
        window = rng.sequence_window(start, stop)
        assert window.dtype == np.int64
        assert window.min() >= 0 and window.max() < rng.modulus


def test_halton_width_63_fraction_rounded_to_one_stays_in_range():
    # radical_inverse(2**54 - 1, 2) sums 54 halvings and rounds to 1.0;
    # quantised at width 63 that is 2**63, one past the int64 range.
    assert radical_inverse(np.array([2 ** 54 - 1]), 2)[0] == 1.0
    window = Halton(base=2, width=63, phase=2 ** 54 - 1).sequence_window(0, 3)
    assert window[0] == 2 ** 63 - 1
    assert window.min() >= 0


# ---------------------------------------------------------------------- #
# Table-driven windows vs frozen copies of the per-element loops
# ---------------------------------------------------------------------- #

def _radical_inverse_by_digits(index, base):
    """Frozen per-element digit loop (the reference for the table path)."""
    index = np.asarray(index, dtype=np.int64)
    result = np.zeros(index.shape, dtype=np.float64)
    scale = 1.0 / base
    remaining = index.copy()
    while remaining.max(initial=0) > 0:
        digit = remaining % base
        result += digit * scale
        scale /= base
        remaining //= base
    return result


_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _reverse_bits_by_bytes(values, width):
    """Frozen byte-table reversal (the reference for the VDC table path)."""
    nbytes = -(-width // 8)
    le = np.ascontiguousarray(values, dtype="<i8").reshape(-1, 1).view(np.uint8)
    out = np.zeros_like(le)
    out[:, :nbytes] = _BYTE_REVERSED[le[:, nbytes - 1::-1]]
    return (out.view("<u8") >> np.uint64(8 * nbytes - width)).view("<i8").reshape(-1)


# Table block sizes: base**k <= 2**16.
_HALTON_BLOCKS = {2: 2 ** 16, 3: 3 ** 10, 5: 5 ** 6, 7: 7 ** 5}


def _halton_windows(block):
    """(first index, count) runs: whole and partial blocks, block and
    2**40 straddles, and one run shorter than a block (loop path)."""
    return [
        (0, block),
        (block - 7, 2 * block + 20),
        (5 * block + 3, block),
        (2 ** 40 - block // 2, 2 * block + 3),
        (2 ** 40 + 1, block - 1),
    ]


def _radical_inverse_run(first, count, base):
    """The table path's blocks assembled into one float64 array."""
    from repro.rng.halton import _radical_inverse_blocks

    out = np.empty(count, dtype=np.float64)
    for offset, fracs in _radical_inverse_blocks(first, count, base):
        out[offset:offset + fracs.size] = fracs
    return out


@lru_cache(maxsize=None)
def _reference_fracs(base, first, count):
    fracs = _radical_inverse_by_digits(np.arange(first, first + count), base)
    fracs.setflags(write=False)
    return fracs


class TestTableWindows:
    @pytest.mark.parametrize("base", sorted(_HALTON_BLOCKS))
    def test_radical_inverse_run_is_bit_identical(self, base):
        from repro.rng.halton import _low_digit_table

        assert _low_digit_table(base)[0].size == _HALTON_BLOCKS[base]
        for first, count in _halton_windows(_HALTON_BLOCKS[base]):
            got = _radical_inverse_run(first, count, base)
            want = _reference_fracs(base, first, count)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(
        base=st.sampled_from(sorted(_HALTON_BLOCKS)),
        first=st.integers(0, 2 ** 45),
        blocks=st.floats(1.0, 3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_radical_inverse_run_random_windows(self, base, first, blocks):
        count = int(blocks * _HALTON_BLOCKS[base])
        got = _radical_inverse_run(first, count, base)
        want = _radical_inverse_by_digits(np.arange(first, first + count), base)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("width", range(1, 63))
    def test_halton_quantised_windows_exact(self, width):
        phase = 5
        modulus = 1 << width
        for base, block in _HALTON_BLOCKS.items():
            rng = Halton(base=base, width=width, phase=phase)
            start = 2 ** 40 - block // 3
            stop = start + block + 11
            fracs = _reference_fracs(base, start + phase, stop - start)
            want = np.minimum((fracs * modulus).astype(np.int64), modulus - 1)
            assert np.array_equal(rng.sequence_window(start, stop), want)

    @pytest.mark.parametrize("width", range(17, 63))
    def test_vdc_wide_windows_exact(self, width):
        phase = 12345
        block = 1 << 16
        wrap = (1 << width) - block - 50 - phase  # indices cross 2**width
        rng = VanDerCorput(width=width, phase=phase)
        for start, count in [
            (3 * block - 100, 2 * block + 7),
            (wrap, 2 * block + 3),
            (2 ** 40 - block // 2, block + 5),
            (2 ** 40 + 3, block - 1),
        ]:
            got = rng.sequence_window(start, start + count)
            index = np.arange(start, start + count, dtype=np.int64) + phase
            assert np.array_equal(got, _reverse_bits_by_bytes(index, width))

    @pytest.mark.parametrize("rng", [
        VanDerCorput(width=20, phase=3),
        VanDerCorput(width=62),
        Halton(base=3, width=20),
        Halton(base=7, width=8, phase=0),
    ], ids=repr)
    def test_window_equals_sequence_slice(self, rng):
        start, stop = (1 << 16) - 3, 3 * (1 << 16) + 5
        assert np.array_equal(
            rng.sequence_window(start, stop), rng.sequence(stop)[start:stop]
        )

    def test_tables_are_read_only(self):
        from repro.rng.halton import _low_digit_table
        from repro.rng.vandercorput import _low_reversal_table

        for table in (_low_digit_table(3)[0], _low_reversal_table()):
            assert not table.flags.writeable
            assert table.size <= 1 << 16
