"""Tests for waveform containers and the two-state noise source."""

import math
import tracemalloc

import numpy as np
import pytest

from nfbist import (
    BitStream,
    DutSpec,
    NoiseSourceSpec,
    ParameterError,
    SampledSignal,
    ShapeError,
    apply_dut,
    gaussian_noise,
    source_output,
    square_wave,
)
from nfbist import signals
from nfbist.signals import _CHUNK_SAMPLES


def test_sampled_signal_basics():
    sig = SampledSignal(100.0, [1, 2, 3, 4])
    assert len(sig) == 4
    assert sig.samples.dtype == np.float64
    with pytest.raises(ValueError):
        sig.samples[0] = 9.0  # stored read-only


def test_sampled_signal_rejects_bad_input():
    with pytest.raises(ShapeError):
        SampledSignal(1.0, np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        SampledSignal(1.0, [])
    with pytest.raises(ParameterError):
        SampledSignal(0.0, [1.0])
    with pytest.raises(ParameterError):
        SampledSignal(-5.0, [1.0])
    # A complex array would lose its imaginary parts in the float64 cast.
    for values in (np.array([1 + 2j, 3j]), [1 + 2j, 3j], np.zeros(3, dtype=np.complex64)):
        with pytest.raises(ParameterError):
            SampledSignal(1.0, values)
    # Values that do not cast to float64.
    for values in (["a"], ["1", "b"]):
        with pytest.raises(ParameterError):
            SampledSignal(1.0, values)


def test_sampled_signal_copies_the_callers_array():
    # The caller's array and a view's base stay writeable, and a later write
    # to either leaves the signal as it was made.
    v = np.ones(4)
    sig = SampledSignal(1.0, v)
    v[0] = 7.0
    base = np.ones(4)
    view_sig = SampledSignal(1.0, base[:3])
    base[0] = 7.0
    assert v.flags.writeable and base.flags.writeable
    np.testing.assert_array_equal(sig.samples, np.ones(4))
    np.testing.assert_array_equal(view_sig.samples, np.ones(3))
    assert not sig.samples.flags.writeable


@pytest.mark.parametrize(
    "values",
    [np.array([True, False]), [True, False], [None, 1.0]],
    ids=["bool-array", "bools", "none"],
)
def test_sampled_signal_rejects_bools_and_none(values):
    # A bool is not a sample, and the float cast would make NaN of None.
    with pytest.raises(ParameterError):
        SampledSignal(1.0, values)


def test_gaussian_noise_reproducible():
    a = gaussian_noise(1000, 2.0, seed=42)
    b = gaussian_noise(1000, 2.0, seed=42)
    c = gaussian_noise(1000, 2.0, seed=43)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_gaussian_noise_matches_scaled_normal_draw():
    expected = np.random.default_rng(42).normal(0, 1, 1001) * 2.7
    np.testing.assert_array_equal(gaussian_noise(1001, 2.7, seed=42).samples, expected)


def test_gaussian_noise_moments():
    # n = 200k: std error of the mean is sigma/sqrt(n) ~ 0.007, of the std
    # ~ 0.005, so these tolerances sit at roughly seven sigma.
    sig = gaussian_noise(200_000, 3.0, seed=1)
    assert abs(float(sig.samples.mean())) < 0.05
    assert float(sig.samples.std()) == pytest.approx(3.0, abs=0.05)


def test_gaussian_noise_zero_sigma():
    sig = gaussian_noise(16, 0.0, seed=0)
    np.testing.assert_array_equal(sig.samples, np.zeros(16))


# Sample counts that are not integers >= 1. Each must raise ParameterError,
# not be truncated (2.5 -> 2) or escape as a plain ValueError or TypeError.
BAD_COUNTS = [0, -1, 2.5, math.nan, math.inf, -math.inf, True, "3"]


def test_gaussian_noise_validation():
    for bad_n in BAD_COUNTS:
        with pytest.raises(ParameterError):
            gaussian_noise(bad_n, 1.0, seed=0)
    # A bool is not a deviation (True would draw with sigma 1).
    for bad_sigma in (-1.0, math.nan, math.inf, "1", None, True):
        with pytest.raises(ParameterError):
            gaussian_noise(10, bad_sigma, seed=0)
    assert gaussian_noise(3.0, 1.0, seed=0).samples.size == 3


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_square_wave_rejects_bad_length(n):
    with pytest.raises(ParameterError):
        square_wave(n, 8.0, 1.0, 1.0)


def test_square_wave_exact_pattern():
    # One full period sampled 8x: high half first, then low half.
    sig = square_wave(8, 8.0, 1.0, 2.5)
    np.testing.assert_array_equal(
        sig.samples, [2.5, 2.5, 2.5, 2.5, -2.5, -2.5, -2.5, -2.5]
    )


def test_square_wave_zero_mean_over_whole_periods():
    # 10 samples per period, 10 periods.
    sig = square_wave(100, 50.0, 5.0, 1.0)
    assert float(sig.samples.sum()) == 0.0


@pytest.mark.parametrize("f0", [0.0, -1.0, 4.0, 5.0, math.nan, math.inf, None, "1", True])
def test_square_wave_rejects_out_of_range_f0(f0):
    with pytest.raises(ParameterError):
        square_wave(16, 8.0, f0, 1.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, None, "x", True])
def test_square_wave_rejects_bad_amplitude(amplitude):
    with pytest.raises(ParameterError):
        square_wave(8, 10.0, 1.0, amplitude)


@pytest.mark.parametrize("rate", [0.0, -8.0, math.nan, math.inf])
def test_square_wave_rejects_bad_sample_rate(rate):
    with pytest.raises(ParameterError):
        square_wave(16, rate, 1.0, 1.0)


@pytest.mark.parametrize("rate, f0", [(50_000.0, 3_000.0), (10_000.0, 977.0), (44_100.0, 1234.5)])
def test_square_wave_matches_mod_formula(rate, f0):
    # The waveform takes the fractional cycle position as x - floor(x); it
    # must equal the np.mod form bit for bit. The
    # pattern is cached: the first call misses, the repeat and the other
    # amplitude hit, and writing to a returned array must not reach them.
    # The pattern is built in _CHUNK_SAMPLES-sample blocks: three whole
    # blocks and a short tail.
    n = 3 * _CHUNK_SAMPLES + 7
    t = np.arange(n, dtype=np.float64) / rate
    cycle_pos = np.mod(f0 * t, 1.0)
    for amplitude in (1.7, 1.7, 0.3):
        expected = np.where(cycle_pos < 0.5, amplitude, -amplitude)
        samples = square_wave(n, rate, f0, amplitude).samples
        np.testing.assert_array_equal(samples, expected)
        samples.setflags(write=True)
        samples[:] = 0.0


def test_noise_source_spec_validation():
    src = NoiseSourceSpec(t_hot_k=10_000.0, t_cold_k=1_000.0)
    assert src.t0_k == 290.0
    assert src.state_temperature_k("hot") == 10_000.0
    assert src.state_temperature_k("cold") == 1_000.0
    with pytest.raises(ParameterError):
        src.state_temperature_k("warm")
    with pytest.raises(ParameterError):
        NoiseSourceSpec(t_hot_k=100.0, t_cold_k=100.0)
    with pytest.raises(ParameterError):
        NoiseSourceSpec(t_hot_k=100.0, t_cold_k=-1.0)
    with pytest.raises(ParameterError):
        NoiseSourceSpec(t_hot_k=100.0, t_cold_k=10.0, t0_k=0.0)
    with pytest.raises(ParameterError):
        NoiseSourceSpec(t_hot_k=100.0, t_cold_k=10.0, power_scale=0.0)
    # NaN fails every comparison and inf every finiteness test.
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("t_hot_k", "t_cold_k", "t0_k", "power_scale"):
            kwargs = dict(t_hot_k=100.0, t_cold_k=10.0)
            kwargs[field] = bad
            with pytest.raises(ParameterError):
                NoiseSourceSpec(**kwargs)


def test_source_output_variance_tracks_temperature():
    src = NoiseSourceSpec(t_hot_k=400.0, t_cold_k=100.0, power_scale=2.0)
    hot = source_output(src, "hot", 200_000, 1.0, seed=3)
    cold = source_output(src, "cold", 200_000, 1.0, seed=4)
    # Sample variance has relative sd sqrt(2/n) ~ 0.3%; allow 2%.
    assert float(hot.samples.var()) == pytest.approx(800.0, rel=0.02)
    assert float(cold.samples.var()) == pytest.approx(200.0, rel=0.02)


def test_source_output_deterministic_per_seed():
    src = NoiseSourceSpec(t_hot_k=400.0, t_cold_k=100.0)
    a = source_output(src, "hot", 64, 10.0, seed=7)
    b = source_output(src, "hot", 64, 10.0, seed=7)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.sample_rate_hz == 10.0


@pytest.mark.parametrize("seed", [-1, 1.5, "x", np.True_, True, None], ids=repr)
def test_every_draw_refuses_a_seed_that_is_not_an_integer_or_a_generator(seed):
    # default_rng would raise a bare ValueError or TypeError, draw True as
    # seed 1, or draw fresh OS entropy for None, which no seed reproduces.
    src = NoiseSourceSpec(t_hot_k=400.0, t_cold_k=100.0)
    sig = gaussian_noise(8, 1.0, seed=0)
    with pytest.raises(ParameterError, match="seed"):
        gaussian_noise(8, 1.0, seed)
    with pytest.raises(ParameterError, match="seed"):
        source_output(src, "hot", 8, 1.0, seed)
    # Checked even where the DUT adds no noise and so draws nothing.
    for added in (0.0, 1.0):
        with pytest.raises(ParameterError, match="seed"):
            apply_dut(DutSpec(gain_linear=1.0, added_noise_power=added), sig, seed)


def _records(n):
    """Each record type over one n-value record, with those values as float64."""
    noise = gaussian_noise(n, 2.5, 11)
    bits = BitStream(1.0, np.where(noise.samples >= 0.0, 1, -1))
    return {
        "SampledSignal": (noise, noise.samples),
        "BitStream": (bits, bits.bits.astype(np.float64)),
        "_NoiseDraw": (signals._NoiseDraw(n, 2.5, 11, 1.0), noise.samples),
    }


@pytest.mark.parametrize("kind", ["SampledSignal", "BitStream", "_NoiseDraw"])
def test_reads_fill_the_callers_buffer_with_slices_of_the_record(kind):
    # Reads front to back in mixed sizes, from starts on and off a byte of a
    # packed bitstream, each into a buffer of the caller's.
    n = 5_000
    record, values = _records(n)[kind]
    sizes = [1, 2, 7, 8, 9, 0, 100, 3, 1_000, 2_000, 13]
    starts = np.cumsum([0] + sizes)
    for start, size in zip(starts, sizes):
        out = np.full(size, np.nan)
        record._read(int(start), out)
        assert out.tobytes() == values[start : start + size].tobytes()
        out[:] = 0.0  # the buffer is the caller's: the record does not see this
    if kind == "_NoiseDraw":
        # A read that does not go on from the last one, or runs past the
        # end, raises and draws nothing: the record reads on from where it was.
        for start in (0, starts[-1] - 1, starts[-1] + 1):
            with pytest.raises(ParameterError):
                record._read(int(start), np.empty(10))
        with pytest.raises(ParameterError):
            record._read(int(starts[-1]), np.empty(n - starts[-1] + 1))
    rest = np.empty(n - starts[-1])
    record._read(int(starts[-1]), rest)
    assert rest.tobytes() == values[starts[-1] :].tobytes()
    assert len(record) == n and record.sample_rate_hz == 1.0


def test_noise_draw_holds_no_samples():
    # A read draws into the caller's buffer, so a worker thread that reads
    # a record chunk by chunk into buffers made on the calling thread, as
    # the comparator's hot state does, allocates no sample buffer.
    n = 3 * _CHUNK_SAMPLES + 7
    samples = gaussian_noise(n, 1.5, 9).samples
    record = signals._NoiseDraw(n, 1.5, 9, 1.0)
    assert not any(isinstance(v, np.ndarray) for v in vars(record).values())
    chunk = np.empty(_CHUNK_SAMPLES)
    for start in range(0, n, _CHUNK_SAMPLES):
        drawn = chunk[: min(_CHUNK_SAMPLES, n - start)]
        tracemalloc.start()
        try:
            record._read(start, drawn)
            assert tracemalloc.get_traced_memory()[1] < 4_096
        finally:
            tracemalloc.stop()
        assert drawn.tobytes() == samples[start : start + drawn.size].tobytes()
    with pytest.raises(ParameterError):
        signals._NoiseDraw(n, math.nan, 9, 1.0)


def test_square_wave_pattern_is_cached_one_bit_per_sample():
    # The cache keeps the pattern packed, n/8 bytes: 1.19 MiB at 1e7
    # samples, where one byte per sample kept 9.5 MiB for the life of the
    # process.
    signals._first_half_mask.cache_clear()
    tracemalloc.start()
    try:
        mask = signals._first_half_mask(10_000_000, 50_000.0, 3_000.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        signals._first_half_mask.cache_clear()
    assert held <= 1.3 * 2**20
    assert mask.dtype == np.uint8 and mask.size == 1_250_000 and not mask.flags.writeable


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda x: gaussian_noise(x.samples.size, 1.0, 0), 1.5),
        (lambda x: square_wave(x.samples.size, 50_000.0, 3_000.0, 1.0), 1.5),
        (lambda x: apply_dut(DutSpec(2.0, 0.0), x, 0), 1.5),
        (lambda x: apply_dut(DutSpec(2.0, 3.0), x, 0), 1.5),
    ],
    ids=["gaussian_noise", "square_wave", "apply_dut-noiseless", "apply_dut"],
)
def test_signal_makers_hold_their_output_without_a_copy(make, bound):
    # Each keeps the array it has just made as the signal's samples; a copy
    # into SampledSignal put the peak at twice the output, 3 times for the DUT.
    x = SampledSignal(1.0, np.ones(1_000_000))
    signals._first_half_mask.cache_clear()
    tracemalloc.start()
    try:
        out = make(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * out.samples.nbytes
    assert out.samples.dtype == np.float64 and not out.samples.flags.writeable
