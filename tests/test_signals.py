"""Tests for waveform containers and the two-state noise source."""

import math

import numpy as np
import pytest

from nfbist import (
    NoiseSourceSpec,
    ParameterError,
    SampledSignal,
    ShapeError,
    gaussian_noise,
    source_output,
    square_wave,
)


def test_sampled_signal_basics():
    sig = SampledSignal(100.0, [1, 2, 3, 4])
    assert len(sig) == 4
    assert sig.duration_s == pytest.approx(0.04)
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
    with pytest.raises(ParameterError):
        gaussian_noise(10, -1.0, seed=0)
    with pytest.raises(ParameterError):
        gaussian_noise(10, float("nan"), seed=0)
    assert gaussian_noise(3.0, 1.0, seed=0).samples.size == 3


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_square_wave_rejects_bad_length(n):
    with pytest.raises(ParameterError):
        square_wave(n, 8.0, 1.0, 1.0)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_square_wave_rejects_non_finite_phase(phase):
    # A NaN phase would otherwise make every sample -amplitude.
    with pytest.raises(ParameterError):
        square_wave(16, 8.0, 1.0, 1.0, phase_rad=phase)


def test_square_wave_exact_pattern():
    # One full period sampled 8x: high half first, then low half.
    sig = square_wave(8, 8.0, 1.0, 2.5)
    np.testing.assert_array_equal(
        sig.samples, [2.5, 2.5, 2.5, 2.5, -2.5, -2.5, -2.5, -2.5]
    )


def test_square_wave_half_period_phase_inverts():
    base = square_wave(8, 8.0, 1.0, 1.0)
    shifted = square_wave(8, 8.0, 1.0, 1.0, phase_rad=math.pi)
    np.testing.assert_array_equal(shifted.samples, -base.samples)


def test_square_wave_zero_mean_over_whole_periods():
    # 10 samples per period, 10 periods.
    sig = square_wave(100, 50.0, 5.0, 1.0)
    assert float(sig.samples.sum()) == 0.0


@pytest.mark.parametrize("f0", [0.0, -1.0, 4.0, 5.0, math.nan, math.inf])
def test_square_wave_rejects_out_of_range_f0(f0):
    with pytest.raises(ParameterError):
        square_wave(16, 8.0, f0, 1.0)


@pytest.mark.parametrize("rate", [0.0, -8.0, math.nan, math.inf])
def test_square_wave_rejects_bad_sample_rate(rate):
    with pytest.raises(ParameterError):
        square_wave(16, rate, 1.0, 1.0)


@pytest.mark.parametrize("rate, f0", [(50_000.0, 3_000.0), (10_000.0, 977.0), (44_100.0, 1234.5)])
@pytest.mark.parametrize("phase", [0.0, 0.3, -2.0, -1e-4, 7.1])
def test_square_wave_matches_mod_formula(rate, f0, phase):
    # The waveform takes the fractional cycle position as x - floor(x); it
    # must equal the np.mod form bit for bit, negative phases included. The
    # pattern is cached: the first call misses, the repeat and the other
    # amplitude hit, and writing to a returned array must not reach them.
    n = 100_000
    t = np.arange(n, dtype=np.float64) / rate
    cycle_pos = np.mod(f0 * t + phase / (2.0 * math.pi), 1.0)
    for amplitude in (1.7, 1.7, 0.3):
        expected = np.where(cycle_pos < 0.5, amplitude, -amplitude)
        samples = square_wave(n, rate, f0, amplitude, phase_rad=phase).samples
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
