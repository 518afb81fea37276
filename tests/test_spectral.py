"""PSD estimation, reference-peak handling and band-power arithmetic."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import signal as sps

from nfbist import (
    DegenerateBandError,
    DegenerateReferenceError,
    InsufficientDataError,
    ParameterError,
    SampledSignal,
    ShapeError,
    Spectrum,
    band_power,
    band_width_hz,
    digitize,
    find_reference_peak,
    gaussian_noise,
    ideal_y,
    power_ratio_detail,
    psd,
    square_wave,
)


def _flat_spectrum(psd_values, bin_width=1.0):
    values = np.asarray(psd_values, dtype=float)
    fft_size = 2 * (values.size - 1)
    freq = np.arange(values.size) * bin_width
    return Spectrum(
        freq_hz=freq,
        psd=values,
        fft_size=fft_size,
        n_segments=1,
        bin_width_hz=bin_width,
    )


def test_psd_parseval_rectangular():
    # With non-overlapping rectangular segments that tile the record, the
    # Riemann sum over the one-sided PSD equals the mean square exactly.
    sig = gaussian_noise(200_000, 1.7, seed=5, sample_rate_hz=1000.0)
    mean_sq = float(np.mean(sig.samples**2))
    s = psd(sig, 2000)
    assert s.n_segments == 100
    assert s.total_power() == pytest.approx(mean_sq, rel=1e-9)


def test_psd_parseval_hann_overlap():
    sig = gaussian_noise(200_000, 1.7, seed=5, sample_rate_hz=1000.0)
    mean_sq = float(np.mean(sig.samples**2))
    s = psd(sig, 2000, window="hann", overlap_fraction=0.5)
    assert s.n_segments == 199
    # Windowing trades exactness for leakage control; 1% is ample.
    assert s.total_power() == pytest.approx(mean_sq, rel=0.01)


def test_psd_grid_properties():
    sig = gaussian_noise(100_000, 1.0, seed=0, sample_rate_hz=50_000.0)
    s = psd(sig, 10_000)
    assert s.freq_hz.size == 5001
    assert s.bin_width_hz == pytest.approx(5.0)
    assert s.nyquist_hz == pytest.approx(25_000.0)
    assert s.sample_rate_hz == pytest.approx(50_000.0)
    assert s.n_segments == 10
    np.testing.assert_allclose(np.diff(s.freq_hz), 5.0, rtol=1e-12)


def test_psd_accepts_bitstream():
    sig = gaussian_noise(4000, 1.0, seed=1, sample_rate_hz=100.0)
    bits = digitize(sig, SampledSignal(100.0, np.zeros(4000)))
    s = psd(bits, 400)
    # A +-1 stream has unit mean square.
    assert s.total_power() == pytest.approx(1.0, rel=1e-9)


def test_psd_on_bin_sine_power():
    # 100 Hz lands exactly on bin 100 of a 1 Hz grid: no leakage, and the
    # integrated peak carries the full a^2/2 tone power.
    fs, a = 1000.0, 3.0
    t = np.arange(10_000) / fs
    sig = SampledSignal(fs, a * np.sin(2 * np.pi * 100.0 * t))
    s = psd(sig, 1000)
    bin_idx, peak_power = find_reference_peak(s, 100.0)
    assert bin_idx == 100
    assert peak_power == pytest.approx(a * a / 2.0, rel=1e-9)


@pytest.mark.parametrize(
    "window, scipy_window, overlap",
    [("rectangular", "boxcar", 0.0), ("hann", "hann", 0.5), ("hann", "hann", 0.75)],
)
@pytest.mark.parametrize("fft_size", [2_000, 10_000])
def test_psd_matches_scipy_welch(window, scipy_window, overlap, fft_size):
    fs, n = 50_000.0, 100_000
    noise = gaussian_noise(n, 1.0, seed=4, sample_rate_hz=fs)
    bits = digitize(noise, square_wave(n, fs, 3000.0, 0.25))
    for sig, values in ((noise, noise.samples), (bits, bits.bits.astype(np.float64))):
        s = psd(sig, fft_size, window=window, overlap_fraction=overlap)
        freq, dens = sps.welch(
            values,
            fs=fs,
            window=scipy_window,
            nperseg=fft_size,
            noverlap=int(round(fft_size * overlap)),
            detrend=False,
            scaling="density",
        )
        np.testing.assert_allclose(s.freq_hz, freq, rtol=1e-12)
        np.testing.assert_allclose(s.psd, dens, rtol=1e-12)


def _single_pass_psd(values, fs, fft_size, window, overlap):
    """All segments at once, the form psd's row blocks must reproduce."""
    step = fft_size - int(round(fft_size * overlap))
    if window == "hann":
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1)[:-1])
    else:
        win = np.ones(fft_size)
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(values, fft_size)[::step]
    spec = np.fft.rfft(segments * win)
    power = spec.real**2 + spec.imag**2
    power[:, 1:-1] *= 2
    return np.ascontiguousarray(power.T).mean(axis=-1)


@pytest.mark.parametrize(
    "window, overlap", [("rectangular", 0.0), ("hann", 0.0), ("hann", 0.5), ("hann", 0.75)]
)
@pytest.mark.parametrize("fft_size", [2_000, 10_000])
def test_psd_bitstream_equals_float_signal(window, overlap, fft_size):
    # 150_001 samples: a dropped tail, and segment counts (15 to 297) that
    # leave a short last row block.
    fs, n = 50_000.0, 150_001
    noise = gaussian_noise(n, 1.0, seed=6, sample_rate_hz=fs)
    bits = digitize(noise, square_wave(n, fs, 3000.0, 0.25))
    as_float = SampledSignal(fs, bits.bits.astype(np.float64))
    s_bits = psd(bits, fft_size, window=window, overlap_fraction=overlap)
    s_float = psd(as_float, fft_size, window=window, overlap_fraction=overlap)
    assert np.array_equal(s_bits.psd, s_float.psd)
    assert s_bits.n_segments == s_float.n_segments
    for sig, values in ((bits, as_float.samples), (noise, noise.samples)):
        s = psd(sig, fft_size, window=window, overlap_fraction=overlap)
        assert np.array_equal(s.psd, _single_pass_psd(values, fs, fft_size, window, overlap))


def test_import_loads_no_scipy():
    code = "import sys, nfbist; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_psd_validation():
    sig = gaussian_noise(1000, 1.0, seed=0)
    with pytest.raises(ParameterError):
        psd(sig, 999)  # odd
    with pytest.raises(InsufficientDataError):
        psd(sig, 2048)
    with pytest.raises(ParameterError):
        psd(sig, 100, window="hamming")
    with pytest.raises(ParameterError):
        psd(sig, 100, overlap_fraction=0.9)
    with pytest.raises(ParameterError):
        psd(np.zeros(1000), 100)  # must be SampledSignal or BitStream


def test_spectrum_constructor_validation():
    with pytest.raises(ShapeError):
        Spectrum(np.arange(5.0), np.ones(4), fft_size=8, n_segments=1, bin_width_hz=1.0)
    with pytest.raises(ShapeError):
        Spectrum(np.arange(4.0), np.ones(4), fft_size=8, n_segments=1, bin_width_hz=1.0)
    with pytest.raises(ParameterError):
        Spectrum(np.arange(5.0), np.ones(5), fft_size=8, n_segments=0, bin_width_hz=1.0)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            Spectrum(np.arange(5.0), np.ones(5), fft_size=8, n_segments=1, bin_width_hz=bad)


def test_find_reference_peak_lone_bin():
    s = _flat_spectrum([0, 0, 0, 0, 0, 0, 7.0, 0, 0, 0, 0])
    bin_idx, power = find_reference_peak(s, 6.0, search_halfwidth_bins=2)
    assert bin_idx == 6
    assert power == pytest.approx(7.0, abs=1e-12)


def test_find_reference_peak_window_bounds():
    s = _flat_spectrum(np.ones(11))
    with pytest.raises(ParameterError):
        find_reference_peak(s, 1.0, search_halfwidth_bins=5)  # window past DC
    with pytest.raises(ParameterError):
        find_reference_peak(s, 20.0)  # beyond Nyquist
    with pytest.raises(ParameterError):
        find_reference_peak(s, 5.0, search_halfwidth_bins=-1)


def test_find_reference_peak_stable_across_noise_levels():
    """The located peak bin must not move when only the noise level
    changes, otherwise hot and cold runs would get different exclusions."""
    fs, n, fft = 50_000.0, 200_000, 10_000
    tone = square_wave(n, fs, 3000.0, 1.0)
    zeros = SampledSignal(fs, np.zeros(n))
    bins = []
    for k, sigma in enumerate((1.0, 3.0)):
        noise = gaussian_noise(n, sigma, seed=21 + k, sample_rate_hz=fs)
        s = psd(digitize(SampledSignal(fs, noise.samples + tone.samples), zeros), fft)
        bins.append(find_reference_peak(s, 3000.0)[0])
    assert bins[0] == bins[1] == 600


def test_one_bit_tone_power_follows_erf_compression():
    """After hard limiting, a square tone of amplitude A in Gaussian noise
    of sd sigma keeps fundamental power (8/pi^2) erf(A/(sigma sqrt2))^2."""
    fs, n, fft, amp = 50_000.0, 1_000_000, 10_000, 1.0
    tone = square_wave(n, fs, 3000.0, amp)
    zeros = SampledSignal(fs, np.zeros(n))
    for k, sigma in enumerate((1.0, 3.0)):
        noise = gaussian_noise(n, sigma, seed=11 + k, sample_rate_hz=fs)
        s = psd(digitize(SampledSignal(fs, noise.samples + tone.samples), zeros), fft)
        _, peak_power = find_reference_peak(s, 3000.0)
        expected = (8.0 / math.pi**2) * math.erf(amp / (sigma * math.sqrt(2.0))) ** 2
        assert peak_power == pytest.approx(expected, rel=0.05)


def test_band_power_hand_values():
    s = _flat_spectrum(np.ones(11))
    # Band edges are bin-center inclusive: bins 2, 3, 4, 5.
    assert band_power(s, 2.0, 5.0) == pytest.approx(4.0, abs=1e-12)
    assert band_width_hz(s, 2.0, 5.0) == pytest.approx(4.0, abs=1e-12)
    # A point exclusion knocks out the single bin that straddles it.
    assert band_power(s, 2.0, 5.0, excluded=[(3.0, 3.0)]) == pytest.approx(3.0)
    # An interval exclusion removes every bin it touches (here 2 and 3).
    assert band_power(s, 2.0, 5.0, excluded=[(2.4, 2.6)]) == pytest.approx(2.0)


def test_band_power_degenerate_and_invalid():
    s = _flat_spectrum(np.ones(11))
    with pytest.raises(DegenerateBandError):
        band_power(s, 2.0, 5.0, excluded=[(0.0, 10.0)])
    with pytest.raises(ParameterError):
        band_power(s, 5.0, 2.0)
    with pytest.raises(ParameterError):
        band_power(s, 0.0, 20.0)
    with pytest.raises(ParameterError):
        band_power(s, 2.0, 5.0, excluded=[(4.0, 3.0)])


def test_power_ratio_recovers_analog_hot_cold_ratio():
    """Full multi-bit sanity check: equal sine references mixed into hot
    and cold records must normalize away, leaving the noise-power ratio."""
    fs, n, fft = 50_000.0, 1_000_000, 10_000
    t = np.arange(n) / fs
    # Source temps 10000/1000 K through an F=10 device at unit gain.
    sigma_hot = math.sqrt(10_000.0 + 9.0 * 290.0)
    sigma_cold = math.sqrt(1_000.0 + 9.0 * 290.0)
    y_expected = ideal_y(10.0, 10_000.0, 1_000.0)
    tone = sigma_cold * np.sin(2 * np.pi * 3000.0 * t)
    for seed in (0, 2):
        rng_hot = np.random.default_rng(1000 + seed)
        rng_cold = np.random.default_rng(2000 + seed)
        hot = SampledSignal(fs, rng_hot.normal(0.0, sigma_hot, n) + tone)
        cold = SampledSignal(fs, rng_cold.normal(0.0, sigma_cold, n) + tone)
        y = power_ratio_detail(
            psd(hot, fft), psd(cold, fft), band=(500.0, 1500.0), f_ref_hz=3000.0
        ).y
        assert y == pytest.approx(y_expected, rel=0.01)


def test_power_ratio_detail_consistency():
    fs, n, fft = 50_000.0, 200_000, 2_000
    t = np.arange(n) / fs
    tone = 5.0 * np.sin(2 * np.pi * 3000.0 * t)
    hot = SampledSignal(fs, np.random.default_rng(1).normal(0.0, 3.0, n) + tone)
    cold = SampledSignal(fs, np.random.default_rng(2).normal(0.0, 1.0, n) + tone)
    detail = power_ratio_detail(
        psd(hot, fft), psd(cold, fft), band=(500.0, 1500.0), f_ref_hz=3000.0
    )
    assert detail.y == detail.band_power_hot / detail.band_power_cold
    assert detail.peak_bin_hot == detail.peak_bin_cold
    assert detail.peak_power_hot > 0.0 and detail.peak_power_cold > 0.0
    assert detail.y == pytest.approx(9.0, rel=0.05)  # variance ratio 9/1


def test_power_ratio_rejects_mismatched_grids():
    a = psd(gaussian_noise(10_000, 1.0, seed=0, sample_rate_hz=1000.0), 1000)
    b = psd(gaussian_noise(10_000, 1.0, seed=1, sample_rate_hz=1000.0), 500)
    with pytest.raises(ShapeError):
        power_ratio_detail(a, b, band=(100.0, 300.0), f_ref_hz=400.0)


def test_power_ratio_detail_rejects_zero_reference_peak():
    # The hot spectrum is empty from bin 8 up, so the search window around
    # 15 Hz and its guard bins carry no power to normalize by.
    hot = _flat_spectrum(np.r_[np.ones(8), np.zeros(13)])
    cold = _flat_spectrum(np.ones(21))
    with pytest.raises(DegenerateReferenceError):
        power_ratio_detail(hot, cold, band=(2.0, 6.0), f_ref_hz=15.0)
