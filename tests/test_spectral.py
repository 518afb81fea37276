"""PSD estimation, reference-peak handling and band-power arithmetic."""

import math
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

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
    empirical_autocorr,
    find_reference_peak,
    gaussian_noise,
    ideal_y,
    power_ratio_detail,
    psd,
    square_wave,
)
from nfbist import spectral
from nfbist.signals import _NoiseDraw


def _flat_spectrum(psd_values):
    # A sample rate equal to the FFT size gives 1 Hz bins.
    values = np.asarray(psd_values, dtype=float)
    fft_size = 2 * (values.size - 1)
    return Spectrum(values, fft_size, n_segments=1, sample_rate_hz=float(fft_size))


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
    assert s.sample_rate_hz == 50_000.0
    assert s.n_segments == 10
    np.testing.assert_allclose(np.diff(s.freq_hz), 5.0, rtol=1e-12)
    # The grid is derived from (fft_size, sample_rate_hz), once per spectrum.
    assert s.freq_hz is s.freq_hz
    assert np.array_equal(s.freq_hz, np.fft.rfftfreq(10_000, 1 / 50_000.0))
    with pytest.raises(ValueError):
        s.freq_hz[0] = 1.0


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
    """All segments at once, their periodograms added one by one in segment
    order: the sum psd's row blocks must reproduce."""
    step = fft_size - int(round(fft_size * overlap))
    if window == "hann":
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1)[:-1])
    else:
        win = np.ones(fft_size)
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(values, fft_size)[::step]
    spec = np.fft.rfft(segments * win)
    power = spec.real**2 + spec.imag**2
    total = np.zeros(fft_size // 2 + 1)
    for p in power:
        total += p
    total[1:-1] *= 2
    return total / len(power)


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
    # One job sums a long signal, a shorter bitstream, then a streamed draw at
    # another rate, in turn in its one workspace, each as psd sums it alone.
    long_noise = gaussian_noise(2 * n + 7, 1.0, seed=7, sample_rate_hz=fs)

    def records():
        return [long_noise, bits, _NoiseDraw(n // 2 + 3, 1.3, 8, 40_000.0)]

    want = [psd(x, fft_size, window, overlap) for x in records()]
    got = spectral._spectra_job(records(), fft_size, window, overlap)()
    assert [(s.psd.tobytes(), s.n_segments, s.sample_rate_hz) for s in got] == [
        (s.psd.tobytes(), s.n_segments, s.sample_rate_hz) for s in want
    ]


@pytest.mark.parametrize(
    "compute",
    [
        lambda: psd(SampledSignal(1.0, [math.inf, 1.0, 2.0, 3.0]), 2, "hann"),
        lambda: psd(SampledSignal(1.0, [1e200, 1.0, 2.0, 3.0]), 2),
        lambda: spectral._spectra(
            [SampledSignal(1.0, [1.0, 2.0]), SampledSignal(1.0, [1e200, 1.0])],
            2,
            "rectangular",
            0.0,
        ),
        lambda: empirical_autocorr(SampledSignal(1.0, [1e200, 1.0, 2.0]), 1),
        lambda: empirical_autocorr(SampledSignal(1.0, [math.inf, 1.0, 2.0]), 1),
    ],
    ids=["psd_inf_hann", "psd_square_overflows", "pair_square_overflows",
         "autocorr_square_overflows", "autocorr_inf"],
)
def test_values_without_finite_powers_raise_without_a_warning(compute):
    # inf * 0 in a window and a square past the float range each made numpy
    # warn; a sum of squares that is not finite made the autocorrelation 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite"):
            compute()


def _split_input(n_segments, fft_size, overlap):
    step = fft_size - int(round(fft_size * overlap))
    fs, n = 50_000.0, (n_segments - 1) * step + fft_size
    noise = gaussian_noise(n, 1.0, seed=8, sample_rate_hz=fs)
    return noise, digitize(noise, square_wave(n, fs, 3000.0, 0.25))


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("window, overlap", [("rectangular", 0.0), ("hann", 0.5), ("hann", 0.75)])
@pytest.mark.parametrize("fft_size", [2_000, 10_000])
def test_spectra_one_thread_per_record_matches_single_pass(
    monkeypatch, pin_cpus, cores, window, overlap, fft_size
):
    # Segment counts: one, exactly one full row block, one block plus a
    # segment, and three blocks. A block holds as many rows as fit the
    # budget beside the overlap its frame keeps. A single record is summed
    # on the calling thread, and two records one per thread, whatever their
    # length and however many CPUs the threads share, each in a block of the
    # same rows.
    kept = int(round(fft_size * overlap))
    rows = (spectral._CHUNK_SAMPLES - kept) // fft_size
    pin_cpus(cores)
    # Each thread's first entry into the summation: its record, count and rows.
    first_call = {}
    sum_segments = spectral._SegmentSums.sum_segments

    def recording(self, record, win, n, out):
        on_main = threading.current_thread() is threading.main_thread()
        first_call.setdefault(on_main, (record, n, self.rows))
        return sum_segments(self, record, win, n, out)

    monkeypatch.setattr(spectral._SegmentSums, "sum_segments", recording)
    for n_segments in (1, rows, rows + 1, 3 * rows):
        noise, bits = _split_input(n_segments, fft_size, overlap)
        for sig, values in ((noise, noise.samples), (bits, bits.bits.astype(np.float64))):
            first_call.clear()
            s = psd(sig, fft_size, window=window, overlap_fraction=overlap)
            assert s.n_segments == n_segments
            want = _single_pass_psd(values, sig.sample_rate_hz, fft_size, window, overlap)
            assert np.array_equal(s.psd, want)
            assert first_call == {True: (sig, n_segments, rows)}
        first_call.clear()
        pair = spectral._spectra([noise, bits], fft_size, window, overlap)
        for s, values in zip(pair, (noise.samples, bits.bits.astype(np.float64))):
            assert s.n_segments == n_segments
            want = _single_pass_psd(values, noise.sample_rate_hz, fft_size, window, overlap)
            assert np.array_equal(s.psd, want)
        assert first_call == {False: (noise, n_segments, rows), True: (bits, n_segments, rows)}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize(
    "block_rows",
    [None, 1, 3, 13],
    ids=["default_blocks", "1_row_blocks", "3_row_blocks", "13_row_blocks"],
)
def test_psd_sums_segments_in_segment_order(monkeypatch, pin_cpus, cores, block_rows):
    # psd, and each thread of a pair, adds each periodogram into a running
    # sum, block by block. Against each block size the counts give part of a
    # block, one block, blocks and a part, and many blocks, so a block that
    # does not continue the running sum, or adds its rows in another order,
    # fails here.
    fft_size, fs = 16, 1_000.0
    pin_cpus(cores)
    if block_rows is not None:
        monkeypatch.setattr(spectral, "_CHUNK_SAMPLES", block_rows * fft_size)
    rng = np.random.default_rng(12)
    counts = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256, 257, 1398]
    counts += [8191, 8192, 8193, 20_000]
    for n_segments in counts:
        # Segment levels spread over six decades, so every addition rounds.
        scale = np.repeat(10.0 ** rng.uniform(-3.0, 3.0, n_segments), fft_size)
        values = rng.standard_normal(n_segments * fft_size) * scale
        s = psd(SampledSignal(fs, values), fft_size)
        assert s.n_segments == n_segments
        assert np.array_equal(s.psd, _single_pass_psd(values, fs, fft_size, "rectangular", 0.0))
        pair = [values, values[::-1]]
        records = [SampledSignal(fs, v) for v in pair]
        for s, v in zip(spectral._spectra(records, fft_size, "rectangular", 0.0), pair):
            assert np.array_equal(s.psd, _single_pass_psd(v, fs, fft_size, "rectangular", 0.0))


def test_psd_memory_does_not_grow_with_the_record():
    # Only a block of segments and the running sum are held, so ten times
    # the record costs at most 1% more working memory.
    rng = np.random.default_rng(13)
    analyses = ((10_000, "rectangular", 0.0), (10_000, "hann", 0.5), (2_000, "rectangular", 0.0))
    for fft_size, window, _ in analyses:
        # Built outside the measurement, whichever tests ran before.
        spectral._scaled_window(window, fft_size, 50_000.0)
    peaks = {}
    for n in (1_000_000, 10_000_000):
        sig = SampledSignal(50_000.0, rng.standard_normal(n))
        for fft_size, window, overlap in analyses:
            tracemalloc.start()
            try:
                psd(sig, fft_size, window=window, overlap_fraction=overlap)
                peaks[n, fft_size, window] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        del sig
    for (n, *analysis), peak in peaks.items():
        if n == 10_000_000:
            assert peak <= 1.01 * peaks[(1_000_000, *analysis)], analysis


def test_psd_worker_failure_propagates(monkeypatch):
    caller = threading.current_thread()
    rfft = np.fft.rfft

    def failing_in_worker(a, *args, **kwargs):
        if threading.current_thread() is not caller:
            raise RuntimeError("rfft failed in the worker")
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", failing_in_worker)
    sig = gaussian_noise(400_000, 1.0, seed=0, sample_rate_hz=50_000.0)  # 200 segments
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="in the worker"):
        spectral._spectra([sig, sig], 2_000, "rectangular", 0.0)
    assert threading.active_count() == threads_before


def test_psd_concurrent_callers_get_serial_bytes(monkeypatch):
    # Two user threads, each with its own worker: four threads on at most
    # two cores, switching as often as the interpreter allows.
    pair = [gaussian_noise(400_000, 1.0, seed=s, sample_rate_hz=50_000.0) for s in (9, 10)]
    args = [(2_000, "rectangular", 0.0), (10_000, "hann", 0.5)]

    def spectra_bytes(a):
        return b"".join(s.psd.tobytes() for s in spectral._spectra(pair, *a))

    serial = [b"".join(psd(x, *a).psd.tobytes() for x in pair) for a in args]
    results = [[], []]

    def run(k):
        for _ in range(5):
            results[k].append(spectra_bytes(args[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial[0]] * 5, [serial[1]] * 5]


def test_import_loads_no_scipy():
    # Nor concurrent.futures: psd's worker is a plain threading.Thread.
    code = (
        "import sys, nfbist; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # nfbist simulate pays for every module that import nfbist.cli loads.
    # Compared with what the interpreter has loaded before it, since site
    # hooks are already loaded at start-up.
    code = (
        "import sys; before = set(sys.modules); import nfbist.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'nfbist', 'numpy'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_psd_validation():
    sig = gaussian_noise(1000, 1.0, seed=0)
    with pytest.raises(ParameterError):
        psd(sig, 999)  # odd
    for bad in (0, 100.5, math.nan, math.inf, True, "100"):
        with pytest.raises(ParameterError):
            psd(sig, bad)
    with pytest.raises(InsufficientDataError):
        psd(sig, 2048)
    with pytest.raises(ParameterError):
        psd(sig, 100, window="hamming")
    # A string or None must not escape as a TypeError, and the refusal quotes
    # the value as given: "0.5" is refused as a string, not as the number.
    for bad in (0.9, "a", None, "0.5"):
        refusal = re.escape(f"overlap_fraction must lie in [0, 0.75], got {bad!r}")
        with pytest.raises(ParameterError, match=refusal):
            psd(sig, 100, overlap_fraction=bad)
    with pytest.raises(ParameterError):
        psd(np.zeros(1000), 100)  # must be SampledSignal or BitStream
    with pytest.raises(ParameterError, match="no hop"):
        psd(sig, 2, window="hann", overlap_fraction=0.75)  # round(1.5) = 2 leaves a hop of 0


def test_spectrum_constructor_validation():
    with pytest.raises(ShapeError):
        Spectrum(np.ones(4), fft_size=8, n_segments=1, sample_rate_hz=8.0)
    with pytest.raises(ShapeError):
        Spectrum(np.ones((5, 1)), fft_size=8, n_segments=1, sample_rate_hz=8.0)
    for bad in (0, -1, 2.5, math.nan, math.inf, True, "3"):
        with pytest.raises(ParameterError):
            Spectrum(np.ones(5), fft_size=8, n_segments=bad, sample_rate_hz=8.0)
    for bad in (1, 7, 8.5, math.nan, True):
        with pytest.raises(ParameterError):
            Spectrum(np.ones(5), fft_size=bad, n_segments=1, sample_rate_hz=8.0)
    # An odd size is refused as psd refuses it, also where the bins fit it.
    with pytest.raises(ParameterError, match="fft_size must be even"):
        Spectrum(np.ones(4), fft_size=7, n_segments=1, sample_rate_hz=8.0)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            Spectrum(np.ones(5), fft_size=8, n_segments=1, sample_rate_hz=bad)
    for bad in (math.inf, math.nan, -math.inf, -1.0, -1e-300):
        values = np.ones(5)
        values[2] = bad
        with pytest.raises(ParameterError):
            Spectrum(values, fft_size=8, n_segments=1, sample_rate_hz=8.0)
    # Complex densities were cast with a numpy warning, dropping their
    # imaginary parts; bools read as 0/1; strings escaped as a ValueError.
    for bad in (np.ones(5) + 1j, np.ones(5, dtype=bool), np.array(["x"] * 5)):
        with pytest.raises(ParameterError, match="psd must be real numbers"):
            Spectrum(bad, fft_size=8, n_segments=1, sample_rate_hz=8.0)


def test_spectrum_leaves_the_callers_array_alone():
    values = np.ones(5)
    s = Spectrum(values, fft_size=8, n_segments=1, sample_rate_hz=8.0)
    assert values.flags.writeable
    assert s.psd is not values and not s.psd.flags.writeable
    values[:] = 2.0
    np.testing.assert_array_equal(s.psd, np.ones(5))


def test_find_reference_peak_lone_bin():
    # The search covers +-5 bins around the nominal bin 6: a lone bin 5
    # away is found, and its empty neighbours add nothing to its power.
    s = _flat_spectrum(np.r_[np.zeros(11), 7.0, np.zeros(9)])
    bin_idx, power = find_reference_peak(s, 6.0)
    assert bin_idx == 11
    assert power == pytest.approx(7.0, abs=1e-12)


def test_find_reference_peak_window_bounds():
    s = _flat_spectrum(np.ones(11))
    with pytest.raises(ParameterError):
        find_reference_peak(s, 4.0)  # window [-1, 9] past DC
    with pytest.raises(ParameterError):
        find_reference_peak(s, 6.0)  # window [1, 11] past Nyquist
    with pytest.raises(ParameterError):
        find_reference_peak(s, 20.0)  # beyond Nyquist
    assert find_reference_peak(s, 5.0)[0] == 0  # window [0, 10]; ties go to the first


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
    s = _flat_spectrum(np.arange(11.0))
    # Band edges are bin-center inclusive: bins 2, 3, 4, 5.
    assert band_power(s, 2.0, 5.0) == pytest.approx(14.0, abs=1e-12)
    assert band_width_hz(s, 2.0, 5.0) == pytest.approx(4.0, abs=1e-12)
    # Bins 3 and 4, their centers inside [2.4, 4.6].
    assert band_power(s, 2.4, 4.6) == pytest.approx(7.0, abs=1e-12)
    assert band_width_hz(s, 2.4, 4.6) == pytest.approx(2.0, abs=1e-12)


def test_band_power_degenerate_and_invalid():
    s = _flat_spectrum(np.ones(11))
    with pytest.raises(DegenerateBandError):
        band_power(s, 2.2, 2.8)  # between two bin centers
    with pytest.raises(DegenerateBandError):
        band_width_hz(s, 2.2, 2.8)
    with pytest.raises(ParameterError):
        band_power(s, 5.0, 2.0)
    with pytest.raises(ParameterError):
        band_power(s, 0.0, 20.0)
    # The exclusion around the reference peak (bin 15) covers the whole
    # band [12, 18].
    peaked = _flat_spectrum(np.r_[np.ones(15), 9.0, np.ones(15)])
    with pytest.raises(DegenerateBandError):
        power_ratio_detail(peaked, peaked, (12.0, 18.0), 15.0, ref_exclusion_halfwidth_bins=3)
    assert power_ratio_detail(peaked, peaked, (12.0, 18.0), 15.0, 2).y == 1.0
    for bad in (-1, 1.5, math.nan, True):
        with pytest.raises(ParameterError):
            power_ratio_detail(peaked, peaked, (12.0, 18.0), 15.0, bad)


def test_power_ratio_excludes_exactly_the_bins_around_the_peak():
    # 48 kHz over 10 000 points gives 4.8 Hz bins. The band (2500, 3500) Hz
    # holds bins 521..729, 209 of them; the reference at 3000 Hz peaks in
    # bin 625, and dropping +-3 bins around it leaves 209 - 7 = 202.
    values = np.ones(5001)
    values[625] = 100.0
    s = Spectrum(values, fft_size=10_000, n_segments=1, sample_rate_hz=48_000.0)
    detail = power_ratio_detail(s, s, (2500.0, 3500.0), 3000.0, ref_exclusion_halfwidth_bins=3)
    assert detail.peak_bin_hot == detail.peak_bin_cold == 625
    in_band_bins = detail.band_power_hot * detail.peak_power_hot / s.bin_width_hz
    assert in_band_bins == pytest.approx(202.0, rel=1e-12)


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


def test_power_ratio_detail_rejects_empty_cold_band():
    # An inf in the peak bin would normalize every band bin to 0 and end in
    # 0/0; the spectrum itself refuses it.
    values = np.ones(21)
    values[10] = math.inf
    with pytest.raises(ParameterError):
        _flat_spectrum(values)
    # A finite cold spectrum with no power in the band would divide by 0.
    hot = _flat_spectrum(np.ones(21))
    cold = _flat_spectrum(np.r_[np.zeros(8), np.ones(13)])
    with pytest.raises(DegenerateBandError):
        power_ratio_detail(hot, cold, band=(2.0, 6.0), f_ref_hz=15.0)
    assert power_ratio_detail(cold, hot, band=(2.0, 6.0), f_ref_hz=15.0).y == 0.0


# (seed, window, overlap, fft_size, n) of the streamed-record cases: every
# seed, window, FFT size and record length at least once, from one segment
# (fft 999 998 of 1e6 samples, fft 10 000 of 10 001) to 105 000 (Hann 75%
# of 38), including a block of one huge segment whose 75% overlap is kept.
STREAMED_CASES = [
    (0, "rectangular", 0.0, 38, 10_001),
    (1, "hann", 0.5, 38, 10_001),
    (3, "hann", 0.75, 38, 300_001),
    (0, "rectangular", 0.0, 38, 1_000_000),
    (1, "hann", 0.5, 2_000, 10_001),
    (3, "hann", 0.75, 2_000, 10_001),
    (0, "rectangular", 0.0, 2_000, 300_001),
    (1, "hann", 0.5, 2_000, 1_000_000),
    (3, "hann", 0.75, 2_000, 1_000_000),
    (0, "rectangular", 0.0, 10_000, 10_001),
    (1, "hann", 0.5, 10_000, 10_001),
    (3, "hann", 0.75, 10_000, 300_001),
    (0, "hann", 0.5, 10_000, 1_000_000),
    (1, "rectangular", 0.0, 10_000, 1_000_000),
    (3, "rectangular", 0.0, 200_000, 300_001),
    (0, "hann", 0.75, 200_000, 300_001),
    (1, "hann", 0.5, 200_000, 1_000_000),
    (3, "hann", 0.75, 200_000, 1_000_000),
    (0, "rectangular", 0.0, 999_998, 1_000_000),
    (1, "hann", 0.5, 999_998, 1_000_000),
    (3, "hann", 0.75, 999_998, 1_000_000),
]


@pytest.mark.parametrize("seed, window, overlap, fft_size, n", STREAMED_CASES)
def test_streamed_noise_psd_equals_that_of_the_drawn_record(seed, window, overlap, fft_size, n):
    want = psd(gaussian_noise(n, 1.7, seed, sample_rate_hz=50_000.0), fft_size, window, overlap)
    # A record is read once, front to back; a fresh record of the same draw
    # gives the same spectrum again.
    for _ in range(2):
        got = psd(_NoiseDraw(n, 1.7, seed, 50_000.0), fft_size, window, overlap)
        assert got.psd.tobytes() == want.psd.tobytes()
        assert (got.n_segments, got.sample_rate_hz) == (want.n_segments, want.sample_rate_hz)


@pytest.mark.parametrize("cores", [1, 2])
def test_two_streamed_records_sum_as_drawn_ones(pin_cpus, cores):
    pin_cpus(cores)
    args = [(n, 1.3, seed, 50_000.0) for n, seed in ((400_001, 5), (300_007, 6))]
    for analysis in ((2_000, "rectangular", 0.0), (10_000, "hann", 0.5)):
        want = spectral._spectra([gaussian_noise(*a) for a in args], *analysis)
        got = spectral._spectra([_NoiseDraw(*a) for a in args], *analysis)
        assert [s.psd.tobytes() for s in got] == [s.psd.tobytes() for s in want]
