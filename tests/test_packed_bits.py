"""Packed bitstreams: their +-1 values, their NFB1 bytes and their spectra."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfbist import (
    BitStream,
    SampledSignal,
    digitize,
    gaussian_noise,
    psd,
    read_capture,
    square_wave,
    write_capture,
)
from nfbist import signals, spectral
from nfbist.signals import _CHUNK_SAMPLES

HEADER_SIZE = struct.calcsize("<4sIdQ")
ANALYSES = [("rectangular", 0.0), ("hann", 0.5), ("hann", 0.75)]


def _values(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), n)


def _same_spectrum(a, b):
    return a.n_segments == b.n_segments and a.psd.tobytes() == b.psd.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    half_fft=st.integers(min_value=1, max_value=1024),
    rate=st.floats(min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)
# fft 2000 at Hann 75% hops 500 samples, and fft 1998 at Hann 50% an odd
# 999: neither starts every segment on a byte.
@example(n=4096, seed=1, half_fft=1000, rate=50_000.0)
@example(n=4093, seed=2, half_fft=999, rate=50_000.0)
def test_packed_streams_keep_values_bytes_and_spectra(tmp_path_factory, n, seed, half_fft, rate):
    values = _values(n, seed)
    # Streams built from an int8 and a float array, and a read-back capture.
    int8 = BitStream(rate, values)
    packed = BitStream(rate, values.astype(np.float64))
    path = tmp_path_factory.mktemp("cap") / "cap.nfb"
    write_capture(path, packed)
    raw = path.read_bytes()
    assert raw[HEADER_SIZE:] == np.packbits(values > 0, bitorder="little").tobytes()
    write_capture(path, int8)
    assert path.read_bytes() == raw
    back = read_capture(path)
    for stream in (int8, packed, back):
        np.testing.assert_array_equal(stream.bits, values)
        assert stream.sample_rate_hz == rate and len(stream) == n
        assert stream.mean() == float(values.mean())
    fft_size = min(2 * half_fft, n - n % 2)
    if fft_size < 4:  # Hann 75% of 2 samples leaves no hop
        return
    as_float = SampledSignal(rate, values.astype(np.float64))
    for window, overlap in ANALYSES:
        want = psd(as_float, fft_size, window, overlap)
        for stream in (int8, packed, back):
            assert _same_spectrum(psd(stream, fft_size, window, overlap), want)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("block_rows", [None, 3], ids=["default_blocks", "3_row_blocks"])
def test_packed_spectra_in_every_block_shape(monkeypatch, pin_cpus, cores, block_rows):
    # Segment counts of one to thousands of row blocks; hops of 1 to 2 000
    # samples, aligned to a byte or not.
    pin_cpus(cores)
    n, fs = 8_011, 50_000.0
    values = _values(n, 7)
    back = BitStream(fs, values.astype(np.float64))
    as_float = SampledSignal(fs, values.astype(np.float64))
    for fft_size in (4, 38, 64, 2_000):
        if block_rows is not None:
            monkeypatch.setattr(spectral, "_CHUNK_SAMPLES", block_rows * fft_size)
        for window, overlap in ANALYSES:
            want = psd(as_float, fft_size, window, overlap)
            assert _same_spectrum(psd(back, fft_size, window, overlap), want)
        pair = spectral._spectra([back, as_float], fft_size, "hann", 0.75)
        assert _same_spectrum(pair[0], pair[1])


@pytest.mark.parametrize(
    "n",
    [1, 7, 8, 9, _CHUNK_SAMPLES, 3 * _CHUNK_SAMPLES + 5],
    ids=["1", "7", "8", "9", "1chunk", "3chunks+5"],
)
def test_block_packing_gives_the_bytes_of_one_whole_array_pack(n):
    # The pattern, BitStream(rate, values) and digitize all pack through
    # signals._packed, one _CHUNK_SAMPLES block at a time.
    def whole(decisions):
        return np.packbits(decisions, bitorder="little").tobytes()

    values = _values(n, n)
    assert BitStream(50_000.0, values)._packed.tobytes() == whole(values > 0)
    x = gaussian_noise(n, 1.0, n, 50_000.0)
    r = square_wave(n, 50_000.0, 3_000.0, 0.25)
    assert digitize(x, r)._packed.tobytes() == whole(x.samples - r.samples >= 0.0)
    signals._first_half_mask.cache_clear()
    cycle = np.mod(3_000.0 * (np.arange(n) / 50_000.0), 1.0)
    assert signals._first_half_mask(n, 50_000.0, 3_000.0).tobytes() == whole(cycle < 0.5)
