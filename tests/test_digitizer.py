"""Comparator digitizer, bitstream container and the arcsine law."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from nfbist import (
    BitStream,
    ParameterError,
    SampledSignal,
    ShapeError,
    arcsine_map,
    digitize,
    empirical_autocorr,
    gaussian_noise,
    square_wave,
)
from nfbist.signals import _CHUNK_SAMPLES


def _const_signal(values, rate=1.0):
    return SampledSignal(rate, values)


def test_bitstream_validation():
    bs = BitStream(10.0, [1, -1, 1, 1])
    assert len(bs) == 4
    assert bs.mean() == 0.5
    assert bs.bits.dtype == np.int8
    with pytest.raises(ParameterError):
        BitStream(10.0, [1, 0, -1])
    # Checked before the int8 cast, which would wrap or truncate these to +-1.
    for bad in ([257, -1], [1.5, -1.0], [1.0, -1.9], np.array([65535, 255], dtype=np.uint16)):
        with pytest.raises(ParameterError):
            BitStream(10.0, bad)
    # A bool is not the number +1, whatever its value (see errors._is_bool).
    for bad in ([True, True], [True, False], np.ones(9, dtype=np.bool_)):
        with pytest.raises(ParameterError):
            BitStream(10.0, bad)
    assert BitStream(10.0, [1.0, -1.0]).bits.tolist() == [1, -1]
    with pytest.raises(ParameterError):
        BitStream(10.0, [])
    with pytest.raises(ShapeError):
        BitStream(10.0, np.ones((2, 2)))
    with pytest.raises(ParameterError):
        BitStream(0.0, [1, -1])


def test_bitstream_check_works_in_bounded_blocks():
    # The +-1 check and the packing must not build full-length temporaries:
    # 1e7 bits would take 10 MB for each of the two comparisons, their
    # union and the packer's boolean input. Beyond the n/8-byte payload the
    # stream holds, their blocks get 1 MiB.
    n = 10_000_000
    bits = np.ones(n, dtype=np.int8)
    bits[1::3] = -1
    tracemalloc.start()
    try:
        BitStream(50_000.0, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - n // 8 < 2**20
    # A bad value in the last block is still found.
    bad = bits.copy()
    bad[-1] = 0
    with pytest.raises(ParameterError):
        BitStream(50_000.0, bad)


def _packed(values, rate=1.0):
    """A packed bitstream of the +-1 values, as digitize makes it."""
    signal = SampledSignal(rate, np.asarray(values, dtype=np.float64))
    return digitize(signal, SampledSignal(rate, np.zeros(signal.samples.size)))


@pytest.mark.parametrize("n", [1, 7, 9, 1_001, 3 * (1 << 16) + 5])
def test_mean_is_counted_from_the_packed_bytes(n):
    # (2 * ones - n) / n, with the ones counted in the payload, equals the
    # mean of the unpacked values exactly; every n leaves a partial last byte.
    for seed, p_plus in ((0, 0.5), (1, 0.9), (2, 0.02)):
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(n) < p_plus, 1, -1).astype(np.int8)
        want = float(values.mean())
        streams = (_packed(values), BitStream(1.0, values.astype(np.int16)), BitStream(1.0, values))
        for stream in streams:
            assert stream.mean() == want
            assert len(stream) == n


def test_bitstream_packs_every_input():
    values = np.array([1, -1, -1, 1, 1, 1, -1, 1, 1], dtype=np.int8)
    # LSB first, bit set for +1: 1,0,0,1,1,1,0,1 -> 0b10111001, then 0b1.
    strided = np.repeat(values, 2)[::2]
    for other in (values, values.astype(np.int64), values.astype(float), values.tolist(), strided):
        stream = BitStream(10.0, other)
        assert stream._packed.tolist() == [0b10111001, 0b1]
        np.testing.assert_array_equal(stream.bits, values)
    # Blocks of _CHUNK_SAMPLES values pack to the bytes of one whole-array pack.
    rng = np.random.default_rng(3)
    values = rng.choice(np.array([-1.0, 1.0]), 3 * _CHUNK_SAMPLES + 13)
    stream = BitStream(10.0, values)
    assert stream._packed.tobytes() == np.packbits(values > 0, bitorder="little").tobytes()
    with pytest.raises(AttributeError):
        stream.sample_rate_hz = 5.0


def test_bitstream_leaves_the_callers_array_alone():
    # The stream packs a copy: the caller's int8 array and the base of a
    # view stay writeable, and writing to them later changes nothing in it.
    values = np.array([1, -1, 1, 1], dtype=np.int8)
    base = values.copy()
    whole, view = BitStream(10.0, values), BitStream(10.0, base[:3])
    assert values.flags.writeable and base.flags.writeable
    values[0] = base[0] = -1
    assert whole.bits.tolist() == [1, -1, 1, 1] and whole.mean() == 0.5
    assert view.bits.tolist() == [1, -1, 1] and view.mean() == 1 / 3
    # What the stream holds is its ceil(n / 8)-byte payload and little else.
    n = 1_000_003
    values = np.ones(n, dtype=np.int8)
    values[::3] = -1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = BitStream(50_000.0, values)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert -(-n // 8) <= held < -(-n // 8) + 2**12
    assert stream._packed.nbytes == -(-n // 8)


def test_packed_bitstream_holds_one_bit_per_decision():
    # .bits is unpacked afresh on every read and never kept, so the stream
    # holds n/8 bytes however often .bits is read.
    n = 1_000_003
    rng = np.random.default_rng(4)
    stream = _packed(np.where(rng.random(n) < 0.5, 1, -1), rate=50_000.0)
    first, second = stream.bits, stream.bits
    assert first is not second and not np.shares_memory(first, second)
    assert first.dtype == np.int8 and not first.flags.writeable
    np.testing.assert_array_equal(first, second)
    del first, second
    tracemalloc.start()
    try:
        for _ in range(3):
            assert stream.bits.size == n
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**12
    assert stream._packed.nbytes == -(-n // 8)


def test_digitize_threshold_and_ties():
    sig = _const_signal([0.0, 0.5, -0.5, 1.0])
    ref = _const_signal([0.0, 0.0, 0.0, 1.0])
    bits = digitize(sig, ref)
    # Exact equality counts as +1.
    np.testing.assert_array_equal(bits.bits, [1, 1, -1, 1])
    assert bits.sample_rate_hz == 1.0


def test_digitize_holds_one_block_of_temporaries():
    # The difference and its decisions are made one _CHUNK_SAMPLES block at
    # a time: a whole-record difference and bool array put the peak at
    # 8.58 MiB at 1e6 samples, beyond the n/8-byte payload.
    n = 1_000_000
    x = gaussian_noise(n, 1.0, 0, 50_000.0)
    r = square_wave(n, 50_000.0, 3_000.0, 0.25)
    tracemalloc.start()
    try:
        bits = digitize(x, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20 + bits._packed.nbytes


def test_digitize_rejects_mismatched_inputs():
    sig = _const_signal([0.0, 1.0])
    with pytest.raises(ShapeError):
        digitize(sig, _const_signal([0.0, 1.0], rate=2.0))
    with pytest.raises(ShapeError):
        digitize(sig, _const_signal([0.0, 1.0, 2.0]))


def test_digitize_common_scaling_invariance():
    """Scaling signal and reference together cannot move any comparator
    decision, since only the sign of the difference matters."""
    rng = np.random.default_rng(12)
    raw = rng.normal(0.0, 3.0, 5000)
    ref = rng.normal(0.0, 1.0, 5000)
    base = digitize(_const_signal(raw), _const_signal(ref))
    for scale in (7.3, 1e-6, 1e6):
        scaled = digitize(_const_signal(scale * raw), _const_signal(scale * ref))
        np.testing.assert_array_equal(scaled.bits, base.bits)


def test_digitize_matches_where_formula():
    # Equal values, signed zeros, infinities and NaN: every decision must
    # match the plain np.where form of "+1 where x - r >= 0, else -1".
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
    x = np.concatenate([np.repeat(special, special.size), rng.normal(size=1000)])
    r = np.concatenate([np.tile(special, special.size), rng.normal(size=1000)])
    r[-100:] = x[-100:]  # ties
    with np.errstate(invalid="ignore"):  # inf - inf
        bits = digitize(SampledSignal(1.0, x), SampledSignal(1.0, r)).bits
        expected = np.where(x - r >= 0.0, 1, -1).astype(np.int8)
    np.testing.assert_array_equal(bits, expected)
    assert bits.dtype == np.int8


def test_arcsine_map_values():
    assert arcsine_map(0.0) == 0.0
    assert arcsine_map(1.0) == pytest.approx(1.0, abs=1e-15)
    assert arcsine_map(-1.0) == pytest.approx(-1.0, abs=1e-15)
    # (2/pi) asin(0.5) = 1/3; asin(0.4) evaluated independently.
    assert arcsine_map(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert arcsine_map(0.4) == pytest.approx(0.2619797608689093, abs=1e-12)


def test_arcsine_map_array_and_domain():
    out = arcsine_map(np.array([0.0, 0.5, -0.5]))
    np.testing.assert_allclose(out, [0.0, 1.0 / 3.0, -1.0 / 3.0], atol=1e-12)
    assert isinstance(arcsine_map(0.5), float)
    with pytest.raises(ParameterError):
        arcsine_map(1.0001)
    with pytest.raises(ParameterError):
        arcsine_map(np.array([0.0, -1.2]))
    for bad_rho in ("a", 0.5j, np.array([0.5 + 0j])):
        with pytest.raises(ParameterError):
            arcsine_map(bad_rho)


@pytest.mark.parametrize(
    "call",
    [
        lambda: arcsine_map(True),
        lambda: arcsine_map(np.array([True, False])),
        lambda: arcsine_map(math.nan),
        lambda: empirical_autocorr([1.0, math.nan, 2.0], 1),
        lambda: empirical_autocorr(np.array([1.0, math.inf, 2.0]), 1),
        lambda: empirical_autocorr(np.array([True, False, True]), 1),
    ],
    ids=["rho-true", "rho-bools", "rho-nan", "x-nan", "x-inf", "x-bools"],
)
def test_arcsine_map_and_autocorr_reject_bools_and_non_finite_values(call):
    with pytest.raises(ParameterError):
        call()


def test_empirical_autocorr_hand_computed():
    r = empirical_autocorr(np.array([1.0, 2.0, 3.0, 4.0]), max_lag=3)
    # denom = 30; lag sums are 20, 11 and 4.
    np.testing.assert_allclose(r, [1.0, 20 / 30, 11 / 30, 4 / 30], atol=1e-15)


def test_empirical_autocorr_white_noise_is_flat():
    sig = gaussian_noise(100_000, 1.0, seed=8)
    r = empirical_autocorr(sig, max_lag=10)
    assert r[0] == 1.0
    # White-noise autocorrelation estimates have sd ~ 1/sqrt(n) ~ 0.003.
    assert np.max(np.abs(r[1:])) < 0.02


def test_empirical_autocorr_accepts_bitstream():
    bs = BitStream(1.0, [1, 1, -1, -1])
    r = empirical_autocorr(bs, max_lag=1)
    assert r[0] == 1.0
    assert r[1] == pytest.approx((1 - 1 + 1) / 4.0)


def test_empirical_autocorr_validation():
    with pytest.raises(ParameterError):
        empirical_autocorr(np.ones(4), max_lag=4)
    # A bool is not a lag (True would run as max_lag=1).
    for bad in (-1, 1.5, math.nan, math.inf, True, "1"):
        with pytest.raises(ParameterError):
            empirical_autocorr(np.ones(4), max_lag=bad)
    with pytest.raises(ParameterError):
        empirical_autocorr(np.zeros(4), max_lag=1)
    with pytest.raises(ShapeError):
        empirical_autocorr(np.ones((2, 2)), max_lag=1)
    # Complex input would lose its imaginary parts in the float64 cast.
    for bad_x in (np.array([1 + 1j, 2]), [1j, 2, 3], ["a", "b"]):
        with pytest.raises(ParameterError):
            empirical_autocorr(bad_x, max_lag=1)


def test_hard_limited_ar1_follows_arcsine_law():
    """Slicing an AR(1) process against zero turns its autocorrelation
    rho(tau) = a^tau into (2/pi) asin(a^tau) on the bit side."""
    a = 0.6
    n = 300_000
    rng = np.random.default_rng(77)
    drive = rng.normal(0.0, math.sqrt(1.0 - a * a), n + 10_000)
    x = lfilter([1.0], [1.0, -a], drive)[10_000:]  # drop start-up transient
    bits = digitize(SampledSignal(1.0, x), SampledSignal(1.0, np.zeros(n)))
    measured = empirical_autocorr(bits, max_lag=3)
    expected = arcsine_map(a ** np.arange(4))
    np.testing.assert_allclose(measured, expected, atol=0.01)
