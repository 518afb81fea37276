"""Comparator digitizer, bitstream container and the arcsine law."""

import math

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
)


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
    assert BitStream(10.0, [1.0, -1.0]).bits.tolist() == [1, -1]
    with pytest.raises(ParameterError):
        BitStream(10.0, [])
    with pytest.raises(ShapeError):
        BitStream(10.0, np.ones((2, 2)))
    with pytest.raises(ParameterError):
        BitStream(0.0, [1, -1])


def test_digitize_threshold_and_ties():
    sig = _const_signal([0.0, 0.5, -0.5, 1.0])
    ref = _const_signal([0.0, 0.0, 0.0, 1.0])
    bits = digitize(sig, ref)
    # Exact equality counts as +1.
    np.testing.assert_array_equal(bits.bits, [1, 1, -1, 1])
    assert bits.sample_rate_hz == 1.0


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
