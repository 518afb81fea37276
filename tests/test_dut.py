"""DUT model: gain plus added noise, NF conversions."""

import math

import numpy as np
import pytest

from nfbist import (
    DutSpec,
    ParameterError,
    apply_dut,
    dut_from_nf,
    f_to_nf,
    gaussian_noise,
    nominal_f,
)


def test_dut_spec_validation():
    DutSpec(gain_linear=2.0, added_noise_power=0.0)
    for gain, na in (
        (0.0, 1.0),
        (1.0, -1.0),
        (math.nan, 1.0),
        (math.inf, 1.0),
        (1.0, math.nan),
        (1.0, math.inf),
    ):
        with pytest.raises(ParameterError):
            DutSpec(gain_linear=gain, added_noise_power=na)


def test_apply_dut_pure_gain():
    sig = gaussian_noise(100, 1.0, seed=0)
    out = apply_dut(DutSpec(gain_linear=4.0, added_noise_power=0.0), sig, seed=1)
    # Power gain 4 scales amplitudes by exactly 2.
    np.testing.assert_array_equal(out.samples, 2.0 * sig.samples)

    ident = apply_dut(DutSpec(gain_linear=1.0, added_noise_power=0.0), sig, seed=1)
    np.testing.assert_array_equal(ident.samples, sig.samples)


def test_apply_dut_noise_power_adds():
    sig = gaussian_noise(200_000, np.sqrt(300.0), seed=2)
    out = apply_dut(DutSpec(gain_linear=1.0, added_noise_power=500.0), sig, seed=3)
    # Independent noise powers add; sample variance rel sd ~ 0.3%.
    assert float(out.samples.var()) == pytest.approx(800.0, rel=0.02)


def test_apply_dut_matches_formula():
    sig = gaussian_noise(1001, 1.3, seed=4)
    out = apply_dut(DutSpec(gain_linear=2.0, added_noise_power=100.0), sig, seed=5)
    noise = np.random.default_rng(5).normal(0, 1, 1001)
    np.testing.assert_array_equal(out.samples, math.sqrt(2.0) * sig.samples + noise * 10.0)


def test_apply_dut_deterministic():
    sig = gaussian_noise(256, 1.0, seed=4)
    dut = DutSpec(gain_linear=2.0, added_noise_power=100.0)
    a = apply_dut(dut, sig, seed=5)
    b = apply_dut(dut, sig, seed=5)
    c = apply_dut(dut, sig, seed=6)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_dut_from_nf_added_noise_value():
    # F = 10 at unit gain: Na = (10 - 1) * 290 in temperature units.
    dut = dut_from_nf(10.0, 1.0)
    assert dut.added_noise_power == pytest.approx(2610.0, rel=1e-12)
    assert dut.gain_linear == 1.0

    # NF 0 dB means a noiseless device.
    assert dut_from_nf(0.0, 3.0).added_noise_power == 0.0


@pytest.mark.parametrize("nf_db", [3.7, 6.5, 10.1, 16.2])
@pytest.mark.parametrize("gain", [1.0, 31.6227766])
def test_dut_from_nf_round_trip(nf_db, gain):
    dut = dut_from_nf(nf_db, gain)
    assert f_to_nf(nominal_f(dut)) == pytest.approx(nf_db, abs=1e-12)


def test_dut_from_nf_respects_power_scale():
    dut = dut_from_nf(10.0, 1.0, power_scale=2.0)
    assert nominal_f(dut, power_scale=2.0) == pytest.approx(10.0, rel=1e-12)


def test_dut_from_nf_validation():
    with pytest.raises(ParameterError):
        dut_from_nf(-0.1, 1.0)
    with pytest.raises(ParameterError):
        dut_from_nf(10.0, 1.0, t0_k=0.0)
    for bad in (math.nan, math.inf):
        for field in ("nf_db", "gain_linear", "t0_k", "power_scale"):
            kwargs = dict(nf_db=10.0, gain_linear=1.0)
            kwargs[field] = bad
            with pytest.raises(ParameterError):
                dut_from_nf(**kwargs)


def test_nominal_f_validation():
    dut = DutSpec(gain_linear=1.0, added_noise_power=290.0)
    for bad in (0.0, -290.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            nominal_f(dut, t0_k=bad)
        with pytest.raises(ParameterError):
            nominal_f(dut, power_scale=bad)


def test_nominal_f_hand_value():
    # Na equal to the amplified reference-floor power doubles it: F = 2.
    dut = DutSpec(gain_linear=1.0, added_noise_power=290.0)
    assert nominal_f(dut) == pytest.approx(2.0, rel=1e-12)
    assert nominal_f(DutSpec(gain_linear=7.0, added_noise_power=0.0)) == 1.0
