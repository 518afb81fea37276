"""DUT model: gain plus added noise, NF conversions, op-amp noise figure."""

import math

import numpy as np
import pytest

from nfbist import (
    DutSpec,
    OpampNoiseModel,
    ParameterError,
    apply_dut,
    dut_from_nf,
    f_to_nf,
    gaussian_noise,
    nominal_f,
    opamp_noise_figure,
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


def test_opamp_noise_figure_pinned():
    # Hand-evaluated from NF = 10 log10((4kT rs + en^2 + (in rs)^2
    # + 4kT req) / (4kT rs)) at T = 290 K.
    model = OpampNoiseModel(
        en_v_per_rthz=3e-9,
        in_a_per_rthz=0.4e-12,
        rs_ohm=1000.0,
        req_ohm=100.0,
        temperature_k=290.0,
    )
    assert opamp_noise_figure(model) == pytest.approx(2.232219643091079, abs=1e-12)


def test_opamp_noise_figure_limits():
    quiet = OpampNoiseModel(0.0, 0.0, rs_ohm=50.0)
    assert opamp_noise_figure(quiet) == 0.0

    # With only en present the excess noise factor is quadratic in en.
    lo = OpampNoiseModel(3e-9, 0.0, rs_ohm=1000.0)
    hi = OpampNoiseModel(6e-9, 0.0, rs_ohm=1000.0)
    excess_lo = 10 ** (opamp_noise_figure(lo) / 10.0) - 1.0
    excess_hi = 10 ** (opamp_noise_figure(hi) / 10.0) - 1.0
    assert excess_hi / excess_lo == pytest.approx(4.0, rel=1e-9)


def test_opamp_noise_figure_zero_rs_raises():
    with pytest.raises(ParameterError):
        opamp_noise_figure(OpampNoiseModel(1e-9, 0.0, rs_ohm=0.0))


def test_opamp_model_validation():
    with pytest.raises(ParameterError):
        OpampNoiseModel(-1e-9, 0.0, rs_ohm=50.0)
    with pytest.raises(ParameterError):
        OpampNoiseModel(1e-9, 0.0, rs_ohm=-50.0)
    with pytest.raises(ParameterError):
        OpampNoiseModel(1e-9, 0.0, rs_ohm=50.0, temperature_k=0.0)
    for bad in (math.nan, math.inf):
        for field in ("en_v_per_rthz", "in_a_per_rthz", "rs_ohm", "req_ohm", "temperature_k"):
            kwargs = dict(en_v_per_rthz=1e-9, in_a_per_rthz=0.0, rs_ohm=50.0)
            kwargs[field] = bad
            with pytest.raises(ParameterError):
                OpampNoiseModel(**kwargs)
