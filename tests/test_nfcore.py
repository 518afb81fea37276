"""Noise-factor algebra: conversions, Y-factor equations, Friis cascade."""

import pytest
from hypothesis import given, strategies as st

from nfbist import (
    BOLTZMANN_J_PER_K,
    T0_K,
    NonphysicalResultWarning,
    ParameterError,
    SingularYError,
    direct_gain_error,
    f_direct,
    f_from_snr,
    f_from_y_powers,
    f_from_y_temps,
    f_to_nf,
    friis_cascade,
    ideal_y,
    nf_to_f,
    snr_db,
    y_factor,
)


def test_constants():
    assert BOLTZMANN_J_PER_K == 1.380649e-23
    assert T0_K == 290.0


def test_f_to_nf_known_values():
    assert f_to_nf(1.0) == 0.0
    assert f_to_nf(2.0) == pytest.approx(3.0102999566398120, abs=1e-12)
    assert f_to_nf(10.0) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(ParameterError):
        f_to_nf(0.0)
    with pytest.raises(ParameterError):
        f_to_nf(-1.0)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_nf_round_trip(nf_db):
    assert f_to_nf(nf_to_f(nf_db)) == pytest.approx(nf_db, abs=1e-12)


def test_snr_chain():
    assert snr_db(100.0, 1.0) == pytest.approx(20.0, abs=1e-12)
    assert f_from_snr(40.0, 30.0) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ParameterError):
        snr_db(0.0, 1.0)
    with pytest.raises(ParameterError):
        snr_db(1.0, -1.0)


def test_f_direct_exact_construction():
    # Output power built as exactly 3x the k*T0*B*G floor must give F = 3.
    g, b = 5.0, 1_000.0
    n_out = 3.0 * BOLTZMANN_J_PER_K * T0_K * b * g
    assert f_direct(n_out, g, b) == pytest.approx(3.0, rel=1e-12)


def test_f_direct_warns_below_one():
    n_out = 0.5 * BOLTZMANN_J_PER_K * T0_K * 1_000.0
    with pytest.warns(NonphysicalResultWarning):
        f = f_direct(n_out, 1.0, 1_000.0)
    assert f == pytest.approx(0.5, rel=1e-12)


def test_f_direct_validation():
    with pytest.raises(ParameterError):
        f_direct(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        f_direct(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        f_direct(1.0, 1.0, -2.0)


def test_direct_gain_error_is_multiplicative():
    assert direct_gain_error(4.0, 1.0) == 4.0
    assert direct_gain_error(4.0, 10 ** 0.1) == pytest.approx(4.0 * 10 ** 0.1, rel=1e-15)
    with pytest.raises(ParameterError):
        direct_gain_error(0.0, 1.0)
    with pytest.raises(ParameterError):
        direct_gain_error(1.0, 0.0)


def test_y_factor():
    assert y_factor(6.0, 2.0) == 3.0
    with pytest.raises(ParameterError):
        y_factor(-1.0, 2.0)
    with pytest.raises(ParameterError):
        y_factor(1.0, 0.0)


@pytest.mark.parametrize("f_true", [1.0, 1.1, 2.0, 10.0, 41.7])
def test_y_temperature_round_trip(f_true):
    y = ideal_y(f_true, 10_000.0, 1_000.0, 290.0)
    assert f_from_y_temps(y, 10_000.0, 1_000.0, 290.0) == pytest.approx(f_true, rel=1e-12)


def test_f_from_y_temps_cold_at_reference():
    # With Tc = T0 the cold term vanishes: Y = (Th/T0 - 1 + F) / F, so
    # F=2 at Th=2900 gives Y = 5.5 and inverts exactly.
    assert ideal_y(2.0, 2900.0, 290.0, 290.0) == 5.5
    assert f_from_y_temps(5.5, 2900.0, 290.0, 290.0) == pytest.approx(2.0, rel=1e-14)


def test_ideal_y_known_value():
    # (10000 + 9*290) / (1000 + 9*290) for F = 10 at T0 = 290.
    assert ideal_y(10.0, 10_000.0, 1_000.0) == pytest.approx(
        3.4930747922437675, abs=1e-12
    )
    assert ideal_y(1.0, 10_000.0, 1_000.0) == 10.0
    with pytest.raises(ParameterError):
        ideal_y(0.5, 10_000.0, 1_000.0)


def test_f_from_y_temps_singularities():
    with pytest.raises(SingularYError):
        f_from_y_temps(1.0, 10_000.0, 1_000.0)
    with pytest.raises(ParameterError):
        f_from_y_temps(0.0, 10_000.0, 1_000.0)
    with pytest.raises(ParameterError):
        f_from_y_temps(2.0, -1.0, 1_000.0)


def test_f_from_y_temps_nonphysical_warns():
    # Y above the zero-added-noise limit Th/Tc implies F < 1.
    with pytest.warns(NonphysicalResultWarning):
        f = f_from_y_temps(10.5, 10_000.0, 1_000.0)
    assert f < 1.0


def test_f_from_y_powers_matches_temperature_form():
    # Calibration powers proportional to temperatures give the same F.
    c = 0.37
    y = ideal_y(5.0, 10_000.0, 1_000.0)
    f_t = f_from_y_temps(y, 10_000.0, 1_000.0, 290.0)
    f_p = f_from_y_powers(y, c * 10_000.0, c * 1_000.0, c * 290.0)
    assert f_p == pytest.approx(f_t, rel=1e-12)


def test_friis_cascade_hand_value():
    # F1=2, G1=10 followed by F2=10: 2 + (10-1)/10 = 2.9 exactly.
    assert friis_cascade([(2.0, 10.0), (10.0, 3.0)]) == pytest.approx(2.9, abs=1e-15)
    assert friis_cascade([(4.0, 100.0)]) == 4.0


def test_friis_cascade_order_matters():
    low_noise_first = friis_cascade([(2.0, 100.0), (10.0, 1.0)])
    noisy_first = friis_cascade([(10.0, 1.0), (2.0, 100.0)])
    assert low_noise_first < noisy_first
    # A high-gain first stage pins the total near its own F.
    assert low_noise_first == pytest.approx(2.09, abs=1e-12)


def test_friis_cascade_validation():
    with pytest.raises(ParameterError):
        friis_cascade([])
    with pytest.raises(ParameterError):
        friis_cascade([(0.5, 10.0)])
    with pytest.raises(ParameterError):
        friis_cascade([(2.0, 0.0)])
