"""Noise-factor algebra: conversions, Y-factor equations, Friis cascade."""

import math
import warnings

import pytest
from hypothesis import given, strategies as st

from nfbist import (
    BOLTZMANN_J_PER_K,
    T0_K,
    DutSpec,
    OpampNoiseModel,
    ParameterError,
    SingularYError,
    dut_from_nf,
    f_from_y_temps,
    f_to_nf,
    friis_cascade,
    ideal_y,
    nf_to_f,
    nominal_f,
    opamp_noise_figure,
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


def test_nf_to_f_rejects_overflow():
    assert nf_to_f(3000.0) == 1e300
    with pytest.raises(ParameterError):
        nf_to_f(4000.0)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_nf_round_trip(nf_db):
    assert f_to_nf(nf_to_f(nf_db)) == pytest.approx(nf_db, abs=1e-12)


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


def test_f_from_y_temps_nonphysical_is_returned_without_warning():
    # Y above the zero-added-noise limit Th/Tc implies F < 1; the solver
    # returns it and leaves the note to the pipeline.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = f_from_y_temps(10.5, 10_000.0, 1_000.0)
    assert f < 1.0


# Not finite, or not a number at all: each must raise ParameterError, not
# TypeError, and True must not pass as 1.
NON_FINITE = [math.nan, math.inf, -math.inf, "a", None, True]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: f_to_nf(v),
        lambda v: nf_to_f(v),
        lambda v: f_from_y_temps(v, 10_000.0, 1_000.0),
        lambda v: f_from_y_temps(2.0, v, 1_000.0),
        lambda v: f_from_y_temps(2.0, 10_000.0, v),
        lambda v: f_from_y_temps(2.0, 10_000.0, 1_000.0, v),
        lambda v: ideal_y(v, 10_000.0, 1_000.0),
        lambda v: ideal_y(2.0, v, 1_000.0),
        lambda v: ideal_y(2.0, 10_000.0, v),
        lambda v: ideal_y(2.0, 10_000.0, 1_000.0, v),
        lambda v: friis_cascade([(v, 10.0)]),
        lambda v: friis_cascade([(2.0, v)]),
        lambda v: friis_cascade([(2.0, 10.0), (v, 10.0)]),
        lambda v: dut_from_nf(v, 10.0),
        lambda v: dut_from_nf(3.0, v),
        lambda v: dut_from_nf(3.0, 10.0, v),
        lambda v: dut_from_nf(3.0, 10.0, T0_K, v),
        lambda v: nominal_f(DutSpec(10.0, 2_900.0), v),
        lambda v: nominal_f(DutSpec(10.0, 2_900.0), T0_K, v),
        lambda v: opamp_noise_figure(OpampNoiseModel(v, 1e-12, 1_000.0)),
        lambda v: opamp_noise_figure(OpampNoiseModel(4e-9, v, 1_000.0)),
        lambda v: opamp_noise_figure(OpampNoiseModel(4e-9, 1e-12, v)),
        lambda v: opamp_noise_figure(OpampNoiseModel(4e-9, 1e-12, 1_000.0, v)),
        lambda v: opamp_noise_figure(OpampNoiseModel(4e-9, 1e-12, 1_000.0, 0.0, v)),
    ],
)
def test_non_finite_arguments_rejected(call, bad):
    # NaN fails every comparison, so a "x <= 0" test would let it through.
    with pytest.raises(ParameterError):
        call(bad)


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


@pytest.mark.parametrize(
    "stages",
    [
        5,
        [("a", 1.0)],
        [(2.0, "b")],
        [(2.0, None)],
        [(True, 10.0)],
        [(2.0,)],
        [(2.0, 1.0, 3.0)],
        [2.0],
    ],
    ids=[
        "not-iterable",
        "f-string",
        "gain-string",
        "gain-none",
        "f-bool",
        "one-field",
        "three-fields",
        "stage-not-a-pair",
    ],
)
def test_friis_cascade_rejects_malformed_stages(stages):
    with pytest.raises(ParameterError):
        friis_cascade(stages)
