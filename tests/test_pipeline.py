"""End-to-end experiment pipeline: simulation, analysis and studies."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from nfbist import (
    DutSpec,
    ExperimentConfig,
    NoiseSourceSpec,
    ParameterError,
    ShapeError,
    analyze_bitstreams,
    dut_from_nf,
    gain_sensitivity_study,
    ideal_y,
    run_direct_experiment,
    run_y_factor_experiment,
    simulate_bitstreams,
    sweep_reference_amplitude,
    th_uncertainty_study,
)

SOURCE = NoiseSourceSpec(t_hot_k=10_000.0, t_cold_k=1_000.0)

# Reduced record for structural tests; full-size runs live in the slower
# physics tests below and in test_acceptance.
FAST = dict(n_samples=100_000, fft_size=2_000)


def make_config(nf_db=10.0, **overrides):
    source = overrides.pop("source", SOURCE)
    dut = overrides.pop("dut", dut_from_nf(nf_db, 1.0))
    return ExperimentConfig(source=source, dut=dut, **overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_samples=500, fft_size=2000),     # record shorter than FFT
        dict(fft_size=999),                      # odd FFT
        dict(f_ref_hz=30_000.0),                 # past Nyquist
        dict(f_ref_hz=0.0),
        dict(band=(500.0, 30_000.0)),            # band past Nyquist
        dict(band=(1500.0, 500.0)),              # reversed
        dict(ref_amplitude=0.0),
        dict(ref_amplitude=-0.5),
        dict(post_dut_gain_linear=0.0),
        dict(ref_exclusion_halfwidth_bins=-1),
        dict(seed=0.5),
        dict(sample_rate_hz=0.0),
        dict(seed=-1),                           # numpy seeds must be >= 0
        dict(seed=True),
        dict(sample_rate_hz=math.nan),
        dict(sample_rate_hz=math.inf),
        dict(post_dut_gain_linear=math.nan),
        dict(post_dut_gain_linear=math.inf),
        dict(ref_amplitude=math.nan),
        dict(ref_amplitude=math.inf),
        dict(f_ref_hz=math.nan),
    ],
)
def test_experiment_config_validation(overrides):
    with pytest.raises(ParameterError):
        make_config(**overrides)


def test_config_requires_domain_types():
    with pytest.raises(ParameterError):
        ExperimentConfig(source="not a source", dut=dut_from_nf(10.0, 1.0))
    with pytest.raises(ParameterError):
        ExperimentConfig(source=SOURCE, dut={"gain_linear": 1.0})


def test_simulate_bitstreams_deterministic():
    cfg = make_config(seed=3, **FAST)
    hot_a, cold_a = simulate_bitstreams(cfg)
    hot_b, cold_b = simulate_bitstreams(cfg)
    np.testing.assert_array_equal(hot_a.bits, hot_b.bits)
    np.testing.assert_array_equal(cold_a.bits, cold_b.bits)
    assert hot_a.sample_rate_hz == cfg.sample_rate_hz

    hot_c, _ = simulate_bitstreams(make_config(seed=4, **FAST))
    assert not np.array_equal(hot_a.bits, hot_c.bits)


def test_simulate_bitstreams_fingerprint():
    # Pins the seed -> bits mapping of the whole simulation chain (sub-seeds,
    # noise draws, DUT, reference, comparator), so a refactor that changes
    # any rounding on the way shows up here.
    cfg = make_config(seed=1, post_dut_gain_linear=2.5, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    assert hashlib.sha256(hot.bits.tobytes()).hexdigest() == (
        "ed615564a7433874bbb5dd2011e74cf343be7c2036e796b5608ce750279a42dc"
    )
    assert hashlib.sha256(cold.bits.tobytes()).hexdigest() == (
        "83653516ab527bdc86cc459064a406c727fed933899d065f62304c8830f2a58c"
    )


def test_simulate_bitstreams_gain_invariance():
    """Post-DUT gain rescales waveform and reference by the same factor,
    so every comparator decision survives unchanged."""
    base = make_config(seed=0, **FAST)
    for ratio in (10 ** 0.1, 0.25, 1e3):
        drifted = make_config(seed=0, post_dut_gain_linear=ratio, **FAST)
        hot_a, cold_a = simulate_bitstreams(base)
        hot_b, cold_b = simulate_bitstreams(drifted)
        np.testing.assert_array_equal(hot_a.bits, hot_b.bits)
        np.testing.assert_array_equal(cold_a.bits, cold_b.bits)


def test_run_y_factor_reference_window():
    # Near the upper edge of the useful reference range the estimate still
    # tracks the ideal ratio 3.4931 closely at the full record length.
    for seed in (0, 2, 4):
        cfg = make_config(ref_amplitude=0.45, seed=seed)
        result = run_y_factor_experiment(cfg)
        assert 3.46 <= result.y <= 3.66
        assert result.n_segments == 100
        assert result.f == pytest.approx(10.0, abs=1.5)


def test_run_y_factor_result_fields():
    result = run_y_factor_experiment(make_config(seed=0, **FAST))
    assert result.y == result.band_power_hot / result.band_power_cold
    assert result.ref_peak_hot > 0.0
    assert result.ref_peak_cold > 0.0
    assert result.nf_db == pytest.approx(10.0 * math.log10(result.f), abs=1e-12)
    assert result.n_segments == 50


def test_run_y_factor_repeatable():
    a = run_y_factor_experiment(make_config(seed=1, **FAST))
    b = run_y_factor_experiment(make_config(seed=1, **FAST))
    assert a.y == b.y
    assert a.f == b.f


def test_overdriven_reference_warns():
    result = run_y_factor_experiment(make_config(ref_amplitude=1.5, seed=0, **FAST))
    assert any("above 1" in w for w in result.warnings)


def test_analyze_matches_simulation():
    cfg = make_config(seed=2, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    direct = analyze_bitstreams(hot, cold, cfg)
    wrapped = run_y_factor_experiment(cfg)
    assert direct.y == wrapped.y
    assert direct.f == wrapped.f
    assert direct.n_segments == wrapped.n_segments


def test_analyze_swapped_inputs_warns():
    cfg = make_config(seed=0, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    result = analyze_bitstreams(cold, hot, cfg)  # deliberately swapped
    assert result.y < 1.0
    assert any("below 1" in w for w in result.warnings)
    # The nonphysical F is reported, not raised.
    assert result.f < 1.0


def test_analyze_rejects_rate_mismatch():
    cfg = make_config(seed=0, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    slow = type(cold)(cold.sample_rate_hz / 2.0, cold.bits)
    with pytest.raises(ShapeError):
        analyze_bitstreams(hot, slow, cfg)


def test_analyze_rejects_config_rate_mismatch():
    # Bits taken at 10 kHz but analysed with a 50 kHz config would read the
    # reference and the band at the wrong bins and return a wrong NF.
    slow = make_config(seed=0, sample_rate_hz=10_000.0, n_samples=200_000, fft_size=2_000)
    hot, cold = simulate_bitstreams(slow)
    with pytest.raises(ShapeError, match="sample rates differ"):
        analyze_bitstreams(hot, cold, replace(slow, sample_rate_hz=50_000.0))


def test_direct_method_recovers_f():
    # The analog direct path has no comparator bias, so F comes out near
    # its true value even at the reduced record length.
    cfg = make_config(seed=0, **FAST)
    result = run_direct_experiment(cfg, assumed_gain_linear=1.0)
    assert result.f == pytest.approx(10.0, abs=0.5)
    assert result.y is None
    assert result.n_segments == 50


def test_direct_method_gain_error_is_exact():
    cfg = make_config(seed=0, **FAST)
    f_nominal = run_direct_experiment(cfg, 1.0).f
    f_biased = run_direct_experiment(cfg, 0.5).f
    # Same acquisition, halved assumed gain: the estimate doubles exactly.
    assert f_biased == 2.0 * f_nominal


def test_direct_method_validation():
    cfg = make_config(seed=0, **FAST)
    for assumed in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            run_direct_experiment(cfg, assumed)


def test_sweep_reference_amplitude_structure():
    cfg = make_config(seed=0, **FAST)
    rows = sweep_reference_amplitude(cfg, [0.4, 0.1], n_seeds=2)
    assert [a for a, _ in rows] == [0.4, 0.1]
    assert all(err >= 0.0 for _, err in rows)
    with pytest.raises(ParameterError):
        sweep_reference_amplitude(cfg, [])
    with pytest.raises(ParameterError):
        sweep_reference_amplitude(cfg, [0.0])
    with pytest.raises(ParameterError):
        sweep_reference_amplitude(cfg, [0.1], n_seeds=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            sweep_reference_amplitude(cfg, [0.1, bad])


def test_th_uncertainty_study_closed_form():
    """With the cold load at the reference temperature the NF shift
    depends only on the hot-side error: dNF = 10 log10(th'/th)."""
    source = NoiseSourceSpec(t_hot_k=2900.0, t_cold_k=290.0)
    deltas = {}
    for f_true, na in ((2.0, 290.0), (10.0, 2610.0)):
        cfg = ExperimentConfig(
            source=source, dut=DutSpec(gain_linear=1.0, added_noise_power=na), **FAST
        )
        rows = th_uncertainty_study(cfg, [0.05, 0.0, -0.05])
        assert rows[1] == (0.0, 0.0)
        assert rows[0][1] == pytest.approx(10.0 * math.log10(9.5 / 9.0), abs=1e-9)
        assert rows[2][1] == pytest.approx(10.0 * math.log10(8.5 / 9.0), abs=1e-9)
        deltas[f_true] = (rows[0][1], rows[2][1])
    # The shift is independent of the device noise factor here.
    assert deltas[2.0][0] == pytest.approx(deltas[10.0][0], abs=1e-12)
    assert deltas[2.0][1] == pytest.approx(deltas[10.0][1], abs=1e-12)

    cfg = make_config(**FAST)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            th_uncertainty_study(cfg, [0.05, bad])


def test_gain_sensitivity_study_contrast():
    cfg = make_config(seed=0, **FAST)
    rows = gain_sensitivity_study(cfg, [1.0, 10 ** 0.1])
    by_key = {(r.method, round(r.gain_ratio, 6)): r.nf_bias_db for r in rows}
    assert by_key[("direct", 1.0)] == 0.0
    assert by_key[("y_factor", 1.0)] == 0.0
    assert by_key[("direct", round(10 ** 0.1, 6))] == pytest.approx(1.0, abs=1e-9)
    assert by_key[("y_factor", round(10 ** 0.1, 6))] == 0.0
    with pytest.raises(ParameterError):
        gain_sensitivity_study(cfg, [0.0])


def test_sweep_error_metric_uses_ideal_ratio():
    # A single-seed sweep entry must equal the error of that same run.
    cfg = make_config(seed=7, **FAST)
    rows = sweep_reference_amplitude(cfg, [0.25], n_seeds=1)
    result = run_y_factor_experiment(make_config(seed=7, ref_amplitude=0.25, **FAST))
    y_ideal = ideal_y(10.0, 10_000.0, 1_000.0)
    assert rows[0][1] == pytest.approx(abs(result.y - y_ideal) / y_ideal, rel=1e-12)


# The sweeps draw each seed's analog noise once and reuse it for every sweep
# point (common random numbers). These references run every point as its own
# experiment, the way the studies are defined, and must match exactly.
CRN_CONFIG = dict(n_samples=100_000, fft_size=2_000, post_dut_gain_linear=2.5)
CRN_ANALYSES = [dict(), dict(window="hann", overlap_fraction=0.5)]


@pytest.mark.parametrize("analysis", CRN_ANALYSES, ids=["rect", "hann50"])
def test_sweep_reference_amplitude_equals_per_point_runs(analysis):
    cfg = make_config(seed=5, **CRN_CONFIG)
    fractions = [0.02, 0.25, 1.5]
    y_ideal = ideal_y(10.0, 10_000.0, 1_000.0)
    expected = []
    for a in fractions:
        errors = []
        for k in range(3):
            point = replace(cfg, ref_amplitude=a, seed=cfg.seed + k)
            errors.append(abs(run_y_factor_experiment(point, **analysis).y - y_ideal) / y_ideal)
        expected.append((a, float(np.mean(errors))))
    assert sweep_reference_amplitude(cfg, fractions, n_seeds=3, **analysis) == expected


@pytest.mark.parametrize("analysis", CRN_ANALYSES, ids=["rect", "hann50"])
def test_gain_sensitivity_study_equals_per_ratio_runs(analysis):
    cfg = make_config(seed=5, **CRN_CONFIG)
    ratios = [0.5, 1.0, 10 ** 0.1]
    assumed = cfg.dut.gain_linear * cfg.post_dut_gain_linear
    base_direct = run_direct_experiment(cfg, assumed, **analysis).nf_db
    base_y = run_y_factor_experiment(cfg, **analysis).nf_db
    expected = []
    for r in ratios:
        drifted = replace(cfg, post_dut_gain_linear=cfg.post_dut_gain_linear * r)
        direct = run_direct_experiment(drifted, assumed, **analysis).nf_db
        yfac = run_y_factor_experiment(drifted, **analysis).nf_db
        expected += [("direct", r, direct - base_direct), ("y_factor", r, yfac - base_y)]
    assert gain_sensitivity_study(cfg, ratios, **analysis) == expected
