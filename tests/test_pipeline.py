"""End-to-end experiment pipeline: simulation, analysis and studies."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nfbist import (
    DutSpec,
    ExperimentConfig,
    NoiseSourceSpec,
    ParameterError,
    SampledSignal,
    ShapeError,
    analyze_bitstreams,
    analyze_spectra,
    digitize,
    dut_from_nf,
    gain_sensitivity_study,
    gaussian_noise,
    ideal_y,
    psd,
    run_direct_experiment,
    run_y_factor_experiment,
    simulate_bitstreams,
    square_wave,
    sweep_reference_amplitude,
    th_uncertainty_study,
)
from nfbist import signals
from nfbist.pipeline import _CHUNK_SAMPLES, _analog_records, _direct_record, _sigma

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
        dict(n_samples=True, fft_size=2),        # bool in any integer field
        dict(fft_size=True),
        dict(ref_exclusion_halfwidth_bins=True),
        dict(ref_exclusion_halfwidth_bins=False),
        dict(seed=False),
        dict(seed=np.True_),
        dict(n_samples=100_000.5),
        dict(fft_size=2_000.5),
        dict(ref_exclusion_halfwidth_bins=2.5),
        dict(n_samples=math.nan),
        dict(n_samples=math.inf),
        dict(seed=math.nan),
        dict(seed=math.inf),
        dict(seed="1"),
        dict(f_ref_hz=True),                     # bool in any float field
        dict(band=(True, 1500.0)),
        dict(band=(np.False_, 1500.0)),
        dict(ref_amplitude=True),
        dict(post_dut_gain_linear=True),
    ],
)
def test_experiment_config_validation(overrides):
    with pytest.raises(ParameterError):
        make_config(**overrides)


def test_experiment_config_stores_integral_floats_as_int():
    cfg = make_config(
        n_samples=100_000.0, fft_size=2_000.0, ref_exclusion_halfwidth_bins=3.0, seed=np.int64(7)
    )
    values = (cfg.n_samples, cfg.fft_size, cfg.ref_exclusion_halfwidth_bins, cfg.seed)
    assert values == (100_000, 2_000, 3, 7)
    assert all(type(v) is int for v in values)


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
    # DUT-output draws, reference, comparator), so a refactor that changes
    # any rounding on the way shows up here.
    cfg = make_config(seed=1, post_dut_gain_linear=2.5, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    assert hashlib.sha256(hot.bits.tobytes()).hexdigest() == (
        "192ea11ad4e19b77f660c9f8400f3673d27c081848d5a00064caeace710cd78c"
    )
    assert hashlib.sha256(cold.bits.tobytes()).hexdigest() == (
        "6d65fde74a334af793230a2f66515d3bc089178427497f09e5caf201f9f14298"
    )
    # The default 1e6-sample record spans several simulation chunks.
    hot, cold = simulate_bitstreams(make_config(seed=1))
    assert hashlib.sha256(hot.bits.tobytes()).hexdigest() == (
        "b142359a66ac58616dae64c7bc370130c5a937ab71f9dfb1dcd5faa9cf68460c"
    )
    assert hashlib.sha256(cold.bits.tobytes()).hexdigest() == (
        "399554809c1b2c49d086179b9503e57e5c80641a5e2dcb688c180993e412ff2a"
    )


# Reference fractions and post-DUT gains whose products the bit-identity
# test runs through, on top of its first two cases.
WIDE_FRACTIONS = (0.02, 0.25, 1.5)
WIDE_GAINS = (0.794, 1.0, 1.259, 2.5)


@pytest.mark.parametrize(
    "n_samples",
    [3 * _CHUNK_SAMPLES + 7, _CHUNK_SAMPLES, _CHUNK_SAMPLES - 2],
    ids=["3chunks+7", "1chunk", "1chunk-2"],
)
@pytest.mark.parametrize(
    "overrides",
    [dict(post_dut_gain_linear=2.5), dict(dut=DutSpec(gain_linear=2.0, added_noise_power=0.0))]
    + [dict(ref_amplitude=a, post_dut_gain_linear=g) for a in WIDE_FRACTIONS for g in WIDE_GAINS],
    ids=["gain2.5", "noiseless_dut"]
    + [f"ref{a}_gain{g}" for a in WIDE_FRACTIONS for g in WIDE_GAINS],
)
def test_simulate_bitstreams_equals_full_array_formula(n_samples, overrides):
    # The chunked chain must give the bits of one full-length DUT-output draw
    # per state: white Gaussian noise of RMS sqrt(g * P * T + na) from that
    # state's sub-seed (hot 0, cold 2), then post-DUT gain and the comparator.
    cfg = make_config(seed=9, n_samples=n_samples, fft_size=2_000, **overrides)
    fs, n, src, dut = cfg.sample_rate_hz, cfg.n_samples, cfg.source, cfg.dut
    post_amp = math.sqrt(cfg.post_dut_gain_linear)

    def sigma(t):
        return math.sqrt(dut.gain_linear * src.power_scale * t + dut.added_noise_power)

    ref_level = post_amp * (cfg.ref_amplitude * sigma(src.t_cold_k))
    reference = square_wave(n, fs, cfg.f_ref_hz, ref_level)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(6, dtype=np.uint64)
    expected = []
    for t, seed in ((src.t_hot_k, seeds[0]), (src.t_cold_k, seeds[2])):
        record = gaussian_noise(n, sigma(t), int(seed), sample_rate_hz=fs)
        expected.append(digitize(SampledSignal(fs, post_amp * record.samples), reference))
    for got, want in zip(simulate_bitstreams(cfg), expected):
        np.testing.assert_array_equal(got.bits, want.bits)


def _dut_output_records(cfg):
    """The hot, cold and direct-method (T0) DUT-output records of cfg's seed.

    The hot and cold records are drawn in units of their RMS, so each one's
    samples are _sigma(cfg, T) * z.
    """
    src = cfg.source
    hot, cold = (
        _sigma(cfg, t) * np.concatenate(tuple(z))
        for t, z in zip((src.t_hot_k, src.t_cold_k), _analog_records(cfg))
    )
    return {"hot": hot, "cold": cold, "direct": _direct_record(cfg)}


# A non-unit gain and power scale, so every term of g * P * T + na counts.
STAT_CONFIG = make_config(
    source=NoiseSourceSpec(t_hot_k=10_000.0, t_cold_k=1_000.0, power_scale=0.5),
    dut=dut_from_nf(10.0, 4.0, power_scale=0.5),
    seed=5,
)


def test_dut_output_variance_matches_gain_source_and_added_noise():
    cfg = STAT_CONFIG
    src, dut, n = cfg.source, cfg.dut, cfg.n_samples
    temperatures = {"hot": src.t_hot_k, "cold": src.t_cold_k, "direct": src.t0_k}
    for state, record in _dut_output_records(cfg).items():
        variance = dut.gain_linear * src.power_scale * temperatures[state] + dut.added_noise_power
        # Zero-mean Gaussian: mean(x^2) has standard error variance * sqrt(2 / n).
        standard_error = variance * math.sqrt(2.0 / n)
        assert abs(np.mean(record**2) - variance) < 4.0 * standard_error, state


def test_dut_output_records_are_uncorrelated():
    # Hot, cold and direct draw from distinct sub-seeds (0, 2 and 4).
    records = _dut_output_records(STAT_CONFIG)
    bound = 5.0 / math.sqrt(STAT_CONFIG.n_samples)
    for a, b in (("hot", "cold"), ("hot", "direct"), ("cold", "direct")):
        assert abs(np.corrcoef(records[a], records[b])[0, 1]) < bound, (a, b)


def test_simulate_bitstreams_rejects_a_non_finite_rms_or_reference():
    # g * P * T overflows, and then the reference amplitude with it.
    huge = make_config(dut=DutSpec(gain_linear=1e306, added_noise_power=0.0), **FAST)
    # Finite RMS, but the reference amplitude at the comparator overflows.
    loud = make_config(
        dut=DutSpec(gain_linear=1e290, added_noise_power=0.0),
        ref_amplitude=1e20,
        post_dut_gain_linear=1e300,
        **FAST,
    )
    for cfg in (huge, loud):
        with pytest.raises(ParameterError, match="must be finite"):
            simulate_bitstreams(cfg)


def _first_call_peak(cfg):
    """tracemalloc peak of a simulate_bitstreams call that builds the square-wave pattern."""
    signals._first_half_mask.cache_clear()
    tracemalloc.start()
    try:
        simulate_bitstreams(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_bitstreams_working_memory_is_bounded():
    # A call with the square-wave pattern already cached: only the int8 bits
    # and one chunk's float temporaries may be alive at a time; two
    # full-length float64 records would already exceed the bound.
    cfg = make_config(seed=2)
    simulate_bitstreams(cfg)  # warm-up: fills the square-wave pattern cache
    tracemalloc.start()
    try:
        simulate_bitstreams(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_simulate_bitstreams_working_memory_is_a_few_chunks():
    # A first call, which builds the square-wave pattern block by block: the
    # int8 bits (2 MB at 1e6 samples), the cached one-byte-per-sample mask
    # and a few chunks' float temporaries. A full-length float64 reference
    # or pattern temporary would exceed the bound.
    assert _first_call_peak(make_config(seed=2)) < 8 * 2**20


def test_simulate_bitstreams_first_call_memory_at_1e7_samples():
    # Three bytes per sample (two int8 bitstreams and the cached mask) plus
    # a few chunks; nothing else grows with the record.
    n = 10_000_000
    assert _first_call_peak(make_config(seed=2, n_samples=n)) < 3 * n + 8 * 2**20


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
    # tracks the ideal ratio at the full record length: criterion 2's bound
    # on the mean ratio error over ten seeds.
    y_ideal = ideal_y(10.0, SOURCE.t_hot_k, SOURCE.t_cold_k)
    ratio_errors = []
    for seed in range(10):
        result = run_y_factor_experiment(make_config(ref_amplitude=0.45, seed=seed))
        ratio_errors.append(abs(result.y - y_ideal) / y_ideal)
        assert result.n_segments == 100
        assert result.f == pytest.approx(10.0, abs=1.5)
    assert np.mean(ratio_errors) <= 0.05


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
    cfg = make_config(ref_amplitude=1.5, seed=0, **FAST)
    result = run_y_factor_experiment(cfg)
    assert any("above 1" in w for w in result.warnings)
    # The note is made by the analysis, so re-analysed bits carry it too.
    assert analyze_bitstreams(*simulate_bitstreams(cfg), cfg) == result


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = analyze_bitstreams(cold, hot, cfg)  # deliberately swapped
    assert result.y < 1.0
    # The nonphysical F is reported as notes on the result, not raised.
    assert result.f < 0.0
    assert math.isnan(result.nf_db)
    assert result.warnings == (
        f"measured Y = {result.y:.6g} is below 1; hot and cold may be swapped",
        f"f_from_y_temps: noise factor {result.f:.6g} is below 1 (nonphysical)",
        f"noise factor {result.f:.6g} is not positive; nf_db undefined",
    )


def test_analyze_notes_differing_segment_counts():
    # A cold record half as long as the hot one averages half the segments;
    # the result is still computed, with one note saying so.
    cfg = make_config(seed=0)
    hot, cold = simulate_bitstreams(cfg)
    short_cold = type(cold)(cold.sample_rate_hz, cold.bits[: cfg.n_samples // 2])
    result = analyze_bitstreams(hot, short_cold, cfg)
    assert result.warnings == ("hot/cold segment counts differ: 100 vs 50",)


def test_direct_method_notes_nonphysical_f():
    # Assuming 20x the actual gain puts the direct-method F near 10/20.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_direct_experiment(make_config(seed=0, **FAST), 20.0)
    assert 0.0 < result.f < 1.0
    assert result.nf_db < 0.0
    assert result.warnings == (
        f"direct method: noise factor {result.f:.6g} is below 1 (nonphysical)",
    )


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


@pytest.mark.parametrize(
    "analysis, swap",
    [(dict(), False), (dict(window="hann", overlap_fraction=0.5), False), (dict(), True)],
    ids=["rect", "hann50", "swapped"],
)
def test_analyze_spectra_equals_analyze_bitstreams(analysis, swap):
    cfg = make_config(seed=3, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    if swap:
        hot, cold = cold, hot
    spectra = [psd(bits, cfg.fft_size, **analysis) for bits in (hot, cold)]
    got = analyze_spectra(*spectra, cfg)
    want = analyze_bitstreams(hot, cold, cfg, **analysis)
    for name in (f.name for f in dataclasses.fields(want)):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b or (math.isnan(a) and math.isnan(b)), name
    if swap:
        assert got.y < 1.0 and math.isnan(got.nf_db)
        assert any("swapped" in w for w in got.warnings)


def test_analyze_spectra_rejects_spectra_off_the_config_grid():
    # A spectrum on another grid would put the reference and the band on the
    # wrong bins and give a wrong NF without any note.
    cfg = make_config(seed=0, **FAST)
    hot, cold = simulate_bitstreams(cfg)
    spec_hot, spec_cold = psd(hot, cfg.fft_size), psd(cold, cfg.fft_size)
    coarse = psd(cold, cfg.fft_size // 2)
    slow = psd(type(cold)(cfg.sample_rate_hz / 5.0, cold.bits), cfg.fft_size)
    for bad in (coarse, slow):
        with pytest.raises(ShapeError, match="config's grid"):
            analyze_spectra(spec_hot, bad, cfg)
        with pytest.raises(ShapeError, match="config's grid"):
            analyze_spectra(bad, spec_cold, cfg)


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
    for bad_seeds in (0, 2.5, True, "3"):
        with pytest.raises(ParameterError):
            sweep_reference_amplitude(cfg, [0.1], n_seeds=bad_seeds)
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
    with pytest.raises(ParameterError):
        th_uncertainty_study(cfg, [])


def test_gain_sensitivity_study_contrast():
    cfg = make_config(seed=0, **FAST)
    rows = gain_sensitivity_study(cfg, [1.0, 10 ** 0.1])
    by_key = {(r.method, round(r.gain_ratio, 6)): r.nf_bias_db for r in rows}
    assert by_key[("direct", 1.0)] == 0.0
    assert by_key[("y_factor", 1.0)] == 0.0
    assert by_key[("direct", round(10 ** 0.1, 6))] == pytest.approx(1.0, abs=1e-9)
    assert by_key[("y_factor", round(10 ** 0.1, 6))] == 0.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        # Rejected as a gain ratio, before any drifted config is built.
        with pytest.raises(ParameterError, match="gain ratio"):
            gain_sensitivity_study(cfg, [1.0, bad])
    with pytest.raises(ParameterError):
        gain_sensitivity_study(cfg, [])


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
    ratios = [0.5, 1.0, 10 ** 0.1, 1.0, 1.0, 2.0]  # repeats analyse each input once
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


def test_gain_sensitivity_study_analyses_changed_bits(monkeypatch):
    # Real gain drift practically never flips a comparator decision, so the
    # study reuses the base analysis. Negating the records at one drifted
    # gain forces different bits there, which must then be analysed anew.
    from nfbist import pipeline

    cfg = make_config(seed=5, **CRN_CONFIG)
    flipped_gain = cfg.post_dut_gain_linear * 2.0
    comparator_bits = pipeline._comparator_bits

    def flip_at_one_gain(c, records):
        sign = -1.0 if c.post_dut_gain_linear == flipped_gain else 1.0
        return comparator_bits(c, [(sign * chunk for chunk in state) for state in records])

    monkeypatch.setattr(pipeline, "_comparator_bits", flip_at_one_gain)
    base = run_y_factor_experiment(cfg).nf_db
    flipped = run_y_factor_experiment(replace(cfg, post_dut_gain_linear=flipped_gain)).nf_db
    assert flipped != base
    rows = gain_sensitivity_study(cfg, [1.0, 2.0])
    assert [r.nf_bias_db for r in rows if r.method == "y_factor"] == [0.0, flipped - base]


def test_gain_sensitivity_study_digitizes_each_post_dut_gain_once(monkeypatch):
    # Ratio 1.0 keeps the base config's post-DUT gain, so the default ratios
    # need the base bits and two drifted pairs: three comparator passes.
    from nfbist import pipeline
    from nfbist.cli import DEFAULT_GAIN_RATIOS

    passes = []
    comparator_bits = pipeline._comparator_bits

    def counting(c, records):
        passes.append(c.post_dut_gain_linear)
        return comparator_bits(c, records)

    monkeypatch.setattr(pipeline, "_comparator_bits", counting)
    cfg = make_config(seed=5, **CRN_CONFIG)
    gain_sensitivity_study(cfg, DEFAULT_GAIN_RATIOS)
    assert len(passes) == 3
    assert len(set(passes)) == 3
