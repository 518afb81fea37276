"""End-to-end experiment pipeline: simulation, analysis and studies."""

import dataclasses
import hashlib
import math
import threading
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
from nfbist import pipeline, signals, spectral
from nfbist.cli import DEFAULT_AMPLITUDE_FRACTIONS, DEFAULT_GAIN_RATIOS
from nfbist.pipeline import (
    _CHUNK_SAMPLES,
    _comparator_bits,
    _record,
    _sigma,
    _sub_seeds,
    check_sweep_points,
)
from nfbist.spectral import band_power

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
        dict(band=None),                         # not a pair at all
        dict(band=5),
        dict(f_ref_hz=24_990.0),                 # peak search past the last bin
        dict(f_ref_hz=1.0),                      # peak search below bin 0
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


def test_experiment_config_reads_the_band_once():
    # A one-pass iterable of two valid edges is a valid band.
    cfg = make_config(band=(edge for edge in (500, 1_500.0)))
    assert cfg.band == (500.0, 1_500.0)


@pytest.mark.parametrize("kind", ["ref-amplitude", "th-error", "gain"])
@pytest.mark.parametrize(
    "points",
    [["a"], [None], [1j], [True], 5],
    ids=["string", "none", "complex", "bool", "not-iterable"],
)
def test_check_sweep_points_rejects_non_numbers(kind, points):
    # None of these may escape as a TypeError or ValueError, and True must
    # not pass as 1.0.
    with pytest.raises(ParameterError):
        check_sweep_points(kind, points)


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

    The hot and cold records are standard-normal draws of their own
    generators (sub-seeds 0 and 2) in units of their RMS, so each one's
    samples are _sigma(cfg, T) * z.
    """
    src, seeds = cfg.source, _sub_seeds(cfg.seed, 6)
    hot, cold = (
        _sigma(cfg, t) * np.random.default_rng(seed).standard_normal(cfg.n_samples)
        for t, seed in zip((src.t_hot_k, src.t_cold_k), (seeds[0], seeds[2]))
    )
    direct = np.empty(cfg.n_samples)
    _record(cfg, cfg.source.t0_k, 4)._read(0, direct)
    return {"hot": hot, "cold": cold, "direct": direct}


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


def _warm_peak(study, cfg):
    """tracemalloc peak of study(cfg), with the square-wave pattern already cached."""
    simulate_bitstreams(cfg)
    tracemalloc.start()
    try:
        study(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_reference_amplitude_working_memory():
    # One seed's decisions at every fraction stay packed, n/4 bytes per
    # fraction, and one fraction at a time is unpacked for its analysis.
    # Keeping the float64 hot and cold records (16 bytes per sample) took
    # 19.6 MiB here; the packed form takes about 6.
    cfg = make_config(seed=2)
    study = lambda c: sweep_reference_amplitude(c, DEFAULT_AMPLITUDE_FRACTIONS, n_seeds=1)
    assert _warm_peak(study, cfg) < 10 * 2**20


def test_direct_method_memory_does_not_grow_with_the_record():
    # The T0 record is drawn block by block as psd reads it; a full-length
    # float64 record took 9.96 MiB at 1e6 samples and 78.7 MiB at 1e7.
    study = lambda c: run_direct_experiment(c, 1.0)
    peaks = [_warm_peak(study, make_config(seed=2, n_samples=n)) for n in (1_000_000, 10_000_000)]
    assert max(peaks) < 4 * 2**20
    assert peaks[1] < 1.1 * peaks[0]


def test_gain_sensitivity_study_working_memory():
    # The packed Y-factor bits and the streamed direct record: 9.96 MiB with
    # the direct record drawn whole.
    study = lambda c: gain_sensitivity_study(c, DEFAULT_GAIN_RATIOS)
    assert _warm_peak(study, make_config(seed=2)) < 4 * 2**20


@pytest.mark.parametrize(
    "fft_size, window, overlap",
    [(10_000, "rectangular", 0.0), (2_000, "rectangular", 0.0), (2_000, "hann", 0.5)],
    ids=["rect_10000", "rect_2000", "hann_50_2000"],
)
def test_analyze_bitstreams_two_threads_hold_no_more_memory_than_one(fft_size, window, overlap):
    # Each of the two threads holds no more than psd does on one thread: a
    # workspace of the same size, so the pair's peak is at most twice psd's
    # of one stream, with 16 KiB for the worker thread and the results.
    cfg = make_config(seed=2, fft_size=fft_size)
    hot, cold = simulate_bitstreams(cfg)
    peaks = []
    for analyse in (
        lambda: psd(hot, fft_size, window, overlap),
        lambda: analyze_bitstreams(hot, cold, cfg, window, overlap),
    ):
        analyse()  # warm-up: the window cache
        tracemalloc.start()
        try:
            analyse()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0] + 16 * 1024


@pytest.mark.parametrize(
    "study",
    [
        lambda c: run_direct_experiment(c, 1.0),
        lambda c: gain_sensitivity_study(c, DEFAULT_GAIN_RATIOS),
    ],
    ids=["direct", "gain_study"],
)
def test_direct_method_working_memory_is_one_record(study):
    # The direct record (8 bytes per sample) and the spectrum's blocks: the
    # post-DUT gain is applied block by block, not to a copy of the record.
    # With the copy both calls took 17.6 MiB here; without it about 10.
    cfg = make_config(seed=2, post_dut_gain_linear=2.5)
    assert _warm_peak(study, cfg) < 8 * cfg.n_samples + 4 * 2**20


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


@pytest.mark.parametrize(
    "analysis", [dict(), dict(window="hann", overlap_fraction=0.5)], ids=["rect", "hann50"]
)
def test_direct_method_band_power_is_the_gain_times_that_of_the_record(analysis):
    # A PSD scales linearly with power gain, so the direct method takes the
    # spectrum of the record before post-DUT gain and scales its band power.
    cfg = make_config(seed=4, **FAST)
    spectrum = psd(_record(cfg, cfg.source.t0_k, 4), cfg.fft_size, **analysis)
    for gain in (0.794, 2.5):
        result = run_direct_experiment(replace(cfg, post_dut_gain_linear=gain), 1.0, **analysis)
        assert result.n_segments == spectrum.n_segments
        assert result.band_power_cold == gain * band_power(spectrum, *cfg.band)


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


def test_th_uncertainty_study_reads_nan_where_the_perturbed_f_is_not_positive():
    # -99% on the hot temperature puts the perturbed F at -3.69, which has
    # no decibel form; every point above -1 is accepted, so its row reads
    # NaN, as _nf_and_notes reads a measured F <= 0. The other rows keep
    # their floats.
    rows = th_uncertainty_study(make_config(**FAST), [-0.99, -0.5, 0.5])
    assert rows[0][0] == -0.99 and math.isnan(rows[0][1])
    assert rows[1:] == [(-0.5, -5.108446269704123), (0.5, 2.2829020057530656)]


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


@pytest.mark.parametrize("fractions", [[0.25, 0.02, 0.25], [0.4]], ids=["duplicate", "one"])
@pytest.mark.parametrize("analysis", CRN_ANALYSES, ids=["rect", "hann50"])
def test_sweep_reference_amplitude_equals_per_point_runs_over_chunks(fractions, analysis):
    # Several simulation chunks and a record that ends inside a packed byte.
    cfg = make_config(seed=6, n_samples=3 * _CHUNK_SAMPLES + 5, fft_size=2_000)
    y_ideal = ideal_y(10.0, 10_000.0, 1_000.0)
    expected = []
    for a in fractions:
        errors = []
        for k in range(2):
            point = replace(cfg, ref_amplitude=a, seed=cfg.seed + k)
            errors.append(abs(run_y_factor_experiment(point, **analysis).y - y_ideal) / y_ideal)
        expected.append((a, float(np.mean(errors))))
    assert sweep_reference_amplitude(cfg, fractions, n_seeds=2, **analysis) == expected


def test_comparator_bits_are_packed_as_captures_store_them():
    # 8 decisions per byte, LSB first, 1 for +1, unused bits of the last byte zero.
    cfg = make_config(seed=6, n_samples=3 * _CHUNK_SAMPLES + 5, fft_size=2_000)
    fractions = [0.25, 0.02, 0.25]
    packed = _comparator_bits(cfg, fractions)
    assert packed.shape == (3, 2, -(-cfg.n_samples // 8)) and packed.dtype == np.uint8
    for a, fraction_bits in zip(fractions, packed):
        for got, want in zip(fraction_bits, simulate_bitstreams(replace(cfg, ref_amplitude=a))):
            np.testing.assert_array_equal(got, np.packbits(want.bits > 0, bitorder="little"))


def _per_core_count(pin_cpus, compute):
    """compute() with the test pinned to one CPU and then to two, by CPU count."""
    results = {}
    for cores in (1, 2):
        pin_cpus(cores)
        results[cores] = compute()
    return results


def test_comparator_bits_are_the_same_on_one_and_two_cores(monkeypatch, pin_cpus):
    # The hot state's pass runs on a worker thread and the cold state's on
    # the calling thread, whether they share one CPU or run on two.
    cfg = make_config(
        seed=6, n_samples=3 * _CHUNK_SAMPLES + 7, fft_size=2_000, post_dut_gain_linear=2.5
    )
    passes = []
    state_bits = pipeline._state_bits

    def recording(record, *args):
        passes.append((record._sigma, threading.current_thread() is threading.main_thread()))
        return state_bits(record, *args)

    monkeypatch.setattr(pipeline, "_state_bits", recording)
    packed = _per_core_count(
        pin_cpus, lambda: _comparator_bits(cfg, DEFAULT_AMPLITUDE_FRACTIONS).tobytes()
    )
    assert packed[1] == packed[2]
    hot, cold = _sigma(cfg, cfg.source.t_hot_k), _sigma(cfg, cfg.source.t_cold_k)
    assert sorted(passes) == sorted([(hot, False), (cold, True)] * 2)


@pytest.mark.parametrize(
    "window, overlap", [("rectangular", 0.0), ("hann", 0.5), ("hann", 0.75)]
)
def test_analyze_bitstreams_is_the_same_on_one_and_two_cores(pin_cpus, window, overlap):
    cfg = make_config(seed=6, n_samples=3 * _CHUNK_SAMPLES + 7, fft_size=2_000)
    hot, cold = simulate_bitstreams(cfg)
    results = _per_core_count(
        pin_cpus, lambda: repr(analyze_bitstreams(hot, cold, cfg, window, overlap))
    )
    assert results[1] == results[2]


def test_comparator_worker_failure_reaches_the_caller(monkeypatch):
    state_bits = pipeline._state_bits

    def failing_in_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("comparator failed in the worker")
        return state_bits(*args)

    monkeypatch.setattr(pipeline, "_state_bits", failing_in_worker)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="in the worker"):
        simulate_bitstreams(make_config(**FAST))
    assert threading.active_count() == threads_before


def _recording_sums(monkeypatch):
    """Record (workspace, on the main thread) for each _SegmentSums built,
    and (record, on the main thread, workspace) for each record summed."""
    built, passes = [], []
    init, sum_segments = spectral._SegmentSums.__init__, spectral._SegmentSums.sum_segments

    def building(self, *args):
        built.append((self, threading.current_thread() is threading.main_thread()))
        init(self, *args)

    def summing(self, record, *args):
        passes.append((record, threading.current_thread() is threading.main_thread(), self))
        return sum_segments(self, record, *args)

    monkeypatch.setattr(spectral._SegmentSums, "__init__", building)
    monkeypatch.setattr(spectral._SegmentSums, "sum_segments", summing)
    return built, passes


@pytest.mark.parametrize("analysis", CRN_ANALYSES, ids=["rect", "hann50"])
def test_sweep_reference_amplitude_is_the_same_on_one_and_two_cores(
    monkeypatch, pin_cpus, analysis
):
    # Each seed's hot spectra are summed on a worker thread and its cold
    # spectra on the calling thread, each in fraction order, whether the
    # threads share one CPU or run on two.
    cfg = make_config(seed=5, **CRN_CONFIG)
    fractions = [0.02, 0.25, 1.5, 0.25]
    _, passes = _recording_sums(monkeypatch)
    rows = _per_core_count(
        pin_cpus, lambda: sweep_reference_amplitude(cfg, fractions, n_seeds=2, **analysis)
    )
    assert rows[1] == rows[2]
    streams = [
        [[bits.tobytes() for bits in packed[:, state]] for state in (0, 1)]
        for packed in (_comparator_bits(replace(cfg, seed=seed), fractions) for seed in (5, 6))
    ]
    summed = [(record._packed.tobytes(), main) for record, main, _ in passes]
    for run in (summed[: len(summed) // 2], summed[len(summed) // 2 :]):
        assert [b for b, main in run if not main] == [b for hot, _ in streams for b in hot]
        assert [b for b, main in run if main] == [b for _, cold in streams for b in cold]


@pytest.mark.parametrize("analysis", CRN_ANALYSES, ids=["rect", "hann50"])
def test_gain_sensitivity_study_is_the_same_on_one_and_two_cores(
    monkeypatch, pin_cpus, analysis
):
    # A worker thread sums the hot spectrum and then the cold one while the
    # calling thread draws and sums the direct method's T0 record by psd,
    # whether the threads share one CPU or run on two.
    cfg = make_config(seed=5, **CRN_CONFIG)
    psd_threads = []
    monkeypatch.setattr(
        pipeline,
        "psd",
        lambda *args: psd_threads.append(threading.current_thread() is threading.main_thread())
        or psd(*args),
    )
    _, passes = _recording_sums(monkeypatch)
    rows = _per_core_count(
        pin_cpus, lambda: gain_sensitivity_study(cfg, DEFAULT_GAIN_RATIOS, **analysis)
    )
    assert rows[1] == rows[2]
    assert psd_threads == [True, True]
    hot, cold = (bits.tobytes() for bits in _comparator_bits(cfg, [cfg.ref_amplitude])[0])
    summed = [
        ("T0" if isinstance(record, signals._NoiseDraw) else record._packed.tobytes(), main)
        for record, main, _ in passes
    ]
    for run in (summed[:3], summed[3:]):
        assert [p for p in run if not p[1]] == [(hot, False), (cold, False)]
        assert [p for p in run if p[1]] == [("T0", True)]


@pytest.mark.parametrize(
    "run, n_records",
    [
        (lambda c: analyze_bitstreams(*simulate_bitstreams(c), c), 2),
        (lambda c: spectral._spectra(list(simulate_bitstreams(c)), c.fft_size, "hann", 0.5), 2),
        (lambda c: sweep_reference_amplitude(c, DEFAULT_AMPLITUDE_FRACTIONS, n_seeds=1), 12),
        (lambda c: gain_sensitivity_study(c, DEFAULT_GAIN_RATIOS), 3),
    ],
    ids=["analyze_bitstreams", "spectra_pair", "sweep_seed", "gain_study"],
)
def test_each_job_sums_its_records_in_one_workspace_from_the_calling_thread(
    monkeypatch, run, n_records
):
    # Every _SegmentSums is built on the calling thread, one per job, the
    # gain study's psd included, and its job sums each of its records in it:
    # a sweep seed's six fractions take two workspaces, not one per
    # spectrum. Every workspace of a pass has blocks of the same rows. Each
    # record's window is taken on the calling thread too.
    built, passes = _recording_sums(monkeypatch)
    windows = []
    scaled_window = spectral._scaled_window
    monkeypatch.setattr(
        spectral,
        "_scaled_window",
        lambda *args: windows.append(threading.current_thread() is threading.main_thread())
        or scaled_window(*args),
    )
    run(make_config(seed=5, **FAST))
    assert [main for _, main in built] == [True, True]
    assert len({w.rows for w, _ in built}) == 1
    assert len(passes) == n_records
    assert {id(w) for *_, w in passes} == {id(w) for w, _ in built}
    assert windows == [True] * n_records


def _failing_in_worker(monkeypatch, module, name):
    """Patch module.name to raise RuntimeError when called off the main thread."""
    original = getattr(module, name)

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"{name} failed in the worker")
        return original(*args)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize(
    "study",
    [
        lambda c: gain_sensitivity_study(c, DEFAULT_GAIN_RATIOS),
        lambda c: sweep_reference_amplitude(c, [0.1, 0.25], n_seeds=2),
    ],
    ids=["gain_study_pair", "sweep_spectra"],
)
def test_a_study_worker_failure_reaches_the_caller(monkeypatch, study):
    # The worker sums the gain study's Y-factor pair, and the sweep's hot
    # spectra.
    _failing_in_worker(monkeypatch, spectral._SegmentSums, "sum_segments")
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="in the worker"):
        study(make_config(**FAST))
    assert threading.active_count() == threads_before


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


def _counting_comparator(monkeypatch):
    """Record (seed, post-DUT gain, fractions) for each _comparator_bits pass."""
    from nfbist import pipeline

    passes = []
    comparator_bits = pipeline._comparator_bits

    def counting(c, fractions):
        passes.append((c.seed, c.post_dut_gain_linear, list(fractions)))
        return comparator_bits(c, fractions)

    monkeypatch.setattr(pipeline, "_comparator_bits", counting)
    return passes


def test_gain_sensitivity_study_runs_the_comparator_once(monkeypatch):
    # The comparator never sees the post-DUT gain, so every ratio's
    # Y-factor bits are the base bits: one comparator pass, whatever the
    # ratios.
    passes = _counting_comparator(monkeypatch)
    cfg = make_config(seed=5, **CRN_CONFIG)
    gain_sensitivity_study(cfg, DEFAULT_GAIN_RATIOS)
    assert passes == [(cfg.seed, cfg.post_dut_gain_linear, [cfg.ref_amplitude])]


def test_gain_sensitivity_study_takes_one_direct_spectrum(monkeypatch):
    # Every ratio's direct result scales the band power of the same
    # spectrum; the Y-factor pair is summed by a _spectra_job, not psd.
    calls = []
    monkeypatch.setattr(pipeline, "psd", lambda *args: calls.append(args) or psd(*args))
    gain_sensitivity_study(make_config(seed=5, **CRN_CONFIG), DEFAULT_GAIN_RATIOS)
    assert len(calls) == 1


def test_sweep_reference_amplitude_runs_the_comparator_once_per_seed(monkeypatch):
    # Every fraction of a seed is sliced in the same pass over its draws.
    passes = _counting_comparator(monkeypatch)
    cfg = make_config(seed=5, **CRN_CONFIG)
    fractions = [0.02, 0.25, 1.5, 0.25]
    sweep_reference_amplitude(cfg, fractions, n_seeds=2)
    assert passes == [(seed, cfg.post_dut_gain_linear, fractions) for seed in (5, 6)]
