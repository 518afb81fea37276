"""End-to-end simulated noise-figure experiments.

The Y-factor chain is: two-state noise source, DUT (gain + added noise),
auxiliary post-DUT power gain, then a comparator that slices the waveform
against a square-wave reference. Spectra of the resulting bitstreams are
normalized to the reference peak and ratioed in a measurement band.

The injected reference amplitude is specified as a fraction of the
cold-state RMS at the comparator. Because that RMS includes the post-DUT
gain, changing the gain rescales signal and reference together and the
comparator output does not change at all; this is what makes the Y-factor
method immune to gain error, unlike the direct method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .digitizer import BitStream, digitize
from .dut import DutSpec, apply_dut, nominal_f
from .errors import ParameterError, ShapeError, check_integer, check_positive
from .nfcore import f_from_y_temps, f_to_nf, ideal_y
from .signals import NoiseSourceSpec, SampledSignal, gaussian_noise, source_output, square_wave
from .spectral import Spectrum, band_power, band_width_hz, power_ratio_detail, psd

__all__ = [
    "ExperimentConfig",
    "MeasurementResult",
    "GainSensitivityRow",
    "simulate_bitstreams",
    "run_y_factor_experiment",
    "run_direct_experiment",
    "analyze_bitstreams",
    "analyze_spectra",
    "sweep_reference_amplitude",
    "th_uncertainty_study",
    "gain_sensitivity_study",
]

# Samples per simulation chunk: 1 MiB of float64.
_CHUNK_SAMPLES = 1 << 17


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated measurement."""

    source: NoiseSourceSpec
    dut: DutSpec
    sample_rate_hz: float = 50_000.0
    n_samples: int = 1_000_000
    fft_size: int = 10_000
    f_ref_hz: float = 3_000.0
    ref_amplitude: float = 0.25
    band: tuple[float, float] = (500.0, 1_500.0)
    ref_exclusion_halfwidth_bins: int = 3
    post_dut_gain_linear: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, NoiseSourceSpec):
            raise ParameterError("source must be a NoiseSourceSpec")
        if not isinstance(self.dut, DutSpec):
            raise ParameterError("dut must be a DutSpec")
        check_positive("sample_rate_hz", self.sample_rate_hz)
        # Integral floats (1000.0) are stored as int; bool is an int subclass
        # and is rejected, and numpy seeds must be >= 0.
        for name, minimum in (
            ("n_samples", 1),
            ("fft_size", 2),
            ("ref_exclusion_halfwidth_bins", 0),
            ("seed", 0),
        ):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        if self.fft_size % 2 != 0:
            raise ParameterError(f"fft_size must be even, got {self.fft_size!r}")
        if self.n_samples < self.fft_size:
            raise ParameterError(
                f"n_samples ({self.n_samples}) must be >= fft_size ({self.fft_size})"
            )
        nyquist = self.sample_rate_hz / 2.0
        if not (0.0 < self.f_ref_hz < nyquist):
            raise ParameterError(
                f"f_ref_hz must lie in (0, {nyquist}), got {self.f_ref_hz}"
            )
        check_positive("ref_amplitude", self.ref_amplitude)
        band = tuple(float(f) for f in self.band)
        if len(band) != 2 or not (0.0 <= band[0] < band[1] <= nyquist):
            raise ParameterError(
                f"band must satisfy 0 <= f_lo < f_hi <= {nyquist}, got {self.band!r}"
            )
        object.__setattr__(self, "band", band)
        check_positive("post_dut_gain_linear", self.post_dut_gain_linear)


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one simulated or re-analyzed measurement.

    Fields that a given method does not produce (e.g. reference peaks for
    the direct method) are None. For Y-factor results the band powers are
    post-normalization, so y = band_power_hot / band_power_cold.
    """

    f: float
    nf_db: float
    n_segments: int
    y: float | None = None
    ref_peak_hot: float | None = None
    ref_peak_cold: float | None = None
    band_power_hot: float | None = None
    band_power_cold: float | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)


class GainSensitivityRow(NamedTuple):
    method: str
    gain_ratio: float
    nf_bias_db: float


def _sub_seeds(seed: int, count: int) -> list[int]:
    """Deterministic, well-separated child seeds for one experiment."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _comparator_cold_rms(cfg: ExperimentConfig) -> float:
    """Analytic cold-state RMS at the comparator, before post-DUT gain."""
    src, dut = cfg.source, cfg.dut
    return math.sqrt(dut.gain_linear * src.power_scale * src.t_cold_k + dut.added_noise_power)


def _nf_and_notes(f: float, context: str) -> tuple[float, list[str]]:
    """NF in dB for a measured noise factor, with the notes a nonphysical F earns.

    F below 1 is kept (measurement noise can produce it) and noted; F <= 0
    has no decibel form, so nf_db is NaN.
    """
    notes = []
    if f < 1.0:
        notes.append(f"{context}: noise factor {f:.6g} is below 1 (nonphysical)")
    if f > 0.0:
        return f_to_nf(f), notes
    notes.append(f"noise factor {f:.6g} is not positive; nf_db undefined")
    return float("nan"), notes


def _analog_records(cfg: ExperimentConfig) -> Iterator[Iterator[np.ndarray]]:
    """Yield the hot, then the cold DUT output for cfg's seed, each as lazy chunks.

    Each state's record comes as consecutive chunks of _CHUNK_SAMPLES
    samples (the last one shorter). The state's source and DUT generators
    continue from chunk to chunk, so the chunks concatenate bit for bit to
    the single full-length draw. The samples are taken before post-DUT gain
    and depend only on the seed, the source, the DUT, n_samples and the
    sample rate, never on ref_amplitude or post_dut_gain_linear, so a sweep
    over those two draws them once per seed (common random numbers) and
    keeps each state's chunks as a tuple.
    """
    seeds = _sub_seeds(cfg.seed, 6)
    for state, (seed_src, seed_dut) in (("hot", seeds[0:2]), ("cold", seeds[2:4])):
        yield _state_chunks(cfg, state, seed_src, seed_dut)


def _state_chunks(
    cfg: ExperimentConfig, state: str, seed_src: int, seed_dut: int
) -> Iterator[np.ndarray]:
    """Lazily draw one state's DUT output, chunk by chunk, from two continuing generators."""
    rng_src, rng_dut = np.random.default_rng(seed_src), np.random.default_rng(seed_dut)
    for start in range(0, cfg.n_samples, _CHUNK_SAMPLES):
        n = min(_CHUNK_SAMPLES, cfg.n_samples - start)
        yield apply_dut(
            cfg.dut, source_output(cfg.source, state, n, cfg.sample_rate_hz, rng_src), rng_dut
        ).samples


def _comparator_bits(
    cfg: ExperimentConfig, records: Iterable[Iterable[np.ndarray]]
) -> tuple[BitStream, BitStream]:
    """Slice the hot and cold chunked analog records against cfg's square-wave reference.

    Each chunk is scaled by sqrt(post_dut_gain_linear), and the reference
    amplitude is cfg.ref_amplitude times the analytic cold-state RMS at the
    comparator, times the same factor, as a single multiplication each, so
    the comparator decisions are invariant under post-DUT gain changes.
    Folding the factors into one product would change the rounding and flip
    bits. Only one chunk's float temporaries are alive at a time; the
    decisions go straight into each state's int8 bitstream.
    """
    post_amp = math.sqrt(cfg.post_dut_gain_linear)
    ref_base = cfg.ref_amplitude * _comparator_cold_rms(cfg)
    reference = square_wave(
        cfg.n_samples, cfg.sample_rate_hz, cfg.f_ref_hz, post_amp * ref_base
    ).samples
    hot, cold = (_digitize_chunks(cfg, post_amp, reference, chunks) for chunks in records)
    return hot, cold


def _digitize_chunks(
    cfg: ExperimentConfig, post_amp: float, reference: np.ndarray, chunks: Iterable[np.ndarray]
) -> BitStream:
    """Comparator bits of one state's chunks, each scaled by post_amp."""
    fs = cfg.sample_rate_hz
    bits = np.empty(cfg.n_samples, dtype=np.int8)
    start = 0
    for chunk in chunks:
        stop = start + chunk.size
        bits[start:stop] = digitize(
            SampledSignal(fs, post_amp * chunk), SampledSignal(fs, reference[start:stop])
        ).bits
        start = stop
    return BitStream(fs, bits)


def simulate_bitstreams(cfg: ExperimentConfig) -> tuple[BitStream, BitStream]:
    """Synthesize the (hot, cold) comparator bitstreams for a configuration.

    Builds the reference, then draws, scales and digitizes the hot and the
    cold record in turn, _CHUNK_SAMPLES samples at a time, so the float
    working memory is the reference plus one chunk's temporaries. The sweep
    studies run the same steps but draw each seed's chunks once and reuse
    them for every sweep point, so their bits equal this function's for
    each point's config.
    """
    return _comparator_bits(cfg, _analog_records(cfg))


def run_y_factor_experiment(
    cfg: ExperimentConfig,
    window: str = "rectangular",
    overlap_fraction: float = 0.0,
) -> MeasurementResult:
    """Simulate hot and cold 1-bit acquisitions and estimate F from their ratio."""
    return analyze_bitstreams(
        *simulate_bitstreams(cfg), cfg, window=window, overlap_fraction=overlap_fraction
    )


def analyze_bitstreams(
    hot: BitStream,
    cold: BitStream,
    cfg: ExperimentConfig,
    window: str = "rectangular",
    overlap_fraction: float = 0.0,
) -> MeasurementResult:
    """Spectral Y-factor analysis of two existing bitstreams.

    cfg supplies the FFT size, the reference frequency, the measurement
    band and the source temperatures. Both bitstreams must be sampled at
    cfg.sample_rate_hz, since the reference and the band are placed on
    that rate's frequency grid. Computes both PSDs and passes them to
    analyze_spectra. Every note about the result goes into its warnings
    field; none is raised as a Python warning.
    """
    if hot.sample_rate_hz != cold.sample_rate_hz:
        raise ShapeError(
            f"hot and cold sample rates differ: {hot.sample_rate_hz} vs {cold.sample_rate_hz}"
        )
    if hot.sample_rate_hz != cfg.sample_rate_hz:
        raise ShapeError(
            f"bitstream and config sample rates differ: {hot.sample_rate_hz} "
            f"vs {cfg.sample_rate_hz}"
        )
    spec_hot = psd(hot, cfg.fft_size, window=window, overlap_fraction=overlap_fraction)
    spec_cold = psd(cold, cfg.fft_size, window=window, overlap_fraction=overlap_fraction)
    return analyze_spectra(spec_hot, spec_cold, cfg)


def analyze_spectra(
    spec_hot: Spectrum, spec_cold: Spectrum, cfg: ExperimentConfig
) -> MeasurementResult:
    """Spectral Y-factor analysis of two existing spectra.

    The second half of analyze_bitstreams, for callers that keep the
    spectra: reference-peak normalization, the band-power ratio Y, the
    notes, F and NF. Both spectra must lie on cfg's grid (cfg.fft_size
    and cfg.sample_rate_hz), since the reference and the band are read at
    that grid's bins.
    """
    for state, spec in (("hot", spec_hot), ("cold", spec_cold)):
        if (spec.fft_size, spec.sample_rate_hz) != (cfg.fft_size, cfg.sample_rate_hz):
            raise ShapeError(
                f"{state} spectrum is not on the config's grid: fft {spec.fft_size} vs "
                f"{cfg.fft_size}, sample rate {spec.sample_rate_hz} vs {cfg.sample_rate_hz} Hz"
            )
    detail = power_ratio_detail(
        spec_hot,
        spec_cold,
        cfg.band,
        cfg.f_ref_hz,
        ref_exclusion_halfwidth_bins=cfg.ref_exclusion_halfwidth_bins,
    )

    notes = []
    if cfg.ref_amplitude > 1.0:
        notes.append(
            f"reference amplitude is {cfg.ref_amplitude:g} of the cold-state RMS; "
            "levels above 1 distort the comparator statistics"
        )
    if detail.y < 1.0:
        notes.append(
            f"measured Y = {detail.y:.6g} is below 1; hot and cold may be swapped"
        )
    if spec_hot.n_segments != spec_cold.n_segments:
        notes.append(
            f"hot/cold segment counts differ: {spec_hot.n_segments} vs {spec_cold.n_segments}"
        )
    f = f_from_y_temps(detail.y, cfg.source.t_hot_k, cfg.source.t_cold_k, cfg.source.t0_k)
    nf_db, nf_notes = _nf_and_notes(f, "f_from_y_temps")
    return MeasurementResult(
        f=f,
        nf_db=nf_db,
        n_segments=spec_hot.n_segments,
        y=detail.y,
        ref_peak_hot=detail.peak_power_hot,
        ref_peak_cold=detail.peak_power_cold,
        band_power_hot=detail.band_power_hot,
        band_power_cold=detail.band_power_cold,
        warnings=tuple(notes + nf_notes),
    )


def _direct_record(cfg: ExperimentConfig) -> np.ndarray:
    """DUT output samples for the direct method's matched load at T0.

    Like the Y-factor records they are drawn before post-DUT gain, so they
    depend on the seed but not on post_dut_gain_linear.
    """
    seeds = _sub_seeds(cfg.seed, 6)
    src = cfg.source
    sigma_t0 = math.sqrt(src.power_scale * src.t0_k)
    raw = gaussian_noise(cfg.n_samples, sigma_t0, seeds[4], sample_rate_hz=cfg.sample_rate_hz)
    return apply_dut(cfg.dut, raw, seeds[5]).samples


def _direct_result(
    cfg: ExperimentConfig,
    record: np.ndarray,
    assumed_gain_linear: float,
    window: str,
    overlap_fraction: float,
) -> MeasurementResult:
    """Direct-method F from one analog record: post-DUT gain, PSD, band power."""
    observed = SampledSignal(
        cfg.sample_rate_hz, math.sqrt(cfg.post_dut_gain_linear) * record
    )
    spectrum = psd(observed, cfg.fft_size, window=window, overlap_fraction=overlap_fraction)
    f_lo, f_hi = cfg.band
    measured = band_power(spectrum, f_lo, f_hi)
    width = band_width_hz(spectrum, f_lo, f_hi)
    src = cfg.source
    input_band_power_t0 = src.power_scale * src.t0_k * width / (cfg.sample_rate_hz / 2.0)
    f = measured / (input_band_power_t0 * assumed_gain_linear)
    nf_db, notes = _nf_and_notes(f, "direct method")
    return MeasurementResult(
        f=f,
        nf_db=nf_db,
        n_segments=spectrum.n_segments,
        band_power_cold=measured,
        warnings=tuple(notes),
    )


def run_direct_experiment(
    cfg: ExperimentConfig,
    assumed_gain_linear: float,
    window: str = "rectangular",
    overlap_fraction: float = 0.0,
) -> MeasurementResult:
    """Direct-method measurement on the analog (multi-bit) path.

    A single acquisition with the source replaced by a matched load at the
    reference temperature T0. The in-band output power is divided by the
    in-band input power at T0 times the assumed end-to-end power gain, so
    any mismatch between assumed and actual gain biases F proportionally.
    """
    check_positive("assumed_gain_linear", assumed_gain_linear)
    return _direct_result(
        cfg, _direct_record(cfg), assumed_gain_linear, window, overlap_fraction
    )


def sweep_reference_amplitude(
    cfg: ExperimentConfig,
    fractions,
    n_seeds: int = 10,
    window: str = "rectangular",
    overlap_fraction: float = 0.0,
) -> list[tuple[float, float]]:
    """Mean |Y error| of the 1-bit chain as the reference level varies.

    For each fraction of the cold-state RMS, runs the Y-factor experiment
    at seeds cfg.seed .. cfg.seed + n_seeds - 1 and averages
    |y_est - y_ideal| / y_ideal, where y_ideal comes from the DUT's nominal
    noise factor. Returns (fraction, error) pairs in the order given.

    Each seed's analog noise is drawn once and reused for every fraction
    (common random numbers); the bits of each point equal those of
    simulate_bitstreams at that point's config, so every row is the same
    as running each experiment on its own.
    """
    fractions = [float(a) for a in fractions]
    if not fractions:
        raise ParameterError("at least one amplitude fraction is required")
    if any(not (math.isfinite(a) and a > 0.0) for a in fractions):
        raise ParameterError(f"amplitude fractions must be finite and positive, got {fractions}")
    n_seeds = check_integer("n_seeds", n_seeds, 1)
    src = cfg.source
    f_nominal = nominal_f(cfg.dut, t0_k=src.t0_k, power_scale=src.power_scale)
    y_ideal = ideal_y(f_nominal, src.t_hot_k, src.t_cold_k, src.t0_k)
    errors = [[] for _ in fractions]
    for k in range(n_seeds):
        seed_cfg = replace(cfg, seed=cfg.seed + k)
        records = tuple(tuple(chunks) for chunks in _analog_records(seed_cfg))
        for fraction, fraction_errors in zip(fractions, errors):
            run_cfg = replace(seed_cfg, ref_amplitude=fraction)
            out = analyze_bitstreams(
                *_comparator_bits(run_cfg, records),
                run_cfg,
                window=window,
                overlap_fraction=overlap_fraction,
            )
            fraction_errors.append(abs(out.y - y_ideal) / y_ideal)
    return [(a, float(np.mean(e))) for a, e in zip(fractions, errors)]


def th_uncertainty_study(cfg: ExperimentConfig, rel_errors) -> list[tuple[float, float]]:
    """Noise-figure shift caused by a miscalibrated hot temperature.

    Holds the measured Y at its ideal value and redoes only the
    temperature-to-F conversion with Th scaled by (1 + rel_error); returns
    (rel_error, delta_nf_db) pairs. Purely analytic, no simulation.
    """
    rel_errors = [float(e) for e in rel_errors]
    if any(not (math.isfinite(e) and e > -1.0) for e in rel_errors):
        raise ParameterError(
            f"rel_errors must be finite and keep the hot temperature positive, got {rel_errors}"
        )
    src = cfg.source
    f_nominal = nominal_f(cfg.dut, t0_k=src.t0_k, power_scale=src.power_scale)
    y_true = ideal_y(f_nominal, src.t_hot_k, src.t_cold_k, src.t0_k)
    nf_nominal = f_to_nf(f_nominal)
    out = []
    for e in rel_errors:
        f_perturbed = f_from_y_temps(y_true, src.t_hot_k * (1.0 + e), src.t_cold_k, src.t0_k)
        out.append((e, f_to_nf(f_perturbed) - nf_nominal))
    return out


def gain_sensitivity_study(
    cfg: ExperimentConfig,
    gain_ratios,
    window: str = "rectangular",
    overlap_fraction: float = 0.0,
) -> list[GainSensitivityRow]:
    """Measured-NF bias of both methods when the actual gain drifts.

    Every run keeps the assumed end-to-end gain at its nominal value while
    the actual post-DUT gain is multiplied by gain_ratio; the bias is the
    NF difference against the same-seed run at ratio 1. The direct method
    inherits the full gain error; the Y-factor method sees identical
    bitstreams (the comparator only keeps signs) and so zero bias.

    Each method's analog records are drawn once (post-DUT gain is applied
    after them) and reused for every ratio, and each distinct input is
    analysed once: the direct method once per distinct post-DUT gain, the
    Y-factor method only where a ratio's bits differ from the base bits
    (equal bits give an equal analysis). The rows equal those of
    run_direct_experiment and run_y_factor_experiment run per ratio.
    """
    gain_ratios = [float(r) for r in gain_ratios]
    if any(not (r > 0.0) for r in gain_ratios):
        raise ParameterError(f"gain ratios must be positive, got {gain_ratios}")
    assumed = cfg.dut.gain_linear * cfg.post_dut_gain_linear
    drifted = [
        replace(cfg, post_dut_gain_linear=cfg.post_dut_gain_linear * r) for r in gain_ratios
    ]
    record = _direct_record(cfg)
    direct_nf = {}  # by post-DUT gain
    for c in [cfg] + drifted:
        gain = c.post_dut_gain_linear
        if gain not in direct_nf:
            direct_nf[gain] = _direct_result(c, record, assumed, window, overlap_fraction).nf_db
    del record  # keep one seed's records alive at a time
    base_direct = direct_nf[cfg.post_dut_gain_linear]

    def y_nf(c: ExperimentConfig, bits) -> float:
        return analyze_bitstreams(*bits, c, window=window, overlap_fraction=overlap_fraction).nf_db

    records = tuple(tuple(chunks) for chunks in _analog_records(cfg))
    base_bits = _comparator_bits(cfg, records)
    base_y = y_nf(cfg, base_bits)
    rows = []
    for ratio, c in zip(gain_ratios, drifted):
        bits = _comparator_bits(c, records)
        same = all(np.array_equal(a.bits, b.bits) for a, b in zip(bits, base_bits))
        yfac = base_y if same else y_nf(c, bits)
        rows.append(
            GainSensitivityRow("direct", ratio, direct_nf[c.post_dut_gain_linear] - base_direct)
        )
        rows.append(GainSensitivityRow("y_factor", ratio, yfac - base_y))
    return rows
