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

The comparator works on the standard-normal draw z: per chunk, each
state's z is scaled by its RMS and then by sqrt(post_dut_gain_linear) into
one reused buffer and compared with the reference level, laid out from the
cached square-wave pattern into a second reused buffer. For finite values
a - r >= 0 holds exactly when a >= r, so the bits are those of digitize on
the scaled record and the square-wave reference, without building either
waveform or their difference per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .digitizer import (
    BitStream,
    digitize,  # not called here; perfbench/tracing.PATCHES wraps this binding
)
from .dut import (
    DutSpec,
    apply_dut,  # not called here; perfbench/tracing.PATCHES wraps this binding
    nominal_f,
)
from .errors import ParameterError, ShapeError, check_integer, check_non_negative, check_positive
from .nfcore import f_from_y_temps, f_to_nf, ideal_y
from .signals import (
    _CHUNK_SAMPLES,
    NoiseSourceSpec,
    SampledSignal,
    _first_half_mask,
    gaussian_noise,
    source_output,  # not called here; perfbench/tracing.PATCHES wraps this binding
    square_wave,  # not called here; perfbench/tracing.PATCHES wraps this binding
)
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
        check_positive("f_ref_hz", self.f_ref_hz)
        if not self.f_ref_hz < nyquist:
            raise ParameterError(
                f"f_ref_hz must lie in (0, {nyquist}), got {self.f_ref_hz}"
            )
        check_positive("ref_amplitude", self.ref_amplitude)
        for edge in self.band:
            check_non_negative("band edge", edge)
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


# Each study's sweep points, by the name the CLI gives the study: what one
# point is, and the value every point must exceed.
_SWEEP_POINTS = {
    "ref-amplitude": ("amplitude fraction", 0.0),
    "th-error": ("relative hot-temperature error", -1.0),
    "gain": ("gain ratio", 0.0),
}


def check_sweep_points(kind: str, points) -> list[float]:
    """The points of a sweep study as floats: at least one, each finite and
    above the study's floor (a positive amplitude fraction or gain ratio; a
    hot-temperature error that keeps the hot temperature positive)."""
    name, floor = _SWEEP_POINTS[kind]
    points = [float(p) for p in points]
    if not points:
        raise ParameterError(f"at least one {name} is required")
    if any(not (math.isfinite(p) and p > floor) for p in points):
        raise ParameterError(f"each {name} must be finite and > {floor:g}, got {points}")
    return points


class GainSensitivityRow(NamedTuple):
    method: str
    gain_ratio: float
    nf_bias_db: float


def _sub_seeds(seed: int, count: int) -> list[int]:
    """Deterministic, well-separated child seeds for one experiment."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _sigma(cfg: ExperimentConfig, temperature_k: float) -> float:
    """RMS of the DUT output, before post-DUT gain, for a source at temperature_k.

    The DUT amplifies white Gaussian noise of variance power_scale * T by
    gain_linear and adds independent white Gaussian noise of variance
    added_noise_power, so its output is one white Gaussian of variance
    gain_linear * power_scale * T + added_noise_power.
    """
    src, dut = cfg.source, cfg.dut
    return math.sqrt(dut.gain_linear * src.power_scale * temperature_k + dut.added_noise_power)


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

    Each state's DUT output is white Gaussian noise of RMS _sigma(cfg, T),
    drawn from one generator per state and yielded in units of that RMS:
    the standard-normal draws z, which _comparator_bits scales to the
    samples _sigma(cfg, T) * z. Its record comes as consecutive chunks of
    _CHUNK_SAMPLES samples (the last one shorter); the generator continues
    from chunk to chunk, so the chunks concatenate bit for bit to the
    single full-length draw. The draws
    depend only on the seed, n_samples and the sample rate, never on
    ref_amplitude or post_dut_gain_linear, so a sweep over those two draws
    them once per seed (common random numbers) and keeps each state's
    chunks as a tuple.
    """
    seeds = _sub_seeds(cfg.seed, 6)
    for seed in (seeds[0], seeds[2]):
        yield _state_chunks(cfg, seed)


def _state_chunks(cfg: ExperimentConfig, seed: int) -> Iterator[np.ndarray]:
    """Lazily draw one state's standard-normal record, chunk by chunk, from one generator."""
    rng = np.random.default_rng(seed)
    for start in range(0, cfg.n_samples, _CHUNK_SAMPLES):
        yield rng.standard_normal(min(_CHUNK_SAMPLES, cfg.n_samples - start))


def _comparator_bits(
    cfg: ExperimentConfig, records: Iterable[Iterable[np.ndarray]]
) -> tuple[BitStream, BitStream]:
    """Slice the hot and cold standard-normal records against cfg's square-wave reference.

    Each state's z is scaled by the state's RMS and then by
    sqrt(post_dut_gain_linear), and the reference level is cfg.ref_amplitude
    times the analytic cold-state RMS, times the same factor: one
    multiplication each, the rounding of the analog chain. Folding the
    factors into one product would change the rounding and flip bits. A
    sample is +1 where its scaled value is at least the reference, which for
    finite values is where digitize's difference is >= 0. The records come
    in _CHUNK_SAMPLES-sample chunks and advance in lockstep: each chunk's
    reference is laid out once for both states from the cached pattern, the
    scaled chunk and the reference live in two reused buffers, and the
    comparison writes straight into the state's int8 bitstream, which is
    mapped from 0/1 to -1/+1 at the end.
    """
    fs, n = cfg.sample_rate_hz, cfg.n_samples
    src = cfg.source
    post_amp = math.sqrt(cfg.post_dut_gain_linear)
    sigmas = (_sigma(cfg, src.t_hot_k), _sigma(cfg, src.t_cold_k))
    level = post_amp * (cfg.ref_amplitude * sigmas[1])
    if not all(math.isfinite(v) for v in (*sigmas, level)):
        raise ParameterError(
            f"the DUT output RMS (hot {sigmas[0]!r}, cold {sigmas[1]!r}) and the reference "
            f"amplitude at the comparator ({level!r}) must be finite"
        )
    first_half = _first_half_mask(n, fs, cfg.f_ref_hz, 0.0)
    size = min(n, _CHUNK_SAMPLES)
    reference_buffer, scaled_buffer = np.empty(size), np.empty(size)
    hot, cold = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8)
    states = [
        (bits, iter(chunks), sigma) for bits, chunks, sigma in zip((hot, cold), records, sigmas)
    ]
    for start in range(0, n, _CHUNK_SAMPLES):
        stop = min(start + _CHUNK_SAMPLES, n)
        reference, scaled = reference_buffer[: stop - start], scaled_buffer[: stop - start]
        reference.fill(-level)
        np.copyto(reference, level, where=first_half[start:stop])
        for bits, chunks, sigma in states:
            np.multiply(next(chunks), sigma, out=scaled)
            scaled *= post_amp
            np.greater_equal(scaled, reference, out=bits[start:stop].view(np.bool_))
    for bits in (hot, cold):
        bits *= 2
        bits -= 1
    return BitStream(fs, hot), BitStream(fs, cold)


def simulate_bitstreams(cfg: ExperimentConfig) -> tuple[BitStream, BitStream]:
    """Synthesize the (hot, cold) comparator bitstreams for a configuration.

    Draws the hot and the cold standard-normal record side by side,
    _CHUNK_SAMPLES samples at a time, and scales and compares each chunk
    with the same chunk of the reference (see _comparator_bits), so the
    float working memory is a few chunks whatever the record length. The
    sweep studies run the same steps but draw each seed's chunks once and
    reuse them for every sweep point, so their bits equal this function's
    for each point's config.
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

    One white Gaussian draw of RMS _sigma(cfg, T0). Like the Y-factor
    records it is taken before post-DUT gain, so it depends on the seed
    but not on post_dut_gain_linear.
    """
    seeds = _sub_seeds(cfg.seed, 6)
    sigma_t0 = _sigma(cfg, cfg.source.t0_k)
    return gaussian_noise(
        cfg.n_samples, sigma_t0, seeds[4], sample_rate_hz=cfg.sample_rate_hz
    ).samples


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

    Each seed's standard-normal records are drawn once and reused for
    every fraction (common random numbers), which then costs one
    comparator pass; the bits of each point equal those of
    simulate_bitstreams at that point's config, so every row is the same
    as running each experiment on its own.
    """
    fractions = check_sweep_points("ref-amplitude", fractions)
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
    rel_errors = check_sweep_points("th-error", rel_errors)
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
    digitized and analysed once: both methods once per distinct post-DUT
    gain, and the Y-factor method only where that gain's bits differ from
    the base bits (equal bits give an equal analysis). The rows equal those of
    run_direct_experiment and run_y_factor_experiment run per ratio.
    """
    gain_ratios = check_sweep_points("gain", gain_ratios)
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
    y_factor_nf = {cfg.post_dut_gain_linear: base_y}  # by post-DUT gain
    for c in drifted:
        gain = c.post_dut_gain_linear
        if gain not in y_factor_nf:
            bits = _comparator_bits(c, records)
            same = all(np.array_equal(a.bits, b.bits) for a, b in zip(bits, base_bits))
            y_factor_nf[gain] = base_y if same else y_nf(c, bits)
    rows = []
    for ratio, c in zip(gain_ratios, drifted):
        gain = c.post_dut_gain_linear
        rows.append(GainSensitivityRow("direct", ratio, direct_nf[gain] - base_direct))
        rows.append(GainSensitivityRow("y_factor", ratio, y_factor_nf[gain] - base_y))
    return rows
