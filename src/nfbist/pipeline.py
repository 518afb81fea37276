"""End-to-end simulated noise-figure experiments.

The Y-factor chain is: two-state noise source, DUT (gain + added noise),
auxiliary post-DUT power gain, then a comparator that slices the waveform
against a square-wave reference. Spectra of the resulting bitstreams are
normalized to the reference peak and ratioed in a measurement band.

The injected reference amplitude is specified as a fraction of the
cold-state RMS at the comparator. That RMS includes the post-DUT gain p, so
the gain scales the signal x and the reference r alike, and the comparator,
which keeps only the sign of p*x - p*r = p*(x - r), never sees it. The
simulation therefore compares the DUT output before post-DUT gain with the
reference before it: the Y-factor bits do not depend on the gain by
construction, which is what makes the method immune to gain error, unlike
the direct method.

Every record is a signals._NoiseDraw made by _record: the DUT output
before post-DUT gain, white Gaussian noise of the state's RMS from the
state's own sub-seed, drawn block by block into its reader's buffer as it
is read, so it holds no samples. The direct method's record is taken before
the gain too: a PSD scales linearly with power gain, so its band power is
the record's times the gain, and one spectrum serves every gain.

The comparator reads each state's record _CHUNK_SAMPLES samples at a time
and decides each requested reference level r as a >= r in the first half
of the reference period and a >= -r in the second, taken from the cached
square-wave pattern. For finite values a - r >= 0 holds exactly when
a >= r, so the bits are those of digitize on the record and the
square-wave reference, without building either waveform, their difference
or a reference per chunk. The decisions are packed 8 per byte as they are
made, so one pass serves every level of a reference-amplitude sweep in n/4
bytes per level, and each packed stream becomes a BitStream as it is,
without a copy. The hot and the cold state share nothing but that pattern,
so the hot state's pass runs on a worker thread while the cold state's
runs on the calling thread, and their spectra are summed the same way,
through spectral._in_two_threads, whatever the number of cores: the
threads share one core where only one is usable. Every spectrum is summed
by a spectral._spectra_job, in a workspace that the calling thread
allocates, of the same size for every job.

The studies keep both cores busy with one spectra pass per seed: the
reference-amplitude sweep sums every fraction's hot spectrum on the worker
while the calling thread sums every cold one, and the gain study sums its
Y-factor pair on the worker while the calling thread runs psd of the
direct method's T0 record. The worker calls none of the public functions
this module binds, so a wrapper put on them, as the benchmark's tracer
does, sees one call at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

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
from .errors import (
    ParameterError,
    ShapeError,
    check_integer,
    check_positive,
    is_finite_number,
)
from .nfcore import f_from_y_temps, f_to_nf, ideal_y
from .signals import (
    _CHUNK_SAMPLES,
    NoiseSourceSpec,
    _NoiseDraw,
    _first_half_mask,
    gaussian_noise,  # not called here; perfbench/tracing.PATCHES wraps this binding
    source_output,  # not called here; perfbench/tracing.PATCHES wraps this binding
    square_wave,  # not called here; perfbench/tracing.PATCHES wraps this binding
)
from .spectral import (
    Spectrum,
    _check_band,
    _check_fft_size,
    _in_two_threads,
    _peak_search_bins,
    _spectra,
    _spectra_job,
    band_power,
    band_width_hz,
    power_ratio_detail,
    psd,
)

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
        for name, minimum in (("n_samples", 1), ("ref_exclusion_halfwidth_bins", 0), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        object.__setattr__(self, "fft_size", _check_fft_size(self.fft_size))
        if self.n_samples < self.fft_size:
            raise ParameterError(
                f"n_samples ({self.n_samples}) must be >= fft_size ({self.fft_size})"
            )
        # Every bin find_reference_peak reads must lie on the spectrum.
        _peak_search_bins(self.f_ref_hz, self.fft_size, self.sample_rate_hz)
        check_positive("ref_amplitude", self.ref_amplitude)
        object.__setattr__(self, "band", _check_band(self.band, self.sample_rate_hz / 2.0))
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
    """The points of a sweep study as floats: at least one, each a finite
    real number (not a bool) above the study's floor (a positive amplitude
    fraction or gain ratio; a hot-temperature error that keeps the hot
    temperature positive)."""
    name, floor = _SWEEP_POINTS[kind]
    if not isinstance(points, Iterable):
        raise ParameterError(f"the {name}s must be an iterable of numbers, got {points!r}")
    points = list(points)
    if not points:
        raise ParameterError(f"at least one {name} is required")
    if any(not (is_finite_number(p) and p > floor) for p in points):
        raise ParameterError(f"each {name} must be finite and > {floor:g}, got {points}")
    return [float(p) for p in points]


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


def _record(cfg: ExperimentConfig, temperature_k: float, sub_seed: int) -> _NoiseDraw:
    """cfg's DUT output, before post-DUT gain, for a source at temperature_k.

    One white Gaussian draw of RMS _sigma(cfg, temperature_k) from child
    seed sub_seed of cfg.seed, streamed as it is read. The hot, cold and
    direct-method (T0) records are sub-seeds 0, 2 and 4.
    """
    seed = _sub_seeds(cfg.seed, 6)[sub_seed]
    return _NoiseDraw(cfg.n_samples, _sigma(cfg, temperature_k), seed, cfg.sample_rate_hz)


def _comparator_bits(cfg: ExperimentConfig, fractions: Sequence[float]) -> np.ndarray:
    """Hot and cold comparator decisions of cfg's seed at each reference fraction, packed.

    Slices cfg's hot and cold records (_record, sub-seeds 0 and 2) against
    the square-wave reference at each fraction of the analytic cold-state
    RMS; cfg.ref_amplitude is not read. The post-DUT gain drops out of the
    comparison (see the module docstring); it enters only the check that
    each reference amplitude at the comparator is finite. The records
    depend only on the seed and n_samples, so every fraction of a sweep is
    decided on the same draws (common random numbers).

    Each state runs _state_bits over its record: the hot state on a worker
    thread and the cold state on this one. Returns a uint8 array of shape
    (len(fractions), 2, ceil(n / 8)), hot before cold: each decision stream
    packed 8 per byte, LSB first, with the unused bits of the last byte
    zero, as NFB1 captures store bits: n/4 bytes per fraction.
    """
    fs, n = cfg.sample_rate_hz, cfg.n_samples
    temperatures = (cfg.source.t_hot_k, cfg.source.t_cold_k)
    sigmas = [_sigma(cfg, t) for t in temperatures]
    levels = [fraction * sigmas[1] for fraction in fractions]
    at_comparator = [math.sqrt(cfg.post_dut_gain_linear) * level for level in levels]
    if not all(math.isfinite(v) for v in (*sigmas, *at_comparator)):
        raise ParameterError(
            f"the DUT output RMS (hot {sigmas[0]!r}, cold {sigmas[1]!r}) and the reference "
            f"amplitude at the comparator ({', '.join(map(repr, at_comparator))}) must be finite"
        )
    first_half = _first_half_mask(n, fs, cfg.f_ref_hz)
    # Each state's 512 KiB float chunk and 64 KiB bool chunk: allocated on
    # this thread, as a worker's own allocations come from a separate malloc
    # arena, and before the result that outlives them, as allocated after it
    # they left about 3 MB more of a sweep process resident when the direct
    # method's record was drawn next (peak RSS 52.5 instead of 49.1 MB). The
    # worker still allocates np.packbits's output for each chunk and level.
    records = [_record(cfg, t, k) for t, k in zip(temperatures, (0, 2))]
    chunk = min(n, _CHUNK_SAMPLES)
    buffers = [(np.empty(chunk), np.empty(chunk, dtype=np.bool_)) for _ in records]
    packed = np.empty((len(fractions), 2, -(-n // 8)), dtype=np.uint8)
    hot, cold = (
        functools.partial(_state_bits, record, levels, first_half, packed[:, k], *buffer)
        for k, (record, buffer) in enumerate(zip(records, buffers))
    )
    _in_two_threads(hot, cold)
    return packed


def _state_bits(record, levels, first_half, out, samples, decided_buffer):
    """One state's comparator pass: out[k] = the packed decisions at levels[k].

    Reads the record's samples a into samples through record._read,
    _CHUNK_SAMPLES at a time (the last chunk shorter), front to back. Each
    level's decisions are a >= level in the first half of the reference
    period and a >= -level in the second: elementwise the comparison with
    the square-wave reference. Both comparisons are packed as out is, and
    merged bytewise by first_half, the pattern packed the same way: high
    where its bit is 1, low elsewhere. _CHUNK_SAMPLES is a multiple of 8,
    so every chunk starts on a byte of out and of first_half.
    """
    n = len(record)
    for start in range(0, n, _CHUNK_SAMPLES):
        stop = min(start + _CHUNK_SAMPLES, n)
        a, decided = samples[: stop - start], decided_buffer[: stop - start]
        record._read(start, a)
        chunk = slice(start // 8, -(-stop // 8))
        for level, state_bits in zip(levels, out):
            high = np.packbits(np.greater_equal(a, level, out=decided), bitorder="little")
            low = np.packbits(np.greater_equal(a, -level, out=decided), bitorder="little")
            # low ^ ((low ^ high) & first_half): high's bit where the pattern's is 1.
            high ^= low
            high &= first_half[chunk]
            np.bitwise_xor(low, high, out=state_bits[chunk])


def _bitstream(cfg: ExperimentConfig, packed: np.ndarray) -> BitStream:
    """One packed decision stream of _comparator_bits as cfg's bitstream, without a copy."""
    return BitStream._from_packed(cfg.sample_rate_hz, packed, cfg.n_samples)


def simulate_bitstreams(cfg: ExperimentConfig) -> tuple[BitStream, BitStream]:
    """Synthesize the (hot, cold) comparator bitstreams for a configuration.

    Reads each state's record _CHUNK_SAMPLES samples at a time and
    compares each chunk with the same chunk of the reference (see
    _comparator_bits), so the float working memory is one chunk per state
    whatever the record length. Each bitstream holds its state's packed
    decisions, n/8 bytes. The hot and the cold state are read and compared
    on two threads at once. The reference-amplitude sweep makes the same
    pass with all of its fractions at once, so its bits equal this
    function's for each point's config.
    """
    (hot, cold), = _comparator_bits(cfg, [cfg.ref_amplitude])
    return _bitstream(cfg, hot), _bitstream(cfg, cold)


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
    that rate's frequency grid. Computes both PSDs, each equal to psd of its
    bitstream, on two threads at once, and passes them to analyze_spectra.
    Every note about the result goes into its warnings field; none is
    raised as a Python warning.
    """
    for state, stream in (("hot", hot), ("cold", cold)):
        if not isinstance(stream, BitStream):
            raise ParameterError(f"{state} must be a BitStream, got {type(stream).__name__}")
    if hot.sample_rate_hz != cold.sample_rate_hz:
        raise ShapeError(
            f"hot and cold sample rates differ: {hot.sample_rate_hz} vs {cold.sample_rate_hz}"
        )
    if hot.sample_rate_hz != cfg.sample_rate_hz:
        raise ShapeError(
            f"bitstream and config sample rates differ: {hot.sample_rate_hz} "
            f"vs {cfg.sample_rate_hz}"
        )
    spec_hot, spec_cold = _spectra([hot, cold], cfg.fft_size, window, overlap_fraction)
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
        if not isinstance(spec, Spectrum):
            raise ParameterError(f"{state} must be a Spectrum, got {type(spec).__name__}")
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


def _direct_result(
    cfg: ExperimentConfig, spectrum: Spectrum, assumed_gain_linear: float
) -> MeasurementResult:
    """Direct-method F from the spectrum of cfg's T0 record (_record, sub-seed 4).

    The record is taken before post-DUT gain, and a PSD scales linearly
    with power gain, so the measured band power is post_dut_gain_linear
    times the spectrum's band power.
    """
    f_lo, f_hi = cfg.band
    measured = cfg.post_dut_gain_linear * band_power(spectrum, f_lo, f_hi)
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
    The output power is the band power of psd of the DUT output times the
    post-DUT gain (see _direct_result), so no gained copy of the record is
    made.
    """
    check_positive("assumed_gain_linear", assumed_gain_linear)
    spectrum = psd(_record(cfg, cfg.source.t0_k, 4), cfg.fft_size, window, overlap_fraction)
    return _direct_result(cfg, spectrum, assumed_gain_linear)


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

    Each seed's hot and cold records are drawn once and compared with
    every fraction's reference in one comparator pass (common random
    numbers), which keeps the decisions packed, n/4 bytes per fraction
    (below the 16 bytes per sample of kept float64 hot and cold records up
    to 64 fractions); each fraction's streams are wrapped as bitstreams,
    without a copy. Then one two-thread pass sums the spectra: every
    fraction's hot spectrum in turn on a worker thread and every cold one
    on this thread. Each row is then analyze_spectra of its fraction's
    pair. The bits of each point equal those of simulate_bitstreams at
    that point's config, and each spectrum that of psd, so every row is the
    same as running each experiment on its own.
    """
    fractions = check_sweep_points("ref-amplitude", fractions)
    n_seeds = check_integer("n_seeds", n_seeds, 1)
    src = cfg.source
    f_nominal = nominal_f(cfg.dut, t0_k=src.t0_k, power_scale=src.power_scale)
    y_ideal = ideal_y(f_nominal, src.t_hot_k, src.t_cold_k, src.t0_k)
    errors = [[] for _ in fractions]
    for k in range(n_seeds):
        seed_cfg = replace(cfg, seed=cfg.seed + k)
        packed = _comparator_bits(seed_cfg, fractions)
        hot, cold = _in_two_threads(
            *(
                _spectra_job(
                    [_bitstream(seed_cfg, bits) for bits in packed[:, state]],
                    cfg.fft_size,
                    window,
                    overlap_fraction,
                )
                for state in (0, 1)
            )
        )
        for fraction, spec_hot, spec_cold, fraction_errors in zip(fractions, hot, cold, errors):
            out = analyze_spectra(spec_hot, spec_cold, replace(seed_cfg, ref_amplitude=fraction))
            fraction_errors.append(abs(out.y - y_ideal) / y_ideal)
    return [(a, float(np.mean(e))) for a, e in zip(fractions, errors)]


def th_uncertainty_study(cfg: ExperimentConfig, rel_errors) -> list[tuple[float, float]]:
    """Noise-figure shift caused by a miscalibrated hot temperature.

    Holds the measured Y at its ideal value and redoes only the
    temperature-to-F conversion with Th scaled by (1 + rel_error); returns
    (rel_error, delta_nf_db) pairs, NaN where the perturbed F is <= 0, as
    _nf_and_notes reads it. Purely analytic, no simulation.
    """
    rel_errors = check_sweep_points("th-error", rel_errors)
    src = cfg.source
    f_nominal = nominal_f(cfg.dut, t0_k=src.t0_k, power_scale=src.power_scale)
    y_true = ideal_y(f_nominal, src.t_hot_k, src.t_cold_k, src.t0_k)
    nf_nominal = f_to_nf(f_nominal)
    out = []
    for e in rel_errors:
        f_perturbed = f_from_y_temps(y_true, src.t_hot_k * (1.0 + e), src.t_cold_k, src.t0_k)
        out.append((e, _nf_and_notes(f_perturbed, "th-error")[0] - nf_nominal))
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
    inherits the full gain error. The comparator never sees the post-DUT
    gain (see the module docstring), so every ratio's Y-factor bits are
    the base bits: one comparator pass and one hot/cold pair of spectra
    give each row's bias, base - base, which is 0.0, or NaN where the base
    NF is undefined.

    The direct method's analog record is drawn once and its spectrum taken
    once, by psd; each ratio's result is that spectrum's band power times
    the ratio's post-DUT gain (see _direct_result). A worker thread sums the
    hot spectrum and then the cold one, in a workspace this thread
    allocates, while this thread runs psd, whose workspace is the same
    size. The rows equal those of run_direct_experiment and
    run_y_factor_experiment run per ratio.
    """
    gain_ratios = check_sweep_points("gain", gain_ratios)
    assumed = cfg.dut.gain_linear * cfg.post_dut_gain_linear
    drifted = [
        replace(cfg, post_dut_gain_linear=cfg.post_dut_gain_linear * r) for r in gain_ratios
    ]
    (hot, cold), = _comparator_bits(cfg, [cfg.ref_amplitude])
    t0_record = _record(cfg, cfg.source.t0_k, 4)
    (spec_hot, spec_cold), spectrum = _in_two_threads(
        _spectra_job(
            [_bitstream(cfg, hot), _bitstream(cfg, cold)], cfg.fft_size, window, overlap_fraction
        ),
        functools.partial(psd, t0_record, cfg.fft_size, window, overlap_fraction),
    )
    base_direct = _direct_result(cfg, spectrum, assumed).nf_db
    base_y = analyze_spectra(spec_hot, spec_cold, cfg).nf_db
    rows = []
    for ratio, c in zip(gain_ratios, drifted):
        direct = _direct_result(c, spectrum, assumed).nf_db
        rows.append(GainSensitivityRow("direct", ratio, direct - base_direct))
        rows.append(GainSensitivityRow("y_factor", ratio, base_y - base_y))
    return rows
