"""Averaged-periodogram power spectra and reference-peak band arithmetic.

Spectra are one-sided power spectral densities calibrated so the Riemann
sum psd * bin_width recovers total signal power. Segments are rectangular
and non-overlapping by default (a Hann window with fractional overlap is
available for leakage-sensitive work).

Hot/cold spectra from a 1-bit digitizer cannot be compared directly because
the comparator erases absolute levels. ``power_ratio_detail`` therefore
scales each spectrum by its own injected-reference peak power, removes the
bins around the reference, and ratios the remaining in-band power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .digitizer import BitStream
from .errors import (
    DegenerateBandError,
    DegenerateReferenceError,
    InsufficientDataError,
    ParameterError,
    ShapeError,
    check_integer,
    check_positive,
)
from .signals import SampledSignal

__all__ = [
    "Spectrum",
    "psd",
    "find_reference_peak",
    "band_power",
    "band_width_hz",
    "PowerRatioResult",
    "power_ratio_detail",
]

_WINDOWS = ("rectangular", "hann")
MAX_OVERLAP_FRACTION = 0.75
# find_reference_peak looks for the strongest bin this many bins either side
# of the bin nearest the nominal reference frequency.
_PEAK_SEARCH_HALFWIDTH_BINS = 5
# psd transforms this many bytes of windowed float64 segments at a time, so
# its temporaries stay small and are reused from the heap instead of being
# mapped afresh for every call.
_PSD_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided PSD on the uniform grid of an fft_size-point transform at
    sample_rate_hz, from DC to Nyquist."""

    psd: np.ndarray
    fft_size: int
    n_segments: int
    sample_rate_hz: float

    def __post_init__(self):
        fft_size = check_integer("fft_size", self.fft_size, 2)
        n_segments = check_integer("n_segments", self.n_segments, 1)
        check_positive("sample_rate_hz", self.sample_rate_hz)
        dens = np.asarray(self.psd, dtype=np.float64)
        if dens.ndim != 1 or dens.size != fft_size // 2 + 1:
            raise ShapeError(
                f"psd must hold fft_size/2 + 1 = {fft_size // 2 + 1} bins, got shape {dens.shape}"
            )
        dens.setflags(write=False)
        object.__setattr__(self, "psd", dens)
        object.__setattr__(self, "fft_size", fft_size)
        object.__setattr__(self, "n_segments", n_segments)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @functools.cached_property
    def freq_hz(self) -> np.ndarray:
        freq = np.fft.rfftfreq(self.fft_size, 1 / self.sample_rate_hz)
        freq.setflags(write=False)
        return freq

    @property
    def bin_width_hz(self) -> float:
        return self.sample_rate_hz / self.fft_size

    @property
    def nyquist_hz(self) -> float:
        return float(self.freq_hz[-1])

    def total_power(self) -> float:
        """Riemann-sum power across the whole spectrum."""
        return float(self.psd.sum() * self.bin_width_hz)


def _signal_values(x) -> tuple[np.ndarray, float]:
    if isinstance(x, BitStream):
        # The int8 bits convert exactly in the windowed product.
        return x.bits, x.sample_rate_hz
    if isinstance(x, SampledSignal):
        return x.samples, x.sample_rate_hz
    raise ParameterError(f"expected SampledSignal or BitStream, got {type(x).__name__}")


def psd(x, fft_size: int, window: str = "rectangular", overlap_fraction: float = 0.0) -> Spectrum:
    """Averaged-periodogram PSD of a signal or bitstream.

    Splits the record into fft_size-long segments (dropping any tail),
    averages their one-sided periodograms, and scales to power per Hz so
    that sum(psd) * bin_width equals the record's total power. The
    arithmetic follows scipy.signal.welch (periodic Hann, no detrending,
    mean over segments) step for step, so the result equals it bit for bit.
    """
    values, sample_rate_hz = _signal_values(x)
    fft_size = check_integer("fft_size", fft_size, 2)
    if fft_size % 2 != 0:
        raise ParameterError(f"fft_size must be even, got {fft_size}")
    if fft_size > values.size:
        raise InsufficientDataError(
            f"fft_size {fft_size} exceeds record length {values.size}"
        )
    if window not in _WINDOWS:
        raise ParameterError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")
    if not (0.0 <= overlap_fraction <= MAX_OVERLAP_FRACTION):
        raise ParameterError(
            f"overlap_fraction must lie in [0, {MAX_OVERLAP_FRACTION}], got {overlap_fraction}"
        )
    noverlap = int(round(fft_size * overlap_fraction))
    step = fft_size - noverlap
    if window == "hann":
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1)[:-1])
    else:
        win = np.ones(fft_size)
    # Builtin sum adds sequentially, as welch does; np.sum would pair terms.
    win = win * (1 / np.sqrt(sum(win**2) / (1 / sample_rate_hz)))
    segments = sliding_window_view(values, fft_size)[::step]
    n_segments = segments.shape[0]
    # welch averages contiguous (freq, segment) rows; filling that layout
    # keeps numpy's pairwise summation order and so every result bit.
    power = np.empty((fft_size // 2 + 1, n_segments))
    rows = max(1, _PSD_BLOCK_BYTES // (8 * fft_size))
    for start in range(0, n_segments, rows):
        spec = np.fft.rfft(segments[start : start + rows] * win)
        power[:, start : start + rows] = (spec.real**2 + spec.imag**2).T
    power[1:-1] *= 2
    return Spectrum(power.mean(axis=-1), fft_size, n_segments, sample_rate_hz)


def find_reference_peak(s: Spectrum, f_ref_hz: float) -> tuple[int, float]:
    """Locate the injected reference peak near f_ref_hz.

    The peak bin is the strongest bin within +-5 bins of the bin nearest
    f_ref_hz; the returned power integrates that bin plus one guard bin each
    side, which keeps the estimate stable when the reference does not land
    exactly on a bin center and leaks into its neighbours.
    """
    if not (0.0 <= f_ref_hz <= s.nyquist_hz):
        raise ParameterError(
            f"f_ref_hz must lie in [0, {s.nyquist_hz}], got {f_ref_hz}"
        )
    center = int(round(f_ref_hz / s.bin_width_hz))
    lo = center - _PEAK_SEARCH_HALFWIDTH_BINS
    hi = center + _PEAK_SEARCH_HALFWIDTH_BINS
    if lo < 0 or hi >= s.psd.size:
        raise ParameterError(
            f"search window [{lo}, {hi}] falls outside the spectrum (0..{s.psd.size - 1})"
        )
    best_bin = lo + int(np.argmax(s.psd[lo : hi + 1]))
    g_lo = max(best_bin - 1, 0)
    g_hi = min(best_bin + 1, s.psd.size - 1)
    peak_power = float(s.psd[g_lo : g_hi + 1].sum() * s.bin_width_hz)
    return best_bin, peak_power


def _band_mask(s: Spectrum, f_lo_hz: float, f_hi_hz: float) -> np.ndarray:
    """Bins whose center lies in [f_lo, f_hi]."""
    if not (0.0 <= f_lo_hz < f_hi_hz <= s.nyquist_hz):
        raise ParameterError(
            f"band must satisfy 0 <= f_lo < f_hi <= {s.nyquist_hz}, got [{f_lo_hz}, {f_hi_hz}]"
        )
    mask = (s.freq_hz >= f_lo_hz) & (s.freq_hz <= f_hi_hz)
    if not mask.any():
        raise DegenerateBandError(f"no bin center lies in [{f_lo_hz}, {f_hi_hz}] Hz")
    return mask


def band_power(s: Spectrum, f_lo_hz: float, f_hi_hz: float) -> float:
    """Integrated power of the bins whose center lies in [f_lo, f_hi]."""
    mask = _band_mask(s, f_lo_hz, f_hi_hz)
    return float(s.psd[mask].sum() * s.bin_width_hz)


def band_width_hz(s: Spectrum, f_lo_hz: float, f_hi_hz: float) -> float:
    """Effective integration width (bin count times bin width) of band_power."""
    mask = _band_mask(s, f_lo_hz, f_hi_hz)
    return float(mask.sum() * s.bin_width_hz)


class PowerRatioResult(NamedTuple):
    """Diagnostics from a normalized hot/cold band-power comparison."""

    y: float
    peak_bin_hot: int
    peak_bin_cold: int
    peak_power_hot: float
    peak_power_cold: float
    band_power_hot: float
    band_power_cold: float


def _check_same_grid(hot: Spectrum, cold: Spectrum):
    if (hot.fft_size, hot.sample_rate_hz) != (cold.fft_size, cold.sample_rate_hz):
        raise ShapeError(
            "spectra are on different grids: "
            f"fft {hot.fft_size}/{cold.fft_size}, rate {hot.sample_rate_hz}/{cold.sample_rate_hz} Hz"
        )


def power_ratio_detail(
    hot: Spectrum,
    cold: Spectrum,
    band: tuple[float, float],
    f_ref_hz: float,
    ref_exclusion_halfwidth_bins: int = 3,
) -> PowerRatioResult:
    """Hot/cold band-power ratio after reference-peak normalization.

    Each spectrum is divided by its own reference-peak power, so both peaks
    carry unit power, exactly the bins within +-ref_exclusion_halfwidth_bins
    of either peak bin are dropped from the band (whether or not the
    reference sits inside it), and the remaining band powers are ratioed.
    The returned band powers are the normalized ones, so
    y = band_power_hot / band_power_cold.
    """
    _check_same_grid(hot, cold)
    half = check_integer("ref_exclusion_halfwidth_bins", ref_exclusion_halfwidth_bins, 0)
    bin_hot, peak_hot = find_reference_peak(hot, f_ref_hz)
    bin_cold, peak_cold = find_reference_peak(cold, f_ref_hz)
    for peak in (peak_hot, peak_cold):
        if peak <= 0.0:
            raise DegenerateReferenceError(
                f"cannot normalize by a non-positive peak power ({peak})"
            )

    # Both integrations must skip the same bins, so exclude around each
    # spectrum's own peak in both (they coincide in normal operation).
    mask = _band_mask(hot, band[0], band[1])
    for b in {bin_hot, bin_cold}:
        mask[max(b - half, 0) : b + half + 1] = False
    if not mask.any():
        raise DegenerateBandError(
            f"no bins remain in [{band[0]}, {band[1]}] Hz after excluding "
            f"+-{half} bins around the reference peak"
        )
    bp_hot = float((hot.psd[mask] * (1.0 / peak_hot)).sum() * hot.bin_width_hz)
    bp_cold = float((cold.psd[mask] * (1.0 / peak_cold)).sum() * cold.bin_width_hz)
    return PowerRatioResult(
        y=bp_hot / bp_cold,
        peak_bin_hot=bin_hot,
        peak_bin_cold=bin_cold,
        peak_power_hot=peak_hot,
        peak_power_cold=peak_cold,
        band_power_hot=bp_hot,
        band_power_cold=bp_cold,
    )
