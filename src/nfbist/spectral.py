"""Averaged-periodogram power spectra and reference-peak band arithmetic.

Spectra are one-sided power spectral densities calibrated so the Riemann
sum psd * bin_width recovers total signal power. Segments are rectangular
and non-overlapping by default (a Hann window with fractional overlap is
available for leakage-sensitive work). Each segment's periodogram is added
into a running sum as it is computed, in segment order, so a spectrum takes
memory for a block of segments, not for every segment. A record is read
one block at a time, each value once, into a frame that keeps the overlap
between blocks, so a packed bitstream unpacks only the bytes that cover a
block and a streamed noise record is never drawn whole.

Hot/cold spectra from a 1-bit digitizer cannot be compared directly because
the comparator erases absolute levels. ``power_ratio_detail`` therefore
scales each spectrum by its own injected-reference peak power, removes the
bins around the reference, and ratios the remaining in-band power.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .digitizer import BitStream
from .errors import (
    DegenerateBandError,
    DegenerateReferenceError,
    InsufficientDataError,
    ParameterError,
    ShapeError,
    check_integer,
    check_non_negative,
    check_positive,
    is_finite_number,
)
from .signals import SampledSignal, _as_f64, _NoiseDraw

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
# A job's block of windowed float64 segments and its frame's kept overlap fit
# this many bytes whatever the record length. Two jobs run at once, so
# together they hold twice this.
_PSD_BLOCK_BYTES = 1 << 19
# numpy's ufunc buffer, in items, while a block is summed: windowing by a
# shorter window fills 8 KiB with copies of it, not 64 KiB, and as fast.
_UFUNC_BUFFER_ITEMS = 1024


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
        # A copy, so that the caller's array stays writeable and a later
        # write to it cannot change the spectrum.
        dens = np.array(_as_f64(self.psd, "psd"))
        if dens.ndim != 1 or dens.size != fft_size // 2 + 1:
            raise ShapeError(
                f"psd must hold fft_size/2 + 1 = {fft_size // 2 + 1} bins, got shape {dens.shape}"
            )
        if dens.min() < 0.0:
            raise ParameterError("psd must hold non-negative densities")
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


def psd(x, fft_size: int, window: str = "rectangular", overlap_fraction: float = 0.0) -> Spectrum:
    """Averaged-periodogram PSD of a signal or bitstream.

    Splits the record into fft_size-long segments (dropping any tail),
    averages their one-sided periodograms, and scales to power per Hz so
    that sum(psd) * bin_width equals the record's total power. The
    arithmetic follows scipy.signal.welch (periodic Hann, no detrending,
    mean over segments), so the result agrees with it to a few ulps.

    Each periodogram is added into a running sum as it is computed, in
    segment order (see _SegmentSums), so the working memory is a block of
    segments whatever the record length: the block of one job of a
    two-thread pass, as every spectrum is summed.
    """
    (spectrum,) = _spectra_job([x], fft_size, window, overlap_fraction)()
    return spectrum


def _check_fft_size(fft_size) -> int:
    """fft_size as an int, if it is an even integer >= 2: the segment length
    psd takes and ExperimentConfig and the CLI's --fft-size accept."""
    fft_size = check_integer("fft_size", fft_size, 2)
    if fft_size % 2 != 0:
        raise ParameterError(f"fft_size must be even, got {fft_size}")
    return fft_size


def _check_overlap_fraction(overlap_fraction) -> float:
    """overlap_fraction, if it is a number in [0, MAX_OVERLAP_FRACTION] (so
    not NaN), as psd and the CLI's --segments-overlap accept."""
    if not (
        is_finite_number(overlap_fraction) and 0.0 <= overlap_fraction <= MAX_OVERLAP_FRACTION
    ):
        raise ParameterError(
            f"overlap_fraction must lie in [0, {MAX_OVERLAP_FRACTION}], got {overlap_fraction!r}"
        )
    return overlap_fraction


def _spectra(pair, fft_size: int, window: str, overlap_fraction: float) -> list[Spectrum]:
    """psd of each record of a pair, one _spectra_job per record, run by
    _in_two_threads: a worker thread sums the first record while this
    thread sums the second (np.fft.rfft and the ufuncs release the GIL).
    The periodograms are added in segment order, so each spectrum is psd's.
    """
    jobs = [_spectra_job([x], fft_size, window, overlap_fraction) for x in pair]
    return [spectrum for spectra in _in_two_threads(*jobs) for spectrum in spectra]


def _spectra_job(records, fft_size: int, window: str, overlap_fraction: float):
    """A job that returns psd of each record, for a thread that sums them in
    turn: one of the two jobs of _in_two_threads, or psd's own.

    The records and the analysis are checked here, as psd checks them. The
    job's one _SegmentSums workspace and the records' scaled windows are
    made here too, on the calling thread: a window first built on a worker
    thread grew that thread's malloc arena, and the benchmark's experiment
    peak RSS read 1.4 MB more (2-core x86-64 VM, glibc 2.36). The job sums
    the records one after another in the workspace, so a list of records
    takes one record's memory. A record is read, each value once, through
    its len, sample_rate_hz and _read(start, out), which writes its values
    start .. start + out.size - 1 into out.
    """
    fft_size, step = _check_analysis(records, fft_size, window, overlap_fraction)
    sums = _SegmentSums(fft_size, step)
    wins = [_scaled_window(window, fft_size, x.sample_rate_hz) for x in records]

    def job() -> list[Spectrum]:
        spectra = []
        for x, win in zip(records, wins):
            total = np.empty(fft_size // 2 + 1)
            count = (len(x) - fft_size) // step + 1
            sums.sum_segments(x, win, count, total)
            spectra.append(_mean_spectrum(total, count, fft_size, x.sample_rate_hz))
        return spectra

    return job


def _check_analysis(records, fft_size, window, overlap_fraction) -> tuple[int, int]:
    """(fft_size, step) of psd's analysis of records, where step is the hop
    between segments, if each record is one psd reads and the analysis
    suits them."""
    for x in records:
        if not isinstance(x, (SampledSignal, BitStream, _NoiseDraw)):
            raise ParameterError(f"expected SampledSignal or BitStream, got {type(x).__name__}")
    fft_size = _check_fft_size(fft_size)
    for x in records:
        if fft_size > len(x):
            raise InsufficientDataError(f"fft_size {fft_size} exceeds record length {len(x)}")
    if window not in _WINDOWS:
        raise ParameterError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")
    _check_overlap_fraction(overlap_fraction)
    step = fft_size - int(round(fft_size * overlap_fraction))
    if step < 1:
        raise ParameterError(
            f"overlap_fraction {overlap_fraction} leaves no hop between {fft_size}-sample segments"
        )
    return fft_size, step


def _mean_spectrum(
    total: np.ndarray, count: int, fft_size: int, sample_rate_hz: float
) -> Spectrum:
    """The spectrum of count segments whose periodograms sum to total,
    which is scaled in place."""
    # Doubling is exact, so doubling the sum equals summing doubled
    # periodograms; the mean then divides by the count.
    total[1:-1] *= 2
    total /= count
    return Spectrum(total, fft_size, count, sample_rate_hz)


def _in_two_threads(worker_job, caller_job):
    """Run worker_job on a new thread while this thread runs caller_job,
    and return their results, the worker's first. The caller builds both
    jobs, and so allocates their buffers, on this thread before the call:
    a worker's own allocations would come from a separate malloc arena.
    The worker's exception is re-raised here after both jobs have
    finished."""
    outcome = {}

    def run():
        try:
            outcome["result"] = worker_job()
        except BaseException as exc:  # re-raised by the calling thread
            outcome["failure"] = exc

    worker = threading.Thread(target=run, name="nfbist-worker")
    worker.start()
    try:
        result = caller_job()
    finally:
        worker.join()
    if "failure" in outcome:
        raise outcome["failure"]
    return outcome["result"], result


class _SegmentSums:
    """Buffers for transforming a record's segments and adding their
    periodograms into a running sum, one segment after another, reused for
    record after record.

    Segment i is the record's values i * step .. i * step + fft_size - 1.
    A block of rows segments, as many as fit _PSD_BLOCK_BYTES beside the
    kept overlap, is transformed at a time. The frame holds a block's
    values: the fft_size - step that its first segment shares with the
    previous block's last, kept from that block, then those read for it
    through _read, front to back, each value once, as a streamed record is
    read. This is the one place that keeps the overlap.
    """

    def __init__(self, fft_size, step):
        n_freq = fft_size // 2 + 1
        self.fft_size = fft_size
        self.step = step
        self.kept = fft_size - step
        self.rows = rows = max(1, (_PSD_BLOCK_BYTES // 8 - self.kept) // fft_size)
        # The windowed block; once transformed, its memory holds the running
        # sum and the powers (see sum_segments).
        self.windowed = np.empty(max(rows * fft_size, (rows + 1) * n_freq))
        # The transform, after the kept values from a whole complex on. With
        # overlap the frame is this memory, which the block's values leave
        # once windowed. Without, the segments lie end to end and the frame
        # is the windowed buffer, windowed in place: a pass over memory less.
        spectra = self.kept + self.kept % 2
        memory = np.empty(spectra + 2 * rows * n_freq)
        self.spectra = memory[spectra:].view(np.complex128)
        self.frame = memory if self.kept else self.windowed

    def sum_segments(self, record, win: np.ndarray, n: int, out: np.ndarray):
        """out = the sum of the periodograms of record's segments 0 .. n - 1,
        each windowed by win, added one by one in segment order. Values, or
        squares, that are not finite give a sum that is not, which Spectrum
        refuses, and no numpy warning."""
        fft_size, step, kept, frame = self.fft_size, self.step, self.kept, self.frame
        n_freq, size, read = out.size, frame.itemsize, record._read
        out.fill(0.0)
        read(0, frame[:kept])
        with np.errstate(all="ignore"):
            np.setbufsize(_UFUNC_BUFFER_ITEMS)
            for first in range(0, n, self.rows):
                count = min(self.rows, n - first)
                hop = count * step
                read(first * step + kept, frame[kept : kept + hop])
                # The segments as rows of a strided view of the frame. Built
                # directly: sliding_window_view, called once per block, left
                # a 0.9 MiB allocation alive after a few hundred analyses.
                segments = np.ndarray((count, fft_size), frame.dtype, frame, 0, (step * size, size))
                windowed = self.windowed[: count * fft_size].reshape(count, fft_size)
                # A copy (of nothing if the frame is the windowed buffer), then
                # windowing in place: faster than a product out of the frame.
                np.copyto(windowed, segments)
                windowed *= win
                # The values the next block's first segment shares with this
                # block's last, before the transform takes their place.
                frame[:kept] = frame[hop : hop + kept]
                spectra = self.spectra[: count * n_freq].reshape(count, n_freq)
                np.fft.rfft(windowed, out=spectra)
                parts = spectra.view(np.float64)
                np.square(parts, out=parts)
                # Row 0 carries the sum so far and rows 1 .. count the powers.
                # A sum over the slow axis of a C-ordered array adds each row
                # to the result in turn, so the block continues the running sum.
                block = self.windowed[: (count + 1) * n_freq].reshape(count + 1, n_freq)
                np.add(parts[:, 0::2], parts[:, 1::2], out=block[1:])
                block[0] = out
                np.add.reduce(block, axis=0, out=out)


@functools.lru_cache(maxsize=4)
def _scaled_window(window: str, fft_size: int, sample_rate_hz: float) -> np.ndarray:
    """Read-only analysis window scaled to a density, as welch scales it."""
    if window == "hann":
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1)[:-1])
    else:
        win = np.ones(fft_size)
    # Builtin sum adds the squares one by one, as welch does.
    win = win * (1 / np.sqrt(sum(win**2) / (1 / sample_rate_hz)))
    win.setflags(write=False)
    return win


def _peak_search_bins(f_ref_hz: float, fft_size: int, sample_rate_hz: float) -> tuple[int, int]:
    """First and last bin that find_reference_peak searches for a reference
    at f_ref_hz on the fft_size-point grid at sample_rate_hz: the
    _PEAK_SEARCH_HALFWIDTH_BINS bins either side of the bin nearest f_ref_hz.
    Raises ParameterError, naming f_ref_hz, if a bin lies off the spectrum."""
    center = int(round(f_ref_hz / (sample_rate_hz / fft_size)))
    lo, hi = center - _PEAK_SEARCH_HALFWIDTH_BINS, center + _PEAK_SEARCH_HALFWIDTH_BINS
    if lo < 0 or hi > fft_size // 2:
        raise ParameterError(
            f"f_ref_hz {f_ref_hz} puts the reference peak search on bins [{lo}, {hi}], "
            f"outside the {fft_size}-point spectrum's bins 0..{fft_size // 2}"
        )
    return lo, hi


def find_reference_peak(s: Spectrum, f_ref_hz: float) -> tuple[int, float]:
    """Locate the injected reference peak near f_ref_hz.

    The peak bin is the strongest bin within +-5 bins of the bin nearest
    f_ref_hz; the returned power integrates that bin plus one guard bin each
    side, which keeps the estimate stable when the reference does not land
    exactly on a bin center and leaks into its neighbours.
    """
    if not (is_finite_number(f_ref_hz) and 0.0 <= f_ref_hz <= s.nyquist_hz):
        raise ParameterError(
            f"f_ref_hz must lie in [0, {s.nyquist_hz}], got {f_ref_hz!r}"
        )
    lo, hi = _peak_search_bins(f_ref_hz, s.fft_size, s.sample_rate_hz)
    best_bin = lo + int(np.argmax(s.psd[lo : hi + 1]))
    g_lo = max(best_bin - 1, 0)
    g_hi = min(best_bin + 1, s.psd.size - 1)
    peak_power = float(s.psd[g_lo : g_hi + 1].sum() * s.bin_width_hz)
    return best_bin, peak_power


def _check_band(band, nyquist_hz: float) -> tuple[float, float]:
    """band as a pair of floats, if it is two finite numbers f_lo, f_hi with
    0 <= f_lo < f_hi <= nyquist_hz: the measurement band that
    ExperimentConfig and power_ratio_detail take."""
    if not isinstance(band, Iterable):
        raise ParameterError(f"band must be an (f_lo, f_hi) pair, got {band!r}")
    band = tuple(band)
    for edge in band:
        check_non_negative("band edge", edge)
    band = tuple(float(f) for f in band)
    if len(band) != 2 or not band[0] < band[1] <= nyquist_hz:
        raise ParameterError(f"band must satisfy 0 <= f_lo < f_hi <= {nyquist_hz}, got {band!r}")
    return band


def _band_mask(s: Spectrum, f_lo_hz: float, f_hi_hz: float) -> np.ndarray:
    """Bins whose center lies in [f_lo, f_hi]."""
    if not (
        is_finite_number(f_lo_hz)
        and is_finite_number(f_hi_hz)
        and 0.0 <= f_lo_hz < f_hi_hz <= s.nyquist_hz
    ):
        raise ParameterError(
            f"band must satisfy 0 <= f_lo < f_hi <= {s.nyquist_hz}, got [{f_lo_hz!r}, {f_hi_hz!r}]"
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
    f_lo, f_hi = _check_band(band, hot.nyquist_hz)
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
    mask = _band_mask(hot, f_lo, f_hi)
    for b in {bin_hot, bin_cold}:
        mask[max(b - half, 0) : b + half + 1] = False
    if not mask.any():
        raise DegenerateBandError(
            f"no bins remain in [{f_lo}, {f_hi}] Hz after excluding "
            f"+-{half} bins around the reference peak"
        )
    bp_hot = float((hot.psd[mask] * (1.0 / peak_hot)).sum() * hot.bin_width_hz)
    bp_cold = float((cold.psd[mask] * (1.0 / peak_cold)).sum() * cold.bin_width_hz)
    if bp_cold == 0.0:
        raise DegenerateBandError(
            f"the cold spectrum carries no normalized power in [{f_lo}, {f_hi}] Hz"
        )
    return PowerRatioResult(
        y=bp_hot / bp_cold,
        peak_bin_hot=bin_hot,
        peak_bin_cold=bin_cold,
        peak_power_hot=peak_hot,
        peak_power_cold=peak_cold,
        band_power_hot=bp_hot,
        band_power_cold=bp_cold,
    )
