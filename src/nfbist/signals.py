"""Signal and noise-source models.

Noise powers follow a temperature-proportional convention: a source in a
given state produces zero-mean white Gaussian samples whose variance is
``power_scale * temperature``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    ShapeError,
    check_integer,
    check_non_negative,
    check_positive,
    is_finite_number,
)
from .nfcore import T0_K

__all__ = [
    "SampledSignal",
    "NoiseSourceSpec",
    "gaussian_noise",
    "square_wave",
    "source_output",
]

# The package's one block budget, in samples: 512 KiB of float64 per block
# of packed decisions, per simulation chunk and per spectrum job's block of
# segments, and a multiple of 8, so each packed block starts on a byte.
_CHUNK_SAMPLES = 1 << 16


def _as_f64(values, name: str, finite: bool = True) -> np.ndarray:
    """values as a float64 array, without a copy if they are one. Complex
    values, whose imaginary parts the cast would drop, bools and values that
    do not cast raise ParameterError, as do NaN and inf. With finite False,
    NaN and inf pass where the caller gives them as floats, but not where
    the cast makes them, as it makes NaN of None. A ragged nesting of
    sequences, which makes no array, raises ParameterError too."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ParameterError(f"{name} must be real numbers, got a ragged sequence") from None
    if np.iscomplexobj(arr) or arr.dtype == np.bool_:
        raise ParameterError(f"{name} must be real numbers, got dtype {arr.dtype}")
    try:
        cast = np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be real numbers, got dtype {arr.dtype}") from None
    if (finite or arr.dtype.kind != "f") and not np.isfinite(cast).all():
        raise ParameterError(f"{name} must be finite real numbers, got dtype {arr.dtype}")
    return cast


def _as_readonly_f64(values) -> np.ndarray:
    # digitize is defined on NaN and inf samples too.
    arr = _as_f64(values, "samples", finite=False)
    if arr.ndim != 1:
        raise ShapeError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("signal must contain at least one sample")
    # A copy, so that the caller's array stays writeable and a later write
    # to it or to its base cannot change the signal.
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A uniformly sampled real waveform."""

    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        rate = float(self.sample_rate_hz)
        check_positive("sample_rate_hz", rate)
        object.__setattr__(self, "sample_rate_hz", rate)
        object.__setattr__(self, "samples", _as_readonly_f64(self.samples))

    def __len__(self) -> int:
        return self.samples.size

    @classmethod
    def _adopt(cls, sample_rate_hz: float, samples: np.ndarray) -> SampledSignal:
        """A signal over samples the package has just made, a valid float64
        array that nothing else writes: made read-only and held without a
        copy or a check."""
        samples.setflags(write=False)
        signal = cls.__new__(cls)
        object.__setattr__(signal, "sample_rate_hz", float(sample_rate_hz))
        object.__setattr__(signal, "samples", samples)
        return signal

    def _read(self, start: int, out: np.ndarray):
        """Writes samples start .. start + out.size - 1 into out."""
        out[:] = self.samples[start : start + out.size]


@dataclass(frozen=True)
class NoiseSourceSpec:
    """Two-state (hot/cold) thermal noise source.

    ``power_scale`` converts kelvin to sample variance; with the default of 1
    a 290 K state has variance 290 in signal units.
    """

    t_hot_k: float
    t_cold_k: float
    t0_k: float = T0_K
    power_scale: float = 1.0

    def __post_init__(self):
        for name in ("t_hot_k", "t_cold_k", "t0_k", "power_scale"):
            check_positive(name, getattr(self, name))
        if not self.t_hot_k > self.t_cold_k:
            raise ParameterError(
                f"need t_hot_k > t_cold_k, got t_hot_k={self.t_hot_k}, t_cold_k={self.t_cold_k}"
            )

    def state_temperature_k(self, state: str) -> float:
        if state == "hot":
            return self.t_hot_k
        if state == "cold":
            return self.t_cold_k
        raise ParameterError(f"state must be 'hot' or 'cold', got {state!r}")


def gaussian_noise(
    n: int, sigma: float, seed: int | np.random.Generator, sample_rate_hz: float = 1.0
) -> SampledSignal:
    """White Gaussian noise with standard deviation ``sigma``: a _NoiseDraw
    read whole.

    The same ``(n, sigma, seed)`` always reproduces the same samples.
    ``seed`` is an integer >= 0 or a ``numpy.random.Generator``, whose
    stream the draw continues: consecutive draws from one generator
    concatenate to a single draw of their total length, bit for bit.
    """
    record = _NoiseDraw(n, sigma, seed, sample_rate_hz)
    samples = np.empty(len(record))
    record._read(0, samples)
    return SampledSignal._adopt(record.sample_rate_hz, samples)


class _NoiseDraw:
    """n samples of white Gaussian noise of standard deviation sigma, drawn
    as they are read: the package's one scaled normal draw.

    Offers what psd and the comparator read of a record (len,
    sample_rate_hz, _read) and holds no samples: _read(start, out) draws the
    next out.size samples into the caller's out as rng.normal(0.0, 1.0,
    size) * sigma computes them (normal's 0.0 + 1.0 * z maps -0.0 to +0.0,
    hence the += 0.0), so the reads concatenate to one draw bit for bit. A
    read must start where the last one stopped and end within the record;
    any other raises ParameterError and draws nothing. One thread at a time
    may read it.
    """

    def __init__(
        self, n: int, sigma: float, seed: int | np.random.Generator, sample_rate_hz: float
    ):
        self._n = check_integer("n", n, 1)
        check_non_negative("sigma", sigma)
        self._sigma = sigma
        self.sample_rate_hz = float(sample_rate_hz)
        check_positive("sample_rate_hz", self.sample_rate_hz)
        self._rng = _generator(seed)
        self._drawn = 0

    def __len__(self) -> int:
        return self._n

    def _read(self, start: int, out: np.ndarray):
        """Draws samples start .. start + out.size - 1 into out (C-contiguous float64)."""
        if not (start == self._drawn and start + out.size <= self._n):
            raise ParameterError(
                f"read of samples {start} .. {start + out.size - 1} of {self._n} does not go on "
                f"from sample {self._drawn}; a streamed record is read once, front to back"
            )
        self._rng.standard_normal(out=out)
        out += 0.0
        out *= self._sigma
        self._drawn += out.size


def _generator(seed) -> np.random.Generator:
    """seed itself if it is a numpy.random.Generator, else a new generator
    made from seed, which must be an integer >= 0 (not None or a bool)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_integer("seed", seed, 0))


def square_wave(
    n: int,
    sample_rate_hz: float,
    f0_hz: float,
    amplitude: float,
) -> SampledSignal:
    """Bipolar square wave taking values +amplitude then -amplitude each cycle.

    The wave is +amplitude on the first half of every period, starting at
    t=0, which makes sample values unambiguous even when a sample lands
    exactly on a transition.
    """
    n = check_integer("n", n, 1)
    check_positive("sample_rate_hz", sample_rate_hz)
    if not (is_finite_number(f0_hz) and 0.0 < f0_hz < sample_rate_hz / 2.0):
        raise ParameterError(
            f"f0_hz must lie in (0, sample_rate/2) = (0, {sample_rate_hz / 2.0}), got {f0_hz}"
        )
    if not is_finite_number(amplitude):
        raise ParameterError(f"amplitude must be finite, got {amplitude!r}")
    packed = _first_half_mask(n, sample_rate_hz, f0_hz)
    mask = np.unpackbits(packed, count=n, bitorder="little").view(np.bool_)
    amplitude = float(amplitude)
    return SampledSignal._adopt(sample_rate_hz, np.where(mask, amplitude, -amplitude))


def _packed(n: int, decide) -> np.ndarray:
    """Read-only payload of n decisions in the BitStream layout (see
    digitizer), packed one block at a time: decide(start, stop) gives the
    bools of samples start .. stop - 1 for each _CHUNK_SAMPLES block."""
    payload = np.empty(-(-n // 8), dtype=np.uint8)
    for start in range(0, n, _CHUNK_SAMPLES):
        stop = min(start + _CHUNK_SAMPLES, n)
        payload[start // 8 : -(-stop // 8)] = np.packbits(decide(start, stop), bitorder="little")
    payload.setflags(write=False)
    return payload


@functools.lru_cache(maxsize=1)
def _first_half_mask(n: int, sample_rate_hz: float, f0_hz: float) -> np.ndarray:
    """Read-only packed mask of the samples in the first half of their period.

    Bit i is 1 where sample i lies in the first half, packed by _packed as
    the comparator's decisions are, so the cache holds n/8 bytes. The
    pattern does not depend on the amplitude, so a sweep that only rescales
    the reference, chunk by chunk, computes it once. The blocks share two
    buffers (fresh ones per block doubled the first call's time), made
    after _packed's payload, so that the cached payload lies below them on
    the heap and does not pin their freed space. The steps round exactly as
    f0 * (arange(n) / fs), elementwise, and cycle - floor(cycle) equals
    np.mod(cycle, 1.0) bit for bit (exact, since cycle >= 0).
    """
    whole = first = None

    def decide(start, stop):
        nonlocal whole, first
        if start == 0:
            whole, first = np.empty(stop, dtype=np.float64), np.empty(stop, dtype=np.bool_)
        cycle = np.arange(start, stop, dtype=np.float64)
        cycle /= sample_rate_hz
        cycle *= f0_hz
        cycle -= np.floor(cycle, out=whole[: stop - start])
        return np.less(cycle, 0.5, out=first[: stop - start])

    return _packed(n, decide)


def source_output(
    src: NoiseSourceSpec,
    state: str,
    n: int,
    sample_rate_hz: float,
    seed: int | np.random.Generator,
) -> SampledSignal:
    """Noise record for one source state, variance power_scale * T(state).

    ``seed`` is an integer >= 0 or a ``numpy.random.Generator``, whose
    stream the draw continues (see gaussian_noise), so a record can be
    drawn in chunks.
    """
    t_state = src.state_temperature_k(state)
    sigma = math.sqrt(src.power_scale * t_state)
    return gaussian_noise(n, sigma, seed, sample_rate_hz=sample_rate_hz)
