"""One-bit comparator digitizer and bitstream statistics.

The comparator keeps only the sign of (input - reference), so any common
positive scaling of both inputs leaves the bitstream unchanged. For a
zero-mean jointly Gaussian process at the comparator, bit autocorrelation
relates to the analog one by the arcsine law r_bits = (2/pi) asin(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, check_integer, check_positive
from .signals import SampledSignal

__all__ = [
    "BitStream",
    "digitize",
    "arcsine_map",
    "empirical_autocorr",
]


@dataclass(frozen=True, eq=False)
class BitStream:
    """A sequence of comparator decisions stored as +1 / -1 int8 values."""

    sample_rate_hz: float
    bits: np.ndarray

    def __post_init__(self):
        rate = float(self.sample_rate_hz)
        check_positive("sample_rate_hz", rate)
        arr = np.asarray(self.bits)
        if arr.ndim != 1:
            raise ShapeError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ParameterError("bitstream must contain at least one bit")
        # Validate the values as given: a cast first would wrap 257 to 1 and
        # truncate 1.5 to 1.
        if not np.all((arr == 1) | (arr == -1)):
            raise ParameterError("bits must only contain +1 and -1")
        arr = np.ascontiguousarray(arr, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "sample_rate_hz", rate)
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return self.bits.size

    def mean(self) -> float:
        return float(self.bits.mean())


def digitize(signal: SampledSignal, reference: SampledSignal) -> BitStream:
    """Compare a signal against a reference waveform, sample by sample.

    bit = +1 where signal - reference >= 0, else -1 (ties count as +1).
    """
    if signal.sample_rate_hz != reference.sample_rate_hz:
        raise ShapeError(
            f"sample rates differ: {signal.sample_rate_hz} vs {reference.sample_rate_hz}"
        )
    if len(signal) != len(reference):
        raise ShapeError(f"lengths differ: {len(signal)} vs {len(reference)}")
    # The int8 view of the boolean decisions is 0/1; map it to -1/+1 in place.
    bits = (signal.samples - reference.samples >= 0.0).view(np.int8) * np.int8(2)
    bits -= 1
    return BitStream(signal.sample_rate_hz, bits)


def arcsine_map(rho):
    """Arcsine law for hard-limited Gaussian processes: (2/pi) asin(rho).

    Accepts a scalar or an array of normalized correlations in [-1, 1].
    """
    arr = np.asarray(rho, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0):
        raise ParameterError("normalized correlation must lie in [-1, 1]")
    mapped = (2.0 / math.pi) * np.arcsin(arr)
    if np.isscalar(rho) or arr.ndim == 0:
        return float(mapped)
    return mapped


def empirical_autocorr(x, max_lag: int) -> np.ndarray:
    """Biased normalized autocorrelation r(0..max_lag), with r(0) = 1.

    r(tau) = sum_i x_i x_{i+tau} / sum_i x_i^2. Accepts a SampledSignal,
    a BitStream, or a plain array.
    """
    if isinstance(x, BitStream):
        values = x.bits.astype(np.float64)
    elif isinstance(x, SampledSignal):
        values = x.samples
    else:
        values = np.asarray(x, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"input must be one-dimensional, got shape {values.shape}")
    n = values.size
    max_lag = check_integer("max_lag", max_lag, 0)
    if max_lag >= n:
        raise ParameterError(f"max_lag must be < n = {n}, got {max_lag}")
    denom = float(np.dot(values, values))
    if denom == 0.0:
        raise ParameterError("autocorrelation is undefined for an all-zero input")
    r = np.empty(max_lag + 1, dtype=np.float64)
    r[0] = 1.0
    for lag in range(1, max_lag + 1):
        r[lag] = float(np.dot(values[:-lag], values[lag:])) / denom
    return r
