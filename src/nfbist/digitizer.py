"""One-bit comparator digitizer and bitstream statistics.

The comparator keeps only the sign of (input - reference), so any common
positive scaling of both inputs leaves the bitstream unchanged. For a
zero-mean jointly Gaussian process at the comparator, bit autocorrelation
relates to the analog one by the arcsine law r_bits = (2/pi) asin(rho).

Every bitstream, whether the comparator, digitize or read_capture makes it
or a caller builds it from a +1/-1 array, holds its decisions packed 8 per
byte, LSB first, bit value 1 for +1, with the unused bits of the last byte
zero, as NFB1 captures store them: n/8 bytes, which the spectra and the
capture writer read as they are. The +1/-1 int8 values exist only while a
caller holds what .bits returned.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ShapeError, check_integer, check_positive
from .signals import SampledSignal, _as_f64, _packed

__all__ = [
    "BitStream",
    "digitize",
    "arcsine_map",
    "empirical_autocorr",
]


class BitStream:
    """A sequence of comparator decisions, each +1 or -1, held packed as
    the module docstring says.

    BitStream(rate, bits) checks a +1/-1 array block by block and packs it
    into a payload of its own, so the stream holds ceil(n / 8) bytes and
    a later write to the caller's array cannot change it. .bits unpacks
    the payload afresh on every read and keeps nothing.
    """

    __slots__ = ("sample_rate_hz", "_n", "_packed")

    def __init__(self, sample_rate_hz: float, bits):
        rate = float(sample_rate_hz)
        check_positive("sample_rate_hz", rate)
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ShapeError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ParameterError("bitstream must contain at least one bit")
        if arr.dtype == np.bool_:
            raise ParameterError("bits must be +1/-1 numbers, got a bool array")

        def decide(start, stop):
            # Check the values as given: a cast first would wrap 257 to 1
            # and truncate 1.5 to 1.
            block = arr[start:stop]
            if not np.all((block == 1) | (block == -1)):
                raise ParameterError("bits must only contain +1 and -1")
            return block > 0

        self._init(rate, arr.size, _packed(arr.size, decide))

    @classmethod
    def _from_packed(cls, sample_rate_hz: float, payload: np.ndarray, n: int) -> BitStream:
        """A stream of n bits over a payload that is already valid: uint8,
        ceil(n / 8) bytes, laid out as the module docstring says. Wraps it
        read-only, without a copy or a check."""
        payload.setflags(write=False)
        stream = cls.__new__(cls)
        stream._init(float(sample_rate_hz), n, payload)
        return stream

    def _init(self, rate, n, packed):
        for name, value in zip(self.__slots__, (rate, n, packed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"BitStream is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"BitStream(sample_rate_hz={self.sample_rate_hz!r}, n={self._n})"

    def __len__(self) -> int:
        return self._n

    @property
    def bits(self) -> np.ndarray:
        """The decisions as a read-only +1/-1 int8 array, unpacked afresh
        on every read."""
        bits = self._unpacked(0, self._n)
        bits.setflags(write=False)
        return bits

    def mean(self) -> float:
        """Mean decision: (2 * ones - n) / n, with the ones counted in the
        payload, whose padding bits are zero. Both sums are exact integers,
        so this equals the mean of .bits."""
        ones = int(np.bitwise_count(self._packed).sum(dtype=np.int64))
        return (2 * ones - self._n) / self._n

    def _read(self, start: int, out: np.ndarray):
        """Writes decisions start .. start + out.size - 1 into out as +1/-1."""
        np.copyto(out, self._unpacked(start, start + out.size))

    def _unpacked(self, start: int, stop: int) -> np.ndarray:
        """Decisions start .. stop - 1 as +1/-1 int8, unpacked from their bytes afresh."""
        first = start // 8
        bits = np.unpackbits(
            self._packed[first : -(-stop // 8)], count=stop - 8 * first, bitorder="little"
        ).view(np.int8)
        bits *= 2
        bits -= 1
        return bits[start - 8 * first :]


def digitize(signal: SampledSignal, reference: SampledSignal) -> BitStream:
    """Compare a signal against a reference waveform, sample by sample.

    bit = +1 where signal - reference >= 0, else -1 (ties count as +1).
    """
    for name, x in (("signal", signal), ("reference", reference)):
        if not isinstance(x, SampledSignal):
            raise ParameterError(f"{name} must be a SampledSignal, got {type(x).__name__}")
    if signal.sample_rate_hz != reference.sample_rate_hz:
        raise ShapeError(
            f"sample rates differ: {signal.sample_rate_hz} vs {reference.sample_rate_hz}"
        )
    if len(signal) != len(reference):
        raise ShapeError(f"lengths differ: {len(signal)} vs {len(reference)}")
    x, r = signal.samples, reference.samples
    payload = _packed(x.size, lambda start, stop: x[start:stop] - r[start:stop] >= 0.0)
    return BitStream._from_packed(signal.sample_rate_hz, payload, x.size)


def arcsine_map(rho):
    """Arcsine law for hard-limited Gaussian processes: (2/pi) asin(rho).

    Accepts a scalar or an array of normalized correlations in [-1, 1].
    """
    arr = _as_f64(rho, "rho")
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
        values = _as_f64(x, "x")
        if values.ndim != 1:
            raise ShapeError(f"input must be one-dimensional, got shape {values.shape}")
    n = values.size
    max_lag = check_integer("max_lag", max_lag, 0)
    if max_lag >= n:
        raise ParameterError(f"max_lag must be < n = {n}, got {max_lag}")
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        denom = float(np.dot(values, values))
    if not math.isfinite(denom):
        raise ParameterError("autocorrelation needs samples whose squares sum to a finite number")
    if denom == 0.0:
        raise ParameterError("autocorrelation is undefined for an all-zero input")
    r = np.empty(max_lag + 1, dtype=np.float64)
    r[0] = 1.0
    for lag in range(1, max_lag + 1):
        r[lag] = float(np.dot(values[:-lag], values[lag:])) / denom
    return r
