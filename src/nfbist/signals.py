"""Signal and noise-source models.

Noise powers follow a temperature-proportional convention: a source in a
given state produces zero-mean white Gaussian samples whose variance is
``power_scale * temperature``. Absolute watt-level powers (k*T*B) only enter
the picture in :mod:`nfbist.nfcore`, where the direct method needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, check_positive

__all__ = [
    "SampledSignal",
    "NoiseSourceSpec",
    "gaussian_noise",
    "square_wave",
    "mix",
    "source_output",
]


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("signal must contain at least one sample")
    arr = np.ascontiguousarray(arr)
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

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class NoiseSourceSpec:
    """Two-state (hot/cold) thermal noise source.

    ``power_scale`` converts kelvin to sample variance; with the default of 1
    a 290 K state has variance 290 in signal units.
    """

    t_hot_k: float
    t_cold_k: float
    t0_k: float = 290.0
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


def gaussian_noise(n: int, sigma: float, seed: int, sample_rate_hz: float = 1.0) -> SampledSignal:
    """White Gaussian noise with standard deviation ``sigma``.

    The same ``(n, sigma, seed)`` always reproduces the same samples.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma!r}")
    rng = np.random.default_rng(seed)
    return SampledSignal(sample_rate_hz, rng.normal(0.0, 1.0, int(n)) * sigma)


def square_wave(
    n: int,
    sample_rate_hz: float,
    f0_hz: float,
    amplitude: float,
    phase_rad: float = 0.0,
) -> SampledSignal:
    """Bipolar square wave taking values +amplitude then -amplitude each cycle.

    The wave is +amplitude on the first half of every period (starting at
    t=0 for zero phase), which makes sample values unambiguous even when a
    sample lands exactly on a transition.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    check_positive("sample_rate_hz", sample_rate_hz)
    if not (0.0 < f0_hz < sample_rate_hz / 2.0):
        raise ParameterError(
            f"f0_hz must lie in (0, sample_rate/2) = (0, {sample_rate_hz / 2.0}), got {f0_hz}"
        )
    if not math.isfinite(amplitude):
        raise ParameterError(f"amplitude must be finite, got {amplitude!r}")
    t = np.arange(int(n), dtype=np.float64) / sample_rate_hz
    cycle = f0_hz * t + phase_rad / (2.0 * math.pi)
    # Equal to np.mod(cycle, 1.0) bit for bit (exact for cycle >= 0, one
    # rounding of the same value below 0), and faster.
    cycle_pos = cycle - np.floor(cycle)
    samples = np.where(cycle_pos < 0.5, amplitude, -amplitude)
    return SampledSignal(sample_rate_hz, samples)


def mix(a: SampledSignal, b: SampledSignal) -> SampledSignal:
    """Element-wise sum of two signals on the same time grid."""
    if a.sample_rate_hz != b.sample_rate_hz:
        raise ShapeError(
            f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}"
        )
    if len(a) != len(b):
        raise ShapeError(f"lengths differ: {len(a)} vs {len(b)}")
    return SampledSignal(a.sample_rate_hz, a.samples + b.samples)


def source_output(
    src: NoiseSourceSpec,
    state: str,
    n: int,
    sample_rate_hz: float,
    seed: int,
) -> SampledSignal:
    """Noise record for one source state, variance power_scale * T(state)."""
    t_state = src.state_temperature_k(state)
    sigma = math.sqrt(src.power_scale * t_state)
    return gaussian_noise(n, sigma, seed, sample_rate_hz=sample_rate_hz)
