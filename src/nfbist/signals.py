"""Signal and noise-source models.

Noise powers follow a temperature-proportional convention: a source in a
given state produces zero-mean white Gaussian samples whose variance is
``power_scale * temperature``. Boltzmann's constant enters only the op-amp
noise-figure formula in :mod:`nfbist.dut`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, check_integer, check_positive
from .nfcore import T0_K

__all__ = [
    "SampledSignal",
    "NoiseSourceSpec",
    "gaussian_noise",
    "square_wave",
    "source_output",
]


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ParameterError(f"samples must be real, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
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
    """White Gaussian noise with standard deviation ``sigma``.

    The same ``(n, sigma, seed)`` always reproduces the same samples.
    ``seed`` may also be a ``numpy.random.Generator``, whose stream the draw
    continues: consecutive draws from one generator concatenate to a single
    draw of their total length, bit for bit.
    """
    n = check_integer("n", n, 1)
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma!r}")
    # normal(0, 1) rather than standard_normal: 0.0 + 1.0 * z maps -0.0 to
    # +0.0, and the seeded samples must stay the same.
    samples = np.random.default_rng(seed).normal(0.0, 1.0, n)
    samples *= sigma
    return SampledSignal(sample_rate_hz, samples)


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
    n = check_integer("n", n, 1)
    check_positive("sample_rate_hz", sample_rate_hz)
    if not (0.0 < f0_hz < sample_rate_hz / 2.0):
        raise ParameterError(
            f"f0_hz must lie in (0, sample_rate/2) = (0, {sample_rate_hz / 2.0}), got {f0_hz}"
        )
    for name, value in (("amplitude", amplitude), ("phase_rad", phase_rad)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    mask = _first_half_mask(n, sample_rate_hz, f0_hz, phase_rad)
    return SampledSignal(sample_rate_hz, np.where(mask, amplitude, -amplitude))


@functools.lru_cache(maxsize=1)
def _first_half_mask(n: int, sample_rate_hz: float, f0_hz: float, phase_rad: float) -> np.ndarray:
    """Read-only mask of the samples in the first half of their period.

    The pattern does not depend on the amplitude, so a sweep that only
    rescales the reference computes it once. The steps round exactly as
    f0 * (arange(n) / fs) + phase / 2pi, and cycle - floor(cycle) equals
    np.mod(cycle, 1.0) bit for bit (exact for cycle >= 0, one rounding of
    the same value below 0).
    """
    cycle = np.arange(n, dtype=np.float64)
    cycle /= sample_rate_hz
    cycle *= f0_hz
    cycle += phase_rad / (2.0 * math.pi)
    cycle -= np.floor(cycle)
    mask = cycle < 0.5
    mask.setflags(write=False)
    return mask


def source_output(
    src: NoiseSourceSpec,
    state: str,
    n: int,
    sample_rate_hz: float,
    seed: int | np.random.Generator,
) -> SampledSignal:
    """Noise record for one source state, variance power_scale * T(state).

    ``seed`` may be a ``numpy.random.Generator``, whose stream the draw
    continues (see gaussian_noise), so a record can be drawn in chunks.
    """
    t_state = src.state_temperature_k(state)
    sigma = math.sqrt(src.power_scale * t_state)
    return gaussian_noise(n, sigma, seed, sample_rate_hz=sample_rate_hz)
