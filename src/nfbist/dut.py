"""Device-under-test model: gain plus added noise.

``DutSpec.gain_linear`` is a linear power gain, so amplitudes scale by its
square root. ``added_noise_power`` is output-referred and lives in the same
temperature-proportional units as the source variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_non_negative, check_positive
from .nfcore import T0_K, nf_to_f
from .signals import _CHUNK_SAMPLES, SampledSignal, _NoiseDraw, _generator

__all__ = [
    "DutSpec",
    "apply_dut",
    "dut_from_nf",
    "nominal_f",
]


@dataclass(frozen=True)
class DutSpec:
    """Linear noisy two-port: power gain and output-referred added noise."""

    gain_linear: float
    added_noise_power: float

    def __post_init__(self):
        check_positive("gain_linear", self.gain_linear)
        check_non_negative("added_noise_power", self.added_noise_power)


def apply_dut(
    dut: DutSpec, signal: SampledSignal, seed: int | np.random.Generator
) -> SampledSignal:
    """Amplify a signal and add the DUT's own noise.

    output = sqrt(gain_linear) * input + n, where n is fresh white Gaussian
    noise of power ``added_noise_power`` (output-referred). With zero added
    noise and unit gain the input passes through unchanged, and nothing is
    drawn, though ``seed`` is still checked. ``seed`` is an integer >= 0 or
    a ``numpy.random.Generator``, whose stream the noise draw continues, so
    a record can be passed through in chunks.
    """
    rng = _generator(seed)
    amplified = math.sqrt(dut.gain_linear) * signal.samples
    if dut.added_noise_power == 0.0:
        return SampledSignal._adopt(signal.sample_rate_hz, amplified)
    n = amplified.size
    noise = _NoiseDraw(n, math.sqrt(dut.added_noise_power), rng, signal.sample_rate_hz)
    chunk = np.empty(min(n, _CHUNK_SAMPLES))
    for start in range(0, n, _CHUNK_SAMPLES):
        drawn = chunk[: min(_CHUNK_SAMPLES, n - start)]
        noise._read(start, drawn)
        amplified[start : start + drawn.size] += drawn
    return SampledSignal._adopt(signal.sample_rate_hz, amplified)


def dut_from_nf(
    nf_db: float,
    gain_linear: float,
    t0_k: float = T0_K,
    power_scale: float = 1.0,
) -> DutSpec:
    """Build a DUT whose nominal noise figure is ``nf_db``.

    Inverts F = (Na + N0*G) / (N0*G) with N0 = power_scale * t0_k, giving
    Na = (F - 1) * power_scale * t0_k * gain_linear.
    """
    check_non_negative("nf_db", nf_db)
    check_positive("gain_linear", gain_linear)
    check_positive("t0_k", t0_k)
    check_positive("power_scale", power_scale)
    f = nf_to_f(nf_db)
    na = (f - 1.0) * power_scale * t0_k * gain_linear
    return DutSpec(gain_linear=gain_linear, added_noise_power=na)


def nominal_f(dut: DutSpec, t0_k: float = T0_K, power_scale: float = 1.0) -> float:
    """Noise factor implied by the DUT parameters at reference temperature."""
    check_positive("t0_k", t0_k)
    check_positive("power_scale", power_scale)
    n0_out = power_scale * t0_k * dut.gain_linear
    return (dut.added_noise_power + n0_out) / n0_out
