"""Device-under-test models: gain plus added noise, and op-amp noise data.

``DutSpec.gain_linear`` is a linear power gain, so amplitudes scale by its
square root. ``added_noise_power`` is output-referred and lives in the same
temperature-proportional units as the source variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_positive
from .nfcore import BOLTZMANN_J_PER_K
from .signals import SampledSignal

__all__ = [
    "DutSpec",
    "OpampNoiseModel",
    "apply_dut",
    "dut_from_nf",
    "nominal_f",
    "opamp_noise_figure",
]


@dataclass(frozen=True)
class DutSpec:
    """Linear noisy two-port: power gain and output-referred added noise."""

    gain_linear: float
    added_noise_power: float

    def __post_init__(self):
        check_positive("gain_linear", self.gain_linear)
        if not (math.isfinite(self.added_noise_power) and self.added_noise_power >= 0.0):
            raise ParameterError(
                f"added_noise_power must be finite and >= 0, got {self.added_noise_power!r}"
            )


@dataclass(frozen=True)
class OpampNoiseModel:
    """Datasheet noise figures of merit for an op-amp input stage.

    en: input voltage noise density (V/sqrt(Hz))
    in_: input current noise density (A/sqrt(Hz))
    rs: source resistance (ohm), req: equivalent input resistance (ohm)
    """

    en_v_per_rthz: float
    in_a_per_rthz: float
    rs_ohm: float
    req_ohm: float = 0.0
    temperature_k: float = 290.0

    def __post_init__(self):
        if self.en_v_per_rthz < 0.0 or self.in_a_per_rthz < 0.0:
            raise ParameterError("noise densities must be >= 0")
        if self.rs_ohm < 0.0 or self.req_ohm < 0.0:
            raise ParameterError("resistances must be >= 0")
        if self.temperature_k <= 0.0:
            raise ParameterError(f"temperature_k must be positive, got {self.temperature_k}")


def apply_dut(dut: DutSpec, signal: SampledSignal, seed: int) -> SampledSignal:
    """Amplify a signal and add the DUT's own noise.

    output = sqrt(gain_linear) * input + n, where n is fresh white Gaussian
    noise of power ``added_noise_power`` (output-referred). With zero added
    noise and unit gain the input passes through unchanged.
    """
    amplified = math.sqrt(dut.gain_linear) * signal.samples
    if dut.added_noise_power == 0.0:
        return SampledSignal(signal.sample_rate_hz, amplified)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, signal.samples.size) * math.sqrt(dut.added_noise_power)
    return SampledSignal(signal.sample_rate_hz, amplified + noise)


def dut_from_nf(
    nf_db: float,
    gain_linear: float,
    t0_k: float = 290.0,
    power_scale: float = 1.0,
) -> DutSpec:
    """Build a DUT whose nominal noise figure is ``nf_db``.

    Inverts F = (Na + N0*G) / (N0*G) with N0 = power_scale * t0_k, giving
    Na = (F - 1) * power_scale * t0_k * gain_linear.
    """
    if nf_db < 0.0:
        raise ParameterError(f"nf_db must be >= 0, got {nf_db}")
    if t0_k <= 0.0 or power_scale <= 0.0:
        raise ParameterError("t0_k and power_scale must be positive")
    f = 10.0 ** (nf_db / 10.0)
    na = (f - 1.0) * power_scale * t0_k * gain_linear
    return DutSpec(gain_linear=gain_linear, added_noise_power=na)


def nominal_f(dut: DutSpec, t0_k: float = 290.0, power_scale: float = 1.0) -> float:
    """Noise factor implied by the DUT parameters at reference temperature."""
    if t0_k <= 0.0 or power_scale <= 0.0:
        raise ParameterError("t0_k and power_scale must be positive")
    n0_out = power_scale * t0_k * dut.gain_linear
    return (dut.added_noise_power + n0_out) / n0_out


def opamp_noise_figure(model: OpampNoiseModel) -> float:
    """Spot noise figure (dB) of an op-amp stage from datasheet densities.

    NF = 10 log10( (4kT rs + en^2 + (in rs)^2 + 4kT req) / (4kT rs) )
    """
    if model.rs_ohm == 0.0:
        raise ParameterError("rs_ohm must be positive: NF is undefined for a 0-ohm source")
    four_kt = 4.0 * BOLTZMANN_J_PER_K * model.temperature_k
    numerator = (
        four_kt * model.rs_ohm
        + model.en_v_per_rthz**2
        + (model.in_a_per_rthz * model.rs_ohm) ** 2
        + four_kt * model.req_ohm
    )
    return 10.0 * math.log10(numerator / (four_kt * model.rs_ohm))
