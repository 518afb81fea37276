"""Device-under-test models: gain plus added noise, and op-amp noise data.

``DutSpec.gain_linear`` is a linear power gain, so amplitudes scale by its
square root. ``added_noise_power`` is output-referred and lives in the same
temperature-proportional units as the source variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_non_negative, check_positive
from .nfcore import BOLTZMANN_J_PER_K, T0_K, f_to_nf, nf_to_f
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
        check_non_negative("added_noise_power", self.added_noise_power)


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
    temperature_k: float = T0_K

    def __post_init__(self):
        for name in ("en_v_per_rthz", "in_a_per_rthz", "rs_ohm", "req_ohm"):
            check_non_negative(name, getattr(self, name))
        check_positive("temperature_k", self.temperature_k)


def apply_dut(
    dut: DutSpec, signal: SampledSignal, seed: int | np.random.Generator
) -> SampledSignal:
    """Amplify a signal and add the DUT's own noise.

    output = sqrt(gain_linear) * input + n, where n is fresh white Gaussian
    noise of power ``added_noise_power`` (output-referred). With zero added
    noise and unit gain the input passes through unchanged, and nothing is
    drawn. ``seed`` may be a ``numpy.random.Generator``, whose stream the
    noise draw continues, so a record can be passed through in chunks.
    """
    amplified = math.sqrt(dut.gain_linear) * signal.samples
    if dut.added_noise_power == 0.0:
        return SampledSignal(signal.sample_rate_hz, amplified)
    # In place, with the rounding of sqrt(g) * x + normal(0, 1) * sqrt(na).
    noise = np.random.default_rng(seed).normal(0.0, 1.0, signal.samples.size)
    noise *= math.sqrt(dut.added_noise_power)
    amplified += noise
    return SampledSignal(signal.sample_rate_hz, amplified)


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
    return f_to_nf(numerator / (four_kt * model.rs_ohm))
