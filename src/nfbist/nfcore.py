"""Noise-factor and noise-figure algebra.

Conventions: F is the linear noise factor, NF = 10 log10(F) its decibel
form, and Y = N_hot / N_cold the hot/cold power ratio. The reference
temperature defaults to the standard 290 K.
"""

from __future__ import annotations

import math
import warnings

from .errors import NonphysicalResultWarning, ParameterError, SingularYError

__all__ = [
    "BOLTZMANN_J_PER_K",
    "T0_K",
    "snr_db",
    "f_from_snr",
    "f_to_nf",
    "nf_to_f",
    "f_direct",
    "direct_gain_error",
    "y_factor",
    "f_from_y_temps",
    "f_from_y_powers",
    "ideal_y",
    "friis_cascade",
]

BOLTZMANN_J_PER_K = 1.380649e-23
T0_K = 290.0


def _warn_if_nonphysical(f: float, context: str) -> None:
    if f < 1.0:
        msg = f"{context}: noise factor {f:.6g} is below 1 (nonphysical)"
        warnings.warn(msg, NonphysicalResultWarning, stacklevel=3)


def snr_db(signal_power: float, noise_power: float) -> float:
    """Signal-to-noise ratio in dB from two positive powers."""
    if signal_power <= 0.0 or noise_power <= 0.0:
        raise ParameterError(
            f"powers must be positive, got signal={signal_power}, noise={noise_power}"
        )
    return 10.0 * math.log10(signal_power / noise_power)


def f_from_snr(snr_in_db: float, snr_out_db: float) -> float:
    """Noise factor as the input/output SNR ratio (dB in, linear out)."""
    return 10.0 ** ((snr_in_db - snr_out_db) / 10.0)


def f_to_nf(f: float) -> float:
    if f <= 0.0:
        raise ParameterError(f"noise factor must be positive, got {f}")
    return 10.0 * math.log10(f)


def nf_to_f(nf_db: float) -> float:
    return 10.0 ** (nf_db / 10.0)


def f_direct(
    output_noise_power_w: float,
    gain_linear: float,
    bandwidth_hz: float,
    t0_k: float = T0_K,
) -> float:
    """Direct-method noise factor: measured output noise over k*T0*B*G."""
    if output_noise_power_w <= 0.0:
        raise ParameterError(f"output noise power must be positive, got {output_noise_power_w}")
    if gain_linear <= 0.0 or bandwidth_hz <= 0.0 or t0_k <= 0.0:
        raise ParameterError("gain_linear, bandwidth_hz and t0_k must all be positive")
    f = output_noise_power_w / (BOLTZMANN_J_PER_K * t0_k * bandwidth_hz * gain_linear)
    _warn_if_nonphysical(f, "f_direct")
    return f


def direct_gain_error(f_true: float, gain_ratio: float) -> float:
    """Direct-method estimate when the true gain is gain_ratio times the assumed one.

    The measured output power scales with the actual gain while the estimator
    divides by the assumed gain, so F_est = F_true * gain_ratio.
    """
    if f_true <= 0.0:
        raise ParameterError(f"f_true must be positive, got {f_true}")
    if gain_ratio <= 0.0:
        raise ParameterError(f"gain_ratio must be positive, got {gain_ratio}")
    return f_true * gain_ratio


def y_factor(n_hot: float, n_cold: float) -> float:
    """Hot/cold noise power ratio."""
    if n_hot <= 0.0 or n_cold <= 0.0:
        raise ParameterError(f"powers must be positive, got hot={n_hot}, cold={n_cold}")
    return n_hot / n_cold


def f_from_y_temps(
    y: float,
    t_hot_k: float,
    t_cold_k: float,
    t0_k: float = T0_K,
) -> float:
    """Noise factor from a Y-factor and the source temperatures.

    F = ((Th/T0 - 1) - Y (Tc/T0 - 1)) / (Y - 1)

    A nonphysical outcome (F < 1) is returned as-is with a
    NonphysicalResultWarning, since noisy measurements can produce one.
    """
    if t_hot_k <= 0.0 or t_cold_k <= 0.0 or t0_k <= 0.0:
        raise ParameterError("temperatures must be positive")
    if y <= 0.0:
        raise ParameterError(f"y must be positive, got {y}")
    if y == 1.0:
        raise SingularYError("y = 1 makes the noise-factor equation singular")
    f = ((t_hot_k / t0_k - 1.0) - y * (t_cold_k / t0_k - 1.0)) / (y - 1.0)
    _warn_if_nonphysical(f, "f_from_y_temps")
    return f


def f_from_y_powers(
    y: float,
    n_hot_cal: float,
    n_cold_cal: float,
    n0: float,
) -> float:
    """Noise factor from a Y-factor and calibrated hot/cold/reference powers.

    Power-domain form of the temperature equation:
    F = ((Nh/N0 - 1) - Y (Nc/N0 - 1)) / (Y - 1)
    """
    if n_hot_cal <= 0.0 or n_cold_cal <= 0.0 or n0 <= 0.0:
        raise ParameterError("calibration powers must be positive")
    if y <= 0.0:
        raise ParameterError(f"y must be positive, got {y}")
    if y == 1.0:
        raise SingularYError("y = 1 makes the noise-factor equation singular")
    f = ((n_hot_cal / n0 - 1.0) - y * (n_cold_cal / n0 - 1.0)) / (y - 1.0)
    _warn_if_nonphysical(f, "f_from_y_powers")
    return f


def ideal_y(f: float, t_hot_k: float, t_cold_k: float, t0_k: float = T0_K) -> float:
    """Y-factor a noiseless measurement of a device with noise factor f would see.

    Y = (Th + (F-1) T0) / (Tc + (F-1) T0); inverse of f_from_y_temps.
    """
    if f < 1.0:
        raise ParameterError(f"f must be >= 1, got {f}")
    if t_hot_k <= 0.0 or t_cold_k <= 0.0 or t0_k <= 0.0:
        raise ParameterError("temperatures must be positive")
    excess = (f - 1.0) * t0_k
    return (t_hot_k + excess) / (t_cold_k + excess)


def friis_cascade(stages) -> float:
    """Total noise factor of cascaded stages given (f, gain_linear) pairs.

    F_total = F1 + (F2-1)/G1 + (F3-1)/(G1 G2) + ...
    """
    stages = list(stages)
    if not stages:
        raise ParameterError("at least one stage is required")
    total = 0.0
    gain_product = 1.0
    for i, (f, gain) in enumerate(stages):
        if f < 1.0:
            raise ParameterError(f"stage {i}: f must be >= 1, got {f}")
        if gain <= 0.0:
            raise ParameterError(f"stage {i}: gain_linear must be positive, got {gain}")
        if i == 0:
            total = f
        else:
            total += (f - 1.0) / gain_product
        gain_product *= gain
    return total
