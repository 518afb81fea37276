"""Noise-factor and noise-figure algebra.

Conventions: F is the linear noise factor, NF = 10 log10(F) its decibel
form, and Y = N_hot / N_cold the hot/cold power ratio. The reference
temperature defaults to the standard 290 K. Every function is pure: it
returns a value or raises an NfbistError, and emits no Python warnings. A
noise factor below 1 is returned as computed; the pipeline notes it on the
result.
"""

from __future__ import annotations

import math

from .errors import ParameterError, SingularYError, check_positive, is_finite_number

__all__ = [
    "BOLTZMANN_J_PER_K",
    "T0_K",
    "f_to_nf",
    "nf_to_f",
    "f_from_y_temps",
    "ideal_y",
    "friis_cascade",
]

BOLTZMANN_J_PER_K = 1.380649e-23
T0_K = 290.0


def _check_temperatures(t_hot_k: float, t_cold_k: float, t0_k: float) -> None:
    check_positive("t_hot_k", t_hot_k)
    check_positive("t_cold_k", t_cold_k)
    check_positive("t0_k", t0_k)


def _check_noise_factor(name: str, f: float) -> None:
    if not (is_finite_number(f) and f >= 1.0):
        raise ParameterError(f"{name} must be finite and >= 1, got {f!r}")


def f_to_nf(f: float) -> float:
    check_positive("noise factor", f)
    return 10.0 * math.log10(f)


def nf_to_f(nf_db: float) -> float:
    if not is_finite_number(nf_db):
        raise ParameterError(f"nf_db must be a finite number, got {nf_db!r}")
    try:
        return 10.0 ** (nf_db / 10.0)
    except OverflowError:
        raise ParameterError(f"nf_db {nf_db!r} overflows the noise factor") from None


def f_from_y_temps(
    y: float,
    t_hot_k: float,
    t_cold_k: float,
    t0_k: float = T0_K,
) -> float:
    """Noise factor from a Y-factor and the source temperatures.

    F = ((Th/T0 - 1) - Y (Tc/T0 - 1)) / (Y - 1)

    A nonphysical outcome (F < 1) is returned as-is, since noisy
    measurements can produce one.
    """
    _check_temperatures(t_hot_k, t_cold_k, t0_k)
    check_positive("y", y)
    if y == 1.0:
        raise SingularYError("y = 1 makes the noise-factor equation singular")
    return ((t_hot_k / t0_k - 1.0) - y * (t_cold_k / t0_k - 1.0)) / (y - 1.0)


def ideal_y(f: float, t_hot_k: float, t_cold_k: float, t0_k: float = T0_K) -> float:
    """Y-factor a noiseless measurement of a device with noise factor f would see.

    Y = (Th + (F-1) T0) / (Tc + (F-1) T0); inverse of f_from_y_temps.
    """
    _check_noise_factor("f", f)
    _check_temperatures(t_hot_k, t_cold_k, t0_k)
    excess = (f - 1.0) * t0_k
    return (t_hot_k + excess) / (t_cold_k + excess)


def friis_cascade(stages) -> float:
    """Total noise factor of cascaded stages given (f, gain_linear) pairs.

    F_total = F1 + (F2-1)/G1 + (F3-1)/(G1 G2) + ...
    """
    try:
        stages = [tuple(stage) for stage in stages]
    except TypeError:
        raise ParameterError(
            f"stages must be an iterable of (f, gain_linear) pairs, got {stages!r}"
        ) from None
    if not stages:
        raise ParameterError("at least one stage is required")
    total = 0.0
    gain_product = 1.0
    for i, stage in enumerate(stages):
        if len(stage) != 2:
            raise ParameterError(f"stage {i} must be an (f, gain_linear) pair, got {stage!r}")
        f, gain = stage
        _check_noise_factor(f"stage {i}: f", f)
        check_positive(f"stage {i}: gain_linear", gain)
        if i == 0:
            total = f
        else:
            total += (f - 1.0) / gain_product
        gain_product *= gain
    return total
