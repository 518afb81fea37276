"""Noise-figure measurement toolkit built around a 1-bit comparator chain.

Simulates Y-factor and direct-method noise-figure measurements, including
the comparator digitizer, reference-normalized spectra and the supporting
noise algebra.
"""

__version__ = "0.1.0"

from .capture import read_capture, write_capture
from .digitizer import BitStream, arcsine_map, digitize, empirical_autocorr
from .dut import (
    DutSpec,
    apply_dut,
    dut_from_nf,
    nominal_f,
)
from .errors import (
    CaptureCorruptError,
    CaptureFormatError,
    ConfigError,
    DegenerateBandError,
    DegenerateReferenceError,
    InsufficientDataError,
    NfbistError,
    ParameterError,
    ShapeError,
    SingularYError,
)
from .nfcore import (
    T0_K,
    f_from_y_temps,
    f_to_nf,
    friis_cascade,
    ideal_y,
    nf_to_f,
)
from .pipeline import (
    ExperimentConfig,
    GainSensitivityRow,
    MeasurementResult,
    analyze_bitstreams,
    analyze_spectra,
    gain_sensitivity_study,
    run_direct_experiment,
    run_y_factor_experiment,
    simulate_bitstreams,
    sweep_reference_amplitude,
    th_uncertainty_study,
)
from .signals import (
    NoiseSourceSpec,
    SampledSignal,
    gaussian_noise,
    source_output,
    square_wave,
)
from .spectral import (
    PowerRatioResult,
    Spectrum,
    band_power,
    band_width_hz,
    find_reference_peak,
    power_ratio_detail,
    psd,
)

__all__ = [
    "__version__",
    "T0_K",
    "SampledSignal",
    "NoiseSourceSpec",
    "gaussian_noise",
    "square_wave",
    "source_output",
    "DutSpec",
    "apply_dut",
    "dut_from_nf",
    "nominal_f",
    "BitStream",
    "digitize",
    "arcsine_map",
    "empirical_autocorr",
    "Spectrum",
    "psd",
    "find_reference_peak",
    "band_power",
    "band_width_hz",
    "PowerRatioResult",
    "power_ratio_detail",
    "f_to_nf",
    "nf_to_f",
    "f_from_y_temps",
    "ideal_y",
    "friis_cascade",
    "ExperimentConfig",
    "MeasurementResult",
    "GainSensitivityRow",
    "simulate_bitstreams",
    "run_y_factor_experiment",
    "run_direct_experiment",
    "analyze_bitstreams",
    "analyze_spectra",
    "sweep_reference_amplitude",
    "th_uncertainty_study",
    "gain_sensitivity_study",
    "read_capture",
    "write_capture",
    "NfbistError",
    "ParameterError",
    "ShapeError",
    "InsufficientDataError",
    "DegenerateReferenceError",
    "DegenerateBandError",
    "SingularYError",
    "ConfigError",
    "CaptureFormatError",
    "CaptureCorruptError",
]
