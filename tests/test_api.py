"""Public names: every exported and every benchmark-traced name is bound,
and the public analysis functions reject arguments of the wrong type."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nfbist
from nfbist import (
    ExperimentConfig,
    NoiseSourceSpec,
    ParameterError,
    analyze_bitstreams,
    analyze_spectra,
    band_power,
    digitize,
    dut_from_nf,
    find_reference_peak,
    gaussian_noise,
    psd,
)

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module(monkeypatch):
    # Loaded by path: perfbench is not a package on the import path, and
    # tracing.py imports neither numpy nor nfbist. Its dataclasses look their
    # module up in sys.modules while the class is built.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in nfbist.__all__ if not hasattr(nfbist, name)]
    assert missing == []


def test_the_package_exports_each_modules_public_names_once():
    # nfbist.__all__ is built from the modules' lists, and each name is
    # bound to the module's own object.
    modules = "capture digitizer dut errors nfcore pipeline signals spectral".split()
    for module in modules:
        source = importlib.import_module(f"nfbist.{module}")
        moved = [n for n in source.__all__ if getattr(nfbist, n) is not getattr(source, n)]
        assert moved == [], module
    assert len(nfbist.__all__) == len(set(nfbist.__all__))


def test_every_traced_name_is_bound(monkeypatch):
    patches = _tracing_module(monkeypatch).PATCHES
    assert patches
    unbound = [
        f"{module}.{attr}"
        for module, attr, _ in patches
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert unbound == []


CONFIG = ExperimentConfig(NoiseSourceSpec(10_000.0, 1_000.0), dut_from_nf(10.0, 1.0))
SPECTRUM = psd(gaussian_noise(20_000, 1.0, seed=0, sample_rate_hz=50_000.0), 10_000)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: analyze_bitstreams(1, 2, CONFIG), id="analyze_bitstreams"),
        pytest.param(lambda: analyze_spectra(1, 2, CONFIG), id="analyze_spectra"),
        pytest.param(lambda: digitize(np.ones(3), np.ones(3)), id="digitize"),
        pytest.param(lambda: find_reference_peak(SPECTRUM, "a"), id="find_reference_peak"),
        pytest.param(lambda: band_power(SPECTRUM, "a", 2.0), id="band_power-f_lo"),
        pytest.param(lambda: band_power(SPECTRUM, 1.0, None), id="band_power-f_hi"),
    ],
)
def test_analysis_functions_reject_wrong_types(call):
    # A typed error, not the AttributeError or TypeError of a bare access.
    with pytest.raises(ParameterError):
        call()
