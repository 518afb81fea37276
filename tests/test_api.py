"""Public names: every exported and every benchmark-traced name is bound,
and the public analysis functions reject arguments of the wrong type."""

import importlib
import importlib.util
import sys
import time
from dataclasses import replace
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
    power_ratio_detail,
    psd,
)
from nfbist import pipeline
from nfbist.cli import DEFAULT_AMPLITUDE_FRACTIONS, DEFAULT_GAIN_RATIOS

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


def test_traced_sweep_ops_add_up(monkeypatch):
    # The benchmark's sweep op at a reduced size, twice, each under its own
    # root span. The gain study's worker sums the Y-factor spectra through
    # untraced code while the calling thread runs psd, so the tracer's one
    # span stack still sees one traced call at a time: the self times of
    # each op add up to its wall time, every span's parent lies in the
    # span's own op and spans its time, and no traced call nests in psd,
    # which makes none.
    tracing = _tracing_module(monkeypatch)
    cfg = replace(CONFIG, n_samples=100_000, fft_size=2_000)

    def op():
        pipeline.sweep_reference_amplitude(cfg, DEFAULT_AMPLITUDE_FRACTIONS, n_seeds=1)
        pipeline.gain_sensitivity_study(cfg, DEFAULT_GAIN_RATIOS)

    tracer = tracing.Tracer()
    walls = []
    tracer.install()
    try:
        for op_id in (0, 1):
            tracer.op = op_id
            start = time.perf_counter()
            tracer.call(tracing.ROOT_SPAN, op)
            walls.append(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    for op_id, wall in enumerate(walls):
        assert tracing.accounting_gap(spans, selfs, op_id, wall) <= 0.01
    by_id = {s.id: s for s in spans}
    parents = [(s, by_id[s.parent]) for s in spans if s.parent is not None]
    assert all(p.op == s.op and p.start <= s.start and s.end <= p.end for s, p in parents)
    assert all(p.name != "spectral.psd" for _, p in parents)
    direct = [s for s in spans if s.name == "spectral.psd"]
    assert [by_id[s.parent].name for s in direct] == ["pipeline.gain_sensitivity_study"] * 2


SPECTRUM = psd(gaussian_noise(20_000, 1.0, seed=0, sample_rate_hz=50_000.0), 10_000)


def _ratio(band):
    return power_ratio_detail(SPECTRUM, SPECTRUM, band, 3_000.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: analyze_bitstreams(1, 2, CONFIG), id="analyze_bitstreams"),
        pytest.param(lambda: analyze_spectra(1, 2, CONFIG), id="analyze_spectra"),
        pytest.param(lambda: digitize(np.ones(3), np.ones(3)), id="digitize"),
        pytest.param(lambda: find_reference_peak(SPECTRUM, "a"), id="find_reference_peak"),
        pytest.param(lambda: band_power(SPECTRUM, "a", 2.0), id="band_power-f_lo"),
        pytest.param(lambda: band_power(SPECTRUM, 1.0, None), id="band_power-f_hi"),
        # An IndexError, a TypeError and a band of the first two edges.
        pytest.param(lambda: _ratio((500.0,)), id="power_ratio_detail-one_edge"),
        pytest.param(lambda: _ratio(None), id="power_ratio_detail-no_band"),
        pytest.param(lambda: _ratio((500.0, 1500.0, 9.0)), id="power_ratio_detail-three_edges"),
    ],
)
def test_analysis_functions_reject_wrong_types(call):
    # A typed error, not the AttributeError or TypeError of a bare access.
    with pytest.raises(ParameterError):
        call()
