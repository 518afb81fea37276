"""Outside-in span tracing for the nfbist benchmark.

The benchmark never edits the package. For a traced op it replaces the
public functions under the names that ``nfbist.pipeline``, ``nfbist.cli``
and ``nfbist.capture`` bind them to with thin wrappers that record a span
(name, start, end, parent span, op id) and a few attributes taken from the
arguments and the result. Spans stay in memory until the run ends; the
per-layer numbers are computed from them afterwards.

This module imports neither numpy nor nfbist at import time, so the
benchmark can time ``import nfbist`` itself and the self-tests run without
the package.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import asdict, dataclass, field

# (module the name is looked up in, attribute, span name). The span name is
# "<layer>.<function>", the layer being the nfbist module that defines it.
PATCHES = (
    ("nfbist.pipeline", "source_output", "signals.source_output"),
    ("nfbist.pipeline", "gaussian_noise", "signals.gaussian_noise"),
    ("nfbist.pipeline", "square_wave", "signals.square_wave"),
    ("nfbist.pipeline", "apply_dut", "dut.apply_dut"),
    ("nfbist.pipeline", "digitize", "digitizer.digitize"),
    ("nfbist.pipeline", "psd", "spectral.psd"),
    ("nfbist.pipeline", "power_ratio_detail", "spectral.power_ratio_detail"),
    ("nfbist.pipeline", "band_power", "spectral.band_power"),
    ("nfbist.pipeline", "band_width_hz", "spectral.band_width_hz"),
    ("nfbist.pipeline", "f_from_y_temps", "nfcore.f_from_y_temps"),
    ("nfbist.pipeline", "simulate_bitstreams", "pipeline.simulate_bitstreams"),
    ("nfbist.pipeline", "run_y_factor_experiment", "pipeline.run_y_factor_experiment"),
    ("nfbist.pipeline", "analyze_bitstreams", "pipeline.analyze_bitstreams"),
    ("nfbist.pipeline", "run_direct_experiment", "pipeline.run_direct_experiment"),
    ("nfbist.pipeline", "sweep_reference_amplitude", "pipeline.sweep_reference_amplitude"),
    ("nfbist.pipeline", "gain_sensitivity_study", "pipeline.gain_sensitivity_study"),
    ("nfbist.capture", "write_capture", "capture.write_capture"),
    ("nfbist.capture", "read_capture", "capture.read_capture"),
    ("nfbist.cli", "write_capture", "capture.write_capture"),
    ("nfbist.cli", "read_capture", "capture.read_capture"),
    ("nfbist.cli", "psd", "spectral.psd"),
    ("nfbist.cli", "simulate_bitstreams", "pipeline.simulate_bitstreams"),
    ("nfbist.cli", "run_y_factor_experiment", "pipeline.run_y_factor_experiment"),
    ("nfbist.cli", "analyze_bitstreams", "pipeline.analyze_bitstreams"),
    ("nfbist.cli", "load_experiment_config", "cli.load_experiment_config"),
    ("nfbist.cli", "write_spectrum_csv", "cli.write_spectrum_csv"),
    ("nfbist.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("nfbist.cli", "cmd_analyze", "cli.cmd_analyze"),
)

# Layers whose traced calls take or return arrays; mb_computed sums their
# sizes, so it is computed from array sizes, not measured traffic. nfcore
# takes and returns scalars only.
ARRAY_LAYERS = ("signals", "dut", "digitizer", "spectral", "pipeline", "capture", "cli")
NORMAL_DRAW_SPANS = ("signals.source_output", "signals.gaussian_noise", "dut.apply_dut")
IMPORT_SPAN = "import.nfbist_cli"
ROOT_SPAN = "bench.op"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays in obj, found by duck typing.

    Looks into tuples and lists and into the array fields of nfbist's
    SampledSignal (samples), BitStream (bits) and Spectrum (freq_hz, psd).
    """
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    total = 0
    for attr in ("samples", "bits", "freq_hz", "psd"):
        arr = getattr(obj, attr, None)
        if hasattr(arr, "nbytes") and hasattr(arr, "dtype"):
            total += int(arr.nbytes)
    return total


def _result_attrs(name: str, result) -> dict:
    if name == "spectral.psd":
        return {"segments": int(result.n_segments)}
    if name == "pipeline.analyze_bitstreams":
        return {"nf_db": float(result.nf_db)}
    return {}


class Tracer:
    """Records nested spans of one thread; spans are kept until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = Span(len(self.spans), self.current(), self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if layer_of(name) in ARRAY_LAYERS:
            span.attrs["bytes"] = array_bytes(args) + array_bytes(tuple(kwargs.values())) + array_bytes(result)
        span.attrs.update(_result_attrs(name, result))
        return result

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, patches=PATCHES):
        """Replace each patched name with a traced wrapper; undo with uninstall."""
        for module_name, attr, span_name in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def adopt(self, records: list[dict], parent: int):
        """Append spans recorded by a child process under span parent.

        Child spans are re-numbered; their top-level spans become children of
        parent and all take the current op id. Times are comparable because
        time.perf_counter reads CLOCK_MONOTONIC, a system-wide clock on Linux.
        """
        offset = len(self.spans)
        for rec in records:
            self.spans.append(
                Span(
                    rec["id"] + offset,
                    parent if rec["parent"] is None else rec["parent"] + offset,
                    self.op,
                    rec["name"],
                    rec["start"],
                    rec["end"],
                    rec["attrs"],
                )
            )

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def accounting_gap(spans: list[Span], selfs: dict[int, float], op: int, wall_s: float) -> float:
    """|sum of the op's self times - its wall time| as a fraction of wall time."""
    total = sum(selfs[s.id] for s in spans if s.op == op)
    return abs(total - wall_s) / wall_s


def _under(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False


def layer_metrics(spans: list[Span], n_ops: int, nominal_nf_db: float, first_op: int | None) -> dict:
    """Per-layer metrics, per traced op, from the spans of n_ops traced ops.

    Returns {name: (value, unit)} for every per-layer metric the benchmark
    declares. Counts and times are divided by n_ops; the CLI ratios are per
    `nfbist simulate` invocation; nf_abs_err_db uses the Y-factor results of
    the traced op first_op only, so it is deterministic for a fixed seed.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]

    def per_op_calls(name):
        return calls.get(name, 0) / n_ops

    def per_op_ms(name):
        return 1e3 * self_s.get(name, 0.0) / n_ops

    def layer_ms(layer):
        return 1e3 * sum(v for k, v in self_s.items() if layer_of(k) == layer) / n_ops

    m = {}
    for name in (
        "signals.source_output",
        "dut.apply_dut",
        "signals.square_wave",
        "digitizer.digitize",
        "spectral.psd",
        "spectral.power_ratio_detail",
        "capture.write_capture",
        "capture.read_capture",
    ):
        m[f"{name}.calls"] = (per_op_calls(name), "calls/op")
        m[f"{name}.self_ms"] = (per_op_ms(name), "ms/op")
    m["spectral.psd.segments"] = (
        sum(s.attrs.get("segments", 0) for s in spans if s.name == "spectral.psd") / n_ops,
        "segments/op",
    )
    m["nfcore.f_from_y_temps.calls"] = (per_op_calls("nfcore.f_from_y_temps"), "calls/op")
    m["pipeline.self_ms"] = (layer_ms("pipeline"), "ms/op")

    draws = sum(
        1
        for s in spans
        if s.name in NORMAL_DRAW_SPANS and not _under(s, "pipeline.run_direct_experiment", by_id)
    )
    analyses = calls.get("pipeline.analyze_bitstreams", 0)
    m["pipeline.normal_draws_per_experiment"] = (draws / analyses if analyses else 0.0, "draws/exp")

    first = [
        s.attrs["nf_db"]
        for s in spans
        if s.op == first_op and s.name == "pipeline.analyze_bitstreams" and math.isfinite(s.attrs["nf_db"])
    ]
    m["pipeline.nf_abs_err_db"] = (
        sum(abs(nf - nominal_nf_db) for nf in first) / len(first) if first else 0.0,
        "dB",
    )

    imports = [s.end - s.start for s in spans if s.name == IMPORT_SPAN]
    m["cli.import_ms"] = (1e3 * sorted(imports)[len(imports) // 2] if imports else 0.0, "ms")
    m["cli.self_ms"] = (layer_ms("cli"), "ms/op")
    m["cli.write_spectrum_csv.self_ms"] = (per_op_ms("cli.write_spectrum_csv"), "ms/op")
    n_sim = calls.get("cli.cmd_simulate", 0)
    sims = sum(1 for s in spans if s.name == "pipeline.simulate_bitstreams" and _under(s, "cli.cmd_simulate", by_id))
    psds = sum(1 for s in spans if s.name == "spectral.psd" and _under(s, "cli.cmd_simulate", by_id))
    m["cli.simulations_per_invocation"] = (sims / n_sim if n_sim else 0.0, "sims/inv")
    m["cli.psd_per_invocation"] = (psds / n_sim if n_sim else 0.0, "psd/inv")

    for layer in ARRAY_LAYERS:
        total = sum(s.attrs.get("bytes", 0) for s in spans if layer_of(s.name) == layer)
        m[f"{layer}.mb_computed"] = (total / 1e6 / n_ops, "MB/op")
    return m
