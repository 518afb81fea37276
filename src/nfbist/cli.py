"""Command-line interface.

Subcommands:
  simulate  run a Y-factor experiment from a JSON config, write a report
  analyze   recompute Y and NF from two capture files plus a config
  sweep     parameter studies (ref-amplitude, th-error, gain) to CSV
  psd       spectrum of a capture file to CSV

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric or
degenerate-data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import pathlib
import sys
from datetime import datetime, timezone

from . import __version__
from .capture import read_capture, write_capture
from .dut import DutSpec, dut_from_nf
from .errors import (
    CaptureCorruptError,
    CaptureFormatError,
    ConfigError,
    NfbistError,
    check_integer,
)
from .pipeline import (
    ExperimentConfig,
    analyze_bitstreams,
    analyze_spectra,
    gain_sensitivity_study,
    run_y_factor_experiment,  # not called here; perfbench/tracing.PATCHES wraps this binding
    simulate_bitstreams,
    sweep_reference_amplitude,
    th_uncertainty_study,
)
from .signals import NoiseSourceSpec
from .spectral import MAX_OVERLAP_FRACTION, Spectrum, psd

__all__ = ["main", "load_experiment_config", "config_to_dict", "write_spectrum_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_WINDOW_CHOICES = {"rect": "rectangular", "hann": "hann"}
_SOURCE_KEYS = {f.name for f in dataclasses.fields(NoiseSourceSpec)}
_DUT_KEYS = {f.name for f in dataclasses.fields(DutSpec)} | {"nf_db"}
_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_REQUIRED_KEYS = ("source", "dut", "band")

DEFAULT_AMPLITUDE_FRACTIONS = (0.02, 0.1, 0.25, 0.4, 1.0, 1.5)
DEFAULT_TH_REL_ERRORS = (-0.05, 0.05)
DEFAULT_GAIN_RATIOS = (0.794328234724281, 1.0, 1.258925411794167)


def _build_source(obj, problems) -> NoiseSourceSpec | None:
    if not isinstance(obj, dict):
        problems.append("source: must be an object")
        return None
    unknown = sorted(set(obj) - _SOURCE_KEYS)
    if unknown:
        problems.append(f"source: unknown keys {unknown}")
        return None
    missing = sorted({"t_hot_k", "t_cold_k"} - set(obj))
    if missing:
        problems.append(f"source: missing required keys {missing}")
        return None
    try:
        return NoiseSourceSpec(**obj)
    except (NfbistError, TypeError, ValueError) as exc:
        problems.append(f"source: {exc}")
        return None


def _build_dut(obj, source: NoiseSourceSpec | None, problems) -> DutSpec | None:
    if not isinstance(obj, dict):
        problems.append("dut: must be an object")
        return None
    unknown = sorted(set(obj) - _DUT_KEYS)
    if unknown:
        problems.append(f"dut: unknown keys {unknown}")
        return None
    if "gain_linear" not in obj:
        problems.append("dut: missing required key 'gain_linear'")
        return None
    has_na = "added_noise_power" in obj
    has_nf = "nf_db" in obj
    if has_na == has_nf:
        problems.append("dut: give exactly one of 'added_noise_power' or 'nf_db'")
        return None
    try:
        if has_nf:
            kwargs = {}
            if source is not None:
                kwargs["t0_k"] = source.t0_k
                kwargs["power_scale"] = source.power_scale
            return dut_from_nf(obj["nf_db"], obj["gain_linear"], **kwargs)
        return DutSpec(**obj)
    except (NfbistError, TypeError, ValueError) as exc:
        problems.append(f"dut: {exc}")
        return None


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Required keys: source, dut, band. The remaining ExperimentConfig fields
    are optional and fall back to their defaults. A DUT may be specified by
    'added_noise_power' or, more conveniently, by its nominal 'nf_db' (the
    added noise is then derived using the source's t0_k and power_scale).
    Raises ConfigError listing every offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])

    problems = []
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        problems.append(f"unknown keys {unknown}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            problems.append(f"{key}: missing required key")
    if problems:
        raise ConfigError(problems)

    source = _build_source(data["source"], problems)
    dut = _build_dut(data["dut"], source, problems)
    if problems:
        raise ConfigError(problems)

    kwargs = {k: v for k, v in data.items() if k not in ("source", "dut", "band")}
    band = data["band"]
    if not (isinstance(band, (list, tuple)) and len(band) == 2):
        raise ConfigError(["band: must be a two-element array [f_lo_hz, f_hi_hz]"])
    try:
        return ExperimentConfig(source=source, dut=dut, band=tuple(band), **kwargs)
    except (NfbistError, TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Effective configuration with every default materialized."""
    out = dataclasses.asdict(cfg)
    out["band"] = list(out["band"])
    return out


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    """Write freq_hz,psd rows with full float precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "psd"])
        for f, p in zip(spectrum.freq_hz, spectrum.psd):
            writer.writerow([repr(float(f)), repr(float(p))])


def _report_scaffold(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "nfbist",
        "version": __version__,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": config_to_dict(cfg),
    }


def _apply_seed_override(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def cmd_simulate(args) -> int:
    cfg = _apply_seed_override(load_experiment_config(args.config), args.seed)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)

    # One simulation and one PSD per state; the report, the spectrum CSVs
    # and the captures are all written from these objects.
    streams = dict(zip(("hot", "cold"), simulate_bitstreams(cfg)))
    spectra = {
        state: psd(bits, cfg.fft_size, window=args.window, overlap_fraction=args.segments_overlap)
        for state, bits in streams.items()
    }
    result = analyze_spectra(spectra["hot"], spectra["cold"], cfg)

    report = _report_scaffold(cfg)
    report["result"] = dataclasses.asdict(result)
    report["outputs"] = {}
    for state, bits in streams.items():
        csv_path = out_dir / f"spectrum_{state}.csv"
        write_spectrum_csv(csv_path, spectra[state])
        report["outputs"][f"spectrum_{state}_csv"] = str(csv_path)
        if args.save_captures:
            cap_path = out_dir / f"capture_{state}.nfb"
            write_capture(cap_path, bits)
            report["outputs"][f"capture_{state}"] = str(cap_path)

    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {report_path}")
    print(f"y = {result.y!r}")
    print(f"f = {result.f!r}")
    print(f"nf_db = {result.nf_db!r}")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = load_experiment_config(args.config)
    hot = read_capture(args.hot)
    cold = read_capture(args.cold)
    result = analyze_bitstreams(
        hot, cold, cfg, window=args.window, overlap_fraction=args.segments_overlap
    )
    report = _report_scaffold(cfg)
    report["inputs"] = {"hot": str(args.hot), "cold": str(args.cold)}
    report["result"] = dataclasses.asdict(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    print(f"y = {result.y!r}")
    print(f"f = {result.f!r}")
    print(f"nf_db = {result.nf_db!r}")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def _parse_points(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError([f"--points: {exc}"]) from exc


def cmd_sweep(args) -> int:
    cfg = _apply_seed_override(load_experiment_config(args.config), args.seed)
    points = _parse_points(args.points) if args.points else None
    rows: list[list] = []
    if args.kind == "ref-amplitude":
        fractions = points if points is not None else list(DEFAULT_AMPLITUDE_FRACTIONS)
        data = sweep_reference_amplitude(
            cfg,
            fractions,
            n_seeds=args.seeds,
            window=args.window,
            overlap_fraction=args.segments_overlap,
        )
        header = ["ref_amplitude_fraction", "mean_abs_y_error_fraction"]
        rows = [[repr(a), repr(e)] for a, e in data]
    elif args.kind == "th-error":
        rel = points if points is not None else list(DEFAULT_TH_REL_ERRORS)
        data = th_uncertainty_study(cfg, rel)
        header = ["th_rel_error", "delta_nf_db"]
        rows = [[repr(e), repr(d)] for e, d in data]
    else:  # gain
        ratios = points if points is not None else list(DEFAULT_GAIN_RATIOS)
        data = gain_sensitivity_study(
            cfg, ratios, window=args.window, overlap_fraction=args.segments_overlap
        )
        header = ["method", "gain_ratio", "nf_bias_db"]
        rows = [[m, repr(r), repr(b)] for m, r, b in data]

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_psd(args) -> int:
    bits = read_capture(args.capture)
    spectrum = psd(
        bits, args.fft_size, window=args.window, overlap_fraction=args.segments_overlap
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(args.out, spectrum)
    print(
        f"wrote {args.out} ({spectrum.freq_hz.size} bins, "
        f"{spectrum.n_segments} segments, {spectrum.bin_width_hz!r} Hz/bin)"
    )
    return EXIT_OK


def _overlap_fraction(text: str) -> float:
    """--segments-overlap value: a number in [0, MAX_OVERLAP_FRACTION], so not NaN."""
    try:
        value = float(text)
        ok = 0.0 <= value <= MAX_OVERLAP_FRACTION
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"must be a number in [0, {MAX_OVERLAP_FRACTION}], got {text!r}"
        )
    return value


def _integer_flag(minimum: int):
    """argparse type for an integer flag value >= minimum, checked by check_integer."""

    def parse(text: str) -> int:
        try:
            return check_integer("value", int(text), minimum)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}"
            ) from None

    return parse


def _fft_size(text: str) -> int:
    """--fft-size value: an even integer >= 2, as psd requires."""
    value = _integer_flag(2)(text)
    if value % 2 != 0:
        raise argparse.ArgumentTypeError(f"must be even, got {text!r}")
    return value


def _add_common_analysis_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--window",
        choices=sorted(_WINDOW_CHOICES),
        default="rect",
        help="segment window for PSD estimation (default: rect)",
    )
    parser.add_argument(
        "--segments-overlap",
        type=_overlap_fraction,
        default=None,
        help=f"segment overlap fraction 0..{MAX_OVERLAP_FRACTION} "
        "(default: 0, or 0.5 with --window hann)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfbist",
        description="Simulate and analyze 1-bit noise-figure test chains",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Y-factor experiment from a config")
    p_sim.add_argument("--config", type=pathlib.Path, required=True)
    p_sim.add_argument("--out", type=pathlib.Path, required=True, help="output directory")
    p_sim.add_argument(
        "--seed", type=_integer_flag(0), default=None, help="override the config seed"
    )
    p_sim.add_argument(
        "--save-captures", action="store_true", help="also write hot/cold NFB1 captures"
    )
    _add_common_analysis_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="Y-factor analysis of two captures")
    p_an.add_argument("--hot", type=pathlib.Path, required=True)
    p_an.add_argument("--cold", type=pathlib.Path, required=True)
    p_an.add_argument("--config", type=pathlib.Path, required=True)
    p_an.add_argument("--out", type=pathlib.Path, default=None, help="report JSON path")
    _add_common_analysis_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="parameter studies, CSV output")
    p_sw.add_argument("--config", type=pathlib.Path, required=True)
    p_sw.add_argument(
        "--kind", choices=("ref-amplitude", "th-error", "gain"), required=True
    )
    p_sw.add_argument("--out", type=pathlib.Path, required=True, help="output CSV path")
    p_sw.add_argument(
        "--seed", type=_integer_flag(0), default=None, help="override the config seed"
    )
    p_sw.add_argument(
        "--points", default=None, help="comma-separated sweep points (kind-specific units)"
    )
    p_sw.add_argument(
        "--seeds",
        type=_integer_flag(1),
        default=10,
        help="seeds per point for ref-amplitude (default 10)",
    )
    _add_common_analysis_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_psd = sub.add_parser("psd", help="PSD of a capture file")
    p_psd.add_argument("--capture", type=pathlib.Path, required=True)
    p_psd.add_argument("--fft-size", type=_fft_size, default=10_000, dest="fft_size")
    p_psd.add_argument("--out", type=pathlib.Path, required=True, help="output CSV path")
    _add_common_analysis_flags(p_psd)
    p_psd.set_defaults(func=cmd_psd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "window", None) is not None:
        args.window = _WINDOW_CHOICES[args.window]
        if args.segments_overlap is None:
            args.segments_overlap = 0.5 if args.window == "hann" else 0.0
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.fields:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except (CaptureFormatError, CaptureCorruptError) as exc:
        print(f"capture error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NfbistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
