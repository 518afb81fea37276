"""Command-line interface.

Subcommands:
  simulate  run a Y-factor experiment from a JSON config, write a report
  analyze   recompute Y and NF from two capture files plus a config
  sweep     parameter studies, one per --kind, to CSV
  psd       spectrum of a capture file to CSV

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric,
degenerate-data or out-of-memory error.
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
    ParameterError,
    check_integer,
)
from .pipeline import (
    ExperimentConfig,
    analyze_bitstreams,
    analyze_spectra,
    check_sweep_points,
    gain_sensitivity_study,
    run_y_factor_experiment,  # not called here; perfbench/tracing.PATCHES wraps this binding
    simulate_bitstreams,
    sweep_reference_amplitude,
    th_uncertainty_study,
)
from .signals import NoiseSourceSpec
from .spectral import (
    MAX_OVERLAP_FRACTION,
    Spectrum,
    _check_fft_size,
    _check_overlap_fraction,
    _spectra,
    psd,
)

__all__ = ["main", "load_experiment_config", "config_to_dict", "write_spectrum_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_WINDOW_CHOICES = {"rect": "rectangular", "hann": "hann"}
_SOURCE_KEYS = {f.name for f in dataclasses.fields(NoiseSourceSpec)}
_DUT_KEYS = {f.name for f in dataclasses.fields(DutSpec)} | {"nf_db"}
_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}

DEFAULT_AMPLITUDE_FRACTIONS = (0.02, 0.1, 0.25, 0.4, 1.0, 1.5)
DEFAULT_TH_REL_ERRORS = (-0.05, 0.05)
DEFAULT_GAIN_RATIOS = (0.794328234724281, 1.0, 1.258925411794167)
DEFAULT_SWEEP_SEEDS = 10


def _section(label: str, obj, keys, required, build, problems):
    """build(**obj) for one section of a config, or None with a line in problems
    for each fault: obj is not an object, has keys outside keys or lacks one in
    required, or build raises. A build that returns None has reported its own."""
    if not isinstance(obj, dict):
        problems.append(f"{label}: must be an object")
        return None
    unknown = sorted(set(obj) - keys)
    missing = [key for key in required if key not in obj]
    if unknown:
        problems.append(f"{label}: unknown keys {unknown}")
    if missing:
        problems.append(f"{label}: missing required keys {missing}")
    if unknown or missing:
        return None
    try:
        return build(**obj)
    except (NfbistError, TypeError, ValueError) as exc:
        problems.append(f"{label}: {exc}")
        return None


def _dut_spec(source: NoiseSourceSpec | None, **fields) -> DutSpec:
    """The DUT from 'added_noise_power' or from 'nf_db', converted at the
    source's t0_k and power_scale (the defaults if the source is invalid)."""
    if ("nf_db" in fields) == ("added_noise_power" in fields):
        raise ParameterError("give exactly one of 'added_noise_power' or 'nf_db'")
    if "added_noise_power" in fields:
        return DutSpec(**fields)
    scale = {} if source is None else {"t0_k": source.t0_k, "power_scale": source.power_scale}
    return dut_from_nf(**fields, **scale)


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Required keys: source, dut, band. The remaining ExperimentConfig fields
    are optional and fall back to their defaults. A DUT may be specified by
    'added_noise_power' or, more conveniently, by its nominal 'nf_db' (the
    added noise is then derived using the source's t0_k and power_scale).
    Raises ConfigError with one line per problem, each naming its section:
    source, dut, or the file for the top level, whose values
    ExperimentConfig checks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    problems: list[str] = []

    def build(source, dut, **fields):
        source = _section(
            "source", source, _SOURCE_KEYS, ("t_hot_k", "t_cold_k"), NoiseSourceSpec, problems
        )
        dut = _section(
            "dut", dut, _DUT_KEYS, ("gain_linear",), lambda **f: _dut_spec(source, **f), problems
        )
        # Returned, not raised: a ConfigError would be caught and reported
        # a second time as the top level's problem.
        if source is None or dut is None:
            return None
        return ExperimentConfig(source=source, dut=dut, **fields)

    cfg = _section(str(path), data, _TOP_KEYS, ("source", "dut", "band"), build, problems)
    if cfg is None:
        raise ConfigError(problems)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Effective configuration with every default materialized."""
    out = dataclasses.asdict(cfg)
    out["band"] = list(out["band"])
    return out


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    """Write freq_hz,psd rows with full float precision."""
    # The bytes csv.writer gives: float reprs never need quoting.
    rows = "".join(
        f"{f!r},{p!r}\r\n" for f, p in zip(spectrum.freq_hz.tolist(), spectrum.psd.tolist())
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("freq_hz,psd\r\n" + rows)


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

    # One simulation and one PSD per state, the two states' spectra summed
    # at once (each equals psd of its bits); the report, the spectrum CSVs
    # and the captures are all written from these objects.
    streams = dict(zip(("hot", "cold"), simulate_bitstreams(cfg)))
    pair = _spectra(list(streams.values()), cfg.fft_size, args.window, args.segments_overlap)
    spectra = dict(zip(streams, pair))
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

    return _finish_report(report, result, out_dir / "report.json")


def cmd_analyze(args) -> int:
    cfg = load_experiment_config(args.config)
    hot = read_capture(args.hot)
    cold = read_capture(args.cold)
    result = analyze_bitstreams(hot, cold, cfg, args.window, args.segments_overlap)
    report = _report_scaffold(cfg)
    report["inputs"] = {"hot": str(args.hot), "cold": str(args.cold)}
    report["result"] = dataclasses.asdict(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    return _finish_report(report, result, args.out)


def _finish_report(report: dict, result, report_path) -> int:
    """Write the report JSON to report_path unless it is None, then print
    Y, F and NF, and each of the result's warnings to stderr."""
    if report_path is not None:
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


# Each sweep kind: its CSV header, its default points, the parsed flags its
# study reads besides --points, and its study, study(config, points, flags).
_SWEEPS = {
    "ref-amplitude": (
        ["ref_amplitude_fraction", "mean_abs_y_error_fraction"],
        DEFAULT_AMPLITUDE_FRACTIONS,
        ("seed", "seeds", "window", "segments_overlap"),
        lambda cfg, points, a: sweep_reference_amplitude(
            cfg, points, n_seeds=a.seeds, window=a.window, overlap_fraction=a.segments_overlap
        ),
    ),
    "th-error": (
        ["th_rel_error", "delta_nf_db"],
        DEFAULT_TH_REL_ERRORS,
        (),
        lambda cfg, points, a: th_uncertainty_study(cfg, points),
    ),
    "gain": (
        ["method", "gain_ratio", "nf_bias_db"],
        DEFAULT_GAIN_RATIOS,
        ("seed", "window", "segments_overlap"),
        lambda cfg, points, a: gain_sensitivity_study(
            cfg, points, window=a.window, overlap_fraction=a.segments_overlap
        ),
    ),
}


def _check_sweep_flags(args) -> None:
    """ConfigError for the first flag, still as parsed, that is not at the
    sweep parser's default and that the kind's study does not read."""
    read = _SWEEPS[args.kind][2]
    # Every flag that some kind's study reads, in the order _SWEEPS names them.
    for name in dict.fromkeys(name for sweep in _SWEEPS.values() for name in sweep[2]):
        if name not in read and getattr(args, name) != args.sweep_parser.get_default(name):
            flag = "--" + name.replace("_", "-")
            raise ConfigError([f"{flag}: the {args.kind} sweep does not read it"])


def _sweep_points(kind: str, text: str | None) -> list[float]:
    """--points value: the comma-separated points, checked as the study
    checks them, or the kind's default points when the flag is absent."""
    if text is None:
        return list(_SWEEPS[kind][1])
    try:
        return check_sweep_points(kind, [float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:  # a ParameterError is a ValueError too
        raise ConfigError([f"--points: {exc}"]) from exc


def cmd_sweep(args) -> int:
    # Checked before any input is read, as argparse checks the other flags.
    points = _sweep_points(args.kind, args.points)
    cfg = _apply_seed_override(load_experiment_config(args.config), args.seed)
    header, _, _, study = _SWEEPS[args.kind]
    rows = [
        [v if isinstance(v, str) else repr(v) for v in row] for row in study(cfg, points, args)
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_psd(args) -> int:
    bits = read_capture(args.capture)
    spectrum = psd(bits, args.fft_size, args.window, args.segments_overlap)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(args.out, spectrum)
    print(
        f"wrote {args.out} ({spectrum.freq_hz.size} bins, "
        f"{spectrum.n_segments} segments, {spectrum.bin_width_hz!r} Hz/bin)"
    )
    return EXIT_OK


def _flag(cast, check):
    """argparse type: check(cast(text)), or check(text) where cast refuses
    the text, so that a bad value is refused with the message of the
    library's own check."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = text
        try:
            return check(value)
        except ValueError as exc:  # a ParameterError is a ValueError too
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_common_analysis_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--window",
        choices=sorted(_WINDOW_CHOICES),
        default="rect",
        help="segment window for PSD estimation (default: rect)",
    )
    parser.add_argument(
        "--segments-overlap",
        type=_flag(float, _check_overlap_fraction),
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
    seed = _flag(int, lambda value: check_integer("seed", value, 0))

    p_sim = sub.add_parser("simulate", help="run a Y-factor experiment from a config")
    p_sim.add_argument("--config", type=pathlib.Path, required=True)
    p_sim.add_argument("--out", type=pathlib.Path, required=True, help="output directory")
    p_sim.add_argument("--seed", type=seed, default=None, help="override the config seed")
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
    p_sw.add_argument("--kind", choices=tuple(_SWEEPS), required=True)
    p_sw.add_argument("--out", type=pathlib.Path, required=True, help="output CSV path")
    p_sw.add_argument("--seed", type=seed, default=None, help="override the config seed")
    p_sw.add_argument(
        "--points", default=None, help="comma-separated sweep points (kind-specific units)"
    )
    p_sw.add_argument(
        "--seeds",
        type=_flag(int, lambda value: check_integer("seeds", value, 1)),
        default=DEFAULT_SWEEP_SEEDS,
        help=f"seeds per point for ref-amplitude (default {DEFAULT_SWEEP_SEEDS})",
    )
    _add_common_analysis_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep, sweep_parser=p_sw)

    p_psd = sub.add_parser("psd", help="PSD of a capture file")
    p_psd.add_argument("--capture", type=pathlib.Path, required=True)
    p_psd.add_argument(
        "--fft-size", type=_flag(int, _check_fft_size), default=10_000, dest="fft_size"
    )
    p_psd.add_argument("--out", type=pathlib.Path, required=True, help="output CSV path")
    _add_common_analysis_flags(p_psd)
    p_psd.set_defaults(func=cmd_psd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_sweep:
            _check_sweep_flags(args)
        if getattr(args, "window", None) is not None:
            args.window = _WINDOW_CHOICES[args.window]
            if args.segments_overlap is None:
                args.segments_overlap = 0.5 if args.window == "hann" else 0.0
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
    except (NfbistError, MemoryError) as exc:
        # numpy refuses a record too long to hold before computing anything.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
