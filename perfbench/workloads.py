"""The four benchmark workloads and their correctness gates.

Every workload runs the README default operating point: NF 10 dB DUT at
unit gain, Th/Tc = 10 000/1 000 K, 1e6 samples at 50 kHz, fft 10 000,
rectangular window, 3 kHz reference at 0.25 of the cold-state RMS. The
benchmark seed picks the experiment seeds; the program receives only the
configs and captures built from it.

A workload object has setup() (timed as part of setup_s), op(i, tracer)
(the timed operation), check(i, out) (untimed; returns problems) and
finish() (run-level gate; returns the op indices it fails). The gate
functions below are pure so that the self-tests can exercise them.

nfbist is imported inside methods, never at module import, because the
benchmark times that import itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NF_DB = 10.0
T_HOT_K, T_COLD_K = 10_000.0, 1_000.0
SWEEP_SEEDS_PER_POINT = 1
REANALYZE_PAIRS = 2
# Each op gets its own experiment seeds, so nothing is shared between ops.
SEEDS_PER_RUN = 100_000
CLI_TIMEOUT_S = 120


def op_seed(seed: int, i: int, stride: int = 1) -> int:
    return seed * SEEDS_PER_RUN + i * stride


def default_config(seed: int):
    from nfbist import ExperimentConfig, NoiseSourceSpec, dut_from_nf

    return ExperimentConfig(
        source=NoiseSourceSpec(t_hot_k=T_HOT_K, t_cold_k=T_COLD_K),
        dut=dut_from_nf(NF_DB, 1.0),
        seed=seed,
    )


def nominal_f() -> float:
    """Noise factor the default DUT was built with, from nfbist.dut.nominal_f."""
    from nfbist.dut import nominal_f as _nominal_f

    cfg = default_config(0)
    return _nominal_f(cfg.dut, t0_k=cfg.source.t0_k, power_scale=cfg.source.power_scale)


def nominal_nf_db() -> float:
    from nfbist.nfcore import f_to_nf

    return f_to_nf(nominal_f())


def ideal_y() -> float:
    from nfbist.nfcore import ideal_y as _ideal_y

    return _ideal_y(nominal_f(), T_HOT_K, T_COLD_K)


def same_result(a, b) -> bool:
    """Field-by-field equality of two MeasurementResults, NaN equal to NaN."""
    for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
        both_nan = isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y)
        if x != y and not both_nan:
            return False
    return True


# --- gates -----------------------------------------------------------------


def result_problems(result) -> list[str]:
    """A Y-factor result at the default config must be finite and warning-free."""
    problems = []
    if not (math.isfinite(result.y) and math.isfinite(result.nf_db)):
        problems.append(f"non-finite result y={result.y!r} nf_db={result.nf_db!r}")
    if result.warnings:
        problems.append(f"unexpected warnings {list(result.warnings)}")
    return problems


def experiment_gate(nf_values, y_values, y_ideal) -> tuple[list[int], str]:
    """Acceptance criterion 2 over the whole run.

    NF within 10 +- 0.5 dB on at least 80% of ops and mean |Y error| <= 0.05.
    Single ops outside the window are expected scatter; only when the run
    misses the criterion do they count as failed. Returns (failed op
    positions, summary).
    """
    outside = [k for k, nf in enumerate(nf_values) if not (NF_DB - 0.5 <= nf <= NF_DB + 0.5)]
    in_window = len(nf_values) - len(outside)
    mean_err = sum(abs(y - y_ideal) / y_ideal for y in y_values) / len(y_values)
    ok = in_window >= 0.8 * len(nf_values) and mean_err <= 0.05
    summary = (
        f"NF within {NF_DB}+-0.5 dB on {in_window}/{len(nf_values)} ops, "
        f"mean |Y error| {mean_err:.4f} <= 0.05: {'PASS' if ok else 'FAIL'}"
    )
    if ok:
        return [], summary
    return (outside or list(range(len(nf_values)))), summary


def sweep_problems(amplitude_rows, gain_rows) -> list[str]:
    """U-curve of the reference sweep and the gain-drift contrast."""
    problems = []
    errors = dict(amplitude_rows)
    ends = (errors[min(errors)], errors[max(errors)])
    for a in (0.1, 0.25, 0.4):
        if not all(errors[a] < end for end in ends):
            problems.append(f"U-curve broken at {a}: {errors[a]!r} not below ends {ends!r}")
    for method, ratio, bias in gain_rows:
        if method == "y_factor" and bias != 0.0:
            problems.append(f"y-factor gain bias {bias!r} at ratio {ratio!r} is not exactly 0.0")
        if method == "direct" and abs(bias - 10.0 * math.log10(ratio)) > 1e-9:
            problems.append(f"direct bias {bias!r} != 10*log10({ratio!r})")
    return problems


def reanalyze_problems(original, read_back, expected, got) -> list[str]:
    """Lossless capture round trip and bit-identical re-analysis."""
    import numpy as np

    problems = []
    for state, a, b in zip(("hot", "cold"), original, read_back):
        if a.sample_rate_hz != b.sample_rate_hz or not np.array_equal(a.bits, b.bits):
            problems.append(f"{state} capture round trip is not lossless")
    for label, e, g in zip(("hann", "rect2000"), expected, got):
        if not same_result(e, g):
            problems.append(f"{label} analysis of read-back bits differs: {g} vs {e}")
    return problems


def cli_problems(codes, report_nf_db, analysis_nf_db, reference_nf_db) -> list[str]:
    problems = []
    if list(codes) != [0, 0]:
        problems.append(f"exit codes {list(codes)}, expected [0, 0]")
    if report_nf_db != reference_nf_db:
        problems.append(f"report.json nf_db {report_nf_db!r} != in-process {reference_nf_db!r}")
    if analysis_nf_db != reference_nf_db:
        problems.append(f"analyze nf_db {analysis_nf_db!r} != in-process {reference_nf_db!r}")
    return problems


# --- workloads -------------------------------------------------------------


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Untimed work after setup: expected outputs for the gates."""

    def finish(self) -> tuple[list[int], str]:
        return [], ""


class Experiment(Workload):
    """Closed-loop run_y_factor_experiment, a fresh seed per op."""

    def setup(self):
        from nfbist import pipeline

        self.pipeline = pipeline
        self.ops, self.nf, self.y = [], [], []

    def op(self, i, tracer):
        return self.pipeline.run_y_factor_experiment(default_config(op_seed(self.seed, i)))

    def check(self, i, out):
        self.ops.append(i)
        self.nf.append(out.nf_db)
        self.y.append(out.y)
        return result_problems(out)

    def finish(self):
        failed, summary = experiment_gate(self.nf, self.y, ideal_y())
        return [self.ops[k] for k in failed], summary


class Sweep(Workload):
    """Reference-amplitude sweep plus gain-sensitivity study on one base seed."""

    def setup(self):
        from nfbist import cli, pipeline

        self.pipeline = pipeline
        self.fractions = list(cli.DEFAULT_AMPLITUDE_FRACTIONS)
        self.ratios = list(cli.DEFAULT_GAIN_RATIOS)

    def op(self, i, tracer):
        cfg = default_config(op_seed(self.seed, i, SWEEP_SEEDS_PER_POINT))
        rows = self.pipeline.sweep_reference_amplitude(cfg, self.fractions, n_seeds=SWEEP_SEEDS_PER_POINT)
        gains = self.pipeline.gain_sensitivity_study(cfg, self.ratios)
        return rows, gains

    def check(self, i, out):
        return sweep_problems(*out)


class Reanalyze(Workload):
    """Capture write/read plus two analyses of bitstreams simulated in setup."""

    def setup(self):
        from nfbist import capture, pipeline

        self.pipeline = pipeline
        self.capture = capture
        self.cfg = default_config(0)
        self.cfg_rect2000 = dataclasses.replace(self.cfg, fft_size=2_000)
        self.pairs = [
            pipeline.simulate_bitstreams(default_config(op_seed(self.seed, j)))
            for j in range(REANALYZE_PAIRS)
        ]

    def _analyze(self, hot, cold):
        return (
            self.pipeline.analyze_bitstreams(hot, cold, self.cfg, window="hann", overlap_fraction=0.5),
            self.pipeline.analyze_bitstreams(hot, cold, self.cfg_rect2000),
        )

    def prepare(self):
        self.expected = [self._analyze(hot, cold) for hot, cold in self.pairs]

    def op(self, i, tracer):
        paths = (self.workdir / "hot.nfb", self.workdir / "cold.nfb")
        for path, bits in zip(paths, self.pairs[i % REANALYZE_PAIRS]):
            self.capture.write_capture(path, bits)
        read_back = tuple(self.capture.read_capture(path) for path in paths)
        return read_back, self._analyze(*read_back)

    def check(self, i, out):
        read_back, got = out
        j = i % REANALYZE_PAIRS
        return reanalyze_problems(self.pairs[j], read_back, self.expected[j], got)


class Cli(Workload):
    """Fresh-process `nfbist simulate --save-captures` then `nfbist analyze`."""

    def setup(self):
        from nfbist import pipeline

        self.pipeline = pipeline
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(
            json.dumps(
                {
                    "source": {"t_hot_k": T_HOT_K, "t_cold_k": T_COLD_K},
                    "dut": {"gain_linear": 1.0, "nf_db": NF_DB},
                    "band": [500.0, 1500.0],
                    "seed": 0,
                }
            )
        )
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _run(self, cli_args, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "nfbist.cli", *cli_args]
        else:
            spans_path = self.workdir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_runner.py")), str(spans_path), *cli_args]
        proc = subprocess.run(
            cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"cli: {cli_args[0]} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        if tracer is not None:
            tracer.adopt(json.loads(spans_path.read_text()), parent=tracer.current())
        return proc.returncode

    def op(self, i, tracer):
        s = op_seed(self.seed, i)
        out = self.workdir / f"op{i}"
        cfg = str(self.config_path)
        codes = [
            self._run(["simulate", "--config", cfg, "--out", str(out), "--seed", str(s), "--save-captures"], tracer),
            self._run(
                [
                    "analyze", "--hot", str(out / "capture_hot.nfb"), "--cold", str(out / "capture_cold.nfb"),
                    "--config", cfg, "--out", str(out / "analysis.json"),
                ],
                tracer,
            ),
        ]
        return s, codes, out

    def check(self, i, out):
        s, codes, out_dir = out
        try:
            report = json.loads((out_dir / "report.json").read_text())["result"]["nf_db"]
            analysis = json.loads((out_dir / "analysis.json").read_text())["result"]["nf_db"]
        except (OSError, KeyError, ValueError) as exc:
            return [f"cli outputs unreadable: {exc}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        reference = self.pipeline.run_y_factor_experiment(default_config(s)).nf_db
        return cli_problems(codes, report, analysis, reference)


WORKLOADS = {"experiment": Experiment, "sweep": Sweep, "reanalyze": Reanalyze, "cli": Cli}
