"""Command-line interface: subcommands, config validation, exit codes."""

import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from nfbist import (
    BitStream,
    psd,
    read_capture,
    run_y_factor_experiment,
    simulate_bitstreams,
    write_capture,
)
from nfbist.cli import load_experiment_config, main, write_spectrum_csv

# Small records keep each invocation fast; 2000-point FFT on 100k samples
# still averages 50 segments.
BASE_CONFIG = {
    "source": {"t_hot_k": 10_000.0, "t_cold_k": 1_000.0},
    "dut": {"gain_linear": 1.0, "nf_db": 10.0},
    "band": [500.0, 1500.0],
    "n_samples": 100_000,
    "fft_size": 2_000,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nfbist" in capsys.readouterr().out


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_writes_report_and_spectra(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    report = json.loads((out_dir / "report.json").read_text())
    assert report["tool"] == "nfbist"
    assert report["config"]["n_samples"] == 100_000
    assert report["config"]["seed"] == 0  # defaults materialized
    assert report["result"]["y"] > 1.0
    assert report["result"]["n_segments"] == 50

    for state in ("hot", "cold"):
        rows = read_rows(out_dir / f"spectrum_{state}.csv")
        assert rows[0] == ["freq_hz", "psd"]
        assert len(rows) == 1 + 2_000 // 2 + 1

    out = capsys.readouterr().out
    assert "y =" in out and "nf_db =" in out


def test_simulate_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    reports = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        reports.append(json.loads((out_dir / "report.json").read_text()))
    assert reports[0]["result"] == reports[1]["result"]
    assert (tmp_path / "a" / "spectrum_hot.csv").read_bytes() == (
        tmp_path / "b" / "spectrum_hot.csv"
    ).read_bytes()


def test_seed_override_changes_outcome(tmp_path):
    cfg_path = write_config(tmp_path)
    results = {}
    for seed in (0, 5):
        out_dir = tmp_path / f"seed{seed}"
        args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(seed)]
        assert main(args) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["seed"] == seed
        results[seed] = report["result"]["y"]
    assert results[0] != results[5]


def test_config_negative_seed_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, seed=-3)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_config_integral_float_fields_stored_as_int(tmp_path):
    # JSON writers may emit 1000.0 for 1000; it must run, and read, as 1000.
    reports = {}
    for name, seed in (("int", 1000), ("float", 1000.0)):
        cfg_path = write_config(
            tmp_path, name=f"{name}.json", seed=seed, n_samples=100_000.0, fft_size=2_000.0
        )
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        reports[name] = json.loads((out_dir / "report.json").read_text())
    assert reports["float"]["result"]["nf_db"] == reports["int"]["result"]["nf_db"]
    config = reports["float"]["config"]
    assert (config["seed"], config["n_samples"], config["fft_size"]) == (1000, 100_000, 2_000)
    assert all(type(config[k]) is int for k in ("seed", "n_samples", "fft_size"))


def test_config_bool_integer_field_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, ref_exclusion_halfwidth_bins=True)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "ref_exclusion_halfwidth_bins" in capsys.readouterr().err


def test_simulate_hann_window(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "hann"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--window", "hann"]
    assert main(args) == 0
    report = json.loads((out_dir / "report.json").read_text())
    # Default overlap for hann is 0.5: (100000 - 1000) // 1000 segments.
    assert report["result"]["n_segments"] == 99


@pytest.mark.parametrize(
    "flags, window, overlap",
    [([], "rectangular", 0.0), (["--window", "hann"], "hann", 0.5)],
    ids=["rect", "hann"],
)
def test_simulate_outputs_equal_library_calls(tmp_path, flags, window, overlap):
    # Every output of `simulate` is what the library gives for the config:
    # the report's result, both spectrum CSVs and both captures.
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--save-captures"]
    assert main(args + flags) == 0

    cfg = load_experiment_config(cfg_path)
    expected = dataclasses.asdict(run_y_factor_experiment(cfg, window, overlap))
    report = json.loads((out_dir / "report.json").read_text())
    assert report["result"] == json.loads(json.dumps(expected))

    for state, bits in zip(("hot", "cold"), simulate_bitstreams(cfg)):
        want_csv = tmp_path / f"want_{state}.csv"
        write_spectrum_csv(want_csv, psd(bits, cfg.fft_size, window, overlap))
        assert (out_dir / f"spectrum_{state}.csv").read_bytes() == want_csv.read_bytes()
        capture = read_capture(out_dir / f"capture_{state}.nfb")
        assert capture.sample_rate_hz == bits.sample_rate_hz
        np.testing.assert_array_equal(capture.bits, bits.bits)


def test_simulate_runs_one_simulation_and_one_psd_per_state(tmp_path, monkeypatch):
    # Counted under both names a call can go through: the CLI's own binding
    # and the one library functions such as run_y_factor_experiment use.
    from nfbist import cli, pipeline

    calls = {"simulate_bitstreams": 0, "psd": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in (cli, pipeline):
        for name in calls:
            monkeypatch.setattr(module, name, counted(module, name))
    cfg_path = write_config(tmp_path)
    for k in range(2):
        args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / f"run{k}")]
        assert main(args + ["--save-captures"] * k) == 0
    assert calls == {"simulate_bitstreams": 2, "psd": 4}


@pytest.mark.parametrize("overlap", ["0.9", "-0.1", "nan", "inf", "half"])
def test_simulate_bad_overlap_exits_2_before_any_work(tmp_path, overlap, capsys):
    out_dir = tmp_path / "run"
    args = [
        "simulate", "--config", str(write_config(tmp_path)), "--out", str(out_dir),
        f"--segments-overlap={overlap}",
    ]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--segments-overlap" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("seeds", ["0", "-2", "1.5", "abc"])
def test_sweep_bad_seed_count_exits_2_before_any_work(tmp_path, seeds, capsys):
    out_csv = tmp_path / "out" / "amp.csv"
    args = [
        "sweep", "--config", str(write_config(tmp_path)), "--kind", "ref-amplitude",
        "--out", str(out_csv), f"--seeds={seeds}",
    ]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out_csv.parent.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("psd", "--fft-size", "3"),
        ("psd", "--fft-size", "0"),
        ("psd", "--fft-size", "-2"),
        ("psd", "--fft-size", "2000.5"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--seed", "1.5"),
        ("sweep", "--seed", "nan"),
    ],
)
def test_bad_integer_flag_exits_2_before_any_work(tmp_path, command, flag, value, capsys):
    # The capture and the config do not exist: a bad flag must stop the run
    # before they are read (that would exit 3).
    missing = str(tmp_path / "missing")
    out = tmp_path / "out" / "result"
    inputs = {
        "psd": ["--capture", missing],
        "simulate": ["--config", missing],
        "sweep": ["--config", missing, "--kind", "gain"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.parent.exists()


def test_analyze_round_trips_simulated_captures(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--save-captures"]
    assert main(args) == 0
    sim_report = json.loads((out_dir / "report.json").read_text())

    report_path = tmp_path / "analysis.json"
    args = [
        "analyze",
        "--hot", str(out_dir / "capture_hot.nfb"),
        "--cold", str(out_dir / "capture_cold.nfb"),
        "--config", str(cfg_path),
        "--out", str(report_path),
    ]
    assert main(args) == 0
    an_report = json.loads(report_path.read_text())
    # Same bitstreams, same analysis: results agree to the last bit.
    assert an_report["result"]["y"] == sim_report["result"]["y"]
    assert an_report["result"]["f"] == sim_report["result"]["f"]


def test_analyze_swapped_captures_flags_y_below_one(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--save-captures"]
    assert main(args) == 0
    report_path = tmp_path / "swapped.json"
    args = [
        "analyze",
        "--hot", str(out_dir / "capture_cold.nfb"),   # swapped on purpose
        "--cold", str(out_dir / "capture_hot.nfb"),
        "--config", str(cfg_path),
        "--out", str(report_path),
    ]
    assert main(args) == 0
    report = json.loads(report_path.read_text())
    assert report["result"]["y"] < 1.0
    assert any("below 1" in w for w in report["result"]["warnings"])


def test_analyze_rate_mismatch_exits_4(tmp_path):
    cfg_path = write_config(tmp_path)
    rng = np.random.default_rng(0)
    bits = rng.choice(np.array([-1, 1], dtype=np.int8), 4_000)
    write_capture(tmp_path / "hot.nfb", BitStream(50_000.0, bits))
    write_capture(tmp_path / "cold.nfb", BitStream(25_000.0, bits))
    args = [
        "analyze",
        "--hot", str(tmp_path / "hot.nfb"),
        "--cold", str(tmp_path / "cold.nfb"),
        "--config", str(cfg_path),
    ]
    assert main(args) == 4


def test_analyze_config_rate_mismatch_exits_4(tmp_path, capsys):
    # Captures at 10 kHz analysed with the default 50 kHz config would put
    # the reference and the band on the wrong bins.
    slow_cfg = write_config(tmp_path, "slow.json", sample_rate_hz=10_000.0, f_ref_hz=3_000.0)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(slow_cfg), "--out", str(out_dir), "--save-captures"]
    assert main(args) == 0
    args = [
        "analyze",
        "--hot", str(out_dir / "capture_hot.nfb"),
        "--cold", str(out_dir / "capture_cold.nfb"),
        "--config", str(write_config(tmp_path)),
    ]
    assert main(args) == 4
    assert "sample rates differ" in capsys.readouterr().err


def test_bad_capture_magic_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    bad = tmp_path / "bad.nfb"
    bad.write_bytes(b"XXXX" + b"\x00" * 24)
    args = ["analyze", "--hot", str(bad), "--cold", str(bad), "--config", str(cfg_path)]
    assert main(args) == 3
    assert "capture error" in capsys.readouterr().err


def test_missing_config_file_exits_3(tmp_path):
    args = ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    assert main(args) == 3


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"source": "\xff"}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_missing_band_exits_2(tmp_path, capsys):
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "band"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "band" in capsys.readouterr().err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, fft_legnth=4096)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "fft_legnth" in capsys.readouterr().err


def test_config_reports_all_problems_at_once(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["band"]
    del cfg["dut"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "band" in err and "dut" in err


def test_config_dut_requires_exactly_one_noise_spec(tmp_path, capsys):
    dut = {"gain_linear": 1.0, "nf_db": 10.0, "added_noise_power": 2610.0}
    cfg_path = write_config(tmp_path, dut=dut)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_config_nf_db_equals_explicit_added_noise(tmp_path):
    # NF 10 dB at unit gain is added noise (10 - 1) * 290 = 2610.
    by_nf = write_config(tmp_path, name="nf.json")
    by_na = write_config(
        tmp_path, name="na.json", dut={"gain_linear": 1.0, "added_noise_power": 2610.0}
    )
    ys = []
    for cfg_path, name in ((by_nf, "out_nf"), (by_na, "out_na")):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        ys.append(json.loads((out_dir / "report.json").read_text())["result"]["y"])
    assert ys[0] == ys[1]


def test_sweep_th_error_csv(tmp_path):
    cfg_path = write_config(tmp_path)
    out_csv = tmp_path / "th.csv"
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "th-error",
        "--out", str(out_csv), "--points=-0.05,0,0.05",
    ]
    assert main(args) == 0
    rows = read_rows(out_csv)
    assert rows[0] == ["th_rel_error", "delta_nf_db"]
    assert len(rows) == 4
    by_err = {float(e): float(d) for e, d in rows[1:]}
    assert by_err[0.0] == 0.0
    assert by_err[-0.05] < 0.0 < by_err[0.05]


def test_sweep_ref_amplitude_csv(tmp_path):
    cfg_path = write_config(tmp_path)
    out_csv = tmp_path / "amp.csv"
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "ref-amplitude",
        "--out", str(out_csv), "--points", "0.25,0.4", "--seeds", "2",
    ]
    assert main(args) == 0
    rows = read_rows(out_csv)
    assert rows[0] == ["ref_amplitude_fraction", "mean_abs_y_error_fraction"]
    assert [float(r[0]) for r in rows[1:]] == [0.25, 0.4]
    assert all(float(r[1]) >= 0.0 for r in rows[1:])


def test_sweep_gain_csv(tmp_path):
    cfg_path = write_config(tmp_path)
    out_csv = tmp_path / "gain.csv"
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "gain",
        "--out", str(out_csv), "--points", "1.0",
    ]
    assert main(args) == 0
    rows = read_rows(out_csv)
    assert rows[0] == ["method", "gain_ratio", "nf_bias_db"]
    assert {r[0] for r in rows[1:]} == {"direct", "y_factor"}
    # Unit ratio cannot bias either method.
    assert all(float(r[2]) == 0.0 for r in rows[1:])


def test_sweep_bad_points_exits_2(tmp_path):
    cfg_path = write_config(tmp_path)
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "th-error",
        "--out", str(tmp_path / "x.csv"), "--points", "0.05,oops",
    ]
    assert main(args) == 2


@pytest.mark.parametrize("point", ["nan", "inf"])
def test_sweep_th_error_non_finite_point_exits_4(tmp_path, point):
    cfg_path = write_config(tmp_path)
    out_csv = tmp_path / "th.csv"
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "th-error",
        "--out", str(out_csv), "--points", point,
    ]
    assert main(args) == 4
    assert not out_csv.exists()


def test_sweep_th_error_nonphysical_f_keeps_stderr_empty(tmp_path):
    # -5% on the hot temperature of a 0.5 dB device perturbs F below 1.
    cfg_path = write_config(tmp_path, dut={"gain_linear": 1.0, "nf_db": 0.5})
    out_csv = tmp_path / "th.csv"
    args = [
        "sweep", "--config", str(cfg_path), "--kind", "th-error",
        "--out", str(out_csv), "--points=-0.05,0.05",
    ]
    run = subprocess.run(
        [sys.executable, "-m", "nfbist.cli", *args], capture_output=True, text=True
    )
    assert run.returncode == 0
    assert run.stderr == ""
    assert [r[0] for r in read_rows(out_csv)] == ["th_rel_error", "-0.05", "0.05"]


def test_psd_command_matches_library(tmp_path):
    rng = np.random.default_rng(3)
    bits = BitStream(50_000.0, rng.choice(np.array([-1, 1], dtype=np.int8), 20_000))
    cap_path = tmp_path / "cap.nfb"
    write_capture(cap_path, bits)
    out_csv = tmp_path / "psd.csv"
    args = ["psd", "--capture", str(cap_path), "--fft-size", "2000", "--out", str(out_csv)]
    assert main(args) == 0

    rows = read_rows(out_csv)
    assert rows[0] == ["freq_hz", "psd"]
    assert len(rows) == 1 + 1001
    expected = psd(read_capture(cap_path), 2000)
    # repr round-trips doubles exactly, so the CSV is a faithful dump.
    got_freq = np.array([float(r[0]) for r in rows[1:]])
    got_psd = np.array([float(r[1]) for r in rows[1:]])
    np.testing.assert_array_equal(got_freq, expected.freq_hz)
    np.testing.assert_array_equal(got_psd, expected.psd)
