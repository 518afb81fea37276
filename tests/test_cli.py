"""Command-line interface: subcommands, config validation, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfbist import (
    BitStream,
    ExperimentConfig,
    ParameterError,
    psd,
    read_capture,
    run_y_factor_experiment,
    simulate_bitstreams,
    write_capture,
)
from nfbist.cli import (
    _DUT_KEYS,
    _SOURCE_KEYS,
    _TOP_KEYS,
    ConfigError,
    load_experiment_config,
    main,
    write_spectrum_csv,
)

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


def test_write_spectrum_csv_bytes_match_csv_writer(tmp_path):
    # Pins the file to the csv.writer form: header, repr floats, CRLF endings.
    sig = simulate_bitstreams(load_experiment_config(write_config(tmp_path)))[0]
    spectrum = psd(sig, 2_000, "hann", 0.5)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "psd"])
        for f, p in zip(spectrum.freq_hz, spectrum.psd):
            writer.writerow([repr(float(f)), repr(float(p))])
    got = tmp_path / "got.csv"
    write_spectrum_csv(got, spectrum)
    data = got.read_bytes()
    assert data == want.read_bytes()
    assert data.startswith(b"freq_hz,psd\r\n0.0,") and data.endswith(b"\r\n")
    assert data.count(b"\r\n") == 1 + spectrum.psd.size


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


def test_default_config_captures_are_pinned(tmp_path):
    # The NFB1 bytes of the README default config at seed 1; the file
    # format must not move with the bitstreams' in-memory form.
    cfg_path = write_config(tmp_path, n_samples=1_000_000, fft_size=10_000, seed=1)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--save-captures"]
    assert main(args) == 0
    digests = {
        state: hashlib.sha256((out_dir / f"capture_{state}.nfb").read_bytes()).hexdigest()
        for state in ("hot", "cold")
    }
    assert digests == {
        "hot": "9cc14ea668f1878023eb07668729d2087ab8cb3a9d3962c5c7bc3f5704605469",
        "cold": "6c7071783c12d0b9b013f633c59c4443421a9563a859d57979492119406f80c1",
    }


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
    # A JSON true is not the number 1, in an integer or a float field.
    for field, overrides in [
        ("ref_exclusion_halfwidth_bins", dict(ref_exclusion_halfwidth_bins=True)),
        ("nf_db", dict(dut={"gain_linear": 1.0, "nf_db": True})),
        ("gain_linear", dict(dut={"gain_linear": True, "nf_db": 10.0})),
        ("t_hot_k", dict(source={"t_hot_k": True, "t_cold_k": 1_000.0})),
        ("band", dict(band=[True, 1500.0])),
        ("ref_amplitude", dict(ref_amplitude=True)),
        ("f_ref_hz", dict(f_ref_hz=True)),
    ]:
        cfg_path = write_config(tmp_path, **overrides)
        out_dir = tmp_path / field
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert field in capsys.readouterr().err
        assert not out_dir.exists()


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
    # _spectra counts the records it is given: the hot and the cold
    # spectrum are summed in one call, on two threads when two cores are
    # usable.
    from nfbist import cli, pipeline

    calls = {"simulate_bitstreams": 0, "psd": 0, "_spectra": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += len(args[0]) if name == "_spectra" else 1
            return original(*args, **kwargs)

        return wrapper

    for module in (cli, pipeline):
        for name in calls:
            monkeypatch.setattr(module, name, counted(module, name))
    cfg_path = write_config(tmp_path)
    for k in range(2):
        args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / f"run{k}")]
        assert main(args + ["--save-captures"] * k) == 0
    assert calls == {"simulate_bitstreams": 2, "psd": 0, "_spectra": 4}


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


def test_analyze_notes_differing_segment_counts(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--save-captures"]
    assert main(args) == 0
    cold_path = out_dir / "capture_cold.nfb"
    cold = read_capture(cold_path)
    write_capture(cold_path, BitStream(cold.sample_rate_hz, cold.bits[: cold.bits.size // 2]))
    capsys.readouterr()
    report_path = tmp_path / "analysis.json"
    args = [
        "analyze",
        "--hot", str(out_dir / "capture_hot.nfb"),
        "--cold", str(cold_path),
        "--config", str(cfg_path),
        "--out", str(report_path),
    ]
    assert main(args) == 0
    note = "hot/cold segment counts differ: 50 vs 25"
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [f"warning: {note}"]
    assert json.loads(report_path.read_text())["result"]["warnings"] == [note]


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


@pytest.mark.parametrize("f_ref_hz", [24_990.0, 1.0])
def test_unreachable_reference_exits_2_before_any_work(tmp_path, monkeypatch, f_ref_hz, capsys):
    # The README default config, with a reference whose +-5-bin peak search
    # leaves the spectrum: rejected with the config, before any draw.
    from nfbist import pipeline

    def no_draw(*args):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(pipeline, "_comparator_bits", no_draw)
    cfg_path = write_config(tmp_path, n_samples=1_000_000, fft_size=10_000, f_ref_hz=f_ref_hz)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert "f_ref_hz" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_reports_all_problems_at_once(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["band"]
    del cfg["dut"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "band" in err and "dut" in err


def test_bad_source_and_dut_print_one_line_each(tmp_path, capsys):
    # Each section reports its own problem once; the top level adds none.
    source = {"t_hot_k": -1.0, "t_cold_k": 1_000.0}
    cfg_path = write_config(tmp_path, source=source, dut={"gain_linear": 0.0, "nf_db": 10.0})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error: ") for line in lines)
    assert lines[0].startswith("config error: source: t_hot_k")
    assert lines[1].startswith("config error: dut: gain_linear")


@pytest.mark.parametrize("band", [[1, 2, 3], "ab", None, {}], ids=["three", "str", "null", "obj"])
def test_bad_band_exits_2_with_the_configs_message(tmp_path, band, capsys):
    cfg_path = write_config(tmp_path, band=band)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "band" in err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("kind", ["ref-amplitude", "th-error", "gain"])
@pytest.mark.parametrize("points", [",", ""])
def test_sweep_empty_points_exits_2(tmp_path, kind, points):
    # Checked before the config is read: a missing config would exit 3.
    out_csv = tmp_path / "x.csv"
    args = [
        "sweep", "--config", str(tmp_path / "missing.json"), "--kind", kind,
        "--out", str(out_csv), "--points", points,
    ]
    assert main(args) == 2
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "kind, point",
    [
        (kind, point)
        for kind in ("ref-amplitude", "th-error", "gain")
        for point in ("nan", "inf", "-1") + (("0",) if kind != "th-error" else ())
    ],
)
def test_sweep_bad_point_exits_2_before_any_work(tmp_path, kind, point, capsys):
    # Checked as the study checks it, before the config is read: a missing
    # config would exit 3.
    out_csv = tmp_path / "out" / "sweep.csv"
    args = [
        "sweep", "--config", str(tmp_path / "missing.json"), "--kind", kind,
        "--out", str(out_csv), f"--points=0.5,{point}",
    ]
    assert main(args) == 2
    assert "--points" in capsys.readouterr().err
    assert not out_csv.parent.exists()


def test_sweep_th_error_writes_nan_where_the_perturbed_f_is_not_positive(tmp_path):
    # Every point above -1 is accepted; at -0.99 the perturbed F is below 0,
    # so its row reads nan instead of aborting the study.
    out_csv = tmp_path / "th.csv"
    args = [
        "sweep", "--config", str(write_config(tmp_path)), "--kind", "th-error",
        "--out", str(out_csv), "--points=-0.99,0.05",
    ]
    assert main(args) == 0
    assert read_rows(out_csv)[1] == ["-0.99", "nan"]


@pytest.mark.parametrize(
    "kind, flag",
    [
        ("th-error", ["--seed", "3"]),
        ("th-error", ["--seeds", "7"]),
        ("th-error", ["--window", "hann"]),
        ("th-error", ["--segments-overlap", "0.25"]),
        ("gain", ["--seeds", "7"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_sweep_flag_the_study_does_not_read_exits_2(tmp_path, kind, flag, capsys):
    # Checked before the config is read: a missing config would exit 3.
    out_csv = tmp_path / "out" / "sweep.csv"
    args = [
        "sweep", "--config", str(tmp_path / "missing.json"), "--kind", kind,
        "--out", str(out_csv), *flag,
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {flag[0]}: the {kind} sweep does not read it"]
    assert not out_csv.parent.exists()


def test_sweep_accepts_unread_flags_left_at_their_defaults(tmp_path):
    cfg_path = write_config(tmp_path)
    written = []
    for extra in ([], ["--seeds", "10", "--window", "rect"]):
        out_csv = tmp_path / f"th{len(extra)}.csv"
        args = [
            "sweep", "--config", str(cfg_path), "--kind", "th-error",
            "--out", str(out_csv), *extra,
        ]
        assert main(args) == 0
        written.append(out_csv.read_bytes())
    assert written[0] == written[1]


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


@pytest.mark.parametrize(
    "flag, value",
    [("--fft-size", v) for v in ("2", "3", "0", "-2", "10000")]
    + [("--segments-overlap", v) for v in ("0", "0.75", "0.9", "-0.1", "nan")],
)
def test_psd_flags_refuse_what_psd_refuses(tmp_path, flag, value, capsys):
    # The flag is checked by psd's own rule, so it exits 2 exactly where
    # psd raises ParameterError, and runs where psd runs.
    bits = BitStream(50_000.0, np.random.default_rng(5).choice(np.array([-1, 1], np.int8), 20_000))
    cap_path = tmp_path / "cap.nfb"
    write_capture(cap_path, bits)
    fft_size, overlap = (int(value), 0.0) if flag == "--fft-size" else (2_000, float(value))
    try:
        psd(bits, fft_size, overlap_fraction=overlap)
        refused = False
    except ParameterError:
        refused = True
    args = ["psd", "--capture", str(cap_path), "--out", str(tmp_path / "psd.csv")]
    args += ["--fft-size", "2000"] if flag == "--segments-overlap" else []
    try:
        code = main([*args, f"{flag}={value}"])
    except SystemExit as exc:
        code = exc.code
    assert code == (2 if refused else 0)
    assert (flag in capsys.readouterr().err) == refused


def test_psd_command_without_a_hop_exits_4(tmp_path, capsys):
    # A 2-point FFT at 75% overlap rounds to an overlap of both samples.
    cap_path = tmp_path / "cap.nfb"
    write_capture(cap_path, BitStream(50_000.0, np.ones(100, dtype=np.int8)))
    args = ["psd", "--capture", str(cap_path), "--fft-size", "2", "--window", "hann"]
    args += ["--segments-overlap", "0.75", "--out", str(tmp_path / "psd.csv")]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "psd.csv").exists()


def test_record_too_long_to_allocate_exits_4(tmp_path, capsys):
    # numpy refuses the 1e18-sample record's first array at once, without
    # allocating it.
    cfg_path = write_config(tmp_path, n_samples=10**18)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Config values of every JSON kind, valid or not: numbers at and past the
# float64 range, NaN and the infinities (json reads NaN and Infinity), bools,
# strings, arrays and null.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 30_000),
    st.integers(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, 0.5, 3e3]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(-1e5, 1e5), st.integers(-10, 30_000)), max_size=3),
)
_JUNK_KEYS = st.sampled_from(["", "fft_legnth", "Seed", "t_hot", "nf"])


def _fields(keys):
    return st.dictionaries(st.one_of(st.sampled_from(sorted(keys)), _JUNK_KEYS), _JSON_VALUES, max_size=3)


@st.composite
def _fuzzed_configs(draw):
    """A small valid config with some keys replaced, added or removed."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["n_samples"] = 20_000
    cfg.update(draw(_fields(_TOP_KEYS)))
    for part, keys in (("source", _SOURCE_KEYS), ("dut", _DUT_KEYS)):
        if isinstance(cfg.get(part), dict):
            cfg[part].update(draw(_fields(keys)))
    for key in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=1)):
        del cfg[key]
    return cfg


@settings(max_examples=60, deadline=None)
@given(_fuzzed_configs())
def test_fuzzed_config_loads_or_raises_config_error_and_simulate_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        try:
            cfg = load_experiment_config(path)
        except ConfigError:
            cfg = None
        assert cfg is None or isinstance(cfg, ExperimentConfig)
        # A config that loads runs only at sizes a test can afford.
        if cfg is None or cfg.n_samples <= 20_000:
            args = ["simulate", "--config", str(path), "--out", str(Path(tmp) / "run")]
            assert main(args) in {0, 2, 3, 4}
