"""Self-tests of the benchmark: span accounting and the correctness gates.

    python3 -m pytest -q perfbench
"""

import math
import sys
import types
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from tracing import Span, Tracer, accounting_gap, layer_metrics, self_times
from workloads import (
    SRC,
    cli_problems,
    experiment_gate,
    reanalyze_problems,
    result_problems,
    same_result,
    sweep_problems,
)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, 1, "bench.op", 0.0, 10.0),
        Span(1, 0, 1, "pipeline.a", 1.0, 4.0),
        Span(2, 0, 1, "pipeline.b", 3.0, 6.0),  # overlaps a: union is [1, 6]
        Span(3, 0, 1, "spectral.psd", 7.0, 9.0),
        Span(4, 3, 1, "spectral.inner", 7.5, 8.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.5, 4: 0.5})


def test_self_times_of_nested_op_sum_to_wall_time():
    spans = [
        Span(0, None, 7, "bench.op", 0.0, 10.0),
        Span(1, 0, 7, "pipeline.a", 1.0, 4.0),
        Span(2, 1, 7, "signals.b", 2.0, 3.0),
        Span(3, 0, 7, "spectral.psd", 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert accounting_gap(spans, selfs, op=7, wall_s=10.0) == pytest.approx(0.0)
    assert accounting_gap(spans, selfs, op=7, wall_s=10.5) == pytest.approx(0.5 / 10.5)


def test_tracer_wraps_and_restores_module_functions():
    mod = types.ModuleType("fake_layer")
    mod.square = lambda x: x * x
    mod.outer = lambda x: mod.square(x) + 1
    sys.modules["fake_layer"] = mod
    original = mod.square
    try:
        tracer = Tracer()
        tracer.op = 3
        tracer.install((("fake_layer", "square", "signals.square"), ("fake_layer", "outer", "pipeline.outer")))
        assert tracer.call("bench.op", mod.outer, 4) == 17
        tracer.uninstall()
        assert mod.square is original
    finally:
        del sys.modules["fake_layer"]
    root, outer, square = tracer.spans
    assert [s.name for s in tracer.spans] == ["bench.op", "pipeline.outer", "signals.square"]
    assert (root.parent, outer.parent, square.parent) == (None, root.id, outer.id)
    assert {s.op for s in tracer.spans} == {3}
    assert root.start <= outer.start <= square.start <= square.end <= outer.end <= root.end


def test_adopt_renumbers_child_spans_under_parent():
    tracer = Tracer()
    tracer.op = 5
    tracer.spans.append(Span(0, None, 5, "bench.op", 0.0, 10.0))
    child = [
        {"id": 0, "parent": None, "op": None, "name": "cli.main", "start": 1.0, "end": 9.0, "attrs": {}},
        {"id": 1, "parent": 0, "op": None, "name": "cli.cmd_simulate", "start": 2.0, "end": 8.0, "attrs": {}},
    ]
    tracer.adopt(child, parent=0)
    main, cmd = tracer.spans[1:]
    assert (main.id, main.parent, cmd.id, cmd.parent) == (1, 0, 2, 1)
    assert main.op == cmd.op == 5


def _span(i, parent, name, **attrs):
    return Span(i, parent, 1, name, float(i), float(i) + 0.5, attrs)


def test_layer_metrics_ratios():
    spans = [
        Span(0, None, 1, "bench.op", 0.0, 100.0),
        _span(1, 0, "cli.cmd_simulate"),
        _span(2, 1, "pipeline.simulate_bitstreams"),
        _span(3, 2, "signals.source_output"),
        _span(4, 2, "dut.apply_dut", bytes=16_000_000),
        _span(5, 1, "pipeline.simulate_bitstreams"),
        _span(6, 1, "spectral.psd", segments=100),
        _span(7, 1, "pipeline.analyze_bitstreams", nf_db=10.5),
        _span(8, 0, "pipeline.run_direct_experiment"),
        _span(9, 8, "signals.gaussian_noise"),
        _span(10, 8, "dut.apply_dut"),
    ]
    m = layer_metrics(spans, n_ops=1, nominal_nf_db=10.0, first_op=1)
    # Draws under the direct method are not Y-factor draws.
    assert m["pipeline.normal_draws_per_experiment"][0] == 2.0
    assert m["cli.simulations_per_invocation"][0] == 2.0
    assert m["cli.psd_per_invocation"][0] == 1.0
    assert m["spectral.psd.segments"][0] == 100
    assert m["dut.apply_dut.calls"][0] == 2.0
    assert m["dut.mb_computed"][0] == 16.0
    assert m["pipeline.nf_abs_err_db"][0] == pytest.approx(0.5)


def test_experiment_gate_counts_outliers_only_when_criterion_fails():
    y_ideal = 3.5
    failed, summary = experiment_gate([10.1] * 8 + [10.9, 9.0], [3.5] * 10, y_ideal)
    assert failed == [] and "PASS" in summary
    failed, summary = experiment_gate([10.1] * 7 + [10.9, 9.0, 11.0], [3.5] * 10, y_ideal)
    assert failed == [7, 8, 9] and "FAIL" in summary
    failed, _ = experiment_gate([10.0] * 10, [3.0] * 10, y_ideal)  # mean |Y error| 0.14
    assert failed == list(range(10))


def test_result_problems():
    ok = SimpleNamespace(y=3.4, nf_db=10.2, warnings=())
    assert result_problems(ok) == []
    assert result_problems(SimpleNamespace(y=3.4, nf_db=math.nan, warnings=()))
    assert result_problems(SimpleNamespace(y=0.9, nf_db=10.0, warnings=("Y below 1",)))


GOOD_AMPLITUDE = [(0.02, 0.6), (0.1, 0.19), (0.25, 0.02), (0.4, 0.015), (1.0, 0.19), (1.5, 0.43)]
GOOD_GAIN = [
    ("direct", 10 ** -0.1, 10 * math.log10(10 ** -0.1)),
    ("y_factor", 10 ** -0.1, 0.0),
    ("direct", 1.0, 0.0),
    ("y_factor", 1.0, 0.0),
]


def test_sweep_gate():
    assert sweep_problems(GOOD_AMPLITUDE, GOOD_GAIN) == []
    broken_u = [(a, 0.7 if a == 0.25 else e) for a, e in GOOD_AMPLITUDE]
    assert sweep_problems(broken_u, GOOD_GAIN)
    assert sweep_problems(GOOD_AMPLITUDE, GOOD_GAIN + [("y_factor", 1.25, 1e-16)])
    assert sweep_problems(GOOD_AMPLITUDE, GOOD_GAIN + [("direct", 1.25, 1.0)])


@dataclass(frozen=True)
class _Result:
    f: float
    nf_db: float
    warnings: tuple = ()


def test_same_result_treats_nan_as_equal():
    assert same_result(_Result(1.0, math.nan), _Result(1.0, math.nan))
    assert not same_result(_Result(1.0, 10.0), _Result(1.0, 10.0 + 1e-15))


def test_reanalyze_gate_on_a_real_capture_round_trip(tmp_path):
    sys.path.insert(0, str(SRC))
    from nfbist import BitStream, read_capture, write_capture

    bits = BitStream(50_000.0, np.where(np.arange(1001) % 3 == 0, 1, -1))
    write_capture(tmp_path / "a.nfb", bits)
    back = read_capture(tmp_path / "a.nfb")
    expected = (_Result(2.0, 3.0), _Result(4.0, 6.0))
    assert reanalyze_problems((bits, bits), (back, back), expected, expected) == []
    flipped = BitStream(50_000.0, -back.bits)
    assert reanalyze_problems((bits, bits), (back, flipped), expected, expected)
    assert reanalyze_problems((bits, bits), (back, back), expected, (expected[0], _Result(4.0, 6.1)))


def test_cli_gate():
    assert cli_problems([0, 0], 10.2, 10.2, 10.2) == []
    assert cli_problems([0, 2], 10.2, 10.2, 10.2)
    assert cli_problems([0, 0], 10.2, 10.2, 10.2 + 1e-12)
    assert cli_problems([0, 0], 10.2, 10.3, 10.2)
