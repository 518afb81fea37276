"""Bit-packed capture file format: round trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfbist import (
    BitStream,
    CaptureCorruptError,
    CaptureFormatError,
    ParameterError,
    SampledSignal,
    read_capture,
    write_capture,
)

HEADER = struct.Struct("<4sIdQ")


def _random_bits(n, seed=0, rate=50_000.0):
    rng = np.random.default_rng(seed)
    return BitStream(rate, rng.choice(np.array([-1, 1], dtype=np.int8), n))


def _write_raw(path, magic=b"NFB1", version=1, rate=100.0, n_bits=8, payload=b"\x5a"):
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(magic, version, rate, n_bits))
        fh.write(payload)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 1000])
def test_round_trip_is_lossless(tmp_path, n):
    bits = _random_bits(n, seed=n)
    path = tmp_path / "cap.nfb"
    write_capture(path, bits)
    back = read_capture(path)
    np.testing.assert_array_equal(back.bits, bits.bits)
    assert back.sample_rate_hz == bits.sample_rate_hz


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2048),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
)
def test_round_trip_property(tmp_path_factory, n, seed, rate):
    bits = _random_bits(n, seed=seed, rate=rate)
    path = tmp_path_factory.mktemp("cap") / "cap.nfb"
    write_capture(path, bits)
    back = read_capture(path)
    np.testing.assert_array_equal(back.bits, bits.bits)
    assert back.sample_rate_hz == bits.sample_rate_hz


def test_file_layout(tmp_path):
    bits = BitStream(12_345.5, [1, -1, -1, 1, 1, 1, -1, 1, 1])
    path = tmp_path / "cap.nfb"
    write_capture(path, bits)
    raw = path.read_bytes()
    # 24-byte header plus ceil(9/8) = 2 payload bytes.
    assert len(raw) == HEADER.size + 2
    magic, version, rate, n_bits = HEADER.unpack_from(raw)
    assert magic == b"NFB1"
    assert version == 1
    assert rate == 12_345.5
    assert n_bits == 9
    # LSB-first packing, bit set for +1: 1,0,0,1,1,1,0,1 -> 0b10111001.
    assert raw[HEADER.size] == 0b10111001
    assert raw[HEADER.size + 1] == 0b00000001


@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000, 100_003])
def test_payload_equals_uint8_packing(tmp_path, n):
    # The bool decisions are packed directly; the bytes must equal packing
    # a 0/1 uint8 copy, the form the format was defined with.
    bits = _random_bits(n, seed=n)
    path = tmp_path / "cap.nfb"
    write_capture(path, bits)
    ones = (bits.bits > 0).astype(np.uint8)
    want = HEADER.pack(b"NFB1", 1, bits.sample_rate_hz, n) + np.packbits(ones, bitorder="little").tobytes()
    assert path.read_bytes() == want
    back = read_capture(path)
    assert back.bits.dtype == np.int8
    np.testing.assert_array_equal(back.bits, bits.bits)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.nfb"
    _write_raw(path, magic=b"XXXX")
    with pytest.raises(CaptureFormatError):
        read_capture(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "bad.nfb"
    _write_raw(path, version=2)
    with pytest.raises(CaptureFormatError):
        read_capture(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "bad.nfb"
    path.write_bytes(b"NFB1\x01")
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.nfb"
    _write_raw(path, n_bits=64, payload=b"\xff" * 4)  # needs 8 bytes
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "bad.nfb"
    _write_raw(path, n_bits=8, payload=b"\xff\x00")
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


def test_nonzero_padding_bits(tmp_path):
    # 3 bits claimed but high bits of the byte are set.
    path = tmp_path / "bad.nfb"
    _write_raw(path, n_bits=3, payload=b"\xff")
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


def test_zero_bit_count(tmp_path):
    path = tmp_path / "bad.nfb"
    _write_raw(path, n_bits=0, payload=b"")
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_sample_rate(tmp_path, rate):
    path = tmp_path / "bad.nfb"
    _write_raw(path, rate=rate)
    with pytest.raises(CaptureCorruptError):
        read_capture(path)


@pytest.mark.parametrize(
    "value",
    [SampledSignal(10.0, [1.0, -1.0]), np.array([1, -1], dtype=np.int8), [1, -1], None],
    ids=["signal", "int8_array", "list", "none"],
)
def test_write_capture_rejects_a_non_bitstream_before_opening(tmp_path, value):
    path = tmp_path / "never.nfb"
    with pytest.raises(ParameterError):
        write_capture(path, value)
    assert not path.exists()
