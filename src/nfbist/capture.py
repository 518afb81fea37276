"""Binary capture files for comparator bitstreams.

Layout (little-endian throughout):

    bytes 0-3   magic "NFB1"
    bytes 4-7   format version (u32), currently 1
    bytes 8-15  sample rate in Hz (f64)
    bytes 16-23 bit count (u64)
    bytes 24-   bits packed 8 per byte, LSB first, bit value 1 <-> +1;
                unused bits in the final byte are zero

The payload is the layout in which every BitStream holds its bits, so
write_capture writes the header and then the stream's payload as it is,
and read_capture wraps the file's payload bytes without unpacking them.
The round trip write_capture -> read_capture is lossless.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .digitizer import BitStream
from .errors import CaptureCorruptError, CaptureFormatError, ParameterError

__all__ = ["write_capture", "read_capture"]

MAGIC = b"NFB1"
VERSION = 1
_HEADER = struct.Struct("<4sIdQ")


def write_capture(path, bits: BitStream) -> None:
    """Write a bitstream to ``path`` in NFB1 format. Anything that is not
    a BitStream raises ParameterError before the path is opened."""
    if not isinstance(bits, BitStream):
        raise ParameterError(f"expected a BitStream, got {type(bits).__name__}")
    header = _HEADER.pack(MAGIC, VERSION, bits.sample_rate_hz, len(bits))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bits._packed)


def read_capture(path) -> BitStream:
    """Read an NFB1 capture back into a BitStream."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CaptureCorruptError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, sample_rate_hz, n_bits = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CaptureFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CaptureFormatError(f"{path}: unsupported format version {version}")
    if not math.isfinite(sample_rate_hz) or sample_rate_hz <= 0.0:
        raise CaptureCorruptError(f"{path}: invalid sample rate {sample_rate_hz!r}")
    if n_bits < 1:
        raise CaptureCorruptError(f"{path}: capture claims {n_bits} bits")
    expected_payload = (n_bits + 7) // 8
    have = len(raw) - _HEADER.size
    if have < expected_payload:
        raise CaptureCorruptError(
            f"{path}: truncated payload, have {have} bytes, need {expected_payload}"
        )
    if have > expected_payload:
        raise CaptureCorruptError(
            f"{path}: {have - expected_payload} trailing bytes after payload"
        )
    payload = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    # Only the last byte can hold padding bits: those above bit n_bits % 8.
    if n_bits % 8 and payload[-1] >> (n_bits % 8):
        raise CaptureCorruptError(f"{path}: nonzero padding bits after the payload")
    return BitStream._from_packed(sample_rate_hz, payload, n_bits)
