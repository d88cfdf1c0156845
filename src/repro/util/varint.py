"""LEB128-style unsigned varints.

Both the Kinetic wire protocol (a protobuf stand-in) and the compiled
policy binary format use varints for compact length/field encoding.
"""

from __future__ import annotations

from repro.errors import PesosError


class VarintError(PesosError):
    """Varint is malformed (truncated or longer than 64 bits)."""


_MAX_VARINT_BYTES = 10  # 64 bits / 7 bits-per-byte, rounded up


def encode_varint(value: int) -> bytes:
    """Encode an unsigned 64-bit integer as a LEB128 varint."""
    if 0 <= value < 0x80:
        return bytes((value,))
    if value < 0 or value >> 64:
        raise VarintError(f"varints are unsigned 64-bit, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise VarintError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80 and not result >> 64:
            return result, pos
        shift += 7
    # More than ten bytes, or a last (tenth) byte above 0x01.
    raise VarintError("varint exceeds 64 bits")
