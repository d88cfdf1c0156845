"""Reference TLV codec: the stream-based implementation that wrote every
record now on the drives.

``repro.kinetic.protocol`` replaced it with a single-pass encoder and a
canonical-only decoder; this copy stays here, unoptimised, as the oracle
``test_codec.py`` compares them against.  Its decoder is lenient: it
accepts duplicate or unsorted keys, non-minimal varints and trailing
bytes, all of which the shipped decoder rejects.
"""

from __future__ import annotations

import io

from repro.errors import KineticError
from repro.util.varint import VarintError, encode_varint

_TYPE_INT = 0
_TYPE_BYTES = 1
_TYPE_STR = 2
_TYPE_LIST = 3
_TYPE_NONE = 4


def write_varint(stream: io.BytesIO, value: int) -> None:
    stream.write(encode_varint(value))


def read_varint(stream: io.BytesIO) -> int:
    result = 0
    shift = 0
    for _ in range(10):
        chunk = stream.read(1)
        if not chunk:
            raise VarintError("truncated varint")
        byte = chunk[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80 and not result >> 64:
            return result
        shift += 7
    raise VarintError("varint exceeds 64 bits")  # or a tenth byte above 1


def _read_exact(stream: io.BytesIO, length: int, what: str) -> bytes:
    remaining = stream.getbuffer().nbytes - stream.tell()
    if length > remaining:
        raise KineticError(
            f"{what} length {length} exceeds remaining payload {remaining}"
        )
    return stream.read(length)


def _write_value(stream: io.BytesIO, value) -> None:
    if value is None:
        stream.write(bytes([_TYPE_NONE]))
    elif isinstance(value, bool):
        stream.write(bytes([_TYPE_INT]))
        write_varint(stream, int(value))
    elif isinstance(value, int):
        if value < 0 or value >> 64:
            raise KineticError(f"cannot encode int {value} in 64 bits")
        stream.write(bytes([_TYPE_INT]))
        write_varint(stream, value)
    elif isinstance(value, bytes):
        stream.write(bytes([_TYPE_BYTES]))
        write_varint(stream, len(value))
        stream.write(value)
    elif isinstance(value, str):
        raw = value.encode()
        stream.write(bytes([_TYPE_STR]))
        write_varint(stream, len(raw))
        stream.write(raw)
    elif isinstance(value, (list, tuple)):
        stream.write(bytes([_TYPE_LIST]))
        write_varint(stream, len(value))
        for item in value:
            _write_value(stream, item)
    else:
        raise KineticError(f"cannot encode field of type {type(value).__name__}")


def _read_value(stream: io.BytesIO):
    type_byte = stream.read(1)
    if not type_byte:
        raise KineticError("truncated field value")
    kind = type_byte[0]
    if kind == _TYPE_NONE:
        return None
    if kind == _TYPE_INT:
        return read_varint(stream)
    if kind in (_TYPE_BYTES, _TYPE_STR):
        length = read_varint(stream)
        raw = _read_exact(stream, length, "field payload")
        if kind == _TYPE_BYTES:
            return raw
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid string field: {exc}") from exc
    if kind == _TYPE_LIST:
        count = read_varint(stream)
        remaining = stream.getbuffer().nbytes - stream.tell()
        if count > remaining:  # each element needs >= 1 byte
            raise KineticError("list count exceeds remaining payload")
        return [_read_value(stream) for _ in range(count)]
    raise KineticError(f"unknown field type {kind}")


def encode_fields(fields: dict) -> bytes:
    stream = io.BytesIO()
    write_varint(stream, len(fields))
    for key in sorted(fields):
        raw_key = key.encode()
        write_varint(stream, len(raw_key))
        stream.write(raw_key)
        _write_value(stream, fields[key])
    return stream.getvalue()


def decode_fields(data: bytes) -> dict:
    stream = io.BytesIO(data)
    count = read_varint(stream)
    if count > len(data):
        raise KineticError("field count exceeds payload")
    fields = {}
    for _ in range(count):
        key_len = read_varint(stream)
        raw_key = _read_exact(stream, key_len, "field key")
        try:
            key = raw_key.decode()
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid field key: {exc}") from exc
        fields[key] = _read_value(stream)
    return fields
