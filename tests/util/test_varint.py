"""Varint encode/decode round-trips and error handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.varint import VarintError, decode_varint, encode_varint


def test_zero_encodes_to_single_byte():
    assert encode_varint(0) == b"\x00"


def test_small_values_single_byte():
    for value in range(128):
        assert encode_varint(value) == bytes([value])


def test_128_uses_two_bytes():
    assert encode_varint(128) == b"\x80\x01"


def test_decode_known_value():
    assert decode_varint(b"\x80\x01") == (128, 2)


def test_decode_with_offset():
    data = b"\xff" + encode_varint(300)
    value, end = decode_varint(data, offset=1)
    assert value == 300
    assert end == 1 + len(encode_varint(300))


def test_negative_rejected():
    with pytest.raises(VarintError):
        encode_varint(-1)


def test_truncated_rejected():
    with pytest.raises(VarintError):
        decode_varint(b"\x80")


def test_overlong_rejected():
    with pytest.raises(VarintError):
        decode_varint(b"\x80" * 10 + b"\x01")


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_roundtrip_property(value):
    encoded = encode_varint(value)
    decoded, end = decode_varint(encoded)
    assert decoded == value
    assert end == len(encoded)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20))
def test_concatenated_varints_decode_in_order(values):
    blob = b"".join(encode_varint(v) for v in values)
    offset = 0
    out = []
    for _ in values:
        value, offset = decode_varint(blob, offset)
        out.append(value)
    assert out == values
    assert offset == len(blob)
