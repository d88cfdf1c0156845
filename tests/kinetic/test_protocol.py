"""Wire protocol: TLV encoding, framing, HMAC, response pairing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aead import HmacSha256
from repro.errors import KineticError
from repro.kinetic.protocol import (
    Message,
    MessageType,
    StatusCode,
    decode_fields,
    encode_fields,
    response_type,
)


def test_field_roundtrip_all_types():
    fields = {
        "int": 42,
        "big": 2**60,
        "bytes": b"\x00\xffdata",
        "str": "pesos",
        "list": [1, b"two", "three", [4]],
        "none": None,
        "bool": True,
    }
    decoded = decode_fields(encode_fields(fields))
    expected = dict(fields)
    expected["bool"] = 1  # bools canonicalize to ints
    assert decoded == expected


def test_field_encoding_deterministic():
    a = encode_fields({"b": 1, "a": 2})
    b = encode_fields({"a": 2, "b": 1})
    assert a == b


def test_negative_int_rejected():
    with pytest.raises(KineticError):
        encode_fields({"x": -1})


def test_unsupported_type_rejected():
    with pytest.raises(KineticError):
        encode_fields({"x": 1.5})


def test_truncated_fields_rejected():
    blob = encode_fields({"key": b"value"})
    with pytest.raises(KineticError):
        decode_fields(blob[:-3])


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=0, max_value=2**63),
            st.binary(max_size=64),
            st.text(max_size=32),
            st.none(),
            st.lists(st.integers(min_value=0, max_value=100), max_size=5),
        ),
        max_size=8,
    )
)
def test_field_roundtrip_property(fields):
    assert decode_fields(encode_fields(fields)) == fields


SECRET = HmacSha256(b"secret")


def _message(**kwargs):
    defaults = dict(
        message_type=MessageType.PUT,
        identity="pesos",
        sequence=7,
        body={"key": b"k1", "value": b"v1"},
    )
    defaults.update(kwargs)
    return Message(**defaults)


def test_message_wire_roundtrip():
    message = _message().sign(SECRET)
    decoded = Message.decode(message.encode())
    assert decoded.message_type == MessageType.PUT
    assert decoded.identity == "pesos"
    assert decoded.sequence == 7
    assert decoded.body == {"key": b"k1", "value": b"v1"}
    assert decoded.verify(SECRET)


def test_hmac_fails_with_wrong_key():
    message = _message().sign(SECRET)
    assert not message.verify(HmacSha256(b"wrong"))


def test_hmac_fails_after_body_tamper():
    message = _message().sign(SECRET)
    message.body["value"] = b"evil"
    assert not message.verify(SECRET)


def test_hmac_covers_sequence():
    message = _message().sign(SECRET)
    message.sequence = 99
    assert not message.verify(SECRET)


def test_bad_magic_rejected():
    message = _message().sign(SECRET)
    with pytest.raises(KineticError):
        Message.decode(b"X" + message.encode()[1:])


def test_truncated_frame_rejected():
    wire = _message().sign(SECRET).encode()
    with pytest.raises(KineticError):
        Message.decode(wire[: len(wire) // 2])


def test_response_pairing():
    request = _message()
    response = request.make_response(StatusCode.SUCCESS, body={"ok": 1})
    assert response.message_type == MessageType.PUT_RESPONSE
    assert response.sequence == request.sequence
    assert response.ok


def test_response_of_response_rejected():
    with pytest.raises(KineticError):
        response_type(MessageType.PUT_RESPONSE)


def test_every_request_type_has_response():
    for message_type in (
        MessageType.GET,
        MessageType.PUT,
        MessageType.DELETE,
        MessageType.GETKEYRANGE,
        MessageType.SECURITY,
        MessageType.SETUP,
        MessageType.PEER2PEERPUSH,
        MessageType.GETLOG,
        MessageType.NOOP,
    ):
        assert response_type(message_type).name == message_type.name + "_RESPONSE"


def test_error_response_not_ok():
    response = _message().make_response(
        StatusCode.NOT_FOUND, status_message="missing"
    )
    assert not response.ok
    assert response.status_message == "missing"
