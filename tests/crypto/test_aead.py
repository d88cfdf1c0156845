"""The seal/open contract, for StreamAead and literal AES-GCM alike."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import StreamAead
from repro.crypto.gcm import AesGcm
from repro.errors import CryptoError, IntegrityError

NONCE = b"n" * 12


@pytest.fixture(params=[StreamAead, AesGcm], ids=["stream", "gcm"])
def aead(request):
    return request.param(b"k" * 16)


def test_seal_open_roundtrip(aead):
    blob = aead.seal(NONCE, b"object payload", b"aad")
    assert aead.open(NONCE, blob, b"aad") == b"object payload"


def test_ciphertext_differs_from_plaintext(aead):
    blob = aead.seal(NONCE, b"object payload")
    assert b"object payload" not in blob


def test_tamper_detected(aead):
    blob = bytearray(aead.seal(NONCE, b"payload"))
    blob[0] ^= 1
    with pytest.raises(IntegrityError):
        aead.open(NONCE, bytes(blob))


def test_wrong_aad_detected(aead):
    blob = aead.seal(NONCE, b"payload", b"right")
    with pytest.raises(IntegrityError):
        aead.open(NONCE, blob, b"wrong")


def test_wrong_nonce_detected(aead):
    blob = aead.seal(NONCE, b"payload")
    with pytest.raises(IntegrityError):
        aead.open(b"m" * 12, blob)


def test_wrong_key_detected():
    blob = StreamAead(b"k" * 16).seal(NONCE, b"payload")
    with pytest.raises(IntegrityError):
        StreamAead(b"j" * 16).open(NONCE, blob)


def test_short_blob_rejected(aead):
    if aead.TAG_SIZE:
        with pytest.raises(IntegrityError):
            aead.open(NONCE, b"x")


def test_bad_nonce_length(aead):
    with pytest.raises(CryptoError):
        aead.seal(b"short", b"payload")


def test_stream_overhead_is_tag_size():
    aead = StreamAead(b"k" * 16)
    blob = aead.seal(NONCE, b"x" * 100)
    assert len(blob) == 100 + aead.TAG_SIZE


def test_short_key_rejected():
    with pytest.raises(CryptoError):
        StreamAead(b"tiny")


def test_empty_plaintext(aead):
    blob = aead.seal(NONCE, b"")
    assert aead.open(NONCE, blob) == b""


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=2048),
    aad=st.binary(max_size=64),
)
def test_stream_roundtrip_property(key, nonce, plaintext, aad):
    aead = StreamAead(key)
    assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext
