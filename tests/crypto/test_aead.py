"""The seal/open contract of StreamAead — the one sealing construction
for objects, enclave state, attestation responses and channel records —
and the keyed HMAC both StreamAead and the Kinetic wire use."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import HmacSha256, StreamAead
from repro.errors import CryptoError, IntegrityError

NONCE = b"n" * 12


@pytest.fixture(params=[StreamAead], ids=["stream"])
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


# -- at-rest format v2: a known answer, and no reader for v1 ---------------

KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(100, 112))
KAT_AAD = b"meta:k"
KAT_PLAINTEXT = b"at-rest format v2: one SHAKE256 call, 'pesos-v2-' key labels"
KAT_SEALED = bytes.fromhex(
    "f562e789bff5ceb6fa8c23db14d5fe111fe927a7d3d54b45d16648bcc16d5f36c077fdd6"
    "286755471140ac1ccef799e8a7eb3dcbfbcf49369081aa52b942ac1b70157a357f3fb99d"
    "f1820d80"
)
#: ``b"at-rest format v1: SHA-256-CTR keystream, 'enc'/'mac' labels"``
#: sealed under the same key, nonce and AAD by ``StreamAead`` as it was
#: at 54bf4fd, the commit before format v2.
V1_SEALED = bytes.fromhex(
    "41deb64e06f2375b1085e7a1c913703867f9c76f1c75502c4f2c7d20e4602d1245ba39f0"
    "e7cb66dbde977170d75f8ed04aa41851b535a95e4be9bd416c46bd80137b5f6125a24562"
    "1e60a8d4"
)


def test_stream_known_answer():
    """The construction, spelled out with the standard library alone."""
    aead = StreamAead(KAT_KEY)
    assert aead.seal(KAT_NONCE, KAT_PLAINTEXT, KAT_AAD) == KAT_SEALED
    assert aead.open(KAT_NONCE, KAT_SEALED, KAT_AAD) == KAT_PLAINTEXT

    enc_key = hashlib.sha256(b"pesos-v2-enc" + KAT_KEY).digest()
    mac_key = hashlib.sha256(b"pesos-v2-mac" + KAT_KEY).digest()
    keystream = hashlib.shake_256(enc_key + KAT_NONCE).digest(
        len(KAT_PLAINTEXT)
    )
    ciphertext = bytes(p ^ k for p, k in zip(KAT_PLAINTEXT, keystream))
    tag = hmac.new(
        mac_key,
        KAT_NONCE + len(KAT_AAD).to_bytes(8, "big") + KAT_AAD + ciphertext,
        "sha256",
    ).digest()[:StreamAead.TAG_SIZE]
    assert ciphertext + tag == KAT_SEALED


def test_blob_sealed_by_format_v1_fails_its_tag():
    """No deployed data, so no v1 reader — but a v1 blob must fail
    closed (a corrupt copy), not open as keystream noise."""
    with pytest.raises(IntegrityError):
        StreamAead(KAT_KEY).open(KAT_NONCE, V1_SEALED, KAT_AAD)


# -- the keyed HMAC: RFC 2104 with its pads hashed once ----------------------


@pytest.mark.parametrize("key_size", [0, 1, 8, 32, 63, 64, 65, 200])
@settings(max_examples=25, deadline=None)
@given(message=st.binary(max_size=4096), cut=st.integers(0, 4096))
def test_keyed_mac_is_hmac_sha256(key_size, message, cut):
    """Keys shorter than, equal to and longer than the 64-byte block
    (hashed first, as RFC 2104 requires), messages of 0-4 KB, given
    whole or in two parts."""
    key = bytes(range(key_size))
    mac = HmacSha256(key)
    expected = hmac.digest(key, message, "sha256")
    assert mac.digest(message) == expected
    assert mac.digest(message[:cut], message[cut:]) == expected
    assert mac.digest(message) == expected  # the pad states are not used up
