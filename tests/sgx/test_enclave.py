"""Enclave measurement and sealing semantics."""

import secrets

import pytest

from repro.errors import AttestationError, CryptoError
from repro.sgx.enclave import Enclave, EnclaveBinary

BINARY = EnclaveBinary(name="pesos-controller", content=b"\x7fELF controller v1")


def _enclave(binary=BINARY, root=None):
    return Enclave(binary=binary, platform_root_key=root or bytes(32))


def test_measurement_is_deterministic():
    assert BINARY.measurement() == BINARY.measurement()


def test_measurement_changes_on_tamper():
    assert BINARY.measurement() != BINARY.tampered().measurement()


def test_measurement_depends_on_name():
    other = EnclaveBinary(name="other", content=BINARY.content)
    assert BINARY.measurement() != other.measurement()


def test_seal_unseal_roundtrip():
    enclave = _enclave()
    blob = enclave.seal(b"disk credentials")
    assert blob != b"disk credentials"
    assert enclave.unseal(blob) == b"disk credentials"


def test_sealed_data_bound_to_measurement():
    original = _enclave()
    tampered = _enclave(binary=BINARY.tampered())
    blob = original.seal(b"secret")
    with pytest.raises(AttestationError):
        tampered.unseal(blob)


def test_sealed_data_bound_to_platform():
    enclave_a = _enclave(root=secrets.token_bytes(32))
    enclave_b = _enclave(root=secrets.token_bytes(32))
    blob = enclave_a.seal(b"secret")
    with pytest.raises(AttestationError):
        enclave_b.unseal(blob)


def test_unseal_truncated_blob():
    with pytest.raises(AttestationError):
        _enclave().unseal(b"short")


@pytest.mark.parametrize(
    "offset", [0, 11, 12, -17, -16, -1], ids=lambda o: f"byte{o}"
)
def test_unseal_refuses_a_flipped_byte(offset):
    """Nonce (bytes 0-11), ciphertext and tag (last 16) are all bound."""
    blob = bytearray(_enclave().seal(b"pin state payload"))
    blob[offset] ^= 1
    with pytest.raises(AttestationError):
        _enclave().unseal(bytes(blob))


@pytest.mark.parametrize("size", [0, 11, 12, 27])
def test_unseal_refuses_short_blobs_as_attestation_errors(size):
    """Shorter than nonce + tag: never a bare IntegrityError."""
    with pytest.raises(AttestationError):
        _enclave().unseal(bytes(size))


@pytest.mark.parametrize("size", [0, 1, 27, 300])
def test_sealed_size_is_nonce_plus_payload_plus_tag(size):
    assert len(_enclave().seal(bytes(size))) == 12 + size + 16


def test_seal_from_the_aes_gcm_construction_is_foreign():
    """``b'{"counter": 7}'`` sealed by this enclave identity with the
    AES-GCM construction the enclave used before: there is no reader
    for it, so it fails closed like any foreign seal."""
    aes_gcm_seal = bytes.fromhex(
        "000102030405060708090a0b9525f3e1c3557eb70a055797339298e15c5ff73d"
        "653dec339a020f4021ab"
    )
    with pytest.raises(AttestationError):
        _enclave().unseal(aes_gcm_seal)


def test_bad_root_key_rejected():
    with pytest.raises(CryptoError):
        Enclave(binary=BINARY, platform_root_key=b"short")


def test_provision_merges_secrets():
    enclave = _enclave()
    enclave.provision({"tls_key": "abc"})
    enclave.provision({"disk_password": "xyz"})
    assert enclave.secrets == {"tls_key": "abc", "disk_password": "xyz"}


def test_memory_footprint_includes_binary():
    enclave = _enclave()
    base = enclave.memory_footprint()
    assert base == BINARY.enclave_bytes
    assert enclave.memory_footprint(caches_bytes=1024) == base + 1024


def test_monotonic_counter_never_goes_backward():
    from repro.sgx.enclave import MonotonicCounter

    counter = MonotonicCounter()
    assert counter.read() == 0
    values = [counter.increment() for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]
    assert counter.read() == 5
    assert counter.bumps == 5
