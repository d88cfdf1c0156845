"""Remote attestation: genuine flows and every failure path."""

import hashlib
import json
import secrets

import pytest

from repro.errors import AttestationError
from repro.sgx.attestation import (
    AttestationService,
    SgxPlatform,
    attest_and_provision,
)
from repro.sgx.enclave import EnclaveBinary

BINARY = EnclaveBinary(name="pesos", content=b"controller binary")
SECRETS = {"tls_key": "deadbeef", "disk_account": "pesos-admin"}


@pytest.fixture(scope="module")
def platform():
    return SgxPlatform("machine-1", key_bits=512)


@pytest.fixture()
def service(platform):
    svc = AttestationService()
    svc.trust_platform(platform)
    svc.register_enclave(BINARY.measurement(), SECRETS)
    return svc


def test_genuine_attestation_provisions_secrets(service, platform):
    enclave = platform.launch(BINARY)
    provided = attest_and_provision(service, platform, enclave)
    assert provided == SECRETS
    assert enclave.secrets == SECRETS


def test_tampered_binary_refused(service, platform):
    enclave = platform.launch(BINARY.tampered())
    with pytest.raises(AttestationError, match="not registered"):
        attest_and_provision(service, platform, enclave)


def test_unknown_platform_refused(service):
    rogue = SgxPlatform("rogue-box", key_bits=512)
    enclave = rogue.launch(BINARY)
    with pytest.raises(AttestationError, match="unknown platform"):
        attest_and_provision(service, rogue, enclave)


def test_forged_quote_signature_refused(service, platform):
    enclave = platform.launch(BINARY)
    response_key = secrets.token_bytes(16)
    quote = platform.quote(enclave, hashlib.sha256(response_key).digest())
    from dataclasses import replace

    forged = replace(quote, measurement=BINARY.measurement(), signature=b"\x00" * 64)
    with pytest.raises(AttestationError, match="signature"):
        service.attest(forged, response_key)


def test_response_key_must_match_report_data(service, platform):
    enclave = platform.launch(BINARY)
    quote = platform.quote(enclave, hashlib.sha256(b"A" * 16).digest())
    with pytest.raises(AttestationError, match="report data"):
        service.attest(quote, b"B" * 16)


def test_quote_requires_matching_platform(platform):
    other = SgxPlatform("machine-2", key_bits=512)
    enclave = platform.launch(BINARY)
    with pytest.raises(AttestationError):
        other.quote(enclave, b"\x00" * 32)


def test_provisioning_blob_encrypted_to_response_key(service, platform):
    enclave = platform.launch(BINARY)
    response_key = secrets.token_bytes(16)
    quote = platform.quote(enclave, hashlib.sha256(response_key).digest())
    blob = service.attest(quote, response_key)
    with pytest.raises(AttestationError):
        AttestationService.open_provisioned(blob, secrets.token_bytes(16))


def test_audit_log_records_outcomes(service, platform):
    enclave = platform.launch(BINARY)
    attest_and_provision(service, platform, enclave)
    try:
        attest_and_provision(service, platform, platform.launch(BINARY.tampered()))
    except AttestationError:
        pass
    outcomes = [entry["outcome"] for entry in service.audit_log]
    assert outcomes == ["ok", "unknown-measurement"]


def test_truncated_blob_rejected():
    with pytest.raises(AttestationError):
        AttestationService.open_provisioned(b"x", b"k" * 16)


def _provisioning_blob(service, platform):
    response_key = secrets.token_bytes(16)
    quote = platform.quote(
        platform.launch(BINARY), hashlib.sha256(response_key).digest()
    )
    return service.attest(quote, response_key), response_key


@pytest.mark.parametrize(
    "offset", [0, 11, 12, -17, -16, -1], ids=lambda o: f"byte{o}"
)
def test_flipped_byte_in_provisioning_blob_refused(service, platform, offset):
    blob, response_key = _provisioning_blob(service, platform)
    tampered = bytearray(blob)
    tampered[offset] ^= 1
    with pytest.raises(AttestationError):
        AttestationService.open_provisioned(bytes(tampered), response_key)


@pytest.mark.parametrize("size", [0, 11, 12, 27])
def test_short_provisioning_blob_is_an_attestation_error(size):
    with pytest.raises(AttestationError):
        AttestationService.open_provisioned(bytes(size), b"k" * 16)


def test_provisioning_blob_is_nonce_plus_payload_plus_tag(service, platform):
    blob, response_key = _provisioning_blob(service, platform)
    payload = json.dumps(SECRETS).encode()
    assert len(blob) == 12 + len(payload) + 16
    assert AttestationService.open_provisioned(blob, response_key) == SECRETS
