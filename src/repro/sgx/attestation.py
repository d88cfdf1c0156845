"""Remote attestation: platforms, quotes, and the attestation service.

The flow mirrors Scone's secure-deployment service (§3.1 bootstrap):

1. The operator registers an expected enclave *measurement* together
   with the encrypted runtime secrets (TLS keypair, Kinetic disk
   credentials) at the :class:`AttestationService`.
2. A platform (CPU) runs the enclave and produces a :class:`Quote` —
   the measurement plus report data, signed by the platform's quoting
   key (the EPID/DCAP stand-in).
3. The service verifies the platform signature against known-genuine
   platforms and compares the measurement; only then does it release
   the secrets, encrypted to the key in the quote's report data.

A tampered binary changes the measurement and is refused; an unknown
platform (no genuine SGX) fails signature verification.
"""

from __future__ import annotations

import hashlib
import json
import secrets
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.aead import StreamAead
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.errors import AttestationError, CryptoError
from repro.sgx.enclave import Enclave, EnclaveBinary, MonotonicCounter
from repro.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class Quote:
    """A signed attestation statement from a platform."""

    measurement: str
    report_data: bytes  # enclave-chosen binding, e.g. a public key hash
    platform_id: str
    signature: bytes

    def signed_payload(self) -> bytes:
        return json.dumps(
            {
                "measurement": self.measurement,
                "report_data": self.report_data.hex(),
                "platform_id": self.platform_id,
            },
            sort_keys=True,
        ).encode()


class SgxPlatform:
    """One SGX-capable machine: root sealing key, quoting key, and the
    state that outlives every enclave launched on it — a
    :class:`MonotonicCounter` and the host's untrusted ``pin_slot`` for
    sealed freshness state (the adversary may replay or delete it)."""

    def __init__(self, platform_id: str, key_bits: int = 1024):
        self.platform_id = platform_id
        self.root_key = secrets.token_bytes(32)
        self.key_bits = key_bits
        self.counter = MonotonicCounter()
        self.pin_slot: bytes | None = None

    @cached_property
    def _quoting_key(self) -> RsaPrivateKey:
        """Generated on first use: most platforms never quote."""
        return generate_keypair(bits=self.key_bits)

    @property
    def quoting_public_key(self) -> RsaPublicKey:
        return self._quoting_key.public_key

    def launch(self, binary: EnclaveBinary, heap_bytes: int = 64 << 20) -> Enclave:
        """Load a binary into a fresh enclave on this platform."""
        return Enclave(
            binary=binary,
            platform_root_key=self.root_key,
            heap_bytes=heap_bytes,
            platform=self,
        )

    def quote(self, enclave: Enclave, report_data: bytes) -> Quote:
        """Produce a quote for an enclave running on this platform."""
        if enclave.platform_root_key != self.root_key:
            raise AttestationError("enclave does not run on this platform")
        unsigned = Quote(
            measurement=enclave.measurement,
            report_data=report_data,
            platform_id=self.platform_id,
            signature=b"",
        )
        signature = self._quoting_key.sign(unsigned.signed_payload())
        return Quote(
            measurement=unsigned.measurement,
            report_data=unsigned.report_data,
            platform_id=unsigned.platform_id,
            signature=signature,
        )


@dataclass
class _Registration:
    measurement: str
    secrets: dict


class AttestationService:
    """Verifies quotes and provisions runtime secrets (Scone CAS stand-in)."""

    def __init__(self, telemetry=None) -> None:
        self._platforms: dict[str, RsaPublicKey] = {}
        self._registrations: dict[str, _Registration] = {}
        self.audit_log: list[dict] = []
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_attestations = self.telemetry.counter(
            "pesos_attestation_events_total",
            "Attestation attempts against the service, by outcome.",
            ("outcome",),
        )

    # -- operator-facing -------------------------------------------------

    def trust_platform(self, platform: SgxPlatform) -> None:
        """Record a platform's quoting key as genuine."""
        self._platforms[platform.platform_id] = platform.quoting_public_key

    def register_enclave(self, measurement: str, runtime_secrets: dict) -> None:
        """Bind runtime secrets to an expected measurement."""
        self._registrations[measurement] = _Registration(
            measurement=measurement, secrets=dict(runtime_secrets)
        )

    # -- enclave-facing ---------------------------------------------------

    def attest(self, quote: Quote, response_key: bytes) -> bytes:
        """Verify ``quote``; return secrets sealed under ``response_key``.

        ``response_key`` is a 16-byte AEAD key whose SHA-256 the enclave
        placed in the quote's report data, binding the response to the
        attested enclave.  Raises :class:`AttestationError` otherwise.
        """
        platform_key = self._platforms.get(quote.platform_id)
        if platform_key is None:
            self._log(quote, "unknown-platform")
            raise AttestationError(f"unknown platform {quote.platform_id!r}")
        if not platform_key.verify(quote.signed_payload(), quote.signature):
            self._log(quote, "bad-signature")
            raise AttestationError("quote signature invalid")
        registration = self._registrations.get(quote.measurement)
        if registration is None:
            self._log(quote, "unknown-measurement")
            raise AttestationError(
                f"measurement {quote.measurement[:16]}... not registered"
            )
        if hashlib.sha256(response_key).digest() != quote.report_data:
            self._log(quote, "report-data-mismatch")
            raise AttestationError("response key not bound in report data")
        self._log(quote, "ok")
        nonce = secrets.token_bytes(12)
        payload = json.dumps(registration.secrets).encode()
        return nonce + StreamAead(response_key).seal(nonce, payload)

    @staticmethod
    def open_provisioned(blob: bytes, response_key: bytes) -> dict:
        """Enclave-side decryption of the attestation response."""
        if len(blob) < 12:
            raise AttestationError("provisioning blob truncated")
        nonce, sealed = blob[:12], blob[12:]
        try:
            return json.loads(StreamAead(response_key).open(nonce, sealed))
        except CryptoError as exc:
            raise AttestationError("cannot decrypt provisioning blob") from exc

    def _log(self, quote: Quote, outcome: str) -> None:
        self._m_attestations.labels(outcome).inc()
        self.audit_log.append(
            {
                "platform": quote.platform_id,
                "measurement": quote.measurement[:16],
                "outcome": outcome,
            }
        )


def attest_and_provision(
    service: AttestationService, platform: SgxPlatform, enclave: Enclave
) -> dict:
    """Full client-side attestation round-trip; provisions the enclave.

    Convenience wrapper performing steps 2-3 of the bootstrap flow.
    """
    response_key = secrets.token_bytes(16)
    quote = platform.quote(enclave, hashlib.sha256(response_key).digest())
    blob = service.attest(quote, response_key)
    provided = AttestationService.open_provisioned(blob, response_key)
    enclave.provision(provided)
    return provided
