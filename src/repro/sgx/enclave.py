"""Enclave identity, measurement, and sealing.

An enclave's *measurement* (MRENCLAVE) is a hash over its initial code
and data.  We model the binary as an :class:`EnclaveBinary` blob; the
measurement is SHA-256 over its content, so any alteration of the
executable changes the identity — exactly the property the attestation
service relies on to detect tampered controllers.

Sealing binds secrets to the measurement: data sealed by one enclave
version cannot be unsealed by another (MRENCLAVE policy).
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field

from repro.crypto.aead import StreamAead
from repro.errors import AttestationError, CryptoError


@dataclass(frozen=True)
class EnclaveBinary:
    """The statically-linked executable loaded into the enclave.

    The paper's controller binary is 16 MB with 15 MB loaded into the
    enclave; we record the sizes so EPC accounting can include them.
    """

    name: str
    content: bytes
    enclave_bytes: int = 15 * 1024 * 1024
    outside_bytes: int = 1 * 1024 * 1024

    def measurement(self) -> str:
        """MRENCLAVE stand-in: hash of the loaded code and data."""
        header = f"{self.name}:{self.enclave_bytes}".encode()
        return hashlib.sha256(header + self.content).hexdigest()

    def tampered(self, patch: bytes = b"\x90") -> "EnclaveBinary":
        """A copy with altered content (for attack tests)."""
        return EnclaveBinary(
            name=self.name,
            content=patch + self.content,
            enclave_bytes=self.enclave_bytes,
            outside_bytes=self.outside_bytes,
        )


@dataclass
class MonotonicCounter:
    """A tamper-proof, strictly-increasing platform counter.

    Stand-in for the SGX platform-service monotonic counters (or the
    replay-protected NVRAM slot a lightweight-collective-memory
    deployment would use): the value survives enclave restarts and the
    host cannot wind it back.  The freshness layer increments it on
    every root pin and seals the current value next to the root hash,
    so a replayed sealed blob — correctly sealed, but stale — is
    detected by a counter mismatch at startup.

    One lives on each :class:`repro.sgx.attestation.SgxPlatform` and
    outlives every enclave launched there.
    """

    value: int = 0
    #: Total increments ever issued (monotonicity audit for tests).
    bumps: int = 0

    def increment(self) -> int:
        """Advance and return the new value (never reorders, never wraps)."""
        self.value += 1
        self.bumps += 1
        return self.value

    def read(self) -> int:
        return self.value


@dataclass
class Enclave:
    """A running enclave instance on one platform.

    Holds the sealing key (derived from platform root key + measurement,
    as real SGX derives it via EGETKEY) and any runtime secrets the
    attestation service provisioned.  ``platform`` is the
    :class:`repro.sgx.attestation.SgxPlatform` that launched it, whose
    counter and pin slot outlive the enclave.
    """

    binary: EnclaveBinary
    platform_root_key: bytes
    heap_bytes: int = 64 * 1024 * 1024
    secrets: dict = field(default_factory=dict)
    platform: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.platform_root_key) != 32:
            raise CryptoError("platform root key must be 32 bytes")
        self.measurement = self.binary.measurement()
        self._sealing_key = hashlib.sha256(
            self.platform_root_key + bytes.fromhex(self.measurement)
        ).digest()[:16]
        self._aead = StreamAead(self._sealing_key)

    # -- sealing ----------------------------------------------------------

    def seal(self, data: bytes) -> bytes:
        """Encrypt ``data`` so only this enclave identity can recover it."""
        nonce = secrets.token_bytes(12)
        return nonce + self._aead.seal(nonce, data)

    def unseal(self, blob: bytes) -> bytes:
        """Recover sealed data; fails for a different measurement."""
        if len(blob) < 12:
            raise AttestationError("sealed blob truncated")
        nonce, payload = blob[:12], blob[12:]
        try:
            return self._aead.open(nonce, payload)
        except CryptoError as exc:
            raise AttestationError(
                "unseal failed: data sealed by a different enclave"
            ) from exc

    # -- provisioning -------------------------------------------------------

    def provision(self, provided: dict) -> None:
        """Accept runtime secrets from the attestation service."""
        self.secrets.update(provided)

    def memory_footprint(self, caches_bytes: int = 0) -> int:
        """Total enclave memory: binary + heap in use."""
        return self.binary.enclave_bytes + caches_bytes
