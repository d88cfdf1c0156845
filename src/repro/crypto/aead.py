"""The one sealing construction: objects, enclave state, channel records.

Pesos encrypts every object, its enclave-sealed state and its TLS
records with AES-GCM before they leave the enclave.  The standard
library has no AES, and a pure-Python one is too slow for workloads
that push 100k objects through the functional data path, so
:class:`StreamAead` gives the same guarantees — confidentiality plus
integrity with associated data, a 12-byte nonce and a 16-byte tag —
built from hash primitives that run at C speed in the standard library:

- keystream: ``SHAKE256(enc_key || nonce)`` squeezed to the plaintext's
  length in one call and XORed over it (an XOF stream cipher);
- authentication: encrypt-then-MAC, HMAC-SHA256 over ``nonce ||
  u64 len(aad) || aad || ciphertext`` under a separate derived key,
  truncated to 16 bytes.  Every HMAC here and on the Kinetic wire is a
  :class:`HmacSha256`, its pad states hashed once per key (RFC 2104 §4).

This is at-rest format v2 ("At-rest formats" in docs/resilience.md).
The two keys are derived under labels the earlier SHA-256-CTR
construction never used, so a blob it sealed fails its tag here: a
corrupt replica, never plaintext noise.  Enclave-sealed state (the
freshness pin) and attestation responses use the same construction
under their own keys, as do :mod:`repro.crypto.channel` records.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import CryptoError, IntegrityError

_IPAD, _OPAD = (bytes(byte ^ pad for byte in range(256)) for pad in (0x36, 0x5C))


class HmacSha256:
    """HMAC-SHA256 (RFC 2104) under one key, its pad states precomputed."""

    def __init__(self, key: bytes):
        if len(key) > 64:  # longer than a SHA-256 block: hashed first
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\0")
        self._ipad_state = hashlib.sha256(key.translate(_IPAD))
        self._opad_state = hashlib.sha256(key.translate(_OPAD))

    def digest(self, *parts: bytes) -> bytes:
        """The MAC of the concatenation of ``parts``."""
        inner = self._ipad_state.copy()
        inner.update(b"".join(parts))
        outer = self._opad_state.copy()
        outer.update(inner.digest())
        return outer.digest()


class StreamAead:
    """SHAKE256 stream + HMAC-SHA256 AEAD (see module docstring)."""

    TAG_SIZE = 16
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise CryptoError("AEAD key must be at least 16 bytes")
        self._enc_key = hashlib.sha256(b"pesos-v2-enc" + key).digest()
        self._mac_key = HmacSha256(hashlib.sha256(b"pesos-v2-mac" + key).digest())

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        return self._mac_key.digest(
            nonce, len(aad).to_bytes(8, "big"), aad, ciphertext
        )[: self.TAG_SIZE]

    @staticmethod
    def _xor(data: bytes, keystream: bytes) -> bytes:
        # Big-int XOR runs at C speed, unlike a per-byte loop.
        if not data:
            return b""
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(len(data), "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(nonce) != self.NONCE_SIZE:
            raise CryptoError(f"nonce must be 12 bytes, got {len(nonce)}")
        keystream = self._keystream(nonce, len(plaintext))
        ciphertext = self._xor(plaintext, keystream)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, nonce: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt a sealed blob."""
        if len(nonce) != self.NONCE_SIZE:
            raise CryptoError(f"nonce must be 12 bytes, got {len(nonce)}")
        if len(blob) < self.TAG_SIZE:
            raise IntegrityError("sealed blob shorter than a tag")
        ciphertext, tag = blob[: -self.TAG_SIZE], blob[-self.TAG_SIZE :]
        expected = self._tag(nonce, aad, ciphertext)
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError("AEAD tag mismatch")
        keystream = self._keystream(nonce, len(ciphertext))
        return self._xor(ciphertext, keystream)
