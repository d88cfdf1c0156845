"""Mutually-authenticated secure channel (the TLS stand-in).

Client ↔ controller and controller ↔ drive links in Pesos are mutually
authenticated TLS connections terminated inside the enclave.  This
module implements the equivalent protocol with our own primitives:

1. Both sides exchange nonces and certificates.
2. Each side verifies the peer certificate against its trust store.
3. An ephemeral finite-field Diffie-Hellman exchange (RFC 3526 group 14)
   produces a shared secret; each side signs the handshake transcript
   with its long-term RSA key (a SIGMA-style handshake), preventing
   man-in-the-middle attacks.
4. Both sides derive directional record keys via HKDF-SHA256; records
   are sealed with the data path's AEAD (:class:`StreamAead`).

Records carry a sequence number used as the AEAD nonce, giving replay
protection and enforcing in-order delivery.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.aead import HmacSha256, StreamAead
from repro.crypto.certs import Certificate, KeyPair, TrustStore
from repro.errors import CertificateError, IntegrityError

# RFC 3526 MODP group 14 (2048-bit) prime; generator 2.
_DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_DH_GENERATOR = 2


def _hkdf(secret: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """HKDF-SHA256 extract-and-expand (RFC 5869)."""
    prk = HmacSha256(HmacSha256(salt).digest(secret))
    blocks = output = b""
    for counter in range(1, (length + 31) // 32 + 1):  # 32-byte blocks
        blocks = prk.digest(blocks, info, bytes([counter]))
        output += blocks
    return output[:length]


@dataclass
class HandshakeMessage:
    """One side's contribution to the handshake transcript."""

    nonce: bytes
    dh_public: int
    certificate: Certificate

    def transcript_bytes(self) -> bytes:
        return (
            self.nonce
            + self.dh_public.to_bytes(256, "big")
            + self.certificate.tbs_bytes()
        )


class SecureChannel:
    """One endpoint of an established channel: AEAD records + sequencing."""

    def __init__(
        self,
        send_key: bytes,
        recv_key: bytes,
        peer_certificate: Certificate,
        local_certificate: Certificate,
    ):
        self._send_aead = StreamAead(send_key)
        self._recv_aead = StreamAead(recv_key)
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_certificate = peer_certificate
        self.local_certificate = local_certificate
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def peer_fingerprint(self) -> str:
        """Identifies the authenticated peer (used for access control)."""
        return self.peer_certificate.fingerprint()

    def send(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Protect ``plaintext`` into a record blob."""
        nonce = self._send_seq.to_bytes(12, "big")
        self._send_seq += 1
        record = self._send_aead.seal(nonce, plaintext, aad)
        self.bytes_sent += len(record)
        return record

    def recv(self, record: bytes, aad: bytes = b"") -> bytes:
        """Open the next record; raises on tamper, replay, or reorder."""
        nonce = self._recv_seq.to_bytes(12, "big")
        self._recv_seq += 1
        plaintext = self._recv_aead.open(nonce, record, aad)
        self.bytes_received += len(record)
        return plaintext


def _derive_keys(
    shared_secret: int, nonce_a: bytes, nonce_b: bytes
) -> tuple[bytes, bytes]:
    secret_bytes = shared_secret.to_bytes(256, "big")
    material = _hkdf(
        secret_bytes, salt=nonce_a + nonce_b, info=b"pesos-channel", length=32
    )
    return material[:16], material[16:]


def establish_channel(
    initiator: KeyPair,
    responder: KeyPair,
    initiator_trust: TrustStore,
    responder_trust: TrustStore,
    now: float = 0.0,
) -> tuple[SecureChannel, SecureChannel]:
    """Run the full handshake in-process; returns both endpoints.

    Raises :class:`CertificateError` if either side rejects the peer's
    certificate, or :class:`IntegrityError` if a transcript signature
    fails (simulated man-in-the-middle).
    """
    # Step 1+2: hellos with nonces, ephemeral DH shares, certificates.
    init_secret = secrets.randbits(256)
    resp_secret = secrets.randbits(256)
    init_hello = HandshakeMessage(
        nonce=secrets.token_bytes(32),
        dh_public=pow(_DH_GENERATOR, init_secret, _DH_PRIME),
        certificate=initiator.certificate,
    )
    resp_hello = HandshakeMessage(
        nonce=secrets.token_bytes(32),
        dh_public=pow(_DH_GENERATOR, resp_secret, _DH_PRIME),
        certificate=responder.certificate,
    )

    # Step 3: mutual certificate verification.
    responder_trust.verify(init_hello.certificate, now)
    initiator_trust.verify(resp_hello.certificate, now)

    # Step 4: transcript signatures (SIGMA binding of DH to identities).
    transcript = init_hello.transcript_bytes() + resp_hello.transcript_bytes()
    init_sig = initiator.private_key.sign(b"init" + transcript)
    resp_sig = responder.private_key.sign(b"resp" + transcript)
    if not initiator.certificate.public_key.verify(b"init" + transcript, init_sig):
        raise IntegrityError("initiator transcript signature invalid")
    if not responder.certificate.public_key.verify(b"resp" + transcript, resp_sig):
        raise IntegrityError("responder transcript signature invalid")

    # Step 5: key derivation.  Both sides compute the same shared secret.
    shared_init = pow(resp_hello.dh_public, init_secret, _DH_PRIME)
    shared_resp = pow(init_hello.dh_public, resp_secret, _DH_PRIME)
    if shared_init != shared_resp:  # pragma: no cover - math guarantees this
        raise IntegrityError("DH agreement failure")
    key_i2r, key_r2i = _derive_keys(
        shared_init, init_hello.nonce, resp_hello.nonce
    )

    initiator_end = SecureChannel(
        send_key=key_i2r,
        recv_key=key_r2i,
        peer_certificate=resp_hello.certificate,
        local_certificate=initiator.certificate,
    )
    responder_end = SecureChannel(
        send_key=key_r2i,
        recv_key=key_i2r,
        peer_certificate=init_hello.certificate,
        local_certificate=responder.certificate,
    )
    return initiator_end, responder_end
