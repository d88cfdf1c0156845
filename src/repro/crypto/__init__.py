"""Cryptographic substrate.

Pesos relies on OpenSSL for TLS, AES-GCM object encryption, and X.509
client/disk identities.  This package provides functionally equivalent
primitives:

- :mod:`repro.crypto.aead` — the one sealing construction (SHAKE256
  stream + HMAC-SHA256) for objects, enclave-sealed state, attestation
  responses and channel records.
- :mod:`repro.crypto.rsa` — RSA keygen and PKCS#1 v1.5 signatures.
- :mod:`repro.crypto.certs` — certificates with chains and CA verification.
- :mod:`repro.crypto.channel` — a mutually-authenticated secure channel
  (the TLS stand-in used between clients, the controller, and drives).

Benchmark experiments charge AES-GCM on AES-NI in *virtual* time
(:mod:`repro.sgx.costs`) while the functional path really seals with
the AEAD above, so confidentiality-relevant behaviour is always
exercised.
"""
