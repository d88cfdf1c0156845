"""The Pesos controller: the paper's unified enforcement layer.

Everything between the client REST interface and the Kinetic drives
lives here, in one layer, exactly as the paper argues it should:

- :mod:`repro.core.request` — REST request/response model.
- :mod:`repro.core.session` — per-client session contexts (§3.1).
- :mod:`repro.core.cache` — the bounded in-enclave cache regions (§4.2).
- :mod:`repro.core.asyncapi` — the asynchronous operation API (§4.1).
- :mod:`repro.core.store` — the object store over Kinetic drives:
  versioned layout, AEAD payload encryption, replication
  placement (§4.5).
- :mod:`repro.core.txn` — the per-key lock table and VLL-based ACID
  transactions (§4.4).
- :mod:`repro.core.controller` — bootstrap (attestation, disk lock-out)
  and the request handler that enforces policies on every access.
"""
