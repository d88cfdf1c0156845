"""Kinetic Open Storage substrate.

Kinetic drives (§2.2) bundle an HDD with a SoC and an Ethernet port and
expose a key-value interface directly on the network; the drive itself
authenticates every request via per-identity HMAC keys and holds an
X.509 identity certificate so replacement (a rollback attack at drive
granularity) is detectable.

This package reproduces that stack:

- :mod:`repro.kinetic.protocol` — the framed, HMAC-authenticated wire
  protocol (a Google-protobuf stand-in using tag/length/value fields),
  with the ACL roles and the factory-default identity both sides share.
- :mod:`repro.kinetic.drive` — a full drive: ordered keyspace,
  versioned puts, range scans, user accounts with ACL roles, security
  (account replacement, the lock-out Pesos performs at bootstrap),
  peer-to-peer push, and device log/stats.
- :mod:`repro.kinetic.client` — the client library: connection,
  sequence numbers, one keyed HMAC per identity, synchronous calls.
  It hands a drive signed frames (``handle_wire``: bytes in, bytes
  out) and the drive decodes them on its own side, so the client, which
  runs in the enclave, imports no drive code.
- :mod:`repro.kinetic.cluster` — a named set of drives with failover.
- :mod:`repro.kinetic.timing` — virtual-time service models for the two
  evaluation backends: the in-memory Kinetic *simulator* and the
  mechanical Kinetic *HDD* (seek + rotation + transfer).
"""
