#!/usr/bin/env python3
"""§5.2 — time-based storage: a time capsule and a retention lease.

Time-based policies need a trusted time source: a *time authority*
whose key a CA endorses.  Clients fetch signed, nonce-bound time
certificates and attach them to requests; the policy checks the chain
of trust (``certificateSays(K_CA, 'ts'(TSKEY))``), the freshness
window, and the release date.

Run: ``python examples/time_capsule.py``
"""

from repro.core.controller import PesosController
from repro.crypto.certs import CertificateAuthority
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.usecases.time_based import TimeAuthority, TimeVault

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

ALICE, BOB = "fp-alice", "fp-bob"
RELEASE = 1_800_000_000  # the embargo lifts at this (unix) time


def main() -> None:
    # Infrastructure: a CA endorses the time authority's key.
    ca = CertificateAuthority("global-clock-ca", key_bits=512)
    authority = TimeAuthority(ca, key_bits=512)

    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"t" * 32,
        authority_keys={ca.public_key.fingerprint(): ca.public_key},
        enclave=SgxPlatform("host").launch(BINARY),
    )
    vault = TimeVault(controller, authority, ca.public_key.fingerprint())

    # --- a time capsule: sealed research results --------------------------
    vault.seal_until(
        ALICE, "embargoed-results", b"fusion at room temperature!", RELEASE
    )
    print(f"capsule sealed until t={RELEASE}")

    early = vault.open_at(BOB, "embargoed-results", RELEASE - 86_400)
    print(f"one day early: HTTP {early.status}")

    on_time = vault.open_at(BOB, "embargoed-results", RELEASE + 60)
    print(f"after release: HTTP {on_time.status} -> {on_time.value!r}")

    # Without a certificate there is no trusted time — always denied.
    bare = controller.get(BOB, "embargoed-results", now=float(RELEASE + 60))
    print(f"no certificate: HTTP {bare.status}")

    # --- a retention lease: records that must survive until a date --------
    vault.seal_until(
        ALICE, "audit-records-2025", b"ledger lines...", RELEASE,
        mode="lease",
    )
    anyone = controller.get(BOB, "audit-records-2025")
    print(f"lease allows reads: HTTP {anyone.status}")
    tamper = controller.put(ALICE, "audit-records-2025", b"redacted")
    print(f"owner shredding early: HTTP {tamper.status}")


if __name__ == "__main__":
    main()
