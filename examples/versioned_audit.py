#!/usr/bin/env python3
"""§5.3 — versioned storage: lost updates become policy violations.

Two operators concurrently edit a firewall ruleset.  With the version
policy, every update must name the successor of the current version,
so the second writer's stale update is *denied by the store* instead
of silently clobbering — and the full history stays readable for
forensics.

Run: ``python examples/versioned_audit.py``
"""

from repro.core.controller import PesosController
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.usecases.versioned import VersionedStore

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

OP_A, OP_B, AUDITOR = "fp-op-a", "fp-op-b", "fp-auditor"


def main() -> None:
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients, storage_key=b"v" * 32,
        enclave=SgxPlatform("host").launch(BINARY),
    )
    store = VersionedStore(controller)

    # Create the ruleset (creation must target version 0).
    store.put(OP_A, "fw/ruleset", b"allow 443/tcp\n", expected_version=0)
    print("v0 created")

    # Both operators read v0 (version 0), then race to update.
    current = store.get(OP_A, "fw/ruleset")
    print(f"both operators read v{current.version}")

    first = store.put(
        OP_A, "fw/ruleset",
        b"allow 443/tcp\nallow 22/tcp from bastion\n",
        expected_version=current.version + 1,
    )
    print(f"operator A writes v{first.version}: HTTP {first.status}")

    # Operator B still believes the object is at v0 -> denied.
    stale = store.put(
        OP_B, "fw/ruleset",
        b"allow 443/tcp\nallow 0.0.0.0/0\n",  # would have been bad!
        expected_version=current.version + 1,
    )
    print(f"operator B's stale write: HTTP {stale.status} (lost update "
          f"prevented)")

    # B retries against the current version, as the protocol demands.
    latest = store.get(OP_B, "fw/ruleset")
    retry = store.put(
        OP_B, "fw/ruleset",
        latest.value + b"allow 51820/udp\n",
        expected_version=latest.version + 1,
    )
    print(f"operator B's rebased write: HTTP {retry.status}, v{retry.version}")

    # The auditor reconstructs the full change history.
    print("\naudit trail:")
    for version, content in enumerate(store.history(AUDITOR, "fw/ruleset")):
        rules = content.decode().strip().replace("\n", " | ")
        print(f"  v{version}: {rules}")


if __name__ == "__main__":
    main()
