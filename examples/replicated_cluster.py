#!/usr/bin/env python3
"""Replication, drive failure, and ACID transactions (§4.4, §4.5).

A three-drive cluster with 2-way replication: objects survive a drive
failure, reads fail over to the replica automatically, and a
multi-object transfer commits atomically under the VLL lock manager —
or aborts entirely if any of its policy checks fail.

Run: ``python examples/replicated_cluster.py``
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request
from repro.core.store import placement
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

BANK, MALLORY = "fp-bank", "fp-mallory"


def main() -> None:
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"r" * 32,
        config=ControllerConfig(replication_factor=2),
        enclave=SgxPlatform("host").launch(BINARY),
    )

    # --- replication and failover -----------------------------------------
    controller.put(BANK, "account/alice", b"100")
    controller.put(BANK, "account/bob", b"50")
    replicas = placement("account/alice", 3, 2)
    print(f"account/alice lives on drives {replicas}")

    failed = replicas[0]
    cluster.drive(failed).fail()
    print(f"disk-{failed} failed")
    controller.caches.objects.clear()  # force a disk read
    controller.caches.keys.clear()
    response = controller.get(BANK, "account/alice")
    print(f"read after failure: HTTP {response.status} -> {response.value!r}"
          f" (served by the replica)")
    cluster.drive(failed).recover()

    # --- an atomic transfer -------------------------------------------------
    txid = controller.handle(Request(method="create_tx"), BANK).txid
    controller.handle(
        Request(method="add_read", key="account/alice", txid=txid), BANK
    )
    controller.handle(
        Request(method="add_write", key="account/alice", value=b"75",
                txid=txid), BANK,
    )
    controller.handle(
        Request(method="add_write", key="account/bob", value=b"75",
                txid=txid), BANK,
    )
    commit = controller.handle(Request(method="commit_tx", txid=txid), BANK)
    print(f"transfer committed: HTTP {commit.status}")
    print(f"balances: alice={controller.get(BANK, 'account/alice').value!r} "
          f"bob={controller.get(BANK, 'account/bob').value!r}")

    # --- atomicity under policy denial ---------------------------------------
    policy = controller.put_policy(
        BANK,
        f"read :- sessionKeyIs(k'{BANK}')\nupdate :- sessionKeyIs(k'{BANK}')",
    )
    controller.put(BANK, "account/vault", b"1000000",
                   policy_id=policy.policy_id)

    txid = controller.handle(Request(method="create_tx"), MALLORY).txid
    controller.handle(
        Request(method="add_write", key="account/mallory", value=b"1000000",
                txid=txid), MALLORY,
    )
    controller.handle(
        Request(method="add_write", key="account/vault", value=b"0",
                txid=txid), MALLORY,
    )
    heist = controller.handle(Request(method="commit_tx", txid=txid), MALLORY)
    print(f"\nmallory's transaction: HTTP {heist.status} ({heist.error})")
    leftover = controller.get(MALLORY, "account/mallory")
    print(f"mallory's side-account after abort: HTTP {leftover.status} "
          f"(nothing was written)")


if __name__ == "__main__":
    main()
