#!/usr/bin/env python3
"""Storage attestation and replica integrity maintenance.

The paper (§1): "Pesos provides cryptographic attestation for the
stored objects and their associated policies to verify the policy
enforcement."  Here a client obtains a signed statement binding an
object's key, version, content hash and policy, verifies it offline
against the controller's certificate, and an operator audits and
repairs damaged replicas after silent corruption on one drive.

Run: ``python examples/storage_attestation.py``
"""

import hashlib

from repro.core.controller import (
    ControllerConfig,
    PesosController,
    verify_attestation,
)
from repro.core.request import Request
from repro.core.store import placement
from repro.crypto.certs import CertificateAuthority
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

ALICE = "fp-alice"


def main() -> None:
    # The controller's signing identity would be certified during
    # attestation-based deployment; clients pin its certificate.
    ca = CertificateAuthority("deployment-ca", key_bits=512)
    controller_keys = ca.issue_keypair("pesos-controller", key_bits=512)

    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"a" * 32,
        config=ControllerConfig(replication_factor=2),
        signing_keys=controller_keys,
        enclave=SgxPlatform("host").launch(BINARY),
    )

    policy = controller.put_policy(ALICE, "read :- sessionKeyIs(K)\n"
                                          f"update :- sessionKeyIs(k'{ALICE}')")
    controller.put(ALICE, "contract", b"party A pays party B 100 units",
                   policy_id=policy.policy_id)

    # --- attestation ---------------------------------------------------------
    response = controller.handle(
        Request(method="attest", key="contract"), ALICE, now=1700000000.0
    )
    statement = verify_attestation(
        response.value,
        bytes.fromhex(response.extra["signature"]),
        controller_keys.public_key,
    )
    print("attestation verified:")
    print(f"  key          = {statement['key']}")
    print(f"  version      = {statement['version']}")
    print(f"  content hash = {statement['content_hash'][:24]}...")
    print(f"  policy       = {statement['policy_id'][:24]}...")
    expected = hashlib.sha256(b"party A pays party B 100 units").hexdigest()
    assert statement["content_hash"] == expected
    print("  content hash matches what alice uploaded")

    # --- scrub and repair -------------------------------------------------------
    primary = placement("contract", 3, 2)[0]
    drive = cluster.drive(primary)
    for key, entry in drive._entries.items():
        if key.startswith(b"v/contract"):
            entry.value = entry.value[:-1] + b"\x00"  # silent bit rot
    print(f"\nbit rot injected on disk-{primary}")

    report = controller.scrub_object("contract")
    for version, index, status in report:
        print(f"  scrub v{version} disk-{index}: {status}")

    fixed = controller.repair_object("contract")
    print(f"repair rewrote {fixed} replica blob(s)")
    assert all(s == "ok" for _v, _d, s in controller.scrub_object("contract"))
    print("all replicas healthy again")


if __name__ == "__main__":
    main()
