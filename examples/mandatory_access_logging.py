#!/usr/bin/env python3
"""§5.4 — mandatory access logging: no access without a logged intent.

A medical-records scenario: every read or write of a patient record
must first be recorded in an append-only log.  The MAL policy makes
this *mandatory* — the storage layer denies any access whose intent is
missing from the log, so the audit trail is complete by construction.

Run: ``python examples/mandatory_access_logging.py``
"""

from repro.core.controller import PesosController
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.usecases.mal import MalStore

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

HOSPITAL, DR_WHO, DR_EVIL = "fp-hospital", "fp-dr-who", "fp-dr-evil"


def main() -> None:
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients, storage_key=b"m" * 32,
        enclave=SgxPlatform("host").launch(BINARY),
    )
    mal = MalStore(controller)

    mal.protect(HOSPITAL, "patient/4711", b"blood type: 0-; allergies: none")
    print("record protected; log object created")

    # A legitimate access: log the intent, then read.
    record = mal.read(DR_WHO, "patient/4711")
    print(f"dr-who reads after logging: {record.value!r}")

    # A stealthy access without logging is denied by the store itself.
    sneaky = mal.unlogged_read(DR_EVIL, "patient/4711")
    print(f"dr-evil reading without logging: HTTP {sneaky.status}")

    # Writes log the content hashes before and after — provenance.
    updated = mal.write(DR_WHO, "patient/4711",
                        b"blood type: 0-; allergies: penicillin")
    print(f"dr-who updates after logging: HTTP {updated.status}")

    # An intent for content X does not authorize writing content Y:
    # dr-evil logs one value but tries to write another.
    import hashlib

    from repro.core.request import Request
    from repro.usecases.mal import write_intent

    target = controller._get_meta("patient/4711")
    version = target.current_version
    mal._append_log(
        DR_EVIL, "patient/4711",
        write_intent(
            "patient/4711", version,
            target.versions[version].content_hash,
            hashlib.sha256(b"innocuous note").hexdigest(),
            DR_EVIL,
        ),
    )
    forged = controller.handle(
        Request(method="put", key="patient/4711",
                value=b"blood type: AB+", version=version + 1),
        DR_EVIL,
    )
    print(f"dr-evil writing content not matching the intent: "
          f"HTTP {forged.status}")

    # The audit trail shows exactly who did (and tried) what.
    print("\naudit trail:")
    for line in mal.audit_trail(HOSPITAL, "patient/4711"):
        print(f"  {line}")


if __name__ == "__main__":
    main()
