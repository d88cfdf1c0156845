#!/usr/bin/env python3
"""The SSD cache tier (§8 future work).

An untrusted local SSD serves as a fast cache tier below the enclave's
in-memory caches: a read that misses the enclave cache is answered from
the SSD instead of a drive round trip.  The SSD holds the sealed bytes
a drive replica holds, and a copy is checked as a drive replica's is:
its AEAD tag and AAD, then the value's content hash and the metadata
record's pinned leaf.

Run: ``python examples/ssd_cache_tier.py``
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request
from repro.core.store import ObjectStore
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

ALICE = "fp-alice"


def main() -> None:
    clients = DriveCluster(num_drives=2).connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"ssd-tier".ljust(32, b"\0"),
        config=ControllerConfig(ssd_cache_entries=4096),
        enclave=SgxPlatform("host").launch(BINARY),
    )

    controller.handle(
        Request(method="put", key="obj-7", value=b"payload 7"), ALICE
    )
    controller.caches.objects.clear()  # drop the enclave cache
    response = controller.handle(Request(method="get", key="obj-7"), ALICE)
    print(f"read after the enclave cache was dropped: {response.value!r}")
    ssd = controller.store.ssd
    print(f"SSD tier hits: {ssd.stats.hits}")

    # A copy the adversary rewrote fails its check and reads as a miss.
    ssd.device.tamper(ObjectStore.value_key("obj-7", 0))
    controller.caches.objects.clear()
    response = controller.handle(Request(method="get", key="obj-7"), ALICE)
    print(f"read past a tampered SSD copy: {response.value!r} "
          f"(integrity failures: {ssd.stats.integrity_failures})")


if __name__ == "__main__":
    main()
