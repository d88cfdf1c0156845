#!/usr/bin/env python3
"""The SSD cache tier (§8 future work).

An untrusted local SSD serves as a fast cache tier below the enclave's
in-memory caches, with integrity and freshness protection
(SsdCacheTier): a read that misses the enclave cache is answered from
the SSD instead of a drive round trip.

Run: ``python examples/ssd_cache_tier.py``
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

ALICE = "fp-alice"


def main() -> None:
    clients = DriveCluster(num_drives=2).connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"ssd-tier".ljust(32, b"\0"),
        config=ControllerConfig(ssd_cache_entries=4096),
    )

    controller.handle(
        Request(method="put", key="obj-7", value=b"payload 7"), ALICE
    )
    controller.caches.objects.clear()  # drop the enclave cache
    response = controller.handle(Request(method="get", key="obj-7"), ALICE)
    print(f"read after the enclave cache was dropped: {response.value!r}")
    print(f"SSD tier hits: {controller.ssd_cache.stats.hits}")


if __name__ == "__main__":
    main()
