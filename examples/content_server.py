#!/usr/bin/env python3
"""§5.1 — a content server with per-object access control lists.

A small publishing platform: authors publish articles readable by
subscribers, editable only by their authors, and deletable only by the
site admin.  All enforcement happens inside the (simulated) enclave —
the application layer never re-checks permissions.

Run: ``python examples/content_server.py``
"""

from repro.core.controller import PesosController
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.usecases.content_server import ContentServer

#: The controller binary; its platform keeps the rollback-protection pin.
BINARY = EnclaveBinary("pesos", b"example controller")

ADMIN = "fp-admin"
AUTHORS = {"ana": "fp-ana", "ben": "fp-ben"}
SUBSCRIBERS = ["fp-sub-1", "fp-sub-2"]
FREELOADER = "fp-freeloader"


def main() -> None:
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients, storage_key=b"s" * 32,
        enclave=SgxPlatform("host").launch(BINARY),
    )
    server = ContentServer(controller, admin_fingerprint=ADMIN)

    # Authors publish; subscribers (and the authors) may read.
    readers = list(AUTHORS.values()) + SUBSCRIBERS
    server.publish(
        AUTHORS["ana"], "articles/intro-to-sgx",
        b"SGX provides hardware-protected enclaves...",
        readers=readers,
    )
    server.publish(
        AUTHORS["ben"], "articles/kinetic-drives",
        b"Kinetic drives bundle an HDD with a SoC...",
        readers=readers,
    )
    print("published 2 articles")

    # Subscribers read.
    response = server.fetch(SUBSCRIBERS[0], "articles/intro-to-sgx")
    print(f"subscriber reads: {response.value[:40]!r}...")

    # Non-subscribers are denied by the storage layer itself.
    denied = server.fetch(FREELOADER, "articles/intro-to-sgx")
    print(f"freeloader: HTTP {denied.status}")

    # Only the author can edit their article.
    vandal = controller.put(
        AUTHORS["ben"], "articles/intro-to-sgx", b"ben's hot take"
    )
    print(f"ben editing ana's article: HTTP {vandal.status}")
    fix = controller.put(
        AUTHORS["ana"], "articles/intro-to-sgx",
        b"SGX provides hardware-protected enclaves (updated).",
    )
    print(f"ana editing her article: HTTP {fix.status}, v{fix.version}")

    # Retraction requires the admin.
    print(f"ana deleting: HTTP "
          f"{server.remove(AUTHORS['ana'], 'articles/intro-to-sgx').status}")
    print(f"admin deleting: HTTP "
          f"{server.remove(ADMIN, 'articles/intro-to-sgx').status}")

    # Policies are shared 1:M — both articles used the same ACL policy.
    meta = controller._get_meta("articles/kinetic-drives")
    print(f"policy reuse: articles share policy {meta.policy_id[:12]}...")


if __name__ == "__main__":
    main()
