"""Fixtures for use-case tests."""

import pytest

from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from tests.enclave import boot

ALICE = "fp-alice"
BOB = "fp-bob"
CAROL = "fp-carol"
ADMIN = "fp-admin"


@pytest.fixture()
def controller():
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(clients, storage_key=b"k" * 32)
