"""Shared controller fixtures."""

import pytest

from repro.core.controller import ControllerConfig
from repro.kinetic.client import KineticClient
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from tests.enclave import boot

ALICE = "fp-alice"
BOB = "fp-bob"
ADMIN = "fp-admin"


def make_clients(num_drives=3):
    cluster = DriveCluster(num_drives=num_drives)
    return (
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        cluster,
    )


@pytest.fixture()
def cluster():
    return DriveCluster(num_drives=3)


@pytest.fixture()
def clients(cluster):
    return cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY)


@pytest.fixture()
def controller(clients):
    return boot(clients, storage_key=b"k" * 32)


@pytest.fixture()
def replicated_controller(clients):
    config = ControllerConfig(replication_factor=3)
    return boot(clients, storage_key=b"k" * 32, config=config)
