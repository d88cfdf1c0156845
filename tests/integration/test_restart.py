"""Restart through ``PesosController.launch`` on one platform.

``launch`` is the one boot path: the first boot takes over a factory
fleet, and a restart finds drives that already reject the factory
account and reaches them with the provisioned admin identity.  The
platform's monotonic counter and pin slot outlive every enclave
launched on it, so a restart checks the fleet against the last pin:
a rolled-back fleet or a forged pin is refused, an honest fleet
serves its latest writes.
"""

import secrets

import pytest

from repro.core.controller import ControllerConfig, PesosController
from repro.core.freshness import pack_pin
from repro.core.request import Request
from repro.core.store import ObjectStore, placement
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive, Role
from repro.sgx.attestation import AttestationService, SgxPlatform
from repro.sgx.enclave import Enclave, EnclaveBinary

from tests.core.test_freshness import _fleet_state, _restore_fleet

FP = "fp-restart"
BINARY = EnclaveBinary(name="pesos", content=b"controller v1")
ADMIN = "pesos-admin"
DISK_KEY = secrets.token_bytes(32)


class Host:
    """One platform, its attestation service, and the launches on it."""

    def __init__(self, freshness=True):
        self.platform = SgxPlatform("host", key_bits=512)
        self.service = AttestationService()
        self.service.trust_platform(self.platform)
        self.service.register_enclave(
            BINARY.measurement(),
            {
                "storage_key": secrets.token_bytes(32).hex(),
                "disk_identity": ADMIN,
                "disk_hmac_key": DISK_KEY.hex(),
            },
        )
        self.config = ControllerConfig(
            replication_factor=3, freshness_enabled=freshness
        )

    def launch(self, cluster):
        return PesosController.launch(
            BINARY, self.platform, self.service, cluster, config=self.config
        )


def _forged_pin(forger: Enclave, root: str, counter: int) -> bytes:
    """A pin packed by the authority's own packer, sealed by ``forger``:
    it differs from a real pin only in its seal."""
    return forger.seal(pack_pin(root, counter, 0.0, {}))


def test_restart_over_rolled_back_fleet_forks():
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"old").ok
    old_fleet = _fleet_state(cluster)
    assert controller.put(FP, "k", b"new").ok
    _restore_fleet(cluster, old_fleet)

    restarted = host.launch(cluster)
    response = restarted.get(FP, "k")
    assert response.status == 503
    assert "never pinned" in restarted.freshness.fork_reason
    assert "never pinned" in response.error


def test_a_forked_restart_writes_nothing_to_the_fleet():
    """The bootstrap rebuild reads without re-seeding: a restart over a
    rolled-back fleet, where one replica also lost a record, forks and
    leaves every drive's PUT count where it was."""
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    for index in range(4):
        assert controller.put(FP, f"pre-{index}", b"pre").ok
    old_fleet = _fleet_state(cluster)
    assert controller.put(FP, "post-0", b"post").ok
    _restore_fleet(cluster, old_fleet)
    first = cluster.drive(placement("pre-0", 3, 3)[0])
    disk_key = ObjectStore.meta_key("pre-0")
    del first._entries[disk_key]
    first._sorted_keys.remove(disk_key)
    puts = [drive.stats.puts for drive in cluster]

    restarted = host.launch(cluster)
    assert restarted.freshness.forked
    assert [drive.stats.puts for drive in cluster] == puts


@pytest.mark.parametrize("freshness", [False, True], ids=["off", "on"])
def test_restart_serves_the_latest_write(freshness):
    host, cluster = Host(freshness), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"old").ok
    assert controller.put(FP, "k", b"new").ok

    restarted = host.launch(cluster)
    for drive in cluster:
        assert drive.identities() == [ADMIN]
    response = restarted.get(FP, "k")
    assert response.status == 200 and response.value == b"new"
    assert restarted.put(FP, "k", b"newer").ok


@pytest.mark.parametrize("freshness", [False, True], ids=["off", "on"])
def test_without_history_a_restart_answers_as_the_running_controller(
    freshness,
):
    """``keep_history=False``: the record at rest lists only the version
    its one value slot holds, as the record in memory does, so an
    overwritten version is 404 before and after a restart."""
    host, cluster = Host(freshness), DriveCluster(num_drives=3)
    host.config.keep_history = False
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"old").ok
    assert controller.put(FP, "k", b"new").ok
    assert controller.get(FP, "k", version=0).status == 404
    assert controller.store.read_meta("k") == controller._get_meta("k")

    restarted = host.launch(cluster)
    assert restarted.get(FP, "k", version=0).status == 404
    response = restarted.get(FP, "k")
    assert response.status == 200 and response.value == b"new"


def test_restart_after_a_refused_write_boots():
    """A write refused below quorum reverts its pinned leaf; the pin
    records that the reverted side is the pinned one, so the replicas
    that did take the write are one side of a pending pair, not a fork."""
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "other", b"kept").ok
    assert controller.put(FP, "k", b"old").ok
    last = placement("k", 3, 3)[-1]
    cluster.drive(last).fail()
    assert controller.put(FP, "k", b"new").status == 503
    cluster.drive(last).recover()

    restarted = host.launch(cluster)
    assert restarted.freshness.active and not restarted.freshness.forked
    assert restarted.get(FP, "other").value == b"kept"
    response = restarted.get(FP, "k")
    assert response.status == 200 and response.value in (b"old", b"new")


def test_restart_after_a_delete_a_replica_missed_boots():
    """The delete is refused (503) rather than acknowledged, so the
    replica that kept the record holds the pinned leaf."""
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"value").ok
    primary = placement("k", 3, 3)[0]
    cluster.drive(primary).fail()
    controller.delete(FP, "k")
    cluster.drive(primary).recover()

    restarted = host.launch(cluster)
    assert restarted.freshness.active and not restarted.freshness.forked
    response = restarted.get(FP, "k")
    assert response.status == 200 and response.value == b"value"


def test_restart_over_a_key_that_is_not_utf8_boots_and_scans():
    """Bootstrap's listing seeds both the tree and the scan's key
    directory; an ``m/`` key on one drive that does not decode names
    no object and is left out of both."""
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    keys = [f"k{index}" for index in range(5)]
    for key in keys:
        assert controller.put(FP, key, b"v").ok
    cluster.drive(1)._entries_put_raw(b"m/k2\xff", b"junk", b"1")

    restarted = host.launch(cluster)
    assert restarted.freshness.active and not restarted.freshness.forked
    assert restarted.store.directory == keys  # no second listing
    response = restarted.handle(
        Request(method="scan", key="k0", scan_count=10), FP
    )
    assert response.ok, response.error
    assert response.value.decode().splitlines() == [f"{k}@0" for k in keys]


#: Enclaves a host can seal with, other than the controller's own.
FORGERS = {
    # The constant key the freshness enclave once sealed under, public
    # in the source: a host could seal with it at will.
    "old-constant-key": lambda platform: Enclave(
        binary=BINARY, platform_root_key=bytes(range(32))
    ),
    "tampered-binary": lambda platform: platform.launch(BINARY.tampered()),
    "other-platform": lambda platform: SgxPlatform("other").launch(BINARY),
}


@pytest.mark.parametrize("forger", list(FORGERS))
def test_pin_sealed_by_another_enclave_is_refused(forger):
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"old").ok
    old_root = controller.freshness.root
    old_fleet = _fleet_state(cluster)
    assert controller.put(FP, "k", b"new").ok
    _restore_fleet(cluster, old_fleet)
    # The forged pin vouches for the rolled-back fleet at the counter
    # the platform reads now: only the seal can give it away.
    host.platform.pin_slot = _forged_pin(
        FORGERS[forger](host.platform), old_root, host.platform.counter.read()
    )

    restarted = host.launch(cluster)
    assert restarted.freshness.forked
    assert "foreign or corrupt seal" in restarted.freshness.fork_reason
    assert restarted.get(FP, "k").status == 503


def test_factory_reset_fleet_that_keeps_its_records_forks():
    host, cluster = Host(), DriveCluster(num_drives=3)
    controller = host.launch(cluster)
    assert controller.put(FP, "k", b"value").ok
    # The provider resets every drive's accounts but keeps the data.
    for client in cluster.connect_all(ADMIN, DISK_KEY):
        client.set_security(
            [(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY, Role.all())]
        )

    restarted = host.launch(cluster)
    assert restarted.freshness.forked
    assert "never pinned" in restarted.freshness.fork_reason
    assert restarted.get(FP, "k").status == 503


def test_new_empty_fleet_on_a_pinned_platform_boots_active():
    host = Host()
    first = host.launch(DriveCluster(num_drives=3))
    assert first.put(FP, "k", b"first fleet").ok

    cluster = DriveCluster(num_drives=3)
    second = host.launch(cluster)
    assert second.freshness.active and not second.freshness.forked
    assert second.get(FP, "k").status == 404
    assert second.put(FP, "k", b"second fleet").ok
    # The platform now pins the second fleet.
    response = host.launch(cluster).get(FP, "k")
    assert response.status == 200 and response.value == b"second fleet"
