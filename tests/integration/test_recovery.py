"""Controller restart: all state recovers from the trusted drives.

The enclave's caches and session soft-state are volatile; everything
durable (objects, metadata, policies) lives encrypted on the Kinetic
drives.  A replacement controller provisioned with the same storage
key (via attestation, §3.1) must serve the same data and enforce the
same policies — and one with a *different* key must not be able to
read anything.
"""

import pytest

from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from tests.enclave import boot

ALICE, BOB = "fp-alice", "fp-bob"
STORAGE_KEY = b"provisioned-by-attestation!!...."


@pytest.fixture()
def populated_cluster():
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    platform = SgxPlatform("host")
    controller = boot(clients, platform, storage_key=STORAGE_KEY)
    policy = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')",
    )
    controller.put(ALICE, "private", b"sensitive", policy_id=policy.policy_id)
    controller.put(ALICE, "public", b"open data")
    controller.put(ALICE, "public", b"open data v1")
    return cluster, policy.policy_id, platform


def _fresh_controller(cluster, platform, key=STORAGE_KEY):
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(clients, platform, storage_key=key)


def test_restarted_controller_serves_data(populated_cluster):
    cluster, _policy_id, platform = populated_cluster
    restarted = _fresh_controller(cluster, platform)
    assert restarted.get(ALICE, "public").value == b"open data v1"
    assert restarted.get(ALICE, "public", version=0).value == b"open data"
    assert restarted.get(ALICE, "private").value == b"sensitive"


def test_restarted_controller_enforces_policies(populated_cluster):
    cluster, policy_id, platform = populated_cluster
    restarted = _fresh_controller(cluster, platform)
    denied = restarted.get(BOB, "private")
    assert denied.status == 403
    # The policy blob itself reloads from disk.
    from repro.core.request import Request

    response = restarted.handle(
        Request(method="get_policy", policy_id=policy_id), ALICE
    )
    assert response.ok


def _imposter(cluster):
    """A controller with another storage key, on a platform of its own."""
    return _fresh_controller(
        cluster, SgxPlatform("imposter"), key=b"wrong-key".ljust(32, b"\0")
    )


def test_wrong_storage_key_reads_nothing(populated_cluster):
    """A controller without the provisioned key cannot decrypt state —
    which is why the attestation gate on the key matters.  Its boot
    finds records it cannot open and forks with that reason."""
    cluster, _policy_id, _platform = populated_cluster
    imposter = _imposter(cluster)
    assert imposter.freshness.forked
    assert "storage key" in imposter.freshness.fork_reason
    response = imposter.get(ALICE, "public")
    assert response.status == 503
    assert "storage key" in response.error
    assert not response.value


def test_wrong_key_cannot_tamper_silently(populated_cluster):
    """The forked imposter refuses writes at the request gate, before
    any drive sees one."""
    cluster, _policy_id, platform = populated_cluster
    puts = [drive.stats.puts for drive in cluster]
    imposter = _imposter(cluster)
    assert "storage key" in imposter.freshness.fork_reason
    assert imposter.put(ALICE, "public", b"forged").status == 503
    assert [drive.stats.puts for drive in cluster] == puts
    restarted = _fresh_controller(cluster, platform)
    assert restarted.get(ALICE, "public").value == b"open data v1"
