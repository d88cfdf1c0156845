"""Quorum writes, circuit breaker, read-repair, and the health surface."""

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.core.freshness import record_digest
from repro.core.health import CLOSED, OPEN
from repro.core.store import ObjectStore, StoredMeta, placement
from repro.core.webserver import WebServer
from repro.errors import DriveOffline, IntegrityError, ReplicationDegraded
from repro.faults import DriveFaultSpec
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.telemetry import Telemetry, render_prometheus

from tests.enclave import boot
from tests.faults.conftest import FP, chaos_stack


def _store(num_drives=3, replication=2, **kwargs):
    cluster = DriveCluster(num_drives=num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return (
        ObjectStore(
            clients, b"s" * 32, replication_factor=replication, **kwargs
        ),
        cluster,
    )


# -- circuit breaker -------------------------------------------------------


def test_breaker_opens_after_threshold_failures():
    store, cluster = _store(write_quorum=1, breaker_threshold=3)
    dead = placement("obj", 3, 2)[0]
    cluster.drive(dead).fail()
    meta = StoredMeta(key="obj")
    for _ in range(3):
        store.store_version(meta, b"data", "")
    assert store.health.state_of(dead).state == OPEN


def test_breaker_skips_open_drive():
    """Once open, the dead drive stops seeing requests at all."""
    store, cluster = _store(write_quorum=1, breaker_threshold=2)
    dead = placement("obj", 3, 2)[0]
    cluster.drive(dead).fail()
    meta = StoredMeta(key="obj")
    for _ in range(4):
        store.store_version(meta, b"data", "")
    sent_while_open = store.clients[dead].requests_sent
    store.store_version(meta, b"data", "")
    assert store.clients[dead].requests_sent == sent_while_open


def test_half_open_probe_recovers_the_drive():
    store, cluster = _store(
        write_quorum=1, breaker_threshold=2, breaker_cooldown_ops=4
    )
    dead = placement("obj", 3, 2)[0]
    cluster.drive(dead).fail()
    meta = StoredMeta(key="obj")
    for _ in range(3):
        store.store_version(meta, b"data", "")
    assert store.health.state_of(dead).state == OPEN
    cluster.drive(dead).recover()
    # Writes keep flowing; after the cooldown a probe closes the breaker.
    for _ in range(6):
        store.store_version(meta, b"data", "")
    assert store.health.state_of(dead).state == CLOSED
    assert store.health.state_of(dead).probes >= 1


def test_quorum_can_reopen_a_breaker_skipped_drive():
    """When skipping an open breaker would fail the quorum, the store
    probes the drive anyway rather than refusing a write it could
    serve."""
    store, cluster = _store(
        replication=2, breaker_threshold=1, breaker_cooldown_ops=10**6
    )
    dead = placement("obj", 3, 2)[0]
    cluster.drive(dead).fail()
    meta = StoredMeta(key="obj")
    with pytest.raises(ReplicationDegraded):
        store.store_version(meta, b"data", "")
    assert store.health.state_of(dead).state == OPEN
    cluster.drive(dead).recover()
    # Breaker is still open (huge cooldown), but quorum=2 forces the
    # last-resort probe and the write succeeds on both replicas.
    store.store_version(meta, b"data", "")
    assert store.read_value("obj", meta.current_version) == b"data"


# -- read failover and repair ----------------------------------------------


def test_read_fails_over_corrupt_replica_and_repairs_it():
    store, cluster = _store(replication=2)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"important-data", "")
    primary = placement("obj", 3, 2)[0]
    disk_key = ObjectStore.value_key("obj", 0)
    entry = cluster.drive(primary)._entries[disk_key]
    entry.value = bytes([entry.value[0] ^ 0x01]) + entry.value[1:]
    # The corrupt primary fails AEAD open; the replica serves the read.
    assert store.read_value("obj", 0) == b"important-data"
    # ...and the primary was re-seeded inline: a scrub is now clean.
    report = store.scrub(meta)
    assert all(status == "ok" for _v, _d, status in report)


def test_all_replicas_corrupt_raises_integrity_error():
    store, cluster = _store(replication=2)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"important-data", "")
    disk_key = ObjectStore.value_key("obj", 0)
    for index in placement("obj", 3, 2):
        entry = cluster.drive(index)._entries[disk_key]
        entry.value = bytes([entry.value[0] ^ 0x01]) + entry.value[1:]
    with pytest.raises(IntegrityError):
        store.read_value("obj", 0)


def test_read_past_missing_replica_journals_key():
    store, cluster = _store(replication=2)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    primary = placement("obj", 3, 2)[0]
    del cluster.drive(primary)._entries[ObjectStore.value_key("obj", 0)]
    assert store.read_value("obj", 0) == b"data"
    # Inline repair restored the copy on the answering-but-empty drive.
    assert ObjectStore.value_key("obj", 0) in cluster.drive(primary)._entries


# -- anti-entropy ----------------------------------------------------------


def test_anti_entropy_converges_after_recovery():
    from repro.core.antientropy import AntiEntropyRepairer

    store, cluster = _store(replication=2, write_quorum=1)
    dead = placement("obj", 3, 2)[1]
    cluster.drive(dead).fail()
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    assert ("object", "obj") in store.journal
    repairer = AntiEntropyRepairer(store)
    # While the drive is down the key stays journaled (deferred).
    report = repairer.run_once()
    assert ("object", "obj") in store.journal
    cluster.drive(dead).recover()
    report = repairer.run_until_converged()
    assert len(store.journal) == 0
    assert "obj" in report["converged"]
    scrub = store.scrub(store.read_meta("obj"))
    assert all(status == "ok" for _v, _d, status in scrub)


def test_anti_entropy_repairs_policies_by_rewrite():
    from repro.core.antientropy import AntiEntropyRepairer

    store, cluster = _store(replication=2, write_quorum=1)
    policy_id = record_digest(b"compiled-bytes")
    dead = placement(policy_id, 3, 2)[1]
    cluster.drive(dead).fail()
    assert store.write_policy(b"compiled-bytes") == policy_id
    assert ("policy", policy_id) in store.journal
    cluster.drive(dead).recover()
    AntiEntropyRepairer(store).run_until_converged()
    assert len(store.journal) == 0
    key = ObjectStore.policy_key(policy_id)
    assert key in cluster.drive(dead)._entries


def test_a_reseed_to_a_failing_drive_counts_against_its_breaker():
    """Read-repair writes like any write: its drive's breaker hears how
    it went, and a failed re-seed still never fails the read."""
    store, cluster = _store(replication=3, breaker_threshold=1)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"v1", "")
    first = placement("obj", 3, 3)[0]
    del cluster.drive(first)._entries[ObjectStore.meta_key("obj")]

    def refuse(*args, **kwargs):
        raise DriveOffline("write path down")

    store.clients[first].put = refuse
    assert store.read_meta("obj").current_version == 0
    assert store.health.state_of(first).failures == 1
    assert store.health.state_of(first).state == OPEN
    assert ("object", "obj") in store.journal


def test_a_delete_a_replica_missed_is_refused():
    """A delete goes through the write quorum: one replica down at
    the default full quorum answers 503, and the key stays readable."""
    cluster = DriveCluster(num_drives=3)
    controller = boot(
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        storage_key=b"d" * 32,
        config=ControllerConfig(replication_factor=3),
    )
    assert controller.put(FP, "k", b"value").ok
    dead = placement("k", 3, 3)[0]
    cluster.drive(dead).fail()
    response = controller.delete(FP, "k")
    assert response.status == ReplicationDegraded.status == 503
    assert controller.store.journal.pending("object", "k") == {dead}
    cluster.drive(dead).recover()
    response = controller.get(FP, "k")
    assert response.status == 200 and response.value == b"value"


# -- controller degradation and the health surface -------------------------


def test_controller_503_with_retry_after_below_quorum():
    stack = chaos_stack(
        num_drives=3,
        specs={0: DriveFaultSpec(crash_at=0), 1: DriveFaultSpec(crash_at=0)},
        replication_factor=3,
    )
    server = WebServer(stack.controller)
    raw = server.handle_bytes(
        b"POST /put/doc HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", FP
    )
    head = raw.split(b"\r\n\r\n", 1)[0].decode()
    assert head.startswith("HTTP/1.1 503")
    assert "Retry-After: 1" in head


def test_health_endpoint_reports_status_transitions():
    stack = chaos_stack(num_drives=3, replication_factor=2)
    server = WebServer(stack.controller)

    def health():
        raw = server.handle_bytes(b"GET /_health HTTP/1.1\r\n\r\n", FP)
        head, body = raw.split(b"\r\n\r\n", 1)
        return head.decode().split(" ")[1], json.loads(body)

    status, report = health()
    assert status == "200"
    assert report["status"] == "ok"
    assert len(report["drives"]) == 3
    # One drive down: degraded (quorum still reachable) but not critical.
    stack.cluster.drive(0).fail()
    stack.controller.put(FP, "poke", b"x")  # let the store notice
    status, report = health()
    assert report["drives"][0]["online"] is False
    assert report["status"] in ("degraded", "critical")
    # All drives down: critical, and the endpoint itself serves 503.
    for drive in stack.cluster:
        drive.fail()
    status, report = health()
    assert status == "503"
    assert report["status"] == "critical"


def test_health_endpoint_works_without_telemetry():
    from repro.telemetry import NULL_TELEMETRY

    stack = chaos_stack(num_drives=2)
    server = WebServer(stack.controller, telemetry=NULL_TELEMETRY)
    raw = server.handle_bytes(b"GET /_health HTTP/1.1\r\n\r\n", FP)
    assert raw.split(b" ")[1] == b"200"
    # The rest of the admin surface still requires telemetry.
    raw = server.handle_bytes(b"GET /_metrics HTTP/1.1\r\n\r\n", FP)
    assert raw.split(b" ")[1] == b"503"


def test_resilience_metrics_exposed():
    telemetry = Telemetry()
    stack = chaos_stack(
        num_drives=3,
        specs={0: DriveFaultSpec(drop_every=2)},
        replication_factor=2,
        telemetry=telemetry,
    )
    for i in range(12):
        assert stack.controller.put(FP, f"k{i}", b"v").ok
    text = render_prometheus(telemetry.registry)
    assert "pesos_drive_health{" in text
    assert "pesos_drive_online{" in text
    assert "pesos_drive_retries_total{" in text
    assert 'error="TransientIOError"' in text
    assert "pesos_dirty_journal_keys" in text
