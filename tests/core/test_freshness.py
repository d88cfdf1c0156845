"""Unit tests for rollback/fork protection (:mod:`repro.core.freshness`).

Covers the Merkle layer, the write-ahead pin protocol, counter
sealing across enclave restarts, every bootstrap fork-detection path,
and the operator surfaces (health, metrics, audit chain).
"""

import json

import pytest

from repro.core.controller import ControllerConfig, PesosController
from repro.core.freshness import (
    FreshnessAuthority,
    MerkleTree,
    object_label,
    pack_pin,
    record_digest,
    unpack_pin,
)
from repro.core.store import _RANGE_PAGE, ObjectStore, StoredMeta
from repro.errors import ForkDetected, StaleReplica
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import MessageType
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.telemetry import Telemetry, render_prometheus

FP = "fp-freshness"

OPEN_POLICY = "read :- sessionKeyIs(K)\nupdate :- sessionKeyIs(K)"

BINARY = EnclaveBinary(name="pesos", content=b"controller v1")


def _store(num_drives=3, replication=2, **kwargs):
    cluster = DriveCluster(num_drives=num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    store = ObjectStore(
        clients, b"f" * 32, replication_factor=replication, **kwargs
    )
    return store, cluster


def _verified_store(**kwargs):
    """A store with a bootstrapped freshness authority attached."""
    store, cluster = _store(**kwargs)
    platform = SgxPlatform("host")
    authority = FreshnessAuthority(platform.launch(BINARY))
    authority.bootstrap(store)
    assert not authority.forked
    store.freshness = authority
    return store, cluster, authority, platform


def _fleet_state(cluster):
    """Deep-copy every drive's at-rest state (an adversary snapshot)."""
    snapshot = []
    for drive in cluster.drives:
        snapshot.append(
            (
                {
                    key: (entry.value, entry.version)
                    for key, entry in drive._entries.items()
                },
                list(drive._sorted_keys),
                drive._used_bytes,
            )
        )
    return snapshot


def _restore_fleet(cluster, snapshot):
    """Silently roll every drive back to a captured state."""
    from repro.kinetic.drive import _Entry

    for drive, (entries, sorted_keys, used_bytes) in zip(
        cluster.drives, snapshot
    ):
        drive._entries = {
            key: _Entry(value=value, version=version)
            for key, (value, version) in entries.items()
        }
        drive._sorted_keys = list(sorted_keys)
        drive._used_bytes = used_bytes


# -- Merkle tree -----------------------------------------------------------


def test_delete_restores_previous_root():
    tree = MerkleTree()
    tree.set(object_label("a"), record_digest(b"one"))
    root_before = tree.root
    tree.set(object_label("b"), record_digest(b"two"))
    assert tree.root != root_before
    tree.set(object_label("b"), None)
    assert tree.root == root_before
    assert len(tree) == 1


# -- pin protocol ----------------------------------------------------------


def test_prepare_settle_advances_counter_twice():
    _store_, _cluster, authority, platform = _verified_store()
    epoch0 = authority.epoch
    label = object_label("obj")
    authority.prepare(label, "d" * 64)
    assert platform.counter.read() == epoch0 + 1
    assert label in authority.pending
    authority.settle(label)
    assert platform.counter.read() == epoch0 + 2
    assert not authority.pending
    assert authority.tree.get(label) == "d" * 64


def test_abort_reverts_leaf_but_keeps_pending():
    _store_, _cluster, authority, _platform = _verified_store()
    label = object_label("obj")
    authority.prepare(label, "a" * 64)
    authority.settle(label)
    root_before = authority.root
    authority.prepare(label, "b" * 64)
    authority.abort(label)
    # The leaf is reverted (the quorum never took the write)...
    assert authority.tree.get(label) == "a" * 64
    assert authority.root == root_before
    # ...but the pending entry survives, its sides swapped so the
    # pinned leaf stays second: a minority replica may hold the new
    # record, and reads must accept either side.
    assert authority.pending[label] == ("b" * 64, "a" * 64)
    expected, allowed = authority.acceptable(label)
    assert expected == "a" * 64
    assert allowed == {"a" * 64, "b" * 64}


def test_every_pin_seals_fresh_counter_state():
    _store_, _cluster, authority, platform = _verified_store()
    bumps_before = platform.counter.bumps
    slot_before = platform.pin_slot
    authority.prepare(object_label("k"), "c" * 64)
    assert platform.pin_slot != slot_before
    authority.settle(object_label("k"))
    assert platform.counter.bumps == bumps_before + 2


# -- bootstrap and fork detection ------------------------------------------


def test_counter_sealing_survives_enclave_restart():
    store, _cluster, authority, platform = _verified_store()
    meta = StoredMeta(key="obj")
    meta = store.store_version(meta, b"v1", "")
    pins = authority.pins
    store.write_policy(b"blob")
    assert authority.pins == pins  # a policy needs no pin
    root = authority.root
    # Same trusted hardware, new controller process: the sealed pin
    # unseals, matches the hardware counter, and the rebuilt tree
    # reproduces the pinned root.
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert not restarted.forked and restarted.active
    assert restarted.root == root
    assert restarted.epoch == platform.counter.read()


def test_trust_on_first_use_adopts_existing_fleet():
    store, _cluster = _store()
    meta = StoredMeta(key="pre-existing")
    meta = store.store_version(meta, b"v1", "")
    store.write_policy(b"blob")
    authority = FreshnessAuthority(SgxPlatform("host").launch(BINARY))
    authority.bootstrap(store)
    assert not authority.forked and authority.active
    # Object records only: a policy is its own digest.
    assert list(authority.tree._digests) == [object_label("pre-existing")]


def test_rebuild_pages_every_label_past_two_range_pages(monkeypatch):
    """Three drives with more than two ``GETKEYRANGE`` pages of ``m/``
    keys each: the pager's exclusive cursor, the one flag it sends off
    its default, carries the rebuild across every page.  The ``p/``
    range beside them is never listed."""
    store, cluster = _store(replication=3)
    count = 2 * _RANGE_PAGE + 17
    for index in range(count):
        store.store_version(StoredMeta(key=f"obj{index:04d}"), b"v", "")
        store.write_policy(b"blob%04d" % index)
    flags = []
    for drive in cluster.drives:
        def handle(request, inner=drive.handle):
            if request.message_type == MessageType.GETKEYRANGE:
                flags.append(request.body.keys() - {
                    "start_key", "end_key", "max_returned",
                })
            return inner(request)
        monkeypatch.setattr(drive, "handle", handle)
    authority = FreshnessAuthority(SgxPlatform("host").launch(BINARY))
    authority.bootstrap(store)
    assert not authority.forked and authority.active
    labels = [object_label(f"obj{index:04d}") for index in range(count)]
    assert len(authority.tree) == len(labels)
    assert all(authority.tree.get(label) is not None for label in labels)
    # Per drive: an inclusive first page, then two exclusive ones (200,
    # 200 and 17 keys; the short one ends the range).
    assert flags.count(set()) == 3
    assert flags.count({"start_inclusive"}) == 3 * 2
    assert len(flags) == 3 * 3


def test_destroyed_pin_storage_is_a_fork():
    store, _cluster, _authority, platform = _verified_store()
    store.store_version(StoredMeta(key="obj"), b"v1", "")
    platform.pin_slot = None  # host deleted the sealed state
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert restarted.forked
    assert "counter" in restarted.fork_reason


def test_replayed_stale_pin_blob_is_a_fork():
    store, _cluster, _authority, platform = _verified_store()
    store.store_version(StoredMeta(key="obj"), b"v1", "")
    stale_blob = platform.pin_slot
    store.store_version(StoredMeta(key="obj2"), b"v2", "")
    platform.pin_slot = stale_blob  # host replayed an old seal
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert restarted.forked
    assert "stale sealed" in restarted.fork_reason


def test_foreign_seal_is_a_fork():
    store, _cluster, _authority, platform = _verified_store()
    platform.pin_slot = b"not-a-seal-at-all"
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert restarted.forked
    assert "unseal" in restarted.fork_reason


# -- the pin payload ----------------------------------------------------------


PENDING = {
    object_label("b"): ("a" * 64, None),
    object_label("a"): (None, "b" * 64),
    object_label("p\u00fc"): ("c" * 64, "d" * 64),
}


def test_pin_payload_round_trips():
    root = MerkleTree().root
    for pending in ({}, PENDING):
        payload = pack_pin(root, 7, 1.25, pending)
        assert unpack_pin(payload) == (root, 7, 1.25, pending)
        # Head (root, counter, vnow, count), then per entry a u32 label
        # length, the label and two 32-byte leaves.
        assert len(payload) == 52 + sum(
            4 + len(label.encode()) + 64 for label in pending
        )


def test_the_sealed_pin_is_the_packed_payload():
    _store_, _cluster, authority, platform = _verified_store()
    authority.vnow = 2.5
    authority.prepare(object_label("k"), "c" * 64)
    assert unpack_pin(authority.enclave.unseal(platform.pin_slot)) == (
        authority.root, platform.counter.read(), 2.5,
        {object_label("k"): (None, "c" * 64)},
    )


def test_a_key_past_64_kib_pins_and_restarts_clean():
    """No key the store takes is too long for the pin: the write of a
    70 000-character key pins, later writes still pin, and a restart
    boots clean on the fleet it left."""
    store, _cluster, authority, platform = _verified_store()
    key = "k" * 70_000
    store.store_version(StoredMeta(key=key), b"v1", "")
    store.store_version(StoredMeta(key="short"), b"v2", "")
    assert authority.pending == {}
    assert authority.epoch == platform.counter.read() == 5
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert restarted.active and not restarted.forked
    assert restarted.root == authority.root
    assert restarted.expected(object_label(key)) is not None


def _json_era(payload: bytes) -> list:
    """The pin as the sorted-JSON payload once sealed it."""
    root, counter, vnow, pending = unpack_pin(payload)
    return [
        json.dumps(
            {"counter": counter, "pending": entries, "root": root, "vnow": vnow},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        for entries in ({}, {k: list(v) for k, v in sorted(pending.items())})
    ]


def _label_length(payload: bytes, length: int) -> bytes:
    return payload[:52] + length.to_bytes(4, "big") + payload[56:]


MALFORMED = {
    "truncated": lambda payload: [payload[:cut] for cut in range(len(payload))],
    "trailing": lambda payload: [payload + b"\0", payload + payload[-40:]],
    "label-length": lambda payload: [
        _label_length(payload, length)
        for length in (0, len(object_label("k")) - 1, len(object_label("k")) + 1,
                       len(payload), 0xFFFF, 0xFFFFFFFF)
    ],
    "json-era": _json_era,
}


@pytest.mark.parametrize("kind", list(MALFORMED))
def test_own_sealed_malformed_pin_is_a_foreign_or_corrupt_seal(kind):
    """A payload the controller's own enclave sealed, so it unseals, but
    that is not exactly what :func:`pack_pin` writes: there is no other
    reader, a JSON-era pin included."""
    store, _cluster, authority, platform = _verified_store()
    authority.prepare(object_label("k"), "c" * 64)  # never written
    store.freshness = None
    payload = authority.enclave.unseal(platform.pin_slot)
    enclave = platform.launch(BINARY)
    for bad in MALFORMED[kind](payload):
        platform.pin_slot = enclave.seal(bad)
        restarted = FreshnessAuthority(enclave)
        restarted.bootstrap(store)
        assert restarted.forked, bad
        assert "foreign or corrupt seal" in restarted.fork_reason
    # The well-formed payload, sealed the same way, boots clean: the
    # pending entry explains the write that never reached the drives.
    platform.pin_slot = enclave.seal(payload)
    restarted = FreshnessAuthority(enclave)
    restarted.bootstrap(store)
    assert restarted.active and not restarted.forked


def test_rolled_back_fleet_is_a_fork():
    store, cluster, _authority, platform = _verified_store()
    store.store_version(StoredMeta(key="obj"), b"v1", "")
    old_fleet = _fleet_state(cluster)
    store.store_version(StoredMeta(key="obj"), b"v2", "")
    store.write_policy(b"blob")
    _restore_fleet(cluster, old_fleet)  # cloud restored an old image
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert restarted.forked
    assert "never pinned" in restarted.fork_reason


def test_crashed_prepare_resolves_without_fork():
    """A pin whose drive write never landed is not a fork.

    The pending journal sealed with the pin lets bootstrap prove the
    divergence is exactly the unsettled mutation, adopt what the
    drives actually hold, and re-pin.
    """
    store, _cluster, authority, platform = _verified_store()
    store.store_version(StoredMeta(key="obj"), b"v1", "")
    # Simulate a crash between prepare and the drive write: the tree
    # and seal carry the new leaf, the fleet still holds the old one.
    authority.prepare(object_label("obj2"), "e" * 64)
    store.freshness = None
    restarted = FreshnessAuthority(platform.launch(BINARY))
    restarted.bootstrap(store)
    assert not restarted.forked and restarted.active
    # The phantom label was adopted as the drives prove it: absent.
    assert restarted.tree.get(object_label("obj2")) is None


# -- verified reads --------------------------------------------------------


def test_proven_absence_answers_without_drive_io():
    store, _cluster, _authority, _platform = _verified_store()
    store.store_version(StoredMeta(key="exists"), b"v", "")
    sent_before = [client.requests_sent for client in store.clients]
    assert store.read_meta("never-written") is None
    assert [c.requests_sent for c in store.clients] == sent_before


def test_uniformly_stale_replicas_raise_stale_replica():
    store, cluster, authority, _platform = _verified_store(replication=3)
    meta = StoredMeta(key="obj")
    meta = store.store_version(meta, b"v1", "")
    old_fleet = _fleet_state(cluster)
    meta = store.store_version(meta, b"v2", "")
    _restore_fleet(cluster, old_fleet)  # every replica rolled back
    with pytest.raises(StaleReplica):
        store.read_meta("obj")
    assert authority.stale_rejected >= 1


def test_minority_stale_replica_is_outvoted_and_reseeded():
    store, cluster, authority, _platform = _verified_store(replication=3)
    meta = StoredMeta(key="obj")
    meta = store.store_version(meta, b"v1", "")
    old_fleet = _fleet_state(cluster)
    meta = store.store_version(meta, b"v2", "")
    _restore_fleet(cluster, old_fleet[:1])  # only drive 0 rolls back
    read = store.read_meta("obj")
    assert read is not None
    assert read.current_version == meta.current_version
    # The stale replica was re-seeded inline: a scrub is clean and a
    # second read hits no stale copy.
    rejected = authority.stale_rejected
    assert store.read_meta("obj").current_version == meta.current_version
    assert authority.stale_rejected == rejected


# -- anti-entropy ----------------------------------------------------------


def test_policy_repair_refuses_content_address_mismatch():
    from repro.core.antientropy import KIND_POLICY, AntiEntropyRepairer
    from repro.core.store import placement
    from repro.policy.compiler import compile_source

    store, cluster = _store(replication=3)
    policy_id = store.write_policy(compile_source(OPEN_POLICY).to_bytes())
    disk_key, aad = store._policy_record(policy_id)
    # Another valid compiled policy sealed under the id's AAD, the only
    # copy left: it opens, but is not the policy the id names.
    planted = store._seal(compile_source("read :- sessionKeyIs(K)").to_bytes(), aad)
    first, *others = placement(policy_id, 3, 3)
    cluster.drive(first)._entries[disk_key].value = planted
    for index in others:
        del cluster.drive(index)._entries[disk_key]
    store.journal.mark(KIND_POLICY, policy_id)
    report = AntiEntropyRepairer(store).run_once()
    assert policy_id in report["pending"]
    assert (KIND_POLICY, policy_id) in store.journal
    # Neither the repair nor its read spread the planted blob.
    assert all(disk_key not in cluster.drive(index)._entries for index in others)
    assert cluster.drive(first)._entries[disk_key].value == planted


# -- operator surfaces -----------------------------------------------------


def _controller(platform, telemetry=None, **overrides):
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"c" * 32,
        config=ControllerConfig(**overrides),
        telemetry=telemetry,
        enclave=platform.launch(BINARY),
    )
    return controller, cluster


def test_a_policy_upload_advances_no_counter():
    platform = SgxPlatform("host")
    controller, _cluster = _controller(platform)
    pins, epoch = controller.freshness.pins, platform.counter.read()
    policy_id = controller.put_policy(FP, OPEN_POLICY).policy_id
    assert (controller.freshness.pins, platform.counter.read()) == (pins, epoch)
    assert controller.freshness.tree.get(f"p/{policy_id}") is None
    assert controller.put(FP, "obj", b"value", policy_id=policy_id).ok


def test_a_policy_the_fleet_hides_fails_closed():
    """No pin names the policy, so a fleet that drops it leaves the
    object's binding unloadable: refused (500), never waved through."""
    platform = SgxPlatform("host")
    controller, cluster = _controller(platform)
    policy_id = controller.put_policy(FP, OPEN_POLICY).policy_id
    assert controller.put(FP, "obj", b"value", policy_id=policy_id).ok
    for drive in cluster:
        drive._entries.pop(ObjectStore.policy_key(policy_id), None)
    controller.caches.policies.remove(policy_id)
    response = controller.get(FP, "obj")
    assert response.status == 500
    assert "cannot be loaded" in response.error
    assert not response.value


def test_health_and_metrics_expose_freshness_state():
    telemetry = Telemetry()
    platform = SgxPlatform("host")
    controller, _cluster = _controller(platform, telemetry=telemetry)
    assert controller.put(FP, "obj", b"value").ok
    assert controller.get(FP, "obj").ok
    report = controller.health()
    block = report["freshness"]
    assert block["active"] and not block["forked"]
    assert block["epoch"] == platform.counter.read() > 0
    text = render_prometheus(telemetry.registry)
    assert "pesos_freshness_pins_total" in text
    assert "pesos_fork_detected 0" in text


def test_forked_controller_refuses_requests_and_goes_critical():
    platform = SgxPlatform("host")
    controller, cluster = _controller(platform)
    assert controller.put(FP, "obj", b"value").ok
    platform.pin_slot = None  # destroy the sealed pin across restart
    telemetry = Telemetry()
    restarted = PesosController(
        cluster.connect_all(
            KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        ),
        storage_key=b"c" * 32,
        config=ControllerConfig(),
        telemetry=telemetry,
        enclave=platform.launch(BINARY),
    )
    assert restarted.freshness.forked
    response = restarted.get(FP, "obj")
    assert response.status == 503
    assert not response.ok
    report = restarted.health()
    assert report["status"] == "critical"
    assert "pesos_fork_detected 1" in render_prometheus(telemetry.registry)


def test_pin_events_are_hash_chained_into_the_audit_log():
    platform = SgxPlatform("host")
    controller, _cluster = _controller(platform, audit_log_size=4096)
    assert controller.put(FP, "obj", b"value").ok
    assert controller.delete(FP, "obj").ok
    records = controller.auditor.tail(limit=256)
    pins = [record for record in records if record.operation == "pin"]
    assert len(pins) == controller.freshness.pins
    assert pins[-1].key == f"epoch:{platform.counter.read()}"
    assert pins[-1].policy_hash == controller.freshness.root
    assert controller.auditor.verify()["ok"]


def test_fork_event_is_audited():
    platform = SgxPlatform("host")
    controller, cluster = _controller(platform, audit_log_size=4096)
    assert controller.put(FP, "obj", b"value").ok
    platform.pin_slot = None
    restarted = PesosController(
        cluster.connect_all(
            KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        ),
        storage_key=b"c" * 32,
        config=ControllerConfig(audit_log_size=4096),
        enclave=platform.launch(BINARY),
    )
    records = restarted.auditor.tail(limit=16)
    forks = [record for record in records if record.decision == "fork"]
    assert forks and "counter" in forks[-1].detail
    assert restarted.auditor.verify()["ok"]
