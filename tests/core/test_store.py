"""Object store: layout, encryption, replication, failover."""

import hashlib
import inspect

import pytest

from repro.core.store import (
    VERSION_METADATA_WINDOW,
    ObjectStore,
    StoredMeta,
    VersionMeta,
    _forced,
    placement,
)
from repro.errors import (
    ConfigurationError,
    DriveOffline,
    KineticNotFound,
    ReplicationDegraded,
)
from repro.kinetic import protocol
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import MessageType

POLICY_HASH = hashlib.sha256(b"a compiled policy").hexdigest()


def _store(num_drives=3, replication=1, **kwargs):
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


def test_placement_is_deterministic():
    assert placement("key-1", 4, 2) == placement("key-1", 4, 2)


def test_placement_replicas_are_consecutive():
    spots = placement("some-key", 5, 3)
    assert len(spots) == 3
    assert spots[1] == (spots[0] + 1) % 5
    assert spots[2] == (spots[0] + 2) % 5


def test_placement_capped_at_drive_count():
    assert len(placement("k", 2, 5)) == 2


def test_placement_spreads_keys():
    primaries = {placement(f"key-{i}", 4, 1)[0] for i in range(100)}
    assert primaries == {0, 1, 2, 3}


def test_meta_roundtrip():
    meta = StoredMeta(key="obj")
    assert not meta.exists
    store, _ = _store()
    store.store_version(meta, b"hello", policy_hash=POLICY_HASH)
    loaded = store.read_meta("obj")
    assert loaded.exists
    assert loaded.current_version == 0
    assert loaded.latest().size == 5
    assert loaded.latest().policy_hash == POLICY_HASH
    assert loaded.latest().content_hash == hashlib.sha256(b"hello").hexdigest()
    assert loaded.policy_id == ""


def test_missing_meta_is_none():
    store, _ = _store()
    assert store.read_meta("ghost") is None


def test_value_roundtrip_encrypted_on_disk():
    store, cluster = _store(num_drives=1)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"super secret payload", "")
    assert store.read_value("obj", 0) == b"super secret payload"
    # The drive never sees plaintext.
    drive = cluster.drive(0)
    raw = drive._entries[ObjectStore.value_key("obj", 0)].value
    assert b"super secret payload" not in raw


def test_versions_accumulate_with_history():
    store, _ = _store(keep_history=True)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"v0", "")
    store.store_version(meta, b"v1", "")
    store.store_version(meta, b"v2", "")
    assert meta.current_version == 2
    assert store.read_value("obj", 0) == b"v0"
    assert store.read_value("obj", 2) == b"v2"


def test_history_disabled_drops_old_versions():
    store, cluster = _store(num_drives=1, keep_history=False)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"v0", "")
    store.store_version(meta, b"v1", "")
    assert list(meta.versions) == [1]
    # Updates overwrite a single latest slot: one value key + one meta
    # key on the drive, and no delete traffic.
    assert cluster.drive(0).key_count == 2
    assert cluster.drive(0).stats.deletes == 0
    assert store.read_value("obj", 1) == b"v1"


def test_replication_writes_all_replicas():
    store, cluster = _store(num_drives=3, replication=3)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    # meta + value on every drive.
    for drive in cluster:
        assert drive.key_count == 2


def test_no_replication_writes_one_drive():
    store, cluster = _store(num_drives=3, replication=1)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    populated = [drive for drive in cluster if drive.key_count > 0]
    assert len(populated) == 1


def test_read_failover_to_replica():
    store, cluster = _store(num_drives=3, replication=2)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    primary = placement("obj", 3, 2)[0]
    cluster.drive(primary).fail()
    assert store.read_value("obj", 0) == b"data"
    assert store.read_meta("obj").exists


def test_read_fails_when_all_replicas_down():
    store, cluster = _store(num_drives=3, replication=2)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")
    for index in placement("obj", 3, 2):
        cluster.drive(index).fail()
    with pytest.raises(DriveOffline):
        store.read_value("obj", 0)


def test_write_survives_one_replica_down_with_quorum_one():
    store, cluster = _store(num_drives=3, replication=2, write_quorum=1)
    replicas = placement("obj", 3, 2)
    cluster.drive(replicas[1]).fail()
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"data", "")  # succeeds on remaining replica
    assert store.read_value("obj", 0) == b"data"
    # The partial write is journaled for anti-entropy.
    assert ("object", "obj") in store.journal


def test_default_quorum_refuses_partial_write():
    """Every replica must persist by default; a partial write raises
    ReplicationDegraded (a DriveOffline, so clients see a 503)."""
    store, cluster = _store(num_drives=3, replication=2)
    replicas = placement("obj", 3, 2)
    cluster.drive(replicas[1]).fail()
    with pytest.raises(ReplicationDegraded):
        store.store_version(StoredMeta(key="obj"), b"data", "")
    # The replica that did take the write diverges: journaled.
    assert ("object", "obj") in store.journal


def test_write_quorum_validated():
    with pytest.raises(ConfigurationError):
        _store(num_drives=3, replication=2, write_quorum=3)
    with pytest.raises(ConfigurationError):
        _store(num_drives=3, replication=2, write_quorum=0)


def test_write_fails_when_all_replicas_down():
    store, cluster = _store(num_drives=3, replication=2)
    for index in placement("obj", 3, 2):
        cluster.drive(index).fail()
    with pytest.raises(DriveOffline):
        store.store_version(StoredMeta(key="obj"), b"data", "")


def test_delete_object_removes_everything():
    store, cluster = _store(num_drives=1)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"v0", "")
    store.store_version(meta, b"v1", "")
    store.delete_object(meta)
    assert cluster.drive(0).key_count == 0


def test_policy_blob_roundtrip():
    store, _ = _store()
    policy_id = store.write_policy(b"compiled-policy-bytes")
    assert policy_id == hashlib.sha256(b"compiled-policy-bytes").hexdigest()
    assert store.read_policy(policy_id) == b"compiled-policy-bytes"
    assert store.read_policy("missing") is None


def test_requires_clients():
    with pytest.raises(ConfigurationError):
        ObjectStore([], b"s" * 32)


def test_meta_weight_positive():
    meta = StoredMeta(key="obj")
    assert meta.weight() > 0


# -- one frame per replica, a bounded metadata record ------------------------


def _drive_keys(cluster):
    return [sorted(drive._entries) for drive in cluster.drives]


def test_store_version_is_one_replicated_write():
    """Value and ``m/`` record share one frame: three drive requests at
    RF 3 (six records applied), and one ``_pinned_write`` (the one
    ``_write_replicas`` of a mutation) in source."""
    store, cluster = _store(replication=3)
    sent = sum(client.requests_sent for client in store.clients)
    store.store_version(StoredMeta(key="obj"), b"hello", policy_hash="")
    assert sum(c.requests_sent for c in store.clients) == sent + 3
    assert sum(drive.stats.puts for drive in cluster.drives) == 6
    source = inspect.getsource(ObjectStore._store_version)
    assert source.count("_pinned_write(") == 1


def test_metadata_record_is_flat_in_the_number_of_versions():
    """From the window's edge to 1 000 versions of one key, a PUT seals
    the same number of metadata bytes and the drives hold the same
    number of records: the window bounds space, not just metadata."""
    store, cluster = _store(replication=3)
    meta = StoredMeta(key="hot")
    sizes = {}
    for version in range(1000):
        store.store_version(meta, b"v%03d" % version, POLICY_HASH)
        if version + 1 in (VERSION_METADATA_WINDOW + 1, 1000):
            sizes[version + 1] = (
                len(meta.encode()), sum(d.key_count for d in cluster.drives)
            )
    (early_bytes, early_keys), (late_bytes, late_keys) = sizes.values()
    # Rows are fixed-width (49 B) and the one policy hash is spelled
    # once: only the varint of the current version may grow.
    assert late_bytes - early_bytes == 1
    assert late_bytes == 49 * VERSION_METADATA_WINDOW + 72
    assert late_keys == early_keys == 3 * (VERSION_METADATA_WINDOW + 1)
    assert sorted(meta.versions) == list(
        range(1000 - VERSION_METADATA_WINDOW, 1000)
    )
    assert store.read_value("hot", 999) == b"v999"
    with pytest.raises(KineticNotFound):
        # Left the window: freed.
        store.read_value("hot", 999 - VERSION_METADATA_WINDOW)
    store.delete_object(store.read_meta("hot"))
    assert _drive_keys(cluster) == [[], [], []]


def test_window_without_history_never_deletes_the_live_slot():
    store, cluster = _store(replication=1, keep_history=False)
    meta = StoredMeta(key="hot")
    for version in range(VERSION_METADATA_WINDOW + 8):
        store.store_version(meta, b"v%d" % version, "")
        # A cold controller re-reads the record, which keeps the
        # previous version's entry: the window is what bounds it.
        meta = store.read_meta("hot")
    assert len(meta.versions) <= VERSION_METADATA_WINDOW
    latest = meta.current_version
    assert store.read_value(
        "hot", latest, expect_sha256=meta.latest().content_hash
    ) == b"v%d" % latest
    assert sum(drive.key_count for drive in cluster.drives) == 2


def test_failed_write_leaves_the_callers_record_untouched():
    """``meta`` is usually the cached record: below quorum it must not
    claim a version the store never acknowledged."""
    store, cluster = _store(replication=3)
    meta = StoredMeta(key="obj")
    store.store_version(meta, b"v0", "")
    for drive in cluster.drives:
        drive.fail()
    with pytest.raises(ReplicationDegraded):
        store.store_version(meta, b"v1", "")
    assert meta.current_version == 0 and sorted(meta.versions) == [0]


def test_reads_objects_laid_out_by_the_two_write_store():
    """Persisted bytes are compatible: records written the old way —
    value then ``m/`` record as separate PUTs, metadata unbounded — read
    back, and the next PUT trims record and drive space to the window."""
    store, cluster = _store(replication=3)
    history = VERSION_METADATA_WINDOW + 8
    old = StoredMeta(key="legacy", policy_id="")
    for version in range(history):
        value = b"old-%d" % version
        disk_key, aad = store._value_record("legacy", version)
        store._write_replicas(
            "legacy", [_forced(disk_key, store._seal(value, aad))]
        )
        old.current_version = version
        old.versions[version] = VersionMeta(
            version, len(value), hashlib.sha256(value).hexdigest()
        )
        store.write_meta(old)
    meta = store.read_meta("legacy")
    assert sorted(meta.versions) == list(range(history))
    for version, entry in meta.versions.items():
        assert store.read_value(
            "legacy", version, expect_sha256=entry.content_hash
        ) == b"old-%d" % version
    store.store_version(meta, b"new", "")
    assert len(store.read_meta("legacy").versions) == VERSION_METADATA_WINDOW
    assert [len(keys) for keys in _drive_keys(cluster)] == [
        VERSION_METADATA_WINDOW + 1
    ] * 3


def test_delete_object_is_one_frame_per_replica():
    store, cluster = _store(replication=3)
    meta = StoredMeta(key="obj")
    for value in (b"v0", b"v1"):
        store.store_version(meta, value, "")
    sent = sum(client.requests_sent for client in store.clients)
    store.delete_object(meta)
    assert sum(c.requests_sent for c in store.clients) == sent + 3
    # Counted per record: two value slots and the ``m/`` record, thrice.
    assert sum(drive.stats.deletes for drive in cluster.drives) == 9
    assert _drive_keys(cluster) == [[], [], []]
    # A replica that never held the object takes the same frame.
    store.delete_object(meta)
    assert sum(drive.stats.deletes for drive in cluster.drives) == 9


def test_a_mutation_is_encoded_once_for_all_its_replicas(monkeypatch):
    """An RF 3 ``store_version`` encodes its ``COMMIT`` body once, through
    the module global; each replica's frame still carries that client's
    own sequence and authenticates at its drive."""
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY)
    store = ObjectStore(clients, b"k" * 32, replication_factor=3)
    bodies, frames = [], []
    original = protocol.encode_fields

    def counted(fields):
        if "ops" in fields:
            bodies.append(fields)
        return original(fields)

    monkeypatch.setattr(protocol, "encode_fields", counted)
    for drive in cluster.drives:
        def handle(request, drive=drive, inner=drive.handle):
            if request.message_type == MessageType.COMMIT:
                mac = drive._accounts[request.identity].mac
                frames.append((drive.drive_id, request.sequence, request.verify(mac)))
            return inner(request)

        monkeypatch.setattr(drive, "handle", handle)
    store.store_version(StoredMeta(key="obj"), b"value", "")
    assert len(bodies) == 1
    assert sorted(frames) == sorted(
        (client.drive.drive_id, client._sequence, True) for client in clients
    )
    assert store.read_value("obj", 0) == b"value"
