"""Untrusted SSD cache tier: the device, and the store's checks on it.

The SSD holds the sealed bytes a drive replica holds, and a copy read
back must pass the checks a drive replica's copy must pass.  Each
attack below names the check that catches it: the AEAD tag (a
tampered blob), the record's AAD (a blob substituted from another
record), a value's ``content_hash`` or a metadata record's pinned leaf
(a replayed stale copy).  A caught copy is a miss, served from the
drives.
"""

import pytest

from repro.core.controller import ControllerConfig, PesosController
from repro.core.effects import EffectsRecorder
from repro.core.ssdcache import SimulatedSsd, SsdCacheTier
from repro.core.store import ObjectStore, placement
from repro.telemetry import Telemetry
from tests.core.conftest import ALICE
from tests.enclave import boot

VALUE = ObjectStore.value_key("obj", 0)
META = ObjectStore.meta_key("obj")


@pytest.fixture()
def tier():
    return SsdCacheTier(device=SimulatedSsd(capacity=64))


def test_put_get_roundtrip(tier):
    tier.put(b"v/k", b"sealed bytes")
    assert tier.get(b"v/k", lambda blob: blob.upper()) == b"SEALED BYTES"
    assert (tier.stats.inserts, tier.stats.hits) == (1, 1)


def test_miss_returns_none(tier):
    assert tier.get(b"absent", lambda blob: blob) is None
    assert tier.stats.misses == 1


def test_a_copy_its_check_refuses_is_counted_dropped_and_missed(tier):
    tier.put(b"v/k", b"sealed bytes")
    assert tier.get(b"v/k", lambda blob: None) is None
    assert (tier.stats.integrity_failures, tier.stats.misses) == (1, 1)
    assert tier.device.blobs == {}


def test_the_device_evicts_past_its_capacity():
    """Eviction is the untrusted side's business: the enclave keeps
    nothing per entry."""
    device = SimulatedSsd(capacity=4)
    for index in range(10):
        device.write(f"k{index}".encode(), b"v")
    assert sorted(device.blobs) == [b"k6", b"k7", b"k8", b"k9"]


# -- through the store ---------------------------------------------------------


def _controller(clients, telemetry=None, effects=None, **config):
    return boot(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(ssd_cache_entries=1024, **config),
        telemetry=telemetry,
        effects=effects,
    )


@pytest.fixture()
def ssd_controller(clients):
    return _controller(clients, effects=EffectsRecorder())


def _cold_get(controller, key="obj", **kwargs):
    """A GET that misses the enclave caches and reaches the store."""
    controller.caches.objects.clear()
    controller.caches.invalidate_meta(key)
    return controller.get(ALICE, key, **kwargs)


def test_ssd_holds_only_ciphertext(ssd_controller, cluster):
    """The SSD holds the very blob a drive replica holds."""
    assert ssd_controller.put(ALICE, "obj", b"plaintext payload").ok
    blob = ssd_controller.store.ssd.device.snapshot(VALUE)
    assert b"plaintext payload" not in blob
    assert blob in {drive._entries[VALUE].value for drive in cluster
                    if VALUE in drive._entries}


def test_controller_serves_reads_from_ssd(ssd_controller):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.effects.drain()
    response = _cold_get(controller)
    assert response.value == b"value"
    # The metadata record and the value, both from the SSD...
    assert controller.store.ssd.stats.hits == 2
    # ...so no drive read happened.
    assert "disk_read" not in {e[0] for e in controller.effects.drain()}


def test_a_get_from_ssd_is_cached_once_then_hits_the_enclave(
    ssd_controller,
):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.caches.objects.clear()
    assert controller.get(ALICE, "obj").value == b"value"
    assert controller.store.ssd.stats.hits == 1
    assert controller.caches.objects.frequency("obj@0") == 1
    assert controller.get(ALICE, "obj").value == b"value"
    assert controller.store.ssd.stats.hits == 1  # the enclave served it
    assert controller.caches.objects.frequency("obj@0") == 2


def test_tampered_blob_treated_as_miss(clients):
    """Caught by the AEAD tag: a flipped byte of the metadata copy.
    The fault is the SSD's: no drive replica failure is counted."""
    telemetry = Telemetry()
    controller = _controller(clients, telemetry=telemetry)
    controller.put(ALICE, "obj", b"value")
    controller.store.ssd.device.tamper(META)
    response = _cold_get(controller)
    assert response.value == b"value"
    assert controller.store.ssd.stats.integrity_failures == 1
    events = telemetry.registry.get("pesos_ssd_cache_events_total")
    assert events.labels("integrity_failure").value == 1
    failures = telemetry.registry.get("pesos_replica_failures_total")
    assert failures.labels("corrupt").value == 0
    # The poisoned copy is gone; the drive read put the served one back.
    hits = controller.store.ssd.stats.hits
    assert _cold_get(controller).value == b"value"
    assert controller.store.ssd.stats.hits == hits + 2


def test_controller_falls_back_to_disk_on_ssd_tamper(ssd_controller):
    """Caught by the AEAD tag: a flipped byte of the value copy."""
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.caches.objects.clear()
    controller.store.ssd.device.tamper(VALUE)
    response = controller.get(ALICE, "obj")
    assert response.value == b"value"  # healed from the trusted drives
    assert controller.store.ssd.stats.integrity_failures == 1


def test_substituted_blob_from_other_key_detected(ssd_controller):
    """Caught by the AAD: another object's validly sealed value, put
    under this one's key, does not open as this record."""
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value-a")
    controller.put(ALICE, "other", b"value-b")
    device = controller.store.ssd.device
    device.rollback(VALUE, device.snapshot(ObjectStore.value_key("other", 0)))
    controller.caches.objects.clear()
    assert controller.get(ALICE, "obj").value == b"value-a"
    assert controller.store.ssd.stats.integrity_failures == 1


def test_rollback_attack_detected(clients):
    """Caught by the content hash: without history a value lives in one
    slot, so the earlier value's blob opens under the same AAD."""
    controller = _controller(clients, keep_history=False)
    slot = ObjectStore.value_key("config", ObjectStore.LATEST_SLOT)
    controller.put(ALICE, "config", b"allow nobody")
    old_blob = controller.store.ssd.device.snapshot(slot)
    controller.put(ALICE, "config", b"allow everyone")  # legitimate update
    controller.store.ssd.device.rollback(slot, old_blob)  # adversary replays
    response = _cold_get(controller, "config")
    assert response.value == b"allow everyone"
    assert controller.store.ssd.stats.integrity_failures == 1


def test_a_value_that_opens_but_misses_its_content_hash_is_served_from_the_drives(
    ssd_controller,
):
    """Caught by the content hash: bytes sealed under the value's own
    AAD, but not the bytes its metadata records."""
    controller = ssd_controller
    controller.put(ALICE, "obj", b"recorded")
    _disk_key, aad = controller.store._value_record("obj", 0)
    controller.store.ssd.device.rollback(
        VALUE, controller.store._seal(b"not recorded", aad)
    )
    controller.caches.objects.clear()
    controller.effects.drain()
    assert controller.get(ALICE, "obj").value == b"recorded"
    assert controller.store.ssd.stats.integrity_failures == 1
    assert "disk_read" in {e[0] for e in controller.effects.drain()}


def test_a_metadata_copy_from_before_a_put_is_rejected_by_the_pinned_leaf(
    ssd_controller,
):
    """Caught by the pinned leaf: the replayed record opens, and names
    a version whose content the SSD would serve too."""
    controller = ssd_controller
    controller.put(ALICE, "obj", b"first")
    old_meta = controller.store.ssd.device.snapshot(META)
    controller.put(ALICE, "obj", b"second")
    controller.store.ssd.device.rollback(META, old_meta)
    response = _cold_get(controller)
    assert (response.version, response.value) == (1, b"second")
    assert controller.store.ssd.stats.integrity_failures == 1


def test_a_refused_records_copy_is_not_served_over_the_pinned_one(
    cluster, clients
):
    """Caught by the pinned leaf alone: after a refused write the record
    it left on a replica is a pending side, which the drive walk serves
    only when no replica holds the pinned leaf; an SSD copy of it (here
    planted from that replica) is not the pinned leaf, so it is a miss."""
    controller = _controller(clients, replication_factor=3)
    assert controller.put(ALICE, "obj", b"old").ok
    last = placement("obj", 3, 3)[-1]
    cluster.drive(last).fail()
    assert controller.put(ALICE, "obj", b"new").status == 503
    cluster.drive(last).recover()
    refused = cluster.drive(placement("obj", 3, 3)[0])._entries[META].value
    controller.store.ssd.device.rollback(META, refused)
    response = _cold_get(controller)
    assert (response.version, response.value) == (0, b"old")
    assert controller.store.ssd.stats.integrity_failures == 1


def test_freshness_off_caches_no_metadata_on_the_ssd(clients):
    """Freshness off, explicitly: with no pinned leaf nothing would tell
    an old metadata copy from the current one, so only values go to the
    SSD."""
    controller = PesosController(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(
            ssd_cache_entries=1024, freshness_enabled=False
        ),
    )
    controller.put(ALICE, "obj", b"value")
    assert _cold_get(controller).value == b"value"
    assert list(controller.store.ssd.device.blobs) == [VALUE]
    assert controller.store.ssd.stats.hits == 1


def test_withheld_blob_is_a_miss(ssd_controller):
    """Nothing to check: a copy the device withholds is a plain miss."""
    controller = ssd_controller
    controller.put(ALICE, "obj", b"v")
    controller.store.ssd.device.discard(VALUE)
    controller.caches.objects.clear()
    assert controller.get(ALICE, "obj").value == b"v"
    assert controller.store.ssd.stats.integrity_failures == 0


def test_evicted_entry_unusable(clients):
    """A copy the device evicted is a miss, served from the drives."""
    controller = _controller(clients)
    controller.store.ssd.device.capacity = 1
    controller.put(ALICE, "obj", b"value")  # the metadata copy evicts VALUE
    controller.caches.objects.clear()
    assert controller.get(ALICE, "obj").value == b"value"
    assert controller.store.ssd.stats.misses == 1


def test_controller_delete_invalidates_ssd(ssd_controller):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.delete(ALICE, "obj")
    assert controller.store.ssd.device.blobs == {}


def test_controller_without_tier_has_none(controller):
    assert controller.store.ssd is None
