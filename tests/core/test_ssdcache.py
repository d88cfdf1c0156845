"""Untrusted SSD cache tier: hits, attacks, controller integration."""

import pytest

from repro.core.controller import ControllerConfig, PesosController
from repro.core.ssdcache import SimulatedSsd, SsdCacheTier
from tests.core.conftest import ALICE


@pytest.fixture()
def tier():
    return SsdCacheTier(device=SimulatedSsd(), max_entries=64)


def test_put_get_roundtrip(tier):
    tier.put("k@0", b"cached value")
    assert tier.get("k@0") == b"cached value"
    assert tier.stats.hits == 1


def test_miss_returns_none(tier):
    assert tier.get("absent") is None
    assert tier.stats.misses == 1


def test_ssd_holds_only_ciphertext(tier):
    tier.put("k@0", b"plaintext payload")
    blob = tier.device.snapshot("k@0")
    assert b"plaintext payload" not in blob


def test_tampered_blob_treated_as_miss(tier):
    tier.put("k@0", b"value")
    tier.device.tamper("k@0")
    assert tier.get("k@0") is None
    assert tier.stats.integrity_failures == 1
    # The poisoned entry is gone; a re-put heals it.
    tier.put("k@0", b"value")
    assert tier.get("k@0") == b"value"


def test_rollback_attack_detected(tier):
    """Replaying an older, validly sealed blob must fail freshness."""
    tier.put("config", b"allow nobody")
    old_blob = tier.device.snapshot("config")
    tier.put("config", b"allow everyone")  # legitimate update
    tier.device.rollback("config", old_blob)  # adversary replays v1
    assert tier.get("config") is None
    assert tier.stats.integrity_failures == 1


def test_substituted_blob_from_other_key_detected(tier):
    tier.put("a", b"value-a")
    tier.put("b", b"value-b")
    tier.device.rollback("a", tier.device.snapshot("b"))
    assert tier.get("a") is None
    assert tier.stats.integrity_failures == 1


def test_withheld_blob_is_a_miss(tier):
    tier.put("k", b"v")
    tier.device.discard("k")
    assert tier.get("k") is None
    assert tier.stats.integrity_failures == 0  # withholding != tampering


def test_eviction_bounds_freshness_table():
    tier = SsdCacheTier(max_entries=4)
    for index in range(10):
        tier.put(f"k{index}", b"v")
    assert len(tier) <= 4
    assert tier.enclave_bytes() <= 4 * SsdCacheTier.RECORD_BYTES


def test_evicted_entry_unusable(tier):
    small = SsdCacheTier(max_entries=1)
    small.put("a", b"va")
    small.put("b", b"vb")  # evicts a's freshness record
    # The blob may still sit on the SSD, but without the record it
    # cannot be validated.
    assert small.get("a") is None


def test_invalidate(tier):
    tier.put("k", b"v")
    tier.invalidate("k")
    assert tier.get("k") is None
    assert tier.device.read("k") is None


# -- controller integration -------------------------------------------------

@pytest.fixture()
def ssd_controller(clients):
    return PesosController(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(ssd_cache_entries=1024),
    )


def test_controller_serves_reads_from_ssd(ssd_controller):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    # Drop the enclave caches so the next read must go below L1.
    controller.caches.objects.clear()
    controller.effects.drain()
    response = controller.get(ALICE, "obj")
    assert response.value == b"value"
    assert controller.ssd_cache.stats.hits == 1
    # No drive read happened.
    assert "disk_read" not in {e[0] for e in controller.effects.drain()}


def test_a_get_from_ssd_is_cached_once_then_hits_the_enclave(
    ssd_controller,
):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.caches.objects.clear()
    assert controller.get(ALICE, "obj").value == b"value"
    assert controller.ssd_cache.stats.hits == 1
    assert controller.caches.objects.frequency("obj@0") == 1
    assert controller.get(ALICE, "obj").value == b"value"
    assert controller.ssd_cache.stats.hits == 1  # the enclave served it
    assert controller.caches.objects.frequency("obj@0") == 2


def test_controller_falls_back_to_disk_on_ssd_tamper(ssd_controller):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.caches.objects.clear()
    controller.ssd_cache.device.tamper("obj@0")
    response = controller.get(ALICE, "obj")
    assert response.value == b"value"  # healed from the trusted drives
    assert controller.ssd_cache.stats.integrity_failures == 1


def test_controller_delete_invalidates_ssd(ssd_controller):
    controller = ssd_controller
    controller.put(ALICE, "obj", b"value")
    controller.delete(ALICE, "obj")
    assert controller.ssd_cache.get("obj@0") is None


def test_controller_without_tier_has_none(controller):
    assert controller.ssd_cache is None
