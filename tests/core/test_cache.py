"""Cache manager regions and their hit/miss counts."""

from repro.core.cache import CacheConfig, CacheManager
from repro.core.store import StoredMeta
from repro.policy.compiler import compile_policy


def _policy(fp="x"):
    return compile_policy(f"read :- sessionKeyIs(k'{fp}')")


def test_policy_region_roundtrip():
    caches = CacheManager()
    policy = _policy()
    caches.put_policy("id1", policy)
    assert caches.get_policy("id1") is policy
    assert caches.get_policy("missing") is None


def test_object_region_roundtrip():
    caches = CacheManager()
    caches.put_object("k@0", b"value")
    assert caches.get_object("k@0") == b"value"
    caches.invalidate_object("k@0")
    assert caches.get_object("k@0") is None


def test_meta_region_roundtrip():
    caches = CacheManager()
    meta = StoredMeta(key="k")
    caches.put_meta("k", meta)
    assert caches.get_meta("k") is meta
    caches.invalidate_meta("k")
    assert caches.get_meta("k") is None


def test_lookups_counted_in_region_stats():
    caches = CacheManager()
    caches.get_policy("missing")
    caches.put_policy("p", _policy())
    caches.get_policy("p")
    stats = caches.region_stats()["policy"]
    assert (stats.hits, stats.misses) == (1, 1)


def test_policy_entry_cap():
    config = CacheConfig(policy_entries=2)
    caches = CacheManager(config)
    for index in range(4):
        caches.put_policy(f"p{index}", _policy(str(index)))
    assert len(caches.policies) == 2


def test_object_byte_budget_enforced():
    config = CacheConfig(object_bytes=1024)
    caches = CacheManager(config)
    for index in range(10):
        caches.put_object(f"k{index}", b"x" * 300)
    assert caches.objects.total_weight <= 1024


def test_memory_in_use_sums_regions():
    caches = CacheManager()
    caches.put_object("k", b"x" * 100)
    policy = _policy()
    caches.put_policy("p", policy)
    assert caches.memory_in_use() == 100 + policy.size_bytes() + 0


def test_region_stats_exposed():
    caches = CacheManager()
    caches.get_object("missing")
    stats = caches.region_stats()
    assert stats["object"].misses == 1


# -- the LFU's stats are the one hit/miss count ------------------------------


def _counts(controller):
    return {
        region: (stats.hits, stats.misses)
        for region, stats in controller.caches.region_stats().items()
    }


def _scraped(telemetry, name):
    (family,) = [
        family for family in telemetry.registry.collect()
        if family.name == name
    ]
    return {sample.labels["region"]: sample.value for sample in family.samples}


def test_the_scraped_counters_are_the_region_stats():
    from repro.core.request import Request
    from repro.telemetry import Telemetry
    from tests.core.conftest import ALICE, BOB, make_clients
    from tests.enclave import boot

    telemetry = Telemetry()
    controller = boot(
        make_clients()[0], storage_key=b"k" * 32, telemetry=telemetry
    )
    policy = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        "update :- eq(1, 1)\ndelete :- eq(1, 1)",
    ).policy_id
    scrapes = []

    def scrape():
        hits = _scraped(telemetry, "pesos_cache_hits_total")
        misses = _scraped(telemetry, "pesos_cache_misses_total")
        scraped = {region: (hits[region], misses[region]) for region in hits}
        assert scraped == _counts(controller)
        scrapes.append(scraped)

    scrape()
    for index in range(6):
        key = f"k{index}"
        assert controller.put(ALICE, key, b"v", policy_id=policy).ok
        assert controller.get(ALICE, key).ok
        assert not controller.get(BOB, key).ok
        scrape()
    controller.caches.objects.clear()
    controller.caches.keys.clear()
    assert controller.get(ALICE, "k0").ok
    assert not controller.get(ALICE, "absent").ok
    assert controller.handle(
        Request(method="scan", key="k", scan_count=10), ALICE
    ).ok
    assert controller.delete(ALICE, "k1").ok
    scrape()
    last = scrapes[-1]
    assert all(hits for hits, _misses in last.values())
    assert last["keys"][1] and last["object"][1]
    for earlier, later in zip(scrapes, scrapes[1:]):
        for region, (hits, misses) in earlier.items():
            assert later[region][0] >= hits and later[region][1] >= misses


def _scan_counts(controller, count):
    from repro.core.request import Request
    from tests.core.conftest import ALICE

    before = _counts(controller)
    response = controller.handle(
        Request(method="scan", key="obj", scan_count=count), ALICE
    )
    assert response.extra["scanned"] == count
    return {
        region: (hits - before[region][0], misses - before[region][1])
        for region, (hits, misses) in _counts(controller).items()
    }


def test_a_scan_over_cached_records_hits_each_key_once(controller):
    from tests.core.conftest import ALICE

    for index in range(20):
        assert controller.put(ALICE, f"obj{index:02d}", b"v").ok
    for count in (1, 7, 20):
        counts = _scan_counts(controller, count)
        assert counts["keys"] == (count, 0)
        assert counts["policy"] == counts["object"] == (0, 0)


def test_an_object_blind_policy_is_looked_up_once_per_scan(controller):
    from tests.core.conftest import ALICE

    policy = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- eq(1, 1)"
    ).policy_id
    for index in range(20):
        assert controller.put(
            ALICE, f"obj{index:02d}", b"v", policy_id=policy
        ).ok
    for _scan in range(3):
        counts = _scan_counts(controller, 20)
        assert counts == {"policy": (1, 0), "object": (0, 0), "keys": (20, 0)}
