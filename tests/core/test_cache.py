"""Cache manager regions and effect reporting."""

from repro.core.cache import CacheConfig, CacheManager
from repro.core.effects import EffectsRecorder
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


def test_effects_reported():
    effects = EffectsRecorder()
    caches = CacheManager(effects=effects)
    caches.get_policy("missing")
    caches.put_policy("p", _policy())
    caches.get_policy("p")
    assert effects.drain() == [
        ("cache_miss", "policy"), ("cache_hit", "policy"),
    ]


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
