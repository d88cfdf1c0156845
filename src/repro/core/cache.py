"""Enclave cache regions (§4.2).

Pesos maintains *separate* bounded memory regions per data kind so one
hot region cannot evict another's entries: compiled policies (5 MB
default), objects fetched for requests or during policy evaluation,
and object keys/metadata (600 KB default).  All regions approximate
LFU eviction and report hits/misses to the effects recorder so the
benchmarks can observe cache behaviour (Fig. 8 depends on it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.effects import NullRecorder
from repro.telemetry import NULL_TELEMETRY
from repro.util.lfu import LFUCache

POLICY_REGION = "policy"
OBJECT_REGION = "object"
KEY_REGION = "keys"


@dataclass
class CacheConfig:
    """Byte budgets per region, mirroring the paper's defaults."""

    policy_bytes: int = 5 * 1024 * 1024
    object_bytes: int = 48 * 1024 * 1024
    key_bytes: int = 600 * 1024
    #: Entry-count cap for the policy cache, used by Fig. 8 (50 k).
    policy_entries: int | None = None
    #: Aging keeps the LFU approximation honest under shifting load.
    age_interval: int = 4096


class CacheManager:
    """The controller's cache regions plus effect reporting."""

    def __init__(
        self, config: CacheConfig | None = None, effects=None, telemetry=None
    ):
        self.config = config or CacheConfig()
        self.effects = effects or NullRecorder()
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_hits = self.telemetry.counter(
            "pesos_cache_hits_total",
            "Enclave cache hits, by region.",
            ("region",),
        )
        self._m_misses = self.telemetry.counter(
            "pesos_cache_misses_total",
            "Enclave cache misses, by region.",
            ("region",),
        )
        self.telemetry.derived(
            "pesos_cache_hit_ratio",
            "gauge",
            "Enclave cache hit ratio since start, by region.",
            lambda: [
                (region, cache.stats.hit_rate)
                for region, cache in self._regions().items()
            ],
            ("region",),
        )
        self.telemetry.derived(
            "pesos_cache_bytes",
            "gauge",
            "Bytes resident per enclave cache region.",
            lambda: [
                (region, cache.total_weight)
                for region, cache in self._regions().items()
            ],
            ("region",),
        )
        self.policies: LFUCache = LFUCache(
            max_entries=self.config.policy_entries,
            max_bytes=self.config.policy_bytes,
            weigher=lambda policy: policy.size_bytes(),
            age_interval=self.config.age_interval,
        )
        self.objects: LFUCache = LFUCache(
            max_bytes=self.config.object_bytes,
            weigher=len,
            age_interval=self.config.age_interval,
        )
        self.keys: LFUCache = LFUCache(
            max_bytes=self.config.key_bytes,
            weigher=lambda meta: meta.weight(),
            age_interval=self.config.age_interval,
        )

    # -- region accessors with effect reporting ---------------------------

    def _record(self, region: str, hit: bool) -> None:
        self.effects.record_cache(region, hit)
        (self._m_hits if hit else self._m_misses).labels(region).inc()

    def get_policy(self, policy_id: str):
        policy = self.policies.get(policy_id)
        self._record(POLICY_REGION, policy is not None)
        return policy

    def put_policy(self, policy_id: str, policy) -> None:
        self.policies.put(policy_id, policy)

    def get_object(self, cache_key: str):
        value = self.objects.get(cache_key)
        self._record(OBJECT_REGION, value is not None)
        return value

    def put_object(self, cache_key: str, value: bytes) -> None:
        self.objects.put(cache_key, value)

    def invalidate_object(self, cache_key: str) -> None:
        self.objects.remove(cache_key)

    def get_meta(self, key: str):
        meta = self.keys.get(key)
        self._record(KEY_REGION, meta is not None)
        return meta

    def put_meta(self, key: str, meta) -> None:
        self.keys.put(key, meta)

    def invalidate_meta(self, key: str) -> None:
        self.keys.remove(key)

    # -- accounting ----------------------------------------------------------

    def memory_in_use(self) -> int:
        """Total bytes across regions (for EPC footprint accounting)."""
        return (
            self.policies.total_weight
            + self.objects.total_weight
            + self.keys.total_weight
        )

    def _regions(self) -> dict:
        return {
            POLICY_REGION: self.policies,
            OBJECT_REGION: self.objects,
            KEY_REGION: self.keys,
        }

    def region_stats(self) -> dict:
        return {
            region: cache.stats for region, cache in self._regions().items()
        }
