"""Enclave cache regions (§4.2).

Pesos maintains *separate* bounded memory regions per data kind so one
hot region cannot evict another's entries: compiled policies (5 MB
default), objects fetched for requests or during policy evaluation,
and object keys/metadata (600 KB default).  All regions approximate
LFU eviction, and each region's :class:`~repro.util.lfu.CacheStats` is
the one hit/miss count: :meth:`CacheManager.region_stats` reads it, and
so do ``pesos_cache_{hits,misses}_total`` at scrape time.  A lookup
records no effect, because the cost model charges none: Fig. 8's cliff
is the ``POLICY_LOAD`` effect and the drive frames a policy-region miss
goes on to cause.

An object-region entry holds a version's bytes *and*, once a policy has
asked what they say, the :class:`~repro.policy.context.Facts` parsed
from them (:meth:`CacheManager.facts`).  The facts belong to the bytes
object, not to the ``key@version`` string — a delete-then-recreate
reuses ``key@0`` for other bytes — so they go when the entry is
evicted, invalidated, cleared, or replaced by another bytes object.
The entry still weighs ``len(bytes)``: the facts' Python objects are
not charged to the region's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policy.context import Facts
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


@dataclass(slots=True, eq=False)
class _Resident:
    """One object-region entry: the bytes and what they say."""

    data: bytes
    facts: Facts | None = None


#: What :meth:`CacheManager.get_object` reads a miss as: no bytes.
_ABSENT = _Resident(None)


class CacheManager:
    """The controller's cache regions and their scrape-time metrics."""

    def __init__(self, config: CacheConfig | None = None, telemetry=None):
        self.config = config or CacheConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.telemetry.derived(
            "pesos_cache_hits_total",
            "counter",
            "Enclave cache hits, by region.",
            lambda: [
                (region, stats.hits)
                for region, stats in self.region_stats().items()
            ],
            ("region",),
        )
        self.telemetry.derived(
            "pesos_cache_misses_total",
            "counter",
            "Enclave cache misses, by region.",
            lambda: [
                (region, stats.misses)
                for region, stats in self.region_stats().items()
            ],
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
            weigher=lambda entry: len(entry.data),
            age_interval=self.config.age_interval,
        )
        self.keys: LFUCache = LFUCache(
            max_bytes=self.config.key_bytes,
            weigher=lambda meta: meta.weight(),
            age_interval=self.config.age_interval,
        )

    # -- region accessors -------------------------------------------------

    def get_policy(self, policy_id: str):
        return self.policies.get(policy_id)

    def put_policy(self, policy_id: str, policy) -> None:
        self.policies.put(policy_id, policy)

    def get_object(self, cache_key: str):
        return self.objects.get(cache_key, _ABSENT).data

    def put_object(self, cache_key: str, value: bytes) -> None:
        entry = self.objects.peek(cache_key)
        if entry is None or entry.data is not value:
            entry = _Resident(value)  # other bytes: their facts go too
        self.objects.put(cache_key, entry)

    def facts(self, cache_key: str, value: bytes) -> Facts:
        """What ``value`` says, parsed once while it stays resident.

        ``value`` is what :meth:`get_object` just returned, or what the
        caller just read hash-checked and put; any other bytes parse
        afresh, unremembered.  No effect and no LFU touch: the lookup
        that produced ``value`` already counted.
        """
        entry = self.objects.peek(cache_key)
        if entry is None or entry.data is not value:
            return Facts.parse(value)
        if entry.facts is None:
            entry.facts = Facts.parse(value)
        return entry.facts

    def invalidate_object(self, cache_key: str) -> None:
        self.objects.remove(cache_key)

    def get_meta(self, key: str):
        return self.keys.get(key)

    def put_meta(self, key: str, meta) -> None:
        self.keys.put(key, meta)

    def invalidate_meta(self, key: str) -> None:
        self.keys.remove(key)

    # -- accounting ----------------------------------------------------------

    def memory_in_use(self) -> int:
        """Total bytes across regions (for EPC footprint accounting)."""
        return sum(cache.total_weight for cache in self._regions().values())

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
