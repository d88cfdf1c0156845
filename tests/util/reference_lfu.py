"""Reference LFU cache: the dataclass-bucket implementation every
enclave cache region ran before ``repro.util.lfu`` was rewritten for a
one-probe hit and an in-place frequency bump.

This copy stays here, unoptimised, as the oracle ``test_lfu_reference.py``
compares the shipped cache against: the same operations must leave the
same bucket chain (frequencies and keys in order), frequencies, stats
and total weight.

Pesos (§4.2) bounds each in-enclave cache (policies, objects, indices,
session keys) and evicts with an *approximated* LFU policy.  We implement
the classic O(1) LFU of Shah et al.: frequency buckets in a doubly-linked
order, with FIFO tie-breaking inside a bucket, plus periodic frequency
aging so one-time-hot entries do not pin the cache forever (this is the
"approximate" part).

The cache is capacity-bounded either by entry count or by a byte budget
(``weigher`` returns an entry's size), matching the paper's per-region
memory budgets (e.g. 5 MB for policies).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Counters exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    #: Inserts refused because one entry outweighed the whole byte
    #: budget.  Counted separately from evictions: nothing was cached,
    #: so hit-rate dashboards must not read the refusal as churn.
    rejected_oversize: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Bucket(Generic[K]):
    """All keys currently at one access frequency, in insertion order."""

    freq: int
    keys: OrderedDict = field(default_factory=OrderedDict)
    prev: "_Bucket | None" = None
    next: "_Bucket | None" = None


class LFUCache(Generic[K, V]):
    """O(1) LFU cache with optional byte budget and frequency aging.

    Parameters
    ----------
    max_entries:
        Maximum number of entries; ``None`` for unbounded count.
    max_bytes:
        Maximum total weight; requires ``weigher``. ``None`` disables.
    weigher:
        Function mapping a value to its weight in bytes.
    age_interval:
        After this many accesses, all frequencies are halved. ``0``
        disables aging (exact LFU).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        weigher: Callable[[V], int] | None = None,
        age_interval: int = 0,
    ):
        if max_entries is None and max_bytes is None:
            raise ValueError("cache needs max_entries or max_bytes")
        if max_bytes is not None and weigher is None:
            raise ValueError("max_bytes requires a weigher")
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._weigher = weigher
        self._age_interval = age_interval
        self._accesses_since_age = 0
        self._values: dict[K, V] = {}
        self._weights: dict[K, int] = {}
        self._key_bucket: dict[K, _Bucket] = {}
        self._head: _Bucket | None = None  # lowest frequency bucket
        self._total_weight = 0
        self.stats = CacheStats()

    # -- public API ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: K) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[K]:
        return iter(list(self._values))

    @property
    def total_weight(self) -> int:
        """Current sum of entry weights (0 when no weigher configured)."""
        return self._total_weight

    def get(self, key: K, default: Any = None) -> V | Any:
        """Look up ``key``, bumping its frequency on a hit."""
        if key not in self._values:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        self._touch(key)
        return self._values[key]

    def peek(self, key: K, default: Any = None) -> V | Any:
        """Look up ``key`` without affecting frequency or stats."""
        return self._values.get(key, default)

    def put(self, key: K, value: V) -> None:
        """Insert or replace ``key``; evicts as needed to respect budgets."""
        weight = self._weigher(value) if self._weigher else 0
        if self.max_bytes is not None and weight > self.max_bytes:
            # An entry larger than the whole budget is never cacheable.
            # Dropping a stale pre-existing entry is an eviction, and
            # the refused insert is counted on its own so the stats
            # still add up (inserts + rejected = put attempts).
            if self.remove(key) is not None:
                self.stats.evictions += 1
            self.stats.rejected_oversize += 1
            return
        if key in self._values:
            self._total_weight += weight - self._weights[key]
            self._values[key] = value
            self._weights[key] = weight
            self._touch(key)
        else:
            self._insert_new(key, value, weight)
            self.stats.inserts += 1
        self._evict_to_budget(exempt=key)

    def remove(self, key: K) -> V | None:
        """Delete ``key`` if present, returning its value."""
        if key not in self._values:
            return None
        value = self._values.pop(key)
        self._total_weight -= self._weights.pop(key)
        bucket = self._key_bucket.pop(key)
        del bucket.keys[key]
        if not bucket.keys:
            self._unlink(bucket)
        return value

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._values.clear()
        self._weights.clear()
        self._key_bucket.clear()
        self._drop_chain()
        self._total_weight = 0
        # A reset starts a fresh aging epoch; leftover access counts
        # would make the first aging pass fire early on the new
        # population.
        self._accesses_since_age = 0

    def frequency(self, key: K) -> int:
        """Current access frequency of ``key`` (0 if absent)."""
        bucket = self._key_bucket.get(key)
        return bucket.freq if bucket else 0

    # -- internals ----------------------------------------------------

    def _insert_new(self, key: K, value: V, weight: int) -> None:
        self._values[key] = value
        self._weights[key] = weight
        self._total_weight += weight
        if self._head is None or self._head.freq != 1:
            bucket = _Bucket(freq=1)
            bucket.next = self._head
            if self._head:
                self._head.prev = bucket
            self._head = bucket
        self._head.keys[key] = None
        self._key_bucket[key] = self._head

    def _touch(self, key: K) -> None:
        bucket = self._key_bucket[key]
        target_freq = bucket.freq + 1
        nxt = bucket.next
        if nxt is None or nxt.freq != target_freq:
            new_bucket = _Bucket(freq=target_freq, prev=bucket, next=nxt)
            bucket.next = new_bucket
            if nxt:
                nxt.prev = new_bucket
            nxt = new_bucket
        del bucket.keys[key]
        nxt.keys[key] = None
        self._key_bucket[key] = nxt
        if not bucket.keys:
            self._unlink(bucket)
        self._maybe_age()

    def _maybe_age(self) -> None:
        if not self._age_interval:
            return
        self._accesses_since_age += 1
        if self._accesses_since_age < self._age_interval:
            return
        self._accesses_since_age = 0
        # Halve every frequency by rebuilding the bucket chain.  Rare
        # (once per age_interval accesses), so the O(n) cost amortizes.
        by_freq: dict[int, list[K]] = {}
        bucket = self._head
        while bucket:
            aged = max(1, bucket.freq // 2)
            by_freq.setdefault(aged, []).extend(bucket.keys)
            bucket = bucket.next
        self._drop_chain()
        self._key_bucket.clear()
        prev: _Bucket | None = None
        for freq in sorted(by_freq):
            nb = _Bucket(freq=freq)
            for key in by_freq[freq]:
                nb.keys[key] = None
                self._key_bucket[key] = nb
            nb.prev = prev
            if prev:
                prev.next = nb
            else:
                self._head = nb
            prev = nb

    def _drop_chain(self) -> None:
        """Forget every bucket, unlinking each: a chain dropped while
        linked prev<->next is freed only by a cycle collection."""
        bucket = self._head
        while bucket:
            following = bucket.next
            bucket.prev = bucket.next = None
            bucket = following
        self._head = None

    def _unlink(self, bucket: _Bucket) -> None:
        if bucket.prev:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next:
            bucket.next.prev = bucket.prev

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._values) > self.max_entries:
            return True
        if self.max_bytes is not None and self._total_weight > self.max_bytes:
            return True
        return False

    def _evict_to_budget(self, exempt: K) -> None:
        while self._over_budget():
            victim = self._pick_victim(exempt)
            if victim is None:
                return
            self.remove(victim)
            self.stats.evictions += 1

    def _pick_victim(self, exempt: K) -> K | None:
        bucket = self._head
        while bucket:
            for key in bucket.keys:  # FIFO within the bucket
                if key != exempt or len(self._values) == 1:
                    return key
            bucket = bucket.next
        return None
