"""Untrusted local SSD caching tier (the paper's first future-work item).

§8: "we will extend Pesos with a local SSD as the untrusted fast
caching layer to overcome the limitations of main memory capacity
(EPC paging) and slow disk performance, while protecting against
integrity and freshness attacks."

Design: cached blobs live *outside* the enclave on a host-local SSD
the adversary fully controls.  The enclave keeps only a small
*freshness table*: for every cached entry, the nonce it was sealed
with and the SHA-256 of the sealed blob (~56 bytes per entry, so a
multi-gigabyte SSD cache costs megabytes of enclave memory).  On a
cache read the enclave

1. recomputes the blob hash and compares it with the table entry —
   a *tampered* blob fails here;
2. opens the AEAD seal with the recorded nonce — a blob *substituted*
   from a different key/nonce fails here;
3. and because the table entry is overwritten on every update, a
   *replayed stale* blob (the freshness/rollback attack) fails the
   hash comparison too.

Evicting a freshness-table entry makes the corresponding SSD blob
permanently unusable, so the bounded in-enclave table is the cache's
true capacity limit — exactly the EPC-extension trade the paper
proposes.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field

from repro.core.effects import SSD_READ, SSD_WRITE
from repro.crypto.aead import StreamAead
from repro.errors import IntegrityError
from repro.telemetry import NULL_TELEMETRY
from repro.util.lfu import LFUCache


@dataclass
class SimulatedSsd:
    """The untrusted device: a blob store the adversary may rewrite."""

    blobs: dict = field(default_factory=dict)
    reads: int = 0
    writes: int = 0

    def read(self, key: str) -> bytes | None:
        self.reads += 1
        return self.blobs.get(key)

    def write(self, key: str, blob: bytes) -> None:
        self.writes += 1
        self.blobs[key] = blob

    def discard(self, key: str) -> None:
        self.blobs.pop(key, None)

    # -- attack helpers (tests / demos) ---------------------------------

    def tamper(self, key: str, flip_byte: int = 0) -> None:
        blob = bytearray(self.blobs[key])
        blob[flip_byte] ^= 0xFF
        self.blobs[key] = bytes(blob)

    def snapshot(self, key: str) -> bytes:
        return self.blobs[key]

    def rollback(self, key: str, old_blob: bytes) -> None:
        """Replay an earlier (validly sealed) blob."""
        self.blobs[key] = old_blob


@dataclass(frozen=True)
class _FreshnessRecord:
    nonce: bytes
    blob_hash: bytes


@dataclass
class SsdCacheStats:
    hits: int = 0
    misses: int = 0
    integrity_failures: int = 0
    inserts: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SsdCacheTier:
    """Enclave-side view of the untrusted SSD cache."""

    #: Approximate enclave bytes per freshness-table entry.
    RECORD_BYTES = 56

    def __init__(
        self,
        device: SimulatedSsd | None = None,
        max_entries: int = 65536,
        key: bytes | None = None,
        effects=None,
        telemetry=None,
    ):
        self.device = device or SimulatedSsd()
        self._aead = StreamAead(key or secrets.token_bytes(32))
        self._records: LFUCache = LFUCache(max_entries=max_entries)
        self.stats = SsdCacheStats()
        self._effects = effects
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_events = self.telemetry.counter(
            "pesos_ssd_cache_events_total",
            "Untrusted-SSD cache tier events, by kind.",
            ("event",),
        )
        self.telemetry.derived(
            "pesos_ssd_cache_hit_ratio",
            "gauge",
            "SSD cache tier hit ratio since start.",
            lambda: self.stats.hit_ratio,
        )
        self.telemetry.derived(
            "pesos_ssd_cache_enclave_bytes",
            "gauge",
            "In-enclave freshness-table footprint of the SSD tier.",
            self.enclave_bytes,
        )

    def __len__(self) -> int:
        return len(self._records)

    def enclave_bytes(self) -> int:
        """In-enclave footprint of the freshness table."""
        return len(self._records) * self.RECORD_BYTES

    # -- cache operations ---------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        """Seal ``value`` onto the SSD and record its freshness."""
        nonce = secrets.token_bytes(12)
        blob = self._aead.seal(nonce, value, key.encode())
        self.device.write(key, blob)
        self._records.put(
            key,
            _FreshnessRecord(
                nonce=nonce, blob_hash=hashlib.sha256(blob).digest()
            ),
        )
        self.stats.inserts += 1
        self._m_events.labels("insert").inc()
        if self._effects is not None:
            self._effects.record(SSD_WRITE, len(blob))

    def get(self, key: str) -> bytes | None:
        """Fetch and verify; returns None on miss OR any integrity issue.

        An integrity/freshness failure is indistinguishable from a
        miss to callers (they re-fetch from the trusted drives), but
        it is counted and the poisoned entry is dropped.
        """
        record = self._records.get(key)
        if record is None:
            self.stats.misses += 1
            self._m_events.labels("miss").inc()
            return None
        blob = self.device.read(key)
        if self._effects is not None and blob is not None:
            self._effects.record(SSD_READ, len(blob))
        if blob is None:
            # The untrusted side lost (or withheld) the blob.
            self._records.remove(key)
            self.stats.misses += 1
            self._m_events.labels("miss").inc()
            return None
        if hashlib.sha256(blob).digest() != record.blob_hash:
            self._poisoned(key)
            return None
        try:
            value = self._aead.open(record.nonce, blob, key.encode())
        except IntegrityError:
            self._poisoned(key)
            return None
        self.stats.hits += 1
        self._m_events.labels("hit").inc()
        return value

    def invalidate(self, key: str) -> None:
        self._records.remove(key)
        self.device.discard(key)

    def _poisoned(self, key: str) -> None:
        self.stats.integrity_failures += 1
        self.stats.misses += 1
        self._m_events.labels("integrity_failure").inc()
        self._m_events.labels("miss").inc()
        self._records.remove(key)
        self.device.discard(key)
