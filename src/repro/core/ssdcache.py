"""Untrusted local SSD caching tier (the paper's first future-work item).

§8: "we will extend Pesos with a local SSD as the untrusted fast
caching layer to overcome the limitations of main memory capacity
(EPC paging) and slow disk performance, while protecting against
integrity and freshness attacks."

Design: the SSD is one more untrusted copy of what the drives hold.
The store gives it the sealed bytes a drive replica takes, under the
record's drive key, and accepts a copy only if it passes a drive
replica's checks (:meth:`repro.core.store.ObjectStore._from_ssd`): the
AEAD tag (a *tampered* blob fails), the record's AAD (a *substituted*
one), then the anchor the enclave holds — a value's ``content_hash``,
a metadata record's pinned leaf (a *replayed stale* one).  A copy that
fails, or that the device withholds, is a miss served from the drives.
Metadata is cached only while freshness pins it.  The enclave keeps
nothing per entry: the device bounds the tier, and evicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.effects import SSD_READ, SSD_WRITE
from repro.telemetry import NULL_TELEMETRY


@dataclass
class SimulatedSsd:
    """The untrusted device: a blob store the adversary may rewrite.

    It holds at most ``capacity`` blobs; a write past that evicts the
    blob written longest ago.
    """

    capacity: int
    blobs: dict = field(default_factory=dict)

    def read(self, key: bytes) -> bytes | None:
        return self.blobs.get(key)

    def write(self, key: bytes, blob: bytes) -> None:
        self.blobs.pop(key, None)
        self.blobs[key] = blob
        if len(self.blobs) > self.capacity:
            del self.blobs[next(iter(self.blobs))]

    def discard(self, key: bytes) -> None:
        self.blobs.pop(key, None)

    # -- attack helpers (tests / demos) ---------------------------------

    def tamper(self, key: bytes, flip_byte: int = 0) -> None:
        blob = bytearray(self.blobs[key])
        blob[flip_byte] ^= 0xFF
        self.blobs[key] = bytes(blob)

    def snapshot(self, key: bytes) -> bytes:
        return self.blobs[key]

    def rollback(self, key: bytes, old_blob: bytes) -> None:
        """Replay an earlier (validly sealed) blob."""
        self.blobs[key] = old_blob


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
    """The enclave's side of the untrusted SSD: the one place that
    counts its hits, misses and rejected copies; nothing per entry."""

    def __init__(self, device: SimulatedSsd, effects=None, telemetry=None):
        self.device = device
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

    def get(self, key: bytes, accept) -> bytes | None:
        """The device's copy of ``key`` as ``accept`` opens it (None for
        a copy that fails its check).  A copy the device lacks is a
        miss; one that fails is counted, dropped, and a miss too."""
        blob = self.device.read(key)
        if blob is None:
            self._missed()
            return None
        if self._effects is not None:
            self._effects.record(SSD_READ, len(blob))
        value = accept(blob)
        if value is None:
            self.stats.integrity_failures += 1
            self._m_events.labels("integrity_failure").inc()
            self._missed()
            self.device.discard(key)
            return None
        self.stats.hits += 1
        self._m_events.labels("hit").inc()
        return value

    def put(self, key: bytes, blob: bytes) -> None:
        self.device.write(key, blob)
        self.stats.inserts += 1
        self._m_events.labels("insert").inc()
        if self._effects is not None:
            self._effects.record(SSD_WRITE, len(blob))

    def discard(self, key: bytes) -> None:
        self.device.discard(key)

    def _missed(self) -> None:
        self.stats.misses += 1
        self._m_events.labels("miss").inc()
