"""Side-effect accounting for the discrete-event model.

The controller is functional code; the DES (:mod:`repro.bench.model`)
needs to know what each request *did* — frames put on the drive link,
bytes copied, policy work — to charge virtual time.  Components record
effects on the controller's recorder; the model drains it after each
request.  One effect per frame a drive answered, not per record.  A
cache lookup is no effect: the model charges none, and its region's
LFU stats count it (:meth:`repro.core.cache.CacheManager.region_stats`).

The ledger is opt-in.  A controller keeps an :class:`EffectsRecorder`
only for a live telemetry or when a caller passes one (the DES does);
otherwise it records into a :class:`NullRecorder`, which keeps nothing.
A recorder's per-kind totals are a labeled ``pesos_effects_total``
counter in its registry, a live telemetry's when it has one, so one
``GET /_metrics`` scrape covers them.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry

DISK_READ = "disk_read"
DISK_RANGE = "disk_range"
DISK_WRITE = "disk_write"
DISK_DELETE = "disk_delete"
SSD_READ = "ssd_read"
SSD_WRITE = "ssd_write"
ENCRYPT = "encrypt"
DECRYPT = "decrypt"
POLICY_CHECK = "policy_check"
POLICY_COMPILE = "policy_compile"
POLICY_LOAD = "policy_load"
COPY = "copy"

#: One frame to one drive, a backend visit: ``(kind, drive index,
#: value bytes)``, then for a write or delete frame ``(records in the
#: frame, replicas that took the mutation before this one)``.  A
#: ``GETKEYRANGE`` page is a ``DISK_RANGE`` whose bytes are its keys.
DRIVE_FRAMES = frozenset((DISK_READ, DISK_RANGE, DISK_WRITE, DISK_DELETE))


def transitions(events) -> dict[str, int]:
    """Enclave transitions one request's effects imply, by reason.

    Read by the cost model and ``pesos_sgx_transitions_total``: a pair
    on the client socket, a pair per drive frame, one per SSD access.
    """
    kinds = [event[0] for event in events]
    frames = sum(kind in DRIVE_FRAMES for kind in kinds)
    ssd = sum(kind in (SSD_READ, SSD_WRITE) for kind in kinds)
    return {"client_io": 2, "drive_io": 2 * frames, "ssd_io": ssd}


class EffectsRecorder:
    """Collects effect tuples for the request in flight."""

    __slots__ = ("events", "registry", "_kinds", "_children")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.events: list[tuple] = []
        self.registry = registry or MetricsRegistry()
        self._kinds = self.registry.counter(
            "pesos_effects_total",
            "Side-effect events recorded per request path, by kind.",
            ("kind",),
        )
        #: The counter's child per kind, resolved once: ``labels()`` per
        #: event was ~7 % of a cached GET.
        self._children: dict = {}

    def record(self, kind: str, *detail) -> None:
        self.events.append((kind, *detail))
        child = self._children.get(kind)
        if child is None:
            child = self._children[kind] = self._kinds.labels(kind)
        child.inc()

    def drain(self) -> list[tuple]:
        """Return and clear the in-flight event list (totals persist)."""
        events, self.events = self.events, []
        return events


class NullRecorder:
    """Drop-in no-op recorder for pure functional use."""

    __slots__ = ()
    events: tuple = ()

    def record(self, kind: str, *detail) -> None:
        pass

    def drain(self) -> list:
        return []
