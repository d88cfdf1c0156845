"""The object store over Kinetic drives.

Key layout on the drives (all values encrypted before leaving the
controller, §2.2)::

    m/<key>              object metadata: current version, policy
                         binding, per-version size/hash records
    v/<key>/<version>    object content for one version
    p/<policy-hash>      compiled policy blobs

Placement (§4.5): a deterministic hash of the object key picks the
primary drive; replicas go on the following positions in the drive
list.  No replication metadata is kept anywhere.  On a drive failure,
reads fail over to the next replica in placement order.

Writes are write-through (§3.2): content first, then metadata, on
every replica.  A write reports success only if at least
``write_quorum`` replicas persisted it (default: every replica of the
placement); success below full replication journals the key for
anti-entropy repair, and falling below quorum raises
:class:`~repro.errors.ReplicationDegraded`.

Resilience: every replica interaction feeds a per-drive circuit
breaker (:mod:`repro.core.health`) so failover skips known-dead drives
instead of paying a timeout per request, and reads that fail over past
a missing or corrupt copy repair it inline from the healthy one.
"""

from __future__ import annotations

import hashlib
import secrets
import time as _time
from dataclasses import dataclass, field
from functools import partial

from repro.core.antientropy import KIND_OBJECT, KIND_POLICY, DirtyJournal
from repro.core.effects import (
    DECRYPT,
    DISK_DELETE,
    DISK_READ,
    DISK_WRITE,
    ENCRYPT,
    NullRecorder,
)
from repro.core.freshness import object_label, policy_label, record_digest
from repro.core.health import STATE_CODES, HealthTracker
from repro.crypto.aead import StreamAead
from repro.errors import (
    ConfigurationError,
    CryptoError,
    DriveOffline,
    IntegrityError,
    KineticError,
    KineticNotFound,
    ReplicationDegraded,
    StaleReplica,
    TransientIOError,
)
from repro.policy.context import ObjectView, VersionInfo
from repro.kinetic.protocol import decode_fields, encode_fields
from repro.telemetry import NULL_TELEMETRY


@dataclass
class VersionMeta:
    """Metadata for one stored version of an object."""

    version: int
    size: int
    content_hash: str
    policy_hash: str = ""


@dataclass
class StoredMeta:
    """Per-object metadata record (the ``m/<key>`` value)."""

    key: str
    current_version: int = -1  # -1 = no version written yet
    policy_id: str = ""
    versions: dict = field(default_factory=dict)  # version -> VersionMeta

    @property
    def exists(self) -> bool:
        return self.current_version >= 0

    def latest(self) -> VersionMeta | None:
        return self.versions.get(self.current_version)

    def weight(self) -> int:
        """Approximate in-memory size, for the key-cache budget."""
        return 96 + len(self.key) + 80 * len(self.versions)

    def encode(self) -> bytes:
        return encode_fields(
            {
                "key": self.key,
                "cv": self.current_version + 1,  # varints are unsigned
                "policy": self.policy_id,
                "versions": [
                    [m.version, m.size, m.content_hash, m.policy_hash]
                    for m in sorted(
                        self.versions.values(), key=lambda m: m.version
                    )
                ],
            }
        )

    @classmethod
    def decode(cls, blob: bytes) -> "StoredMeta":
        fields_ = decode_fields(blob)
        meta = cls(
            key=fields_["key"],
            current_version=int(fields_["cv"]) - 1,
            policy_id=fields_["policy"],
        )
        for version, size, content_hash, policy_hash in fields_["versions"]:
            meta.versions[int(version)] = VersionMeta(
                version=int(version),
                size=int(size),
                content_hash=content_hash,
                policy_hash=policy_hash,
            )
        return meta


def placement(key: str, num_drives: int, replication_factor: int) -> list[int]:
    """Deterministic drive placement: primary + following positions."""
    digest = hashlib.sha256(key.encode()).digest()
    primary = int.from_bytes(digest[:8], "big") % num_drives
    count = min(replication_factor, num_drives)
    return [(primary + offset) % num_drives for offset in range(count)]


class ObjectStore:
    """Encrypted, replicated object storage over Kinetic clients."""

    def __init__(
        self,
        clients: list,
        storage_key: bytes,
        replication_factor: int = 1,
        keep_history: bool = True,
        effects=None,
        version_metadata_window: int | None = None,
        telemetry=None,
        write_quorum: int | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_ops: int = 64,
    ):
        if not clients:
            raise ConfigurationError("store needs at least one drive client")
        self.clients = clients
        self.replication_factor = max(1, replication_factor)
        self.keep_history = keep_history
        effective_replicas = min(self.replication_factor, len(clients))
        #: Replicas that must persist a write before it is acknowledged.
        #: Defaults to every replica of the placement (the §3.2
        #: write-through contract); lower it to trade durability for
        #: availability during drive failures.
        self.write_quorum = (
            effective_replicas if write_quorum is None else write_quorum
        )
        if not 1 <= self.write_quorum <= effective_replicas:
            raise ConfigurationError(
                f"write_quorum {self.write_quorum} outside "
                f"[1, {effective_replicas}]"
            )
        self.health = HealthTracker(
            len(clients),
            threshold=breaker_threshold,
            cooldown_ops=breaker_cooldown_ops,
        )
        self.journal = DirtyJournal()
        #: Attached by the controller after fork detection succeeds;
        #: while set (and active), metadata reads verify against the
        #: pinned Merkle root and mutations pin a new root
        #: (:mod:`repro.core.freshness`).
        self.freshness = None
        #: When set, only the newest N versions keep per-version
        #: metadata (size/hash/policy-hash) in the hot ``m/`` record;
        #: older version *values* stay on disk but are no longer
        #: addressable through the API.  Bounds metadata growth for
        #: frequently rewritten versioned objects.
        self.version_metadata_window = version_metadata_window
        self.effects = effects or NullRecorder()
        self._aead = StreamAead(storage_key)
        self.telemetry = telemetry or NULL_TELEMETRY
        self._h_drive_op = self.telemetry.histogram(
            "pesos_drive_op_seconds",
            "Wall time of one backend drive operation (incl. failover).",
            ("op",),
        )
        self._m_drive_bytes = self.telemetry.counter(
            "pesos_drive_bytes_total",
            "Encrypted bytes exchanged with drives, by direction.",
            ("direction",),
        )
        self._m_replica_failures = self.telemetry.counter(
            "pesos_replica_failures_total",
            "Per-replica operation failures seen by the store, by kind.",
            ("kind",),
        )
        self._m_read_repair = self.telemetry.counter(
            "pesos_read_repair_total",
            "Replica blobs rewritten inline after a failed-over read.",
        )
        self._m_degraded = self.telemetry.counter(
            "pesos_replication_degraded_total",
            "Writes below full replication: acknowledged partial writes "
            "and quorum refusals.",
            ("outcome",),
        )
        if self.telemetry.enabled:
            self.telemetry.register_callback(self._health_metrics)

    # -- placement and failover -------------------------------------------

    def install_io_interceptor(self, interceptor) -> None:
        """Route every client's data ops through ``interceptor``.

        The concurrent request engine installs its preemption hook
        here so each drive ``get``/``put``/``delete`` suspends the
        calling green thread; ``None`` restores inline execution.
        Store code is oblivious either way — the synchronous call
        contract of :class:`repro.kinetic.client.KineticClient` holds
        whether the call ran inline or through the async interface.
        """
        for client in self.clients:
            client.interceptor = interceptor

    def _replicas(self, key: str) -> list[int]:
        return placement(key, len(self.clients), self.replication_factor)

    def _drive_id(self, index: int) -> str:
        drive = getattr(self.clients[index], "drive", None)
        return getattr(drive, "drive_id", f"drive-{index}")

    def _verifying(self) -> bool:
        """Whether reads/writes go through the freshness authority."""
        return self.freshness is not None and self.freshness.active

    def _read_with_failover(
        self,
        object_key: str,
        disk_key: bytes,
        aad: bytes | None = None,
        kind: str = KIND_OBJECT,
        expect_sha256: str | None = None,
    ) -> bytes:
        """Read one disk key, failing over across the placement.

        With ``aad`` set the sealed blob is also decrypted *per
        replica*, so a corrupt copy (AEAD failure) fails over exactly
        like an offline drive and the plaintext is returned.  Replicas
        that answered with missing or corrupt data are repaired inline
        from the first healthy copy; any failure journals the key for
        full anti-entropy repair.  Breaker-open drives are tried last,
        as a final resort only.

        When no replica serves the data, the error honours quorum
        semantics: an acknowledged write reached at least
        ``write_quorum`` replicas, so the key is *proven absent* only
        once ``len(replicas) - write_quorum + 1`` live drives answered
        "not found" — fewer than that (the rest unreachable) means the
        data may exist on a dead drive, and the read raises the drive
        error instead of claiming absence.  Corrupt copies prove
        existence, so they outrank absence.

        ``expect_sha256`` pins the plaintext to a known content hash
        (from the proof-verified metadata record): replicas serving a
        decryptable-but-different value — a replayed old copy of an
        overwritten slot — fail over like corrupt ones, and when no
        replica matches the read raises
        :class:`~repro.errors.StaleReplica` rather than serve rolled-
        back content.
        """
        instrumented = self.telemetry.enabled
        started = _time.perf_counter() if instrumented else 0.0
        drive_error: Exception | None = None
        corrupt_error: Exception | None = None
        stale_error: Exception | None = None
        not_found: Exception | None = None
        missing_count = 0
        with self.telemetry.span("kinetic.get", key=object_key):
            replicas = self._replicas(object_key)
            self.health.tick()
            preferred = [i for i in replicas if self.health.allow(i)]
            last_resort = [i for i in replicas if i not in preferred]
            data_failures: list[int] = []
            drive_failures: list[int] = []
            for index in preferred + last_resort:
                client = self.clients[index]
                try:
                    blob, _version = client.get(disk_key)
                except (DriveOffline, TransientIOError) as exc:
                    self.health.record_failure(index)
                    self._m_replica_failures.labels("offline").inc()
                    drive_failures.append(index)
                    drive_error = exc
                    continue
                except KineticNotFound as exc:
                    # The drive answered; the data is missing there.
                    self.health.record_success(index)
                    self._m_replica_failures.labels("missing").inc()
                    data_failures.append(index)
                    not_found = exc
                    missing_count += 1
                    continue
                self.health.record_success(index)
                if aad is not None:
                    try:
                        value = self._open(blob, aad)
                    except IntegrityError as exc:
                        self._m_replica_failures.labels("corrupt").inc()
                        data_failures.append(index)
                        corrupt_error = exc
                        continue
                else:
                    value = blob
                if expect_sha256 is not None and (
                    hashlib.sha256(value).hexdigest() != expect_sha256
                ):
                    self._m_replica_failures.labels("stale").inc()
                    if self.freshness is not None:
                        self.freshness.reject_stale(object_key)
                    data_failures.append(index)
                    stale_error = StaleReplica(
                        f"replica {index} serves stale content for "
                        f"{object_key!r}"
                    )
                    continue
                self.effects.record(DISK_READ, index, len(blob))
                if instrumented:
                    self._h_drive_op.labels("read").observe(
                        _time.perf_counter() - started
                    )
                    self._m_drive_bytes.labels("read").inc(len(blob))
                if data_failures or drive_failures:
                    self._read_repair(
                        object_key, disk_key, blob, data_failures,
                        drive_failures, kind,
                    )
                return value
        absence_quorum = len(replicas) - min(
            self.write_quorum, len(replicas)
        ) + 1
        if stale_error is not None:
            raise stale_error
        if corrupt_error is not None:
            raise corrupt_error
        if missing_count >= absence_quorum:
            raise not_found
        raise drive_error or not_found or KineticNotFound(object_key)

    def _read_repair(
        self,
        object_key: str,
        disk_key: bytes,
        blob: bytes,
        data_failures: list[int],
        drive_failures: list[int],
        kind: str,
    ) -> None:
        """Re-seed replicas that answered wrong; journal the rest."""
        self.journal.mark(kind, object_key, data_failures + drive_failures)
        for index in data_failures:
            try:
                self.clients[index].put(disk_key, blob, force=True)
            except KineticError:
                continue
            self.effects.record(DISK_WRITE, index, len(blob))
            self._m_read_repair.inc()

    def _write_replicas(self, object_key: str, disk_key: bytes,
                        blob: bytes, kind: str = KIND_OBJECT) -> int:
        """Write to every replica; succeed iff ``write_quorum`` held.

        Breaker-open drives are skipped up front (no timeout paid) but
        retried as a last resort if the quorum would otherwise fail.
        Acknowledged writes below full replication journal the key so
        anti-entropy can converge the lagging replicas; below quorum
        the write raises :class:`ReplicationDegraded` — and the key is
        still journaled when *some* replica took the write, because
        that replica now diverges from the rest.
        """
        instrumented = self.telemetry.enabled
        started = _time.perf_counter() if instrumented else 0.0
        wrote = 0
        missed: list[int] = []
        skipped: list[int] = []
        with self.telemetry.span(
            "kinetic.put", key=object_key, bytes=len(blob)
        ):
            replicas = self._replicas(object_key)
            self.health.tick()
            for index in replicas:
                if not self.health.allow(index):
                    skipped.append(index)
                    continue
                if self._put_replica(index, disk_key, blob):
                    wrote += 1
                else:
                    missed.append(index)
            quorum = min(self.write_quorum, len(replicas))
            if wrote < quorum and skipped:
                # Last resort: probe breaker-open drives rather than
                # refusing a write that could still meet quorum.
                still_skipped = []
                for index in skipped:
                    if wrote < quorum and self._put_replica(
                        index, disk_key, blob
                    ):
                        wrote += 1
                    else:
                        still_skipped.append(index)
                skipped = still_skipped
        if instrumented:
            self._h_drive_op.labels("write").observe(
                _time.perf_counter() - started
            )
            self._m_drive_bytes.labels("written").inc(wrote * len(blob))
        behind = missed + skipped
        if wrote < quorum:
            self._m_degraded.labels("refused").inc()
            if wrote:
                self.journal.mark(kind, object_key, behind)
            raise ReplicationDegraded(
                f"wrote {wrote}/{quorum} required replicas of "
                f"{object_key!r} ({len(replicas)} placed)"
            )
        if behind:
            self._m_degraded.labels("partial").inc()
            self.journal.mark(kind, object_key, behind)
        return wrote

    def _put_replica(self, index: int, disk_key: bytes, blob: bytes) -> bool:
        try:
            self.clients[index].put(disk_key, blob, force=True)
        except (DriveOffline, TransientIOError):
            self.health.record_failure(index)
            self._m_replica_failures.labels("offline").inc()
            return False
        self.health.record_success(index)
        self.effects.record(DISK_WRITE, index, len(blob))
        return True

    def _delete_all_replicas(self, object_key: str, disk_key: bytes) -> None:
        instrumented = self.telemetry.enabled
        started = _time.perf_counter() if instrumented else 0.0
        with self.telemetry.span("kinetic.delete", key=object_key):
            self.health.tick()
            for index in self._replicas(object_key):
                client = self.clients[index]
                try:
                    client.delete(disk_key, force=True)
                    self.health.record_success(index)
                    self.effects.record(DISK_DELETE, index, 0)
                except KineticNotFound:
                    self.health.record_success(index)
                except (DriveOffline, TransientIOError):
                    self.health.record_failure(index)
                    # Best effort: the unreachable replica keeps its
                    # copy, so journal the key for a later scrub.  A
                    # tombstone-free store cannot make partial deletes
                    # fully durable (see docs/resilience.md).
                    self.journal.mark(KIND_OBJECT, object_key, (index,))
        if instrumented:
            self._h_drive_op.labels("delete").observe(
                _time.perf_counter() - started
            )

    # -- authenticated freshness -------------------------------------------

    def scan_labels(self) -> list[str]:
        """Every metadata label present on any reachable drive.

        Used by :meth:`repro.core.freshness.FreshnessAuthority
        .bootstrap` to rebuild the authenticated dictionary at startup:
        the union over all drives of the ``m/`` and ``p/`` key ranges,
        paginated per the Kinetic ``GETKEYRANGE`` contract.  Offline
        drives are skipped — whether the missing coverage matters is
        decided by the root comparison, not here.
        """
        labels: set[str] = set()
        page = 200
        for index in range(len(self.clients)):
            client = self.clients[index]
            for prefix, to_label in (
                (b"m/", object_label),
                (b"p/", policy_label),
            ):
                cursor = prefix
                inclusive = True
                while True:
                    try:
                        keys = client.get_key_range(
                            start_key=cursor,
                            end_key=prefix + b"\xff" * 64,
                            max_returned=page,
                            start_inclusive=inclusive,
                        )
                    except KineticError:
                        break
                    for disk_key in keys:
                        labels.add(
                            to_label(disk_key[len(prefix):].decode())
                        )
                    if len(keys) < page:
                        break
                    cursor = keys[-1]
                    inclusive = False
        return sorted(labels)

    def scan_keys(self, start_key: str, count: int) -> list[str]:
        """Object keys >= ``start_key``, merged across the fleet.

        The Kinetic ``GETKEYRANGE`` path for YCSB-E range scans:
        placement hashes scatter adjacent object keys across drives,
        so one logical scan is the sorted union of every drive's
        ``m/`` range, paginated per the drive contract and truncated
        to ``count`` keys.  Offline drives are skipped — with
        replication their keys surface from the surviving replicas;
        without it the scan is best-effort over the reachable fleet
        (per-key reads still verify, a scan never vouches for
        freshness itself).
        """
        if count < 1:
            return []
        cursor_start = b"m/" + start_key.encode()
        end_key = b"m/" + b"\xff" * 64
        found: set[str] = set()
        page = max(count, 16)
        with self.telemetry.span(
            "kinetic.getkeyrange", key=start_key, count=count
        ):
            self.health.tick()
            for index in range(len(self.clients)):
                if not self.health.allow(index):
                    continue
                client = self.clients[index]
                cursor = cursor_start
                inclusive = True
                remaining = count
                while remaining > 0:
                    try:
                        keys = client.get_key_range(
                            start_key=cursor,
                            end_key=end_key,
                            max_returned=min(page, remaining),
                            start_inclusive=inclusive,
                        )
                    except (DriveOffline, TransientIOError):
                        self.health.record_failure(index)
                        self._m_replica_failures.labels("offline").inc()
                        break
                    except KineticError:
                        break
                    self.health.record_success(index)
                    self.effects.record(
                        DISK_READ, index, sum(len(k) for k in keys)
                    )
                    for disk_key in keys:
                        found.add(disk_key[2:].decode())
                    if len(keys) < min(page, remaining):
                        break
                    cursor = keys[-1]
                    inclusive = False
                    remaining -= len(keys)
        return sorted(found)[:count]

    def _read_verified(
        self,
        object_key: str,
        disk_key: bytes,
        aad: bytes,
        label: str,
        kind: str,
    ) -> bytes | None:
        """Read one metadata record, verified against the pinned root.

        The freshness authority proves what digest the record *must*
        have (or that it is absent — which short-circuits without any
        drive I/O): the first replica whose plaintext hashes to the
        pinned leaf wins, so a single reply suffices where the
        unverified path needs a quorum.  Replicas proving anything else
        are stale — failed over, re-seeded from the verified copy, and
        journaled.  A record pinned by an unsettled mutation accepts
        either side of the pending entry (crash-window availability).

        When every reachable replica is provably stale the read raises
        :class:`~repro.errors.StaleReplica`: serving would undo an
        acknowledged write.  All-unreachable raises the drive error,
        exactly like the unverified path.
        """
        expected, allowed = self.freshness.acceptable(label)
        if expected is None:
            # Proven absent: the pinned tree has no leaf for this
            # label, so no replica can legitimately hold a record.
            return None
        instrumented = self.telemetry.enabled
        started = _time.perf_counter() if instrumented else 0.0
        drive_error: Exception | None = None
        fallback: bytes | None = None
        fallback_digest: str | None = None
        behind: list[int] = []     # stale / missing / corrupt replicas
        unreachable: list[int] = []
        definitive_wrong = 0
        verified: bytes | None = None
        with self.telemetry.span("kinetic.get", key=object_key):
            replicas = self._replicas(object_key)
            self.health.tick()
            preferred = [i for i in replicas if self.health.allow(i)]
            last_resort = [i for i in replicas if i not in preferred]
            for index in preferred + last_resort:
                try:
                    blob, _version = self.clients[index].get(disk_key)
                except (DriveOffline, TransientIOError) as exc:
                    self.health.record_failure(index)
                    self._m_replica_failures.labels("offline").inc()
                    unreachable.append(index)
                    drive_error = exc
                    continue
                except KineticNotFound:
                    self.health.record_success(index)
                    self._m_replica_failures.labels("missing").inc()
                    behind.append(index)
                    definitive_wrong += 1
                    continue
                self.health.record_success(index)
                try:
                    plain = self._open(blob, aad)
                except IntegrityError:
                    self._m_replica_failures.labels("corrupt").inc()
                    behind.append(index)
                    definitive_wrong += 1
                    continue
                digest = self.freshness.leaf_digest(plain)
                if digest == expected:
                    self.effects.record(DISK_READ, index, len(blob))
                    if instrumented:
                        self._m_drive_bytes.labels("read").inc(len(blob))
                    verified = plain
                    break
                if digest in allowed:
                    # The other side of an unsettled mutation: keep it
                    # as a fallback but look for the pinned leaf first.
                    fallback, fallback_digest = plain, digest
                    continue
                self._m_replica_failures.labels("stale").inc()
                self.freshness.reject_stale(label)
                behind.append(index)
                definitive_wrong += 1
        if instrumented:
            self._h_drive_op.labels("read").observe(
                _time.perf_counter() - started
            )
        if verified is None and fallback is not None:
            verified = fallback
            expected = fallback_digest
        if verified is None:
            if definitive_wrong:
                raise StaleReplica(
                    f"every reachable replica of {object_key!r} is "
                    f"older than the pinned root (epoch "
                    f"{self.freshness.epoch})"
                )
            raise drive_error or KineticNotFound(object_key)
        if behind or unreachable:
            self.journal.mark(kind, object_key, behind + unreachable)
            sealed = self._seal(verified, aad)
            for index in behind:
                try:
                    self.clients[index].put(disk_key, sealed, force=True)
                except KineticError:
                    continue
                self.effects.record(DISK_WRITE, index, len(sealed))
                self._m_read_repair.inc()
        return verified

    def _pinned_write(self, label: str, digest: str | None, write) -> None:
        """Run one mutation under the write-ahead pin protocol.

        The new leaf is pinned *before* any replica sees the write
        (prepare), settled once the quorum acknowledged, and reverted
        — with the pending entry kept, since a minority replica may
        already hold the new record — when the write failed below
        quorum.
        """
        self.freshness.prepare(label, digest)
        try:
            write()
        # Deliberately broad: whatever the write failed with, the
        # pending pin must be rolled back before the error propagates
        # — an abandoned prepare would wedge every later mutation.
        # pesos: allow[core-no-swallow]
        except Exception:
            self.freshness.abort(label)
            raise
        self.freshness.settle(label)

    # -- health reporting --------------------------------------------------

    def health_snapshot(self) -> dict:
        """Per-drive breaker state plus quorum and journal figures.

        ``status`` is ``ok`` with a fully healthy fleet, ``degraded``
        while any drive is down or breaker-open, and ``critical`` once
        fewer healthy drives remain than ``write_quorum`` needs — at
        which point some writes *must* fail.
        """
        drives = []
        for index in range(len(self.clients)):
            drive = getattr(self.clients[index], "drive", None)
            entry = {"index": index, "drive_id": self._drive_id(index),
                     "online": bool(getattr(drive, "online", True))}
            entry.update(self.health.state_of(index).snapshot())
            drives.append(entry)
        unhealthy = sum(
            1 for d in drives if not d["online"] or d["breaker"] == "open"
        )
        healthy = len(drives) - unhealthy
        if unhealthy == 0:
            status = "ok"
        elif healthy >= self.write_quorum:
            status = "degraded"
        else:
            status = "critical"
        return {
            "status": status,
            "drives": drives,
            "replication_factor": min(
                self.replication_factor, len(self.clients)
            ),
            "write_quorum": self.write_quorum,
            "dirty_keys": len(self.journal),
        }

    def _health_metrics(self):
        from repro.telemetry.metrics import MetricFamily, Sample

        health_samples = []
        online_samples = []
        for index in range(len(self.clients)):
            drive_id = self._drive_id(index)
            state = self.health.state_of(index).state
            health_samples.append(
                Sample(
                    "pesos_drive_health",
                    {"drive": drive_id},
                    STATE_CODES[state],
                )
            )
            drive = getattr(self.clients[index], "drive", None)
            online_samples.append(
                Sample(
                    "pesos_drive_online",
                    {"drive": drive_id},
                    int(bool(getattr(drive, "online", True))),
                )
            )
        yield MetricFamily(
            name="pesos_drive_health",
            kind="gauge",
            help="Circuit-breaker state per drive "
                 "(0=closed, 1=half-open, 2=open).",
            samples=health_samples,
        )
        yield MetricFamily(
            name="pesos_drive_online",
            kind="gauge",
            help="Whether the drive reports online (1) or offline (0).",
            samples=online_samples,
        )
        yield MetricFamily(
            name="pesos_dirty_journal_keys",
            kind="gauge",
            help="Keys awaiting anti-entropy repair.",
            samples=[
                Sample("pesos_dirty_journal_keys", {}, len(self.journal))
            ],
        )

    # -- encryption ------------------------------------------------------------

    def _seal(self, blob: bytes, aad: bytes) -> bytes:
        nonce = secrets.token_bytes(12)
        self.effects.record(ENCRYPT, len(blob))
        return nonce + self._aead.seal(nonce, blob, aad)

    def _open(self, blob: bytes, aad: bytes) -> bytes:
        self.effects.record(DECRYPT, len(blob))
        return self._aead.open(blob[:12], blob[12:], aad)

    # -- metadata ---------------------------------------------------------------

    @staticmethod
    def meta_key(key: str) -> bytes:
        return b"m/" + key.encode()

    #: Version slot used when history is disabled: the value lives at a
    #: single key and updates overwrite in place (one drive PUT, no
    #: delete), like any plain key-value store.
    LATEST_SLOT = 0xFFFFFFFFFFFFFFFF

    @staticmethod
    def value_key(key: str, version: int) -> bytes:
        return b"v/" + key.encode() + b"/" + version.to_bytes(8, "big")

    def _slot(self, version: int) -> int:
        return version if self.keep_history else self.LATEST_SLOT

    @staticmethod
    def policy_key(policy_id: str) -> bytes:
        return b"p/" + policy_id.encode()

    def read_meta(self, key: str) -> StoredMeta | None:
        """Fetch object metadata, freshest-of-a-quorum; None when absent.

        The ``m/`` record is the only *mutable* key in the layout, so
        reading a single replica is only sound when the write quorum
        covers every replica.  With a relaxed quorum a lagging replica
        holds an older record that decrypts perfectly well — staleness
        is not corruption — so the store collects
        ``n - write_quorum + 1`` definitive replies (data or a clean
        "not found"), which is guaranteed to intersect every
        acknowledged write, and returns the newest version.  Stale and
        missing copies seen on the way are re-seeded inline and
        journaled.  With the default full write quorum this degenerates
        to the single-replica fast path.

        When drive failures leave fewer definitive replies than the
        freshness quorum needs, the read serves the newest *reachable*
        copy instead of failing — the operator who relaxed the write
        quorum chose availability — and the key stays journaled until
        anti-entropy can audit it against the recovered fleet.

        With a freshness authority attached the version-number quorum
        is replaced entirely by proof verification: the record must
        hash to the Merkle leaf pinned by the sealed monotonic counter
        (see :meth:`_read_verified`), which a replayed stale replica
        cannot satisfy no matter what version number it carries.
        """
        if self._verifying():
            plain = self._read_verified(
                key,
                self.meta_key(key),
                b"meta:" + key.encode(),
                object_label(key),
                KIND_OBJECT,
            )
            return None if plain is None else StoredMeta.decode(plain)
        disk_key = self.meta_key(key)
        aad = b"meta:" + key.encode()
        instrumented = self.telemetry.enabled
        started = _time.perf_counter() if instrumented else 0.0
        replicas = self._replicas(key)
        needed = len(replicas) - min(self.write_quorum, len(replicas)) + 1
        drive_error: Exception | None = None
        corrupt_error: Exception | None = None
        found: list[tuple[int, StoredMeta]] = []
        missing: list[int] = []   # live replicas answering "not found"
        unreachable: list[int] = []
        with self.telemetry.span("kinetic.get", key=key):
            self.health.tick()
            preferred = [i for i in replicas if self.health.allow(i)]
            last_resort = [i for i in replicas if i not in preferred]
            for index in preferred + last_resort:
                try:
                    blob, _version = self.clients[index].get(disk_key)
                except (DriveOffline, TransientIOError) as exc:
                    self.health.record_failure(index)
                    self._m_replica_failures.labels("offline").inc()
                    unreachable.append(index)
                    drive_error = exc
                    continue
                except KineticNotFound:
                    self.health.record_success(index)
                    missing.append(index)
                    continue
                self.health.record_success(index)
                try:
                    plain = self._open(blob, aad)
                except IntegrityError as exc:
                    self._m_replica_failures.labels("corrupt").inc()
                    unreachable.append(index)
                    corrupt_error = exc
                    continue
                self.effects.record(DISK_READ, index, len(blob))
                if instrumented:
                    self._m_drive_bytes.labels("read").inc(len(blob))
                found.append((index, StoredMeta.decode(plain)))
                if len(found) + len(missing) >= needed:
                    break
        if instrumented:
            self._h_drive_op.labels("read").observe(
                _time.perf_counter() - started
            )
        if not found:
            # Absence needs the same quorum as freshness; otherwise the
            # data may live on a replica we could not reach.
            if len(missing) >= needed:
                return None
            if corrupt_error is not None:
                raise corrupt_error
            if drive_error is not None:
                raise drive_error
            return None
        # found but fewer definitive replies than ``needed``: not
        # provably fresh; fall through and serve the newest reachable
        # copy (``unreachable`` is non-empty, so the key is journaled).
        freshest = max(found, key=lambda item: item[1].current_version)[1]
        stale = [
            index for index, meta in found
            if meta.current_version < freshest.current_version
        ]
        behind = stale + missing + unreachable
        if behind:
            self.journal.mark(KIND_OBJECT, key, behind)
            sealed = self._seal(freshest.encode(), aad)
            for index in stale + missing:
                try:
                    self.clients[index].put(disk_key, sealed, force=True)
                except KineticError:
                    continue
                self.effects.record(DISK_WRITE, index, len(sealed))
                self._m_read_repair.inc()
        return freshest

    def write_meta(self, meta: StoredMeta) -> None:
        plain = meta.encode()
        blob = self._seal(plain, b"meta:" + meta.key.encode())
        if self._verifying():
            self._pinned_write(
                object_label(meta.key),
                record_digest(plain),
                lambda: self._write_replicas(
                    meta.key, self.meta_key(meta.key), blob
                ),
            )
            return
        self._write_replicas(meta.key, self.meta_key(meta.key), blob)

    # -- object content ------------------------------------------------------------

    def read_value(
        self, key: str, version: int, expect_sha256: str | None = None
    ) -> bytes:
        slot = self._slot(version)
        aad = b"val:" + key.encode() + b":" + str(slot).encode()
        with self.telemetry.span("store.read_value", key=key,
                                 version=version):
            return self._read_with_failover(
                key, self.value_key(key, slot), aad=aad,
                expect_sha256=expect_sha256,
            )

    def write_value(self, key: str, version: int, value: bytes) -> None:
        slot = self._slot(version)
        aad = b"val:" + key.encode() + b":" + str(slot).encode()
        blob = self._seal(value, aad)
        self._write_replicas(key, self.value_key(key, slot), blob)

    def delete_value(self, key: str, version: int) -> None:
        self._delete_all_replicas(key, self.value_key(key, self._slot(version)))

    # -- whole-object operations -----------------------------------------------------

    def store_version(
        self, meta: StoredMeta, value: bytes, policy_hash: str
    ) -> StoredMeta:
        """Write the next version of an object (content then metadata)."""
        new_version = meta.current_version + 1
        with self.telemetry.span(
            "store.store_version",
            key=meta.key,
            version=new_version,
            bytes=len(value),
        ):
            return self._store_version(meta, value, policy_hash, new_version)

    def _store_version(
        self, meta: StoredMeta, value: bytes, policy_hash: str,
        new_version: int,
    ) -> StoredMeta:
        self.write_value(meta.key, new_version, value)
        old = meta.latest()
        meta.current_version = new_version
        meta.versions[new_version] = VersionMeta(
            version=new_version,
            size=len(value),
            content_hash=hashlib.sha256(value).hexdigest(),
            policy_hash=policy_hash,
        )
        window = self.version_metadata_window
        if window is not None and len(meta.versions) > window:
            for stale in sorted(meta.versions)[:-window]:
                del meta.versions[stale]
        self.write_meta(meta)
        if not self.keep_history and old is not None:
            # The new value overwrote the latest slot in place; only
            # the metadata record needs pruning.
            del meta.versions[old.version]
        return meta

    def delete_object(self, meta: StoredMeta) -> None:
        """Remove every version and the metadata record."""
        if self._verifying():
            self._pinned_write(
                object_label(meta.key), None,
                lambda: self._delete_versions_and_meta(meta),
            )
            return
        self._delete_versions_and_meta(meta)

    def _delete_versions_and_meta(self, meta: StoredMeta) -> None:
        slots_seen = set()
        for version in list(meta.versions):
            slot = self._slot(version)
            if slot in slots_seen:
                continue
            slots_seen.add(slot)
            self.delete_value(meta.key, version)
        self._delete_all_replicas(meta.key, self.meta_key(meta.key))

    # -- integrity maintenance ---------------------------------------------------

    def scrub(self, meta: StoredMeta) -> list:
        """Audit every replica of every version of an object.

        Reads each replica directly (no failover), decrypts, and
        compares the content hash against the metadata record.
        Returns ``(version, drive_index, status)`` tuples with status
        ``ok`` / ``missing`` / ``corrupt`` / ``offline``.
        """
        report = []
        for version_meta in meta.versions.values():
            slot = self._slot(version_meta.version)
            disk_key = self.value_key(meta.key, slot)
            aad = b"val:" + meta.key.encode() + b":" + str(slot).encode()
            for index in self._replicas(meta.key):
                client = self.clients[index]
                try:
                    blob, _version = client.get(disk_key)
                    value = self._open(blob, aad)
                    digest = hashlib.sha256(value).hexdigest()
                    status = (
                        "ok" if digest == version_meta.content_hash
                        else "corrupt"
                    )
                except (DriveOffline, TransientIOError):
                    status = "offline"
                except KineticNotFound:
                    status = "missing"
                except CryptoError:
                    # Tampered blobs surface as AEAD failures (bad tag,
                    # truncated frame); anything else should propagate.
                    status = "corrupt"
                report.append((version_meta.version, index, status))
        return report

    def repair(self, meta: StoredMeta) -> int:
        """Re-write missing/corrupt replicas from a healthy copy.

        Used after a failed drive returns (anti-entropy).  Returns the
        number of replica blobs rewritten; versions with no healthy
        replica at all are left untouched (unrecoverable).
        """
        report = self.scrub(meta)
        healthy: dict[int, int] = {}
        for version, drive_index, status in report:
            if status == "ok" and version not in healthy:
                healthy[version] = drive_index
        repaired = 0
        for version, drive_index, status in report:
            if status in ("ok", "offline"):
                continue
            source = healthy.get(version)
            if source is None:
                continue
            slot = self._slot(version)
            disk_key = self.value_key(meta.key, slot)
            aad = b"val:" + meta.key.encode() + b":" + str(slot).encode()
            blob, _version = self.clients[source].get(disk_key)
            value = self._open(blob, aad)
            resealed = self._seal(value, aad)
            try:
                self.clients[drive_index].put(disk_key, resealed, force=True)
                self.effects.record(DISK_WRITE, drive_index, len(resealed))
                repaired += 1
            except (DriveOffline, TransientIOError):
                continue
        # Ensure the metadata record is present everywhere too.
        self.write_meta(meta)
        return repaired

    # -- policies -----------------------------------------------------------------------

    def write_policy(self, policy_id: str, blob: bytes) -> None:
        aad = b"policy:" + policy_id.encode()
        sealed = self._seal(blob, aad)
        if self._verifying():
            self._pinned_write(
                policy_label(policy_id),
                record_digest(blob),
                lambda: self._write_replicas(
                    policy_id, self.policy_key(policy_id), sealed,
                    kind=KIND_POLICY,
                ),
            )
            return
        self._write_replicas(
            policy_id, self.policy_key(policy_id), sealed, kind=KIND_POLICY
        )

    def read_policy(self, policy_id: str) -> bytes | None:
        if self._verifying():
            return self._read_verified(
                policy_id,
                self.policy_key(policy_id),
                b"policy:" + policy_id.encode(),
                policy_label(policy_id),
                KIND_POLICY,
            )
        try:
            return self._read_with_failover(
                policy_id,
                self.policy_key(policy_id),
                aad=b"policy:" + policy_id.encode(),
                kind=KIND_POLICY,
            )
        except KineticNotFound:
            return None


class StoreBackedView(ObjectView):
    """An :class:`ObjectView` that lazily reads content for ``objSays``.

    Size/hash/policy-hash come from metadata without touching content;
    content tuples are fetched (through the object cache) only when a
    policy actually inspects them — and cached, per §4.2 ("we cache
    objects accessed during policy evaluation").
    """

    def __init__(self, meta: StoredMeta, store: ObjectStore, cache=None):
        super().__init__(
            object_id=meta.key, current_version=meta.current_version
        )
        self._meta = meta
        self._store = store
        self._cache = cache
        self._infos: dict[int, VersionInfo] = {}

    def info(self, version: int) -> VersionInfo | None:
        if version in self._infos:
            return self._infos[version]
        version_meta = self._meta.versions.get(version)
        if version_meta is None:
            return None
        info = VersionInfo(
            size=version_meta.size,
            content_hash=version_meta.content_hash,
            policy_hash=version_meta.policy_hash,
            content=partial(self._load_content, version),
        )
        self._infos[version] = info
        return info

    def _load_content(self, version: int) -> bytes:
        cache_key = f"{self.object_id}@{version}"
        if self._cache is not None:
            cached = self._cache.get_object(cache_key)
            if cached is not None:
                return cached
        expect = None
        version_meta = self._meta.versions.get(version)
        if version_meta is not None and self._store._verifying():
            # The metadata record came through proof verification, so
            # its content hash anchors the value read too.
            expect = version_meta.content_hash
        value = self._store.read_value(
            self.object_id, version, expect_sha256=expect
        )
        if self._cache is not None:
            self._cache.put_object(cache_key, value)
        return value
