"""The object store over Kinetic drives.

Key layout on the drives (all values encrypted before leaving the
controller, §2.2)::

    m/<key>              object metadata: current version, policy
                         binding, per-version size/hash records
    v/<key>/<version>    object content for one version
    p/<policy-hash>      compiled policy blobs, named by their SHA-256

The bytes of each — record layout, AAD, the AEAD construction, and why
nothing reads the format before it — are in docs/resilience.md,
"At-rest formats".

Placement (§4.5): a deterministic hash of the object key picks the
primary drive; replicas go on the following positions in the drive
list.  No replication metadata is kept anywhere.

Writes are write-through (§3.2) and per-key atomic on each replica:
a new version's content and the metadata record naming it travel in
one Kinetic ``COMMIT`` frame, applied whole or not at all, so no crash
leaves new bytes under old metadata; deleting an object is one frame
per replica too.  :meth:`ObjectStore._write_replicas` holds the quorum
contract for every mutation, deletes included.  Every replica
interaction, read-repair too, feeds a per-drive circuit breaker
(:mod:`repro.core.health`).

Reads are one walk over the placement.  :meth:`ObjectStore._fetch` and
:meth:`ObjectStore._open` turn one replica into a plaintext or a
:class:`_CannotServe` signal, :class:`_Walk` orders the replicas and
keeps what the walk learned, :meth:`ObjectStore._served` repairs what
answered wrong and :meth:`ObjectStore._unserved` ranks the errors.
What differs between reading a value or policy blob, a pinned ``m/``
record and an unpinned one is only when a plaintext is *accepted*: the
three ``_read_*`` rules.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
import struct
import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from repro.core.antientropy import KIND_OBJECT, KIND_POLICY, DirtyJournal
from repro.core.effects import (
    DECRYPT,
    DISK_DELETE,
    DISK_RANGE,
    DISK_READ,
    DISK_WRITE,
    ENCRYPT,
    NullRecorder,
)
from repro.core.freshness import object_label, record_digest
from repro.core.health import STATE_CODES, HealthTracker
from repro.crypto.aead import StreamAead
from repro.errors import (
    ConfigurationError,
    CryptoError,
    DriveOffline,
    KineticError,
    KineticNotFound,
    ReplicationDegraded,
    StaleReplica,
    TransientIOError,
)
from repro.policy.context import Facts, ObjectView, VersionInfo
from repro.kinetic import protocol
from repro.kinetic.protocol import Op, decode_fields, encode_fields
from repro.telemetry import NULL_TELEMETRY


#: One version in an ``m/`` record: version, size, SHA-256 of the
#: content, index of its policy hash in the record's ``ph`` list.
_ROW = struct.Struct(">QQ32sB")
_FIELDS = {"cv": int, "key": str, "ph": list, "policy": bytes, "rows": bytes}


@functools.lru_cache(maxsize=1024)
def _raw_digest(hex_digest: str) -> bytes:
    """The 32 bytes of a SHA-256 digest spelled as ``hexdigest()`` does;
    anything else would not decode back to itself.  Memoised, as each
    PUT re-encodes every version row of its record."""
    raw = bytes.fromhex(hex_digest)
    if len(raw) != 32 or raw.hex() != hex_digest:
        raise ValueError(f"{hex_digest!r} is not a SHA-256 hex digest")
    return raw


def _optional_digest(hex_digest: str) -> bytes:
    return _raw_digest(hex_digest) if hex_digest else b""


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
        """The at-rest ``m/`` record ("At-rest formats", docs/resilience.md):
        digests as raw bytes, each distinct ``policy_hash`` spelled once
        (``ph``, in first-use order; ``""`` is empty) and one fixed-width
        :data:`_ROW` per version, ascending, packed into ``rows``."""
        hashes: dict[str, int] = {}
        try:
            rows = [
                _ROW.pack(
                    m.version, m.size, _raw_digest(m.content_hash),
                    hashes.setdefault(m.policy_hash, len(hashes)),
                )
                for m in sorted(
                    self.versions.values(), key=attrgetter("version")
                )
            ]
            return encode_fields(
                {
                    "key": self.key,
                    "cv": self.current_version + 1,  # varints are unsigned
                    "policy": _optional_digest(self.policy_id),
                    "ph": [_optional_digest(h) for h in hashes],
                    "rows": b"".join(rows),
                }
            )
        except (struct.error, ValueError) as exc:
            raise KineticError(
                f"metadata of {self.key!r} does not fit its record: {exc}"
            ) from exc

    @classmethod
    def decode(cls, blob: bytes) -> "StoredMeta":
        """Inverse of :meth:`encode`; accepts only its exact output.

        The record is plaintext, so an error names the rule broken and
        never a decoded value."""
        fields_ = decode_fields(blob)
        if {name: type(value) for name, value in fields_.items()} != _FIELDS:
            raise KineticError("not the fields of a metadata record")
        hashes, rows = fields_["ph"], fields_["rows"]
        if any(
            type(raw) is not bytes or len(raw) not in (0, 32)
            for raw in (fields_["policy"], *hashes)
        ) or len(set(hashes)) != len(hashes):
            raise KineticError("policy digests are not distinct 32-byte values")
        if len(rows) % _ROW.size:
            raise KineticError("version rows are not whole rows")
        unpacked = list(_ROW.iter_unpack(rows))
        versions = [row[0] for row in unpacked]
        if versions != sorted(set(versions)):
            raise KineticError("version rows out of order")
        # One record, one spelling: ``ph`` is exactly the hashes the
        # rows name, in the order the rows first name them.
        if list(dict.fromkeys(row[3] for row in unpacked)) != list(
            range(len(hashes))
        ):
            raise KineticError("policy hash list does not match its rows")
        names = [raw.hex() for raw in hashes]
        return cls(
            fields_["key"], fields_["cv"] - 1, fields_["policy"].hex(),
            {
                version: VersionMeta(
                    version, size, content_hash.hex(), names[index]
                )
                for version, size, content_hash, index in unpacked
            },
        )


def placement(key: str, num_drives: int, replication_factor: int) -> list[int]:
    """Deterministic drive placement: primary + following positions."""
    digest = hashlib.sha256(key.encode()).digest()
    primary = int.from_bytes(digest[:8], "big") % num_drives
    return _window(primary, num_drives, replication_factor)


def _window(primary: int, num_drives: int, replication_factor: int) -> list[int]:
    """The placement whose primary is drive ``primary``."""
    count = min(replication_factor, num_drives)
    return [(primary + offset) % num_drives for offset in range(count)]


#: Keys per ``GETKEYRANGE`` page.
_RANGE_PAGE = 200

#: Versions one ``m/`` record describes.  A PUT re-seals the whole
#: record for every replica, so this keeps its cost flat in the number
#: of versions; with history kept it bounds drive space too, because the
#: frame that drops a version from the record deletes its content.
VERSION_METADATA_WINDOW = 32


def _commit_body(ops: list[Op]) -> bytes | None:
    """The ``COMMIT`` body of one mutation, encoded once for all its
    replicas; None for one record written, which travels as a PUT."""
    if len(ops) == 1 and ops[0].value is not None:
        return None
    return protocol.encode_fields({"ops": ops})  # the global the wall tracer counts


def _matches(value: bytes, expect_sha256: str | None) -> bool:
    """The value anchor: the hash the caller expects, if it has one."""
    return expect_sha256 is None or hashlib.sha256(value).hexdigest() == expect_sha256


def _forced(disk_key: bytes, blob: bytes | None = None) -> Op:
    """An unconditional PUT, or DELETE (no blob): replicas are
    overwritten, never compare-and-swapped, so an op can be re-sent."""
    return Op(disk_key, blob, force=True)


class _CannotServe(Exception):
    """One replica cannot serve a read; ``args`` is ``(kind, cause)``.

    ``kind`` is ``offline`` (no answer), ``missing`` or ``corrupt`` (a
    wrong answer); ``cause`` is the error to surface should no replica
    serve — ``None`` for a clean not-found, which keeps no exception.
    Private to this module: the acceptance rules catch it.
    """


class _Walk:
    """One operation's replica order, and what a read learned on the way."""

    def __init__(self, store: "ObjectStore", object_key: str):
        replicas = store._replicas(object_key)
        store.health.tick()
        #: Failover order (§4.5): placement order over the healthy
        #: drives; breaker-open ones are asked only as a last resort.
        self.open = [i for i in replicas if not store.health.allow(i)]
        self.order = [i for i in replicas if i not in self.open] + self.open
        self.quorum = store.read_quorum
        self.started = (
            _time.perf_counter() if store.telemetry.enabled else 0.0
        )
        self.wrong: list[int] = []        # answered wrong: re-seeded
        self.unreachable: list[int] = []  # no answer: only journaled
        self.missing = 0
        self.stale = False
        self.corrupt: Exception | None = None
        self.offline: Exception | None = None

    def cannot_serve(
        self, index: int, kind: str, cause: Exception | None
    ) -> None:
        if kind == "offline":
            self.unreachable.append(index)
            self.offline = cause
            return
        self.wrong.append(index)
        if kind == "missing":
            self.missing += 1
        else:
            self.corrupt = cause


class ObjectStore:
    """Encrypted, replicated object storage over Kinetic clients."""

    def __init__(
        self,
        clients: list,
        storage_key: bytes,
        replication_factor: int = 1,
        keep_history: bool = True,
        effects=None,
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
        #: An acknowledged write reached ``write_quorum`` replicas of its
        #: placement, so this many definitive replies (or complete key
        #: listings) intersect every one of them: enough "not found"
        #: prove absence, enough records hold the newest.
        self.read_quorum = effective_replicas - self.write_quorum + 1
        #: The directory: every object key, sorted, in enclave memory
        #: (~73 B a key).  A fleet listing seeds it (:meth:`_list`),
        #: :meth:`_file` keeps it; None until seeded.
        self.directory: list[str] | None = None
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
        #: The untrusted SSD tier (:mod:`repro.core.ssdcache`), attached
        #: by the controller when configured.
        self.ssd = None
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
        # The per-drive gauges read what ``GET /_health`` reports.
        self.telemetry.derived(
            "pesos_drive_health",
            "gauge",
            "Circuit-breaker state per drive "
            "(0=closed, 1=half-open, 2=open).",
            lambda: [
                (drive["drive_id"], STATE_CODES[drive["breaker"]])
                for drive in self.health_snapshot()["drives"]
            ],
            ("drive",),
        )
        self.telemetry.derived(
            "pesos_drive_online",
            "gauge",
            "Whether the drive reports online (1) or offline (0).",
            lambda: [
                (drive["drive_id"], int(drive["online"]))
                for drive in self.health_snapshot()["drives"]
            ],
            ("drive",),
        )
        self.telemetry.derived(
            "pesos_dirty_journal_keys",
            "gauge",
            "Keys awaiting anti-entropy repair.",
            lambda: len(self.journal),
        )

    # -- placement -------------------------------------------------------

    def install_io_interceptor(self, interceptor) -> None:
        """Route every client's data ops through ``interceptor``.

        The concurrent request engine installs its preemption hook
        here so each drive ``get``/``put``/``delete``/``commit`` suspends
        the calling green thread; ``None`` restores inline execution.
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

    # -- the one replica read ----------------------------------------------

    def _fetch(self, index: int, disk_key: bytes) -> bytes:
        """GET one replica's sealed blob, or raise :class:`_CannotServe`.

        The only place a read talks to a drive.  Every outcome feeds
        the drive's circuit breaker and the per-kind failure counter,
        and every frame the drive answered, found or not, is one
        ``DISK_READ`` on the effects ledger.
        """
        try:
            blob, _version = self.clients[index].get(disk_key)
        except (DriveOffline, TransientIOError) as exc:
            self.health.record_failure(index)
            self._m_replica_failures.labels("offline").inc()
            raise _CannotServe("offline", exc)
        except KineticNotFound:
            # The drive answered; the data is missing there.
            self.health.record_success(index)
            self.effects.record(DISK_READ, index, 0)
            self._m_replica_failures.labels("missing").inc()
            raise _CannotServe("missing", None)
        self.health.record_success(index)
        self.effects.record(DISK_READ, index, len(blob))
        if self.telemetry.enabled:
            self._m_drive_bytes.labels("read").inc(len(blob))
        return blob

    def _open(self, blob: bytes, aad: bytes) -> bytes:
        """AEAD-open one fetched blob, or raise :class:`_CannotServe`.

        Drive content is untrusted input: a bad tag and a blob too
        short to hold a nonce (a :class:`CryptoError` that is not an
        ``IntegrityError``) are the same fault, a corrupt copy.
        """
        try:
            return self._decrypt(blob, aad)
        except CryptoError as exc:
            self._m_replica_failures.labels("corrupt").inc()
            raise _CannotServe("corrupt", exc)

    def _decrypt(self, blob: bytes, aad: bytes) -> bytes:
        """AEAD-open a blob :meth:`_seal` made; raises ``CryptoError``."""
        self.effects.record(DECRYPT, len(blob))
        return self._aead.open(blob[:12], blob[12:], aad)

    def _reject_stale(self, walk: _Walk, index: int, label: str) -> None:
        """A copy that authenticates but is not the record looked for."""
        self._m_replica_failures.labels("stale").inc()
        if self.freshness is not None:
            self.freshness.reject_stale(label)
        walk.wrong.append(index)
        walk.stale = True

    def _served(self, walk: _Walk, kind: str, object_key: str,
                disk_key: bytes, blob: bytes) -> None:
        """Close a read that ``blob`` answered.

        Replicas that answered wrong (missing, corrupt, stale) are
        overwritten inline with the sealed blob that was served; those
        and the unreachable ones are journaled, because anti-entropy
        audits every version of the object and this read saw one key.
        """
        if self.telemetry.enabled:
            self._h_drive_op.labels("read").observe(
                _time.perf_counter() - walk.started
            )
        if walk.wrong or walk.unreachable:
            self.journal.mark(
                kind, object_key, walk.wrong + walk.unreachable
            )
            self._m_read_repair.inc(
                self._reseed(disk_key, blob, walk.wrong)
            )

    def _reseed(self, disk_key: bytes, blob: bytes, indexes) -> int:
        """Overwrite replicas with a sealed blob, each through
        :meth:`_send`; returns how many took it.  A re-seed that fails
        never fails the read it repairs."""
        ops = [_forced(disk_key, blob)]
        reseeded = 0
        for index in indexes:
            try:
                reseeded += self._send(index, ops, reseeded, None)
            except KineticError:
                continue  # answered, but refused
        return reseeded

    def _unserved(self, walk: _Walk, stale: Exception | None = None) -> None:
        """No replica served: raise the reason, or return on absence.

        Staleness outranks everything (answering would undo an
        acknowledged write); a corrupt copy proves the key exists, so
        it outranks absence; absence holds once ``walk.quorum`` live
        replicas said "not found" or nothing was unreachable; otherwise
        the data may sit on the drive that did not answer, and its
        error is the answer.
        """
        if self.telemetry.enabled:
            self._h_drive_op.labels("read").observe(
                _time.perf_counter() - walk.started
            )
        if walk.stale:
            raise stale
        if walk.corrupt is not None:
            raise walk.corrupt
        if walk.missing < walk.quorum and walk.offline is not None:
            raise walk.offline

    # -- the three acceptance rules ------------------------------------------

    def _read_matching(
        self,
        object_key: str,
        disk_key: bytes,
        aad: bytes,
        kind: str,
        expect_sha256: str | None,
    ) -> bytes:
        """Value rule: the first plaintext matching the expected hash.

        ``v/`` keys are written once per slot, so any copy that opens
        is the record — except the in-place slot of a history-less
        store, where a lagging replica holds the previous value under
        the same AAD.  ``expect_sha256`` (the content hash in the
        metadata record, or a policy's id) tells the two apart.
        """
        # Values go through the SSD, policies (read once) do not.
        ssd = self.ssd if kind == KIND_OBJECT else None
        value = ssd and self._from_ssd(
            disk_key, aad, partial(_matches, expect_sha256=expect_sha256)
        )
        if value is not None:
            return value
        walk = _Walk(self, object_key)
        with self.telemetry.span("kinetic.get", key=object_key):
            for index in walk.order:
                try:
                    blob = self._fetch(index, disk_key)
                    value = self._open(blob, aad)
                except _CannotServe as signal:
                    walk.cannot_serve(index, *signal.args)
                    continue
                if not _matches(value, expect_sha256):
                    self._reject_stale(walk, index, object_key)
                    continue
                self._served(walk, kind, object_key, disk_key, blob)
                if ssd is not None:
                    ssd.put(disk_key, blob)
                return value
        self._unserved(walk, StaleReplica(
            f"no reachable replica of {object_key!r} holds the "
            f"content its metadata records"
        ))
        raise KineticNotFound(object_key)

    def _read_pinned(
        self, object_key: str, disk_key: bytes, aad: bytes
    ) -> bytes | None:
        """Pinned rule (``m/``): the first record equal to the pinned leaf.

        The freshness authority's in-enclave tree holds the digest the
        record *must* have, so a single reply whose record digest
        matches it suffices; a label the tree does not hold is absent,
        which answers without any drive I/O.  While a
        mutation of the label is unsettled, a replica holding its other
        side is kept as a fallback (and never re-seeded over): that is
        what keeps reads available across the prepare→write crash
        window.
        """
        label = object_label(object_key)
        expected, allowed = self.freshness.acceptable(label)
        if expected is None:
            return None
        # The SSD serves the pinned leaf alone: a pending side is left
        # to the drive walk's preference rule below.
        plain = self.ssd and self._from_ssd(
            disk_key, aad, lambda plain: self._admitted(plain, {expected}) is not None
        )
        if plain is not None:
            return plain
        walk = _Walk(self, object_key)
        served: bytes | None = None
        served_blob = b""
        with self.telemetry.span("kinetic.get", key=object_key):
            for index in walk.order:
                try:
                    blob = self._fetch(index, disk_key)
                    plain = self._open(blob, aad)
                except _CannotServe as signal:
                    walk.cannot_serve(index, *signal.args)
                    continue
                digest = self._admitted(plain, allowed)
                if digest is None:
                    self._reject_stale(walk, index, label)
                    continue
                # The pinned leaf ends the walk; a pending side answers
                # only if the pinned leaf turns up on no later replica.
                served = plain
                served_blob = blob
                if digest == expected:
                    break
        if served is None:
            # The pin proves the record exists, so a live replica
            # without it is as far behind as one holding an older leaf.
            walk.stale = walk.stale or walk.missing > 0
            self._unserved(walk, StaleReplica(
                f"every reachable replica of {object_key!r} is "
                f"older than the pinned root (epoch "
                f"{self.freshness.epoch})"
            ))
            raise KineticNotFound(object_key)
        self._served(walk, KIND_OBJECT, object_key, disk_key, served_blob)
        if self.ssd is not None:
            self.ssd.put(disk_key, served_blob)
        return served

    def _admitted(self, plain: bytes, allowed: set) -> str | None:
        """The metadata anchor: the leaf digest of ``plain`` if
        ``allowed`` (:meth:`FreshnessAuthority.acceptable`) holds it."""
        digest = self.freshness.leaf_digest(plain)
        return digest if digest in allowed else None

    def _from_ssd(self, disk_key: bytes, aad: bytes, anchored) -> bytes | None:
        """The SSD's copy of a record if it passes a drive replica's
        checks (the AEAD open, then ``anchored``); else None.  A copy
        that fails is the SSD's fault, counted by the tier alone."""

        def accept(blob: bytes) -> bytes | None:
            try:
                plain = self._decrypt(blob, aad)
            except CryptoError:
                return None
            return plain if anchored(plain) else None

        return self.ssd.get(disk_key, accept)

    def _read_newest(
        self, key: str, disk_key: bytes, aad: bytes, repair: bool = True
    ) -> StoredMeta | None:
        """Newest-of-quorum rule, for the one mutable key (``m/``).

        A lagging replica's older record opens perfectly well, so one
        reply is only sound under a full write quorum; in general the
        rule collects ``walk.quorum`` definitive replies (a record or a
        clean "not found"; a corrupt copy is neither) and serves the
        highest ``current_version``.  When failures leave fewer, it
        serves the newest *reachable* record — whoever relaxed the
        write quorum chose availability — and the key stays journaled.
        This is the rule that trusts replica version numbers; the
        pinned rule replaces it when freshness is on.  Without
        ``repair`` the read re-seeds, journals and files nothing: the
        bootstrap rebuild must not write to a fleet it may yet refuse.
        """
        walk = _Walk(self, key)
        found = []  # (replica, record, its sealed blob) per record read
        with self.telemetry.span("kinetic.get", key=key):
            for index in walk.order:
                try:
                    blob = self._fetch(index, disk_key)
                    plain = self._open(blob, aad)
                except _CannotServe as signal:
                    walk.cannot_serve(index, *signal.args)
                    continue
                found.append((index, StoredMeta.decode(plain), blob))
                if len(found) + walk.missing >= walk.quorum:
                    break
        if not found:
            self._unserved(walk)
            return None
        _index, newest, blob = max(
            found, key=lambda reply: reply[1].current_version
        )
        if not repair:
            return newest
        for index, meta, _blob in found:
            if meta.current_version < newest.current_version:
                self._reject_stale(walk, index, key)
        self._served(walk, KIND_OBJECT, key, disk_key, blob)
        # A write refused below quorum that some replica kept is served
        # here, so scans list it too.
        self._file(key, live=True)
        return newest

    # -- replica writes ----------------------------------------------------

    def _mirror(self, ops: list[Op], pinned: bool) -> None:
        """Give the SSD what acknowledged ``ops`` gave the drives; an
        ``m/`` record only if ``pinned``, as only a pin dates one."""
        if self.ssd is None:
            return
        for op in ops:
            if op.value is None:
                self.ssd.discard(op.key)
            elif pinned or not op.key.startswith(b"m/"):
                self.ssd.put(op.key, op.value)

    def _seal(self, blob: bytes, aad: bytes) -> bytes:
        nonce = secrets.token_bytes(12)
        self.effects.record(ENCRYPT, len(blob))
        return nonce + self._aead.seal(nonce, blob, aad)

    def _write_replicas(self, object_key: str, ops: list[Op],
                        kind: str = KIND_OBJECT) -> int:
        """Send ``ops`` to every replica; succeed iff ``write_quorum`` held.

        A put or, when no op carries a value, a delete.  Each replica
        takes all of ``ops`` or none (:meth:`_send`).
        Breaker-open drives are skipped (no timeout paid) unless the
        quorum would otherwise fail.  Acknowledged writes below full
        replication journal the key for anti-entropy; below quorum the
        write raises :class:`ReplicationDegraded`, still journaled when
        *some* replica took it and now diverges from the rest.
        """
        nbytes = sum(len(op.value) for op in ops if op.value is not None)
        # A sealed blob is never empty: no bytes means only deletes.
        op, span = ("write", "kinetic.put") if nbytes else ("delete", "kinetic.delete")
        walk = _Walk(self, object_key)
        quorum = min(self.write_quorum, len(walk.order))
        wrote = 0
        behind: list[int] = []
        body = _commit_body(ops)
        with self.telemetry.span(span, key=object_key, bytes=nbytes):
            for index in walk.order:
                if index in walk.open and wrote >= quorum:
                    behind.append(index)
                elif self._send(index, ops, wrote, body):
                    wrote += 1
                else:
                    behind.append(index)
        if self.telemetry.enabled:
            self._h_drive_op.labels(op).observe(
                _time.perf_counter() - walk.started
            )
            self._m_drive_bytes.labels("written").inc(wrote * nbytes)
        if wrote < quorum:
            self._m_degraded.labels("refused").inc()
            if wrote:
                self.journal.mark(kind, object_key, behind)
            raise ReplicationDegraded(
                f"wrote {wrote}/{quorum} required replicas of "
                f"{object_key!r} ({len(walk.order)} placed)"
            )
        if behind:
            self._m_degraded.labels("partial").inc()
            self.journal.mark(kind, object_key, behind)
        return wrote

    def _send(self, index: int, ops: list[Op], ordinal: int, body: bytes | None) -> bool:
        """One replica's share of a mutation; False when unreachable.

        One record is a plain PUT, more are one all-or-none ``COMMIT``
        frame of ``body``; either way it is one frame on the wire and
        one entry in the effects ledger.  ``ordinal`` counts the
        replicas that took the mutation before this one.
        """
        client = self.clients[index]
        try:
            if body is None:
                client.put(ops[0].key, ops[0].value, force=True)
            else:
                client.commit(ops, encoded=body)
        except (DriveOffline, TransientIOError):
            self.health.record_failure(index)
            self._m_replica_failures.labels("offline").inc()
            return False
        self.health.record_success(index)
        values = [op.value for op in ops if op.value is not None]
        kind = DISK_WRITE if values else DISK_DELETE
        self.effects.record(
            kind, index, sum(map(len, values)), len(ops), ordinal
        )
        return True

    # -- key ranges --------------------------------------------------------

    def _drive_keys(self, index: int) -> tuple[list[str], bool]:
        """One drive's object keys (``m/``), and whether it listed all.

        The one ``GETKEYRANGE`` pager.  A drive that fails mid-range
        contributes what it returned so far, and is counted as failing.
        A key that is not UTF-8 names no object: counted as corrupt.
        """
        prefix = b"m/"
        end_key = prefix + b"\xff" * 64
        names: list[str] = []
        cursor, inclusive = prefix, True
        while True:
            try:
                page = self.clients[index].get_key_range(
                    start_key=cursor, end_key=end_key,
                    max_returned=_RANGE_PAGE, start_inclusive=inclusive,
                )
            except KineticError as exc:
                # Unreachable, or a refusal or garbled reply for a page.
                lost = isinstance(exc, (DriveOffline, TransientIOError))
                self.health.record_failure(index)
                self._m_replica_failures.labels("offline" if lost else "corrupt").inc()
                return names, False
            self.health.record_success(index)
            self.effects.record(DISK_RANGE, index, sum(map(len, page)))
            for key in page:
                try:
                    names.append(key[len(prefix):].decode())
                except UnicodeDecodeError:
                    self._m_replica_failures.labels("corrupt").inc()
            if len(page) < _RANGE_PAGE:
                return names, True
            cursor, inclusive = page[-1], False

    def _covers(self, drives: set[int]) -> bool:
        """Whether ``drives`` hold ``read_quorum`` replicas of every
        placement, and so every acknowledged object between them."""
        count = len(self.clients)
        return all(
            len(drives.intersection(
                _window(primary, count, self.replication_factor)
            )) >= self.read_quorum
            for primary in range(count)
        )

    def _list(self) -> list[str]:
        """Every object key on the drives that answered, sorted.

        Breaker-open drives are not asked.  When the drives that listed
        their whole ranges cover every placement (:meth:`_covers`), the
        listing seeds the directory.
        """
        asked = [
            index for index in range(len(self.clients))
            if self.health.allow(index)
        ]
        names: set[str] = set()
        complete = set(asked)
        for index in asked:
            keys, whole = self._drive_keys(index)
            names.update(keys)
            if not whole:
                complete.discard(index)
        listed = sorted(names)
        if self._covers(complete):
            self.directory = listed
        return listed

    def scan_labels(self) -> list[str]:
        """Every object label present on any reachable drive.

        Used by :meth:`repro.core.freshness.FreshnessAuthority
        .bootstrap` to rebuild the authenticated dictionary at startup:
        the union over all drives of the ``m/`` key ranges.  Offline
        and breaker-open drives are skipped — whether the missing
        coverage matters is decided by the root comparison, not here.
        The same listing seeds the directory (:meth:`_list`).
        """
        return list(map(object_label, self._list()))

    def scan_keys(self, start_key: str, count: int) -> list[str]:
        """Object keys >= ``start_key``: a slice of the directory.

        The YCSB-E range scan reads no drive.  The controller is the
        fleet's only writer (§3.1), so after seeding the directory
        changes only with its own writes and reads (:meth:`_file`):
        no replica can hide a key from a scan, or add one that a GET
        would not find.  If
        bootstrap did not seed it, the first scan lists the ``m/``
        ranges to do so, and answers 503 while the drives that answer
        cannot.  While the drives whose breakers let a request through
        cannot cover the fleet, a scan answers 503 without asking any.
        """
        if count < 1:
            return []
        self.health.tick()
        if self.directory is None:
            if self._covers({
                index for index in range(len(self.clients))
                if self.health.due(index)
            }):
                with self.telemetry.span(
                    "kinetic.getkeyrange", key=start_key
                ):
                    self._list()
            if self.directory is None:
                raise DriveOffline(
                    "the drives that answered do not list every "
                    "placement: no scan until they do"
                )
        keys = self.directory
        at = bisect_left(keys, start_key)
        return keys[at:at + count]

    def _file(self, key: str, live: bool) -> None:
        """Bring the directory in step with a record of ``key`` that
        the store acknowledged writing or served (``live``), or with a
        delete of it: a scan lists what a GET would find."""
        keys = self.directory
        if keys is None:
            return
        at = bisect_left(keys, key)
        held = at < len(keys) and keys[at] == key
        if live and not held:
            keys.insert(at, key)
        elif held and not live:
            del keys[at]

    # -- authenticated freshness -------------------------------------------

    def _pinned_write(self, key: str, plain: bytes | None, ops: list[Op]) -> None:
        """Write ``ops``, one mutation of ``key``'s object label
        (``plain`` None: delete), to the replicas and then the SSD.

        Without an active freshness authority that is just the write.
        With one it is the write-ahead pin protocol: the new leaf is
        pinned *before* any replica sees the write (prepare), settled
        once the quorum acknowledged, and reverted — with the pending
        entry kept, since a minority replica may already hold the new
        record — when the write failed below quorum.
        """
        if not self._verifying():
            self._write_replicas(key, ops)
            self._mirror(ops, pinned=False)
            return
        label = object_label(key)
        self.freshness.prepare(
            label, None if plain is None else record_digest(plain)
        )
        try:
            self._write_replicas(key, ops)
        # Deliberately broad: whatever the write failed with, the
        # pending pin must be rolled back before the error propagates
        # — an abandoned prepare would wedge every later mutation.
        # pesos: allow[core-no-swallow]
        except Exception:
            self.freshness.abort(label)
            raise
        self.freshness.settle(label)
        self._mirror(ops, pinned=True)

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

    # -- record kinds: disk key and AAD ------------------------------------

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

    def _meta_record(self, key: str) -> tuple[bytes, bytes]:
        return self.meta_key(key), b"meta:" + key.encode()

    def _value_record(self, key: str, version: int) -> tuple[bytes, bytes]:
        slot = self._slot(version)
        aad = b"val:" + key.encode() + b":" + str(slot).encode()
        return self.value_key(key, slot), aad

    def _policy_record(self, policy_id: str) -> tuple[bytes, bytes]:
        return self.policy_key(policy_id), b"policy:" + policy_id.encode()

    # -- metadata ---------------------------------------------------------------

    def read_meta(self, key: str) -> StoredMeta | None:
        """Fetch object metadata; None when absent.

        When a freshness authority is active, a replica's record must
        hash to the leaf the pinned Merkle tree holds for the key
        (:meth:`_read_pinned`); otherwise the newest of a quorum serves
        (:meth:`_read_newest`).
        """
        disk_key, aad = self._meta_record(key)
        if self._verifying():
            plain = self._read_pinned(key, disk_key, aad)
            return None if plain is None else StoredMeta.decode(plain)
        return self._read_newest(key, disk_key, aad)

    def write_meta(self, meta: StoredMeta) -> None:
        """Rewrite the metadata record alone (repair, re-binding)."""
        plain = meta.encode()
        disk_key, aad = self._meta_record(meta.key)
        ops = [_forced(disk_key, self._seal(plain, aad))]
        self._pinned_write(meta.key, plain, ops)
        self._file(meta.key, live=True)

    # -- object content ------------------------------------------------------------

    def read_value(
        self, key: str, version: int, expect_sha256: str | None = None
    ) -> bytes:
        """One version's content; ``expect_sha256`` is the content hash
        its metadata records, which callers holding the record pass."""
        disk_key, aad = self._value_record(key, version)
        with self.telemetry.span("store.read_value", key=key,
                                 version=version):
            return self._read_matching(
                key, disk_key, aad, KIND_OBJECT, expect_sha256
            )

    # -- whole-object operations -----------------------------------------------------

    def store_version(
        self, meta: StoredMeta, value: bytes, policy_hash: str
    ) -> StoredMeta:
        """Write the next version of an object: content and the
        metadata record naming it, together or not at all per replica."""
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
        key = meta.key
        # ``meta`` (usually the cached record) changes only once the
        # write is acknowledged; until then this is a private copy.
        versions = dict(meta.versions)
        versions[new_version] = VersionMeta(
            version=new_version,
            size=len(value),
            content_hash=hashlib.sha256(value).hexdigest(),
            policy_hash=policy_hash,
        )
        dropped = sorted(versions)[:-VERSION_METADATA_WINDOW]
        for stale in dropped:
            del versions[stale]
        plain = StoredMeta(key, new_version, meta.policy_id, versions).encode()
        disk_key, aad = self._value_record(key, new_version)
        blob = self._seal(value, aad)
        ops = [_forced(disk_key, blob)]
        disk_key, aad = self._meta_record(key)
        ops.append(_forced(disk_key, self._seal(plain, aad)))
        if self.keep_history:
            # Out of the record means unreachable: free the content.
            # (Without history the one slot was just overwritten.)
            ops += [_forced(self.value_key(key, stale)) for stale in dropped]
        self._pinned_write(key, plain, ops)
        self._file(key, live=True)
        if not self.keep_history:
            # The new value overwrote the latest slot in place; only
            # the in-memory record needs pruning.
            versions.pop(meta.current_version, None)
        meta.current_version = new_version
        meta.versions = versions
        return meta

    def delete_object(self, meta: StoredMeta) -> None:
        """Remove every version and the metadata record, one frame per
        replica: a replica holds the whole object or none of it."""
        key = meta.key
        # Without history one slot backs every version: delete once.
        ops = [
            _forced(self.value_key(key, slot))
            for slot in dict.fromkeys(map(self._slot, meta.versions))
        ]
        ops.append(_forced(self.meta_key(key)))
        self._pinned_write(key, None, ops)
        self._file(key, live=False)

    # -- integrity maintenance ---------------------------------------------------

    def _audit(self, key: str, version_meta: VersionMeta):
        """Status of every replica of one version, read without failover.

        Returns ``({drive_index: status}, sealed blob of a copy that
        matched the recorded content hash, or None)``.
        """
        disk_key, aad = self._value_record(key, version_meta.version)
        statuses: dict[int, str] = {}
        healthy = None
        for index in self._replicas(key):
            try:
                blob = self._fetch(index, disk_key)
                value = self._open(blob, aad)
            except _CannotServe as signal:
                statuses[index] = signal.args[0]
                continue
            digest = hashlib.sha256(value).hexdigest()
            if digest == version_meta.content_hash:
                statuses[index] = "ok"
                healthy = healthy or blob
            else:
                statuses[index] = "corrupt"
        return statuses, healthy

    def scrub(self, meta: StoredMeta) -> list:
        """Audit every replica of every version of an object.

        Returns ``(version, drive_index, status)`` tuples with status
        ``ok`` / ``missing`` / ``corrupt`` / ``offline``.
        """
        report = []
        for version_meta in meta.versions.values():
            statuses, _healthy = self._audit(meta.key, version_meta)
            for index, status in statuses.items():
                report.append((version_meta.version, index, status))
        return report

    def repair(self, meta: StoredMeta) -> int:
        """Re-seed missing/corrupt replicas from a healthy copy.

        Used after a failed drive returns (anti-entropy).  Returns the
        number of replica blobs rewritten; versions with no healthy
        replica at all are left untouched (unrecoverable).
        """
        repaired = 0
        for version_meta in meta.versions.values():
            statuses, healthy = self._audit(meta.key, version_meta)
            if healthy is None:
                continue
            disk_key = self.value_key(
                meta.key, self._slot(version_meta.version)
            )
            repaired += self._reseed(disk_key, healthy, [
                index for index, status in statuses.items()
                if status in ("missing", "corrupt")
            ])
        # Ensure the metadata record is present everywhere too.
        self.write_meta(meta)
        return repaired

    # -- policies -----------------------------------------------------------------------

    def write_policy(self, blob: bytes) -> str:
        """Store a policy blob under its content address, the SHA-256
        of ``blob``, and return that id.  Bytes that name themselves
        cannot go stale, so no pin covers them (docs/freshness.md)."""
        policy_id = record_digest(blob)
        disk_key, aad = self._policy_record(policy_id)
        ops = [_forced(disk_key, self._seal(blob, aad))]
        self._write_replicas(policy_id, ops, kind=KIND_POLICY)
        return policy_id

    def read_policy(self, policy_id: str) -> bytes | None:
        """The blob whose SHA-256 is ``policy_id``, freshness on or off:
        a copy that opens but hashes otherwise is stale."""
        disk_key, aad = self._policy_record(policy_id)
        try:
            return self._read_matching(
                policy_id, disk_key, aad, KIND_POLICY, policy_id
            )
        except KineticNotFound:
            return None


class StoreBackedView(ObjectView):
    """An :class:`ObjectView` that lazily reads content for ``objSays``.

    Size/hash/policy-hash come from metadata without touching content;
    the content is fetched (through the object cache) only when a policy
    actually inspects what it says — and cached, per §4.2 ("we cache
    objects accessed during policy evaluation"), facts included.
    """

    def __init__(self, meta: StoredMeta, store: ObjectStore, cache):
        super().__init__(
            object_id=meta.key, current_version=meta.current_version
        )
        self._meta = meta
        self._store = store
        self._cache = cache

    def info(self, version: int) -> VersionInfo | None:
        info = self.versions.get(version)
        version_meta = self._meta.versions.get(version)
        if info is None and version_meta is not None:
            info = self.versions[version] = VersionInfo(
                size=version_meta.size,
                content_hash=version_meta.content_hash,
                policy_hash=version_meta.policy_hash,
                load=partial(
                    self._load_facts, version, version_meta.content_hash
                ),
            )
        return info

    def _load_facts(self, version: int, content_hash: str) -> Facts:
        """Resolve the content as a GET would (one object-cache lookup;
        on a miss a read anchored by the metadata's content hash, then
        cached), and ask the cache what exactly those bytes say."""
        cache_key = f"{self.object_id}@{version}"
        value = self._cache.get_object(cache_key)
        if value is None:
            value = self._store.read_value(
                self.object_id, version, expect_sha256=content_hash
            )
            self._cache.put_object(cache_key, value)
        return self._cache.facts(cache_key, value)
