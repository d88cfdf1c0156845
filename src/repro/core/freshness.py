"""Authenticated freshness over object metadata.

Pesos encrypts and authenticates every blob it stores, so a malicious
cloud cannot *forge* data — but it can still *replay* it: serve a
stale-but-correctly-sealed replica of an object's ``m/`` record
(rolling an acknowledged write back), or restore the whole fleet from
an old snapshot across a controller restart (forking history).  The
drives' version numbers are no defense: they live inside the replayed
blobs and are exactly as old as the data.

This module closes that hole with the mechanism of authenticated
key-value stores rooted in an enclave:

- A **sparse Merkle tree** (:class:`MerkleTree`) over every object
  label ``o/<key>``, whose leaves are SHA-256 digests of the
  *plaintext* ``m/`` records.  The tree lives in enclave memory; its
  root is what the pin commits to.  A policy blob needs no leaf: its
  id is its SHA-256, so a read checks the blob against the id it asked
  for, and no replica can serve an older version of it.
- A **sealed, monotonically-advancing pin**: every object mutation
  advances the platform's :class:`repro.sgx.enclave.MonotonicCounter`
  and stores ``seal(root ‖ counter ‖ vnow ‖ pending)`` (:func:`pack_pin`), sealed by the
  controller's own enclave, in the platform's untrusted ``pin_slot``
  (:class:`repro.sgx.attestation.SgxPlatform`).  Counter and slot
  outlive the enclave, so a replayed sealed pin (correctly sealed, but
  stale) is caught by a counter mismatch at the next launch.
- **Verified reads**: the store asks :meth:`FreshnessAuthority
  .acceptable` for the leaf digest the tree holds and compares each
  replica's ``m/`` record digest with it; a replica that does not match is
  rejected as stale, failed over, and repaired.  A label the tree does
  not hold answers absent, so a replayed record of a deleted object
  can never resurrect it.
- **Fork detection at startup** (:meth:`FreshnessAuthority.bootstrap`):
  the controller unseals the pin, checks the sealed counter against
  the hardware counter, rebuilds the tree from the freshest drive
  state, and refuses to serve (:class:`~repro.errors.ForkDetected`)
  when the fleet proves a root the counter never pinned.

Crash consistency: pins are written *ahead* of the drive write, with
the in-flight mutation recorded as a ``pending`` entry (label, other
leaf, pinned leaf).  A crash between pin and drive write leaves the
fleet proving the other leaf — startup accepts either side of a
pending entry and re-pins whatever the drives prove.  The inherent
residual window (shared with lightweight-collective-memory designs) is
the single most recent unsettled mutation; everything older is
rollback-protected.

No read builds a Merkle proof.  A proof convinces a verifier that holds
only the root; here the verifier is the enclave that holds the whole
tree, and the tree never leaves enclave memory, so the leaf it holds is
the pinned leaf.  A read costs one SHA-256 over each candidate record.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from types import SimpleNamespace

from repro.errors import AttestationError, CryptoError, ForkDetected, KineticError
from repro.sgx.enclave import Enclave
from repro.telemetry import NULL_TELEMETRY

#: Label prefix in the authenticated dictionary.
LABEL_OBJECT = "o/"

#: Tree depth: 16 bits of the label hash pick the bucket slot, so an
#: update rehashes 16 nodes regardless of dictionary size.
TREE_DEPTH = 16


def object_label(key: str) -> str:
    return LABEL_OBJECT + key


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Leaf digest of one plaintext metadata record.
record_digest = _h


def _empty_hashes() -> list[bytes]:
    """Digest of an all-empty subtree, per level (root first)."""
    levels = [hashlib.sha256(b"pesos-freshness-empty-bucket").digest()]
    for _ in range(TREE_DEPTH):
        levels.append(hashlib.sha256(levels[-1] * 2).digest())
    return levels[::-1]


_EMPTY = _empty_hashes()


class MerkleTree:
    """Sparse Merkle tree over label → leaf-digest mappings.

    Labels hash to one of ``2**TREE_DEPTH`` bucket slots; each bucket
    holds its labels sorted, so the structure (and every root) is a
    pure function of the mapping — independent of insertion order,
    which is what makes same-seed runs byte-reproducible.  Updates
    rewrite one bucket and the ``TREE_DEPTH`` nodes above it; a subtree
    no update has reached hashes to a precomputed constant and is not
    stored.  Nodes are raw 32-byte digests, one dict per level keyed by
    index; only :attr:`root` spells one in hex.
    """

    def __init__(self):
        self._digests: dict[str, str] = {}
        self._buckets: dict[int, list[str]] = {}
        #: Per level, root first: the nodes some update has written.
        self._levels: list[dict[int, bytes]] = [{} for _ in _EMPTY]
        #: Bucket to root: each level's nodes and its empty digest.
        self._path = list(zip(self._levels[:0:-1], _EMPTY[:0:-1]))
        #: Bytes digested, for the deterministic overhead bench (crypto
        #: work, not wall time).
        self.hash_bytes = 0

    def __len__(self) -> int:
        return len(self._digests)

    @staticmethod
    def slot_of(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(b"slot:" + label.encode()).digest()[:2], "big"
        )

    def get(self, label: str) -> str | None:
        return self._digests.get(label)

    def set(self, label: str, digest: str | None) -> None:
        """Bind ``label`` to ``digest`` (``None`` removes it)."""
        slot = self.slot_of(label)
        bucket = self._buckets.setdefault(slot, [])
        present = label in self._digests
        if digest is None:
            if not present:
                return
            del self._digests[label]
            bucket.remove(label)
            if not bucket:
                del self._buckets[slot]
        else:
            if not present:
                bisect.insort(bucket, label)
            self._digests[label] = digest
        self._update_path(slot)

    @property
    def root(self) -> str:
        return self._levels[0].get(0, _EMPTY[0]).hex()

    # -- hashing ----------------------------------------------------------

    def _bucket_hash(self, slot: int) -> bytes:
        names = self._buckets.get(slot)
        if not names:
            return _EMPTY[TREE_DEPTH]
        body = b"bucket:" + "\n".join(
            f"{name}={self._digests[name]}" for name in names
        ).encode()
        self.hash_bytes += len(body)
        return hashlib.sha256(body).digest()

    def _update_path(self, slot: int) -> None:
        digest = self._bucket_hash(slot)
        index = slot
        sha256 = hashlib.sha256
        for nodes, empty in self._path:
            nodes[index] = digest
            sibling = nodes.get(index ^ 1, empty)
            digest = sha256(
                sibling + digest if index & 1 else digest + sibling
            ).digest()
            index >>= 1
        self.hash_bytes += 64 * TREE_DEPTH
        self._levels[0][0] = digest


#: A pin payload: root, counter, vnow and the number of pending entries;
#: then per pending label, ascending, its UTF-8 length (u32: any key the
#: store takes packs) and bytes and its other and pinned leaf, each 32
#: raw bytes (zeros: absent).
_PIN = struct.Struct(">32sQdI")
_ABSENT = bytes(32)


def pack_pin(root: str, counter: int, vnow: float, pending: dict) -> bytes:
    """The payload a pin seals (docs/freshness.md, "The pin protocol")."""
    out = [_PIN.pack(bytes.fromhex(root), counter, vnow, len(pending))]
    for label, sides in sorted(pending.items()):
        raw = label.encode()
        out += [len(raw).to_bytes(4, "big"), raw]
        out += [_ABSENT if side is None else bytes.fromhex(side) for side in sides]
    return b"".join(out)


def unpack_pin(payload: bytes) -> tuple[str, int, float, dict]:
    """Inverse of :func:`pack_pin`; ValueError unless ``payload`` is
    exactly what it packs.  There is no reader for any other layout."""
    if len(payload) < _PIN.size:
        raise ValueError("pin payload shorter than its head")
    root, counter, vnow, count = _PIN.unpack_from(payload)
    pending, pos, last = {}, _PIN.size, None
    for _ in range(count):
        end = pos + 4 + int.from_bytes(payload[pos:pos + 4], "big")
        label, sides, pos = payload[pos + 4:end], (end, end + 32), end + 64
        if pos > len(payload) or last is not None and label <= last:
            raise ValueError("pending entry runs past the payload or out of order")
        pending[label.decode()] = tuple(
            None if payload[at:at + 32] == _ABSENT else payload[at:at + 32].hex()
            for at in sides
        )
        last = label
    if pos != len(payload):
        raise ValueError("bytes after the last pending entry")
    return root.hex(), counter, vnow, pending


def _seal_pin(enclave: Enclave, root: str, pending: dict, vnow: float):
    """Advance the platform counter and store ``seal(root ‖ counter)``
    in its pin slot; return the counter and the payload's length."""
    platform = enclave.platform
    counter = platform.counter.increment()
    payload = pack_pin(root, counter, vnow, pending)
    platform.pin_slot = enclave.seal(payload)
    return counter, len(payload)


def pin_new_fleet(enclave: Enclave) -> None:
    """Pin the empty root before taking over a factory fleet: its first
    bootstrap then boots clean on empty drives and forks on drives that
    still hold records, whatever an earlier fleet left pinned."""
    _seal_pin(enclave, _EMPTY[0].hex(), {}, 0.0)


class FreshnessAuthority:
    """The enclave-rooted freshness oracle the store consults.

    One instance per controller; see the module docstring for the
    protocol.  Thread-safety under the green-thread engine comes for
    free: :meth:`prepare`/:meth:`settle` never touch a drive, so they
    run atomically between preemption points.
    """

    def __init__(self, enclave: Enclave, telemetry=None, auditor=None):
        #: Seals and unseals pins; the platform that launched it holds
        #: the counter and the pin slot.
        self.enclave = enclave
        self.platform = enclave.platform
        self.tree = MerkleTree()
        #: Always zero: the wall benchmark's counter snapshot
        #: (benchmarks/wall/harness.py:197-200) still reads a lookup
        #: cache's hits and misses off the authority.
        self.cache = SimpleNamespace(hits=0, misses=0)
        #: In-flight mutations: label -> (other leaf, pinned leaf), the
        #: second always the one the tree holds; either side is
        #: acceptable until the mutation settles.
        self.pending: dict[str, tuple[str | None, str | None]] = {}
        self.auditor = auditor
        #: Serving state: inactive until bootstrap; forked means the
        #: controller refuses every request.
        self.active = False
        self.forked = False
        self.fork_reason = ""
        #: Virtual time of the current request (set by the controller
        #: per request, so pin records carry deterministic timestamps).
        self.vnow = 0.0
        self.last_pin_vnow = 0.0
        self.pins = 0
        self.seal_bytes = 0
        self.stale_rejected = 0
        #: Candidate-record bytes hashed during verified reads (crypto
        #: work the unverified read path does not do), for the overhead
        #: bench.
        self.leaf_hash_bytes = 0
        self._publish(telemetry or NULL_TELEMETRY)

    def _publish(self, telemetry) -> None:
        """Counters and gauges read off this authority at scrape time."""
        telemetry.derived(
            "pesos_freshness_pins_total",
            "counter",
            "Sealed root pins persisted (counter advances).",
            lambda: self.pins,
        )
        telemetry.derived(
            "pesos_freshness_stale_rejected_total",
            "counter",
            "Replica records rejected for proving a stale leaf.",
            lambda: self.stale_rejected,
        )
        telemetry.derived(
            "pesos_freshness_epoch",
            "gauge",
            "Current pin epoch (monotonic counter value).",
            lambda: self.epoch,
        )
        telemetry.derived(
            "pesos_freshness_last_pin_vnow",
            "gauge",
            "Virtual time of the most recent root pin.",
            lambda: self.last_pin_vnow,
        )
        telemetry.derived(
            "pesos_fork_detected",
            "gauge",
            "1 while the controller refuses to serve after fork "
            "detection, else 0.",
            lambda: int(self.forked),
        )

    # -- state ------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current pin epoch (the hardware counter value)."""
        return self.platform.counter.read()

    @property
    def root(self) -> str:
        return self.tree.root

    def snapshot(self) -> dict:
        """The ``/_health`` freshness block."""
        return {
            "enabled": True,
            "active": self.active,
            "forked": self.forked,
            "fork_reason": self.fork_reason,
            "epoch": self.epoch,
            "root": self.root,
            "tracked_labels": len(self.tree),
            "pending": len(self.pending),
            "pins": self.pins,
            "last_pin_vnow": self.last_pin_vnow,
            "stale_rejected": self.stale_rejected,
        }

    # -- pinning ----------------------------------------------------------

    def _pin(self, event: str) -> None:
        """Advance the counter and persist ``seal(root ‖ counter)``.

        Every persist — prepare, settle, abort, bootstrap — bumps the
        hardware counter and seals the *new* value, so any previously
        persisted blob is immediately stale and a replay of it fails
        the counter check at the next startup.
        """
        counter, size = _seal_pin(
            self.enclave, self.tree.root, self.pending, self.vnow
        )
        self.seal_bytes += size
        self.pins += 1
        self.last_pin_vnow = self.vnow
        if self.auditor is not None:
            self.auditor.record_pin(
                vnow=self.vnow,
                epoch=counter,
                root=self.tree.root,
                event=event,
            )

    def prepare(self, label: str, digest: str | None) -> None:
        """Write-ahead pin for one mutation (``None`` digest = delete)."""
        old = self.tree.get(label)
        self.tree.set(label, digest)
        self.pending[label] = (old, digest)
        self._pin("prepare")

    def settle(self, label: str) -> None:
        """The drive write acknowledged: retire the pending entry."""
        if self.pending.pop(label, None) is not None:
            self._pin("settle")

    def abort(self, label: str) -> None:
        """The drive write failed below quorum: revert the leaf.

        The pending entry is *kept* (some replica may have taken the
        write before the quorum failed), so reads and the next startup
        accept either side until anti-entropy converges the fleet; its
        sides swap, so the pinned leaf stays second.
        """
        entry = self.pending.get(label)
        if entry is None:
            return
        other, pinned = entry
        self.pending[label] = (pinned, other)
        self.tree.set(label, other)
        self._pin("abort")

    # -- verified lookups -------------------------------------------------

    def _gate(self) -> None:
        if self.forked:
            # The fork reason quotes unsealed *pin state* — counter
            # readings and root digests, enclave-attested integrity
            # metadata rather than object content; surfacing it is the
            # whole point of fork detection.
            # pesos: allow[taint/exception-message]
            raise ForkDetected(
                f"controller refuses to serve: {self.fork_reason}"
            )

    def expected(self, label: str) -> str | None:
        """The leaf digest the pinned tree holds for ``label``.

        A plain lookup: the tree is the one the pin commits to and it
        never leaves enclave memory, so there is no outside copy whose
        proof would need checking against the root.
        """
        self._gate()
        return self.tree.get(label)

    def acceptable(self, label: str):
        """``(expected, allowed)`` digests for one verified read.

        ``expected`` is the pinned leaf (None = absent from the tree);
        ``allowed`` additionally admits both sides of an unsettled
        pending mutation, which is how reads stay available across the
        prepare→write crash window.
        """
        expected = self.expected(label)
        allowed = {expected}
        entry = self.pending.get(label)
        if entry is not None:
            allowed.update(entry)
        return expected, allowed

    def leaf_digest(self, plain: bytes) -> str:
        """Hash one candidate record, counting the crypto work."""
        self.leaf_hash_bytes += len(plain)
        return record_digest(plain)

    def reject_stale(self, label: str) -> None:
        """Count one replica rejected for proving a stale leaf."""
        self.stale_rejected += 1

    # -- bootstrap / fork detection ---------------------------------------

    def _fork(self, reason: str) -> None:
        self.forked = True
        self.active = False
        self.fork_reason = reason
        if self.auditor is not None:
            self.auditor.record_fork(vnow=self.vnow, reason=reason)

    def bootstrap(self, store) -> None:
        """Fork detection at controller startup.

        Must run *before* the store is wired to this authority (reads
        during the rebuild are raw quorum reads).  On success the tree
        holds the drive-proved state, a fresh pin commits the restart
        epoch, and :attr:`active` flips on.  On any divergence the
        authority enters the forked state and the controller refuses
        to serve.
        """
        blob = self.platform.pin_slot
        hw_counter = self.platform.counter.read()
        if blob is None:
            if hw_counter != 0:
                self._fork(
                    f"sealed pin state missing but the monotonic counter "
                    f"reads {hw_counter}: pin storage was destroyed"
                )
                return
            # The platform never pinned: adopt whatever the fleet
            # holds (trust on first use) and pin it.  ``launch`` pins
            # a new fleet before it gets here.
            if self._rebuild_from(store):
                self.active = True
                self._pin("bootstrap")
            return
        try:
            root, counter, _vnow, pending = unpack_pin(
                self.enclave.unseal(blob)
            )
        except (AttestationError, ValueError):
            self._fork(
                "sealed pin state does not unseal: foreign or corrupt seal"
            )
            return
        if counter != hw_counter:
            # The audited fork reason quotes the unsealed pin state's
            # counter — an integrity reading the chain must record,
            # not secret content.
            # pesos: allow[taint/audit-entry]
            self._fork(
                f"sealed pin carries counter {counter} but the "
                f"monotonic counter reads {hw_counter}: stale sealed "
                f"state was replayed"
            )
            return
        if not self._rebuild_from(store):
            return
        if self.tree.root != root:
            # The only legitimate divergence is an unsettled mutation
            # the drives did not settle: substituting each pending
            # label's *pinned* leaf must reproduce the pinned root, and
            # the drives must prove one of the two pending sides.
            restore: list[tuple[str, str | None]] = []
            resolvable = True
            for label, (other, pinned) in sorted(pending.items()):
                proved = self.tree.get(label)
                if proved not in (other, pinned):
                    resolvable = False
                    break
                restore.append((label, proved))
                self.tree.set(label, pinned)
            if not resolvable or self.tree.root != root:
                self._fork(
                    "drive fleet proves a metadata root the monotonic "
                    "counter never pinned: rollback or fork of drive state"
                )
                return
            # Adopt what the drives actually prove and re-pin it.
            for label, proved in restore:
                self.tree.set(label, proved)
        self.pending = {}
        self.active = True
        self._pin("bootstrap")

    def _rebuild_from(self, store) -> bool:
        """Rebuild the tree from the freshest reachable object records,
        read without repair; False, forked, if one does not open."""
        for label in store.scan_labels():
            key = label[len(LABEL_OBJECT):]
            try:
                meta = store._read_newest(
                    key, *store._meta_record(key), repair=False
                )
            except CryptoError:
                self._fork(
                    "no replica of a metadata record opens under this "
                    "enclave's storage key: a foreign or corrupt fleet"
                )
                return False
            except KineticError:
                # Unreachable during rebuild: the label stays out of
                # the tree; the root comparison decides whether that
                # is fatal.
                continue
            if meta is not None:
                self.tree.set(label, record_digest(meta.encode()))
        return True


__all__ = [
    "FreshnessAuthority",
    "MerkleTree",
    "TREE_DEPTH",
    "object_label",
    "pack_pin",
    "pin_new_fleet",
    "record_digest",
    "unpack_pin",
]
