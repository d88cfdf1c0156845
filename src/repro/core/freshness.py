"""Authenticated freshness over object/policy metadata.

Pesos encrypts and authenticates every blob it stores, so a malicious
cloud cannot *forge* data — but it can still *replay* it: serve a
stale-but-correctly-sealed replica of an object's ``m/`` record
(rolling an acknowledged write back), or restore the whole fleet from
an old snapshot across a controller restart (forking history).  The
drives' version numbers are no defense: they live inside the replayed
blobs and are exactly as old as the data.

This module closes that hole with the mechanism of authenticated
key-value stores rooted in an enclave:

- A **sparse Merkle tree** (:class:`MerkleTree`) over every metadata
  label — ``o/<key>`` for object records, ``p/<id>`` for policy blobs
  — whose leaves are SHA-256 digests of the *plaintext* records.  The
  tree lives in enclave memory and supports membership and absence
  proofs against its root.
- A **sealed, monotonically-advancing pin**: every metadata mutation
  advances the platform's :class:`repro.sgx.enclave.MonotonicCounter`
  and stores ``seal(root ‖ counter ‖ vnow ‖ pending)`` (:func:`pack_pin`), sealed by the
  controller's own enclave, in the platform's untrusted ``pin_slot``
  (:class:`repro.sgx.attestation.SgxPlatform`).  Counter and slot
  outlive the enclave, so a replayed sealed pin (correctly sealed, but
  stale) is caught by a counter mismatch at the next launch.
- **Verified reads**: the store asks :meth:`FreshnessAuthority
  .acceptable` for the pinned leaf digest (a proof generated from the
  tree and verified against the pinned root); replicas whose record
  digest does not match are rejected as stale, failed over, and
  repaired.  Absence is proven the same way, so a replayed record of
  a deleted object can never resurrect it.
- **Fork detection at startup** (:meth:`FreshnessAuthority.bootstrap`):
  the controller unseals the pin, checks the sealed counter against
  the hardware counter, rebuilds the tree from the freshest drive
  state, and refuses to serve (:class:`~repro.errors.ForkDetected`)
  when the fleet proves a root the counter never pinned.

Crash consistency: pins are written *ahead* of the drive write, with
the in-flight mutation recorded as a ``pending`` entry (label, old
leaf, new leaf).  A crash between pin and drive write leaves the fleet
proving the old leaf — startup accepts either side of a pending entry
and re-pins whatever the drives prove.  The inherent residual window
(shared with lightweight-collective-memory designs) is the single most
recent unsettled mutation; everything older is rollback-protected.

The proof hot path is cached: :class:`ProofCache` memoizes verified
leaf digests keyed by the pin epoch (the counter value), so steady-
state reads cost one SHA-256 over the record instead of a full proof
verification.  Any pin advance changes the epoch and implicitly
invalidates every cached proof.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from dataclasses import dataclass

from repro.errors import (
    AttestationError,
    DriveOffline,
    ForkDetected,
    FreshnessError,
    KineticError,
    TransientIOError,
)
from repro.sgx.enclave import Enclave
from repro.telemetry import NULL_TELEMETRY

#: Label prefixes in the authenticated dictionary.
LABEL_OBJECT = "o/"
LABEL_POLICY = "p/"

#: Tree depth: 16 bits of the label hash pick the bucket slot, so the
#: proof path is 16 sibling hashes regardless of dictionary size.
TREE_DEPTH = 16


def object_label(key: str) -> str:
    return LABEL_OBJECT + key


def policy_label(policy_id: str) -> str:
    return LABEL_POLICY + policy_id


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


@dataclass(frozen=True)
class FreshnessProof:
    """Membership/absence proof for one label against a pinned root.

    ``items`` is the full (label, digest) content of the label's
    bucket — membership shows the pair present, absence shows the
    bucket without it — and ``siblings`` are the ``TREE_DEPTH`` sibling
    hashes from the bucket up to the root.
    """

    label: str
    slot: int
    items: tuple
    siblings: tuple


class MerkleTree:
    """Sparse Merkle tree over label → leaf-digest mappings.

    Labels hash to one of ``2**TREE_DEPTH`` bucket slots; each bucket
    holds its labels sorted, so the structure (and every root) is a
    pure function of the mapping — independent of insertion order,
    which is what makes same-seed runs byte-reproducible.  Updates
    rewrite one bucket and the ``TREE_DEPTH`` nodes above it; a subtree
    no update has reached hashes to a precomputed constant and is not
    stored.  Nodes are raw 32-byte digests, one dict per level keyed by
    index; they are spelled in hex only where the tree is read from
    outside (:attr:`root`, :meth:`prove`, :meth:`verify`).
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

    def _items(self, slot: int) -> tuple:
        return tuple(
            (name, self._digests[name])
            for name in self._buckets.get(slot, ())
        )

    def _bucket_hash(self, items: tuple) -> bytes:
        if not items:
            return _EMPTY[TREE_DEPTH]
        body = b"bucket:" + "\n".join(
            f"{name}={digest}" for name, digest in items
        ).encode()
        self.hash_bytes += len(body)
        return hashlib.sha256(body).digest()

    def _update_path(self, slot: int) -> None:
        digest = self._bucket_hash(self._items(slot))
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

    # -- proofs -----------------------------------------------------------

    def prove(self, label: str) -> FreshnessProof:
        """Membership (or absence) proof for ``label``."""
        slot = index = self.slot_of(label)
        siblings = []
        for nodes, empty in self._path:
            siblings.append(nodes.get(index ^ 1, empty).hex())
            index >>= 1
        return FreshnessProof(
            label=label, slot=slot, items=self._items(slot),
            siblings=tuple(siblings),
        )

    def verify(self, root: str, proof: FreshnessProof) -> str | None:
        """Check ``proof`` against ``root``; return the proven digest.

        Returns the label's leaf digest for a membership proof, None
        for a verified absence proof; raises
        :class:`~repro.errors.FreshnessError` when the proof does not
        reproduce the root (tampered bucket or path).
        """
        if proof.slot != self.slot_of(proof.label):
            raise FreshnessError(
                f"proof slot {proof.slot} does not match label "
                f"{proof.label!r}"
            )
        digest = self._bucket_hash(proof.items)
        index = proof.slot
        for sibling in map(bytes.fromhex, proof.siblings):
            digest = hashlib.sha256(
                sibling + digest if index & 1 else digest + sibling
            ).digest()
            index >>= 1
        self.hash_bytes += 64 * len(proof.siblings)
        if digest.hex() != root:
            raise FreshnessError(
                f"proof for {proof.label!r} does not reproduce the "
                f"pinned root"
            )
        for name, leaf in proof.items:
            if name == proof.label:
                return leaf
        return None


class ProofCache:
    """Verified leaf digests, keyed by (pin epoch, label).

    Entries are valid only for the epoch (monotonic-counter value)
    they were verified under; a pin advance bumps the epoch, which
    lazily invalidates every entry — no sweep, no per-entry bookkeeping
    on the pin path.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: dict[str, tuple[int, str | None]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, epoch: int, label: str):
        """``(found, digest)`` — found is False on miss or stale epoch."""
        entry = self._entries.get(label)
        if entry is not None and entry[0] == epoch:
            self.hits += 1
            return True, entry[1]
        self.misses += 1
        return False, None

    def put(self, epoch: int, label: str, digest: str | None) -> None:
        if len(self._entries) >= self.capacity and label not in self._entries:
            # Deterministic relief valve: drop the whole map rather
            # than track per-entry recency (entries re-verify in one
            # proof each).
            self._entries.clear()
        self._entries[label] = (epoch, digest)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)


#: A pin payload: root, counter, vnow and the number of pending entries;
#: then per pending label, ascending, its UTF-8 length (u32: any key the
#: store takes packs) and bytes and its old and new leaf, each 32 raw
#: bytes (zeros: absent).
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
        self.cache = ProofCache()
        #: In-flight mutations: label -> (old leaf, new leaf); either
        #: side is acceptable until the mutation settles.
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
        self.seals = 0
        self.seal_bytes = 0
        self.proofs_verified = 0
        self.proofs_failed = 0
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
            "pesos_freshness_proofs_total",
            "counter",
            "Merkle proofs checked against the pinned root.",
            lambda: [
                ("verified", self.proofs_verified),
                ("failed", self.proofs_failed),
            ],
            ("outcome",),
        )
        telemetry.derived(
            "pesos_freshness_stale_rejected_total",
            "counter",
            "Replica records rejected for proving a stale leaf.",
            lambda: self.stale_rejected,
        )
        telemetry.derived(
            "pesos_freshness_proof_cache_total",
            "counter",
            "Proof-cache lookups by result.",
            lambda: [("hit", self.cache.hits), ("miss", self.cache.misses)],
            ("result",),
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
            "proofs_verified": self.proofs_verified,
            "proofs_failed": self.proofs_failed,
            "stale_rejected": self.stale_rejected,
            "proof_cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_ratio": round(self.cache.hit_ratio, 4),
            },
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
        self.seals += 1
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
        accept either side until anti-entropy converges the fleet.
        """
        entry = self.pending.get(label)
        if entry is None:
            return
        self.tree.set(label, entry[0])
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
        """The proof-verified leaf digest pinned for ``label``.

        Cache hit: no hashing at all.  Miss: generate a proof from the
        tree, verify it against the pinned root, memoize under the
        current epoch.
        """
        self._gate()
        found, digest = self.cache.get(self.epoch, label)
        if found:
            return digest
        proof = self.tree.prove(label)
        try:
            digest = self.tree.verify(self.tree.root, proof)
        except FreshnessError:
            self.proofs_failed += 1
            raise
        self.proofs_verified += 1
        self.cache.put(self.epoch, label, digest)
        return digest

    def acceptable(self, label: str):
        """``(expected, allowed)`` digests for one verified read.

        ``expected`` is the pinned leaf (None = proven absent);
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
            self._rebuild_from(store)
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
        self._rebuild_from(store)
        if self.tree.root != root:
            # The only legitimate divergence is an unsettled mutation
            # that never reached the drives: substituting each pending
            # label's *new* leaf must reproduce the pinned root, and
            # the drives must prove one of the two pending sides.
            restore: list[tuple[str, str | None]] = []
            resolvable = True
            for label, (old, new) in sorted(pending.items()):
                proved = self.tree.get(label)
                if proved not in (old, new):
                    resolvable = False
                    break
                restore.append((label, proved))
                self.tree.set(label, new)
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

    def _rebuild_from(self, store) -> None:
        """Rebuild the tree from the freshest reachable drive state."""
        for label in store.scan_labels():
            if label.startswith(LABEL_OBJECT):
                key = label[len(LABEL_OBJECT):]
                try:
                    meta = store.read_meta(key)
                except KineticError:
                    # Unreachable during rebuild: the label stays out
                    # of the tree; the root comparison decides whether
                    # that is fatal.
                    continue
                if meta is not None:
                    self.tree.set(label, record_digest(meta.encode()))
            else:
                policy_id = label[len(LABEL_POLICY):]
                try:
                    blob = store.read_policy(policy_id)
                except (DriveOffline, TransientIOError):
                    continue
                if blob is not None:
                    self.tree.set(label, record_digest(blob))


__all__ = [
    "FreshnessAuthority",
    "FreshnessProof",
    "MerkleTree",
    "ProofCache",
    "TREE_DEPTH",
    "object_label",
    "pack_pin",
    "pin_new_fleet",
    "policy_label",
    "record_digest",
    "unpack_pin",
]
