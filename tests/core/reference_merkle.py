"""Reference Merkle tree: the hex-string implementation whose roots every
pin and audit record so far was taken over.

``repro.core.freshness.MerkleTree`` keeps its nodes as raw 32-byte
digests in one dict per level; this copy keeps them as hex strings keyed
by ``(level, index)``, as the tree first shipped, and stays here,
unoptimised, as the oracle ``test_merkle_differential.py`` compares the
shipped tree against: roots must agree byte for byte.  It keeps the
membership and absence proofs the shipped tree no longer builds (the
shipped tree never leaves the enclave, so a read looks its leaf up);
the leaf a proof verifies against this tree's root is the oracle for
that lookup.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

from repro.core.freshness import TREE_DEPTH
from repro.errors import FreshnessError


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _empty_hashes() -> list[str]:
    """Subtree hash of an all-empty subtree, per level (root first)."""
    levels = [""] * (TREE_DEPTH + 1)
    levels[TREE_DEPTH] = _h(b"pesos-freshness-empty-bucket")
    for level in range(TREE_DEPTH - 1, -1, -1):
        child = bytes.fromhex(levels[level + 1])
        levels[level] = _h(child + child)
    return levels


_EMPTY = _empty_hashes()


@dataclass(frozen=True)
class FreshnessProof:
    """Membership/absence proof for one label against a root.

    ``items`` is the full (label, digest) content of the label's
    bucket — membership shows the pair present, absence shows the
    bucket without it — and ``siblings`` are the ``TREE_DEPTH`` sibling
    hashes from the bucket up to the root.
    """

    label: str
    slot: int
    items: tuple
    siblings: tuple


class ReferenceMerkleTree:
    """Sparse Merkle tree over label -> leaf-digest mappings, hex nodes."""

    def __init__(self):
        self._digests: dict[str, str] = {}
        self._buckets: dict[int, list[str]] = {}
        self._nodes: dict[tuple[int, int], str] = {}
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
        return self._nodes.get((0, 0), _EMPTY[0])

    def _hash(self, data: bytes) -> str:
        self.hash_bytes += len(data)
        return _h(data)

    def _items(self, slot: int) -> tuple:
        return tuple(
            (name, self._digests[name])
            for name in self._buckets.get(slot, ())
        )

    def _bucket_hash(self, items: tuple) -> str:
        if not items:
            return _EMPTY[TREE_DEPTH]
        body = "\n".join(f"{name}={digest}" for name, digest in items)
        return self._hash(b"bucket:" + body.encode())

    def _node(self, level: int, index: int) -> str:
        return self._nodes.get((level, index), _EMPTY[level])

    def _update_path(self, slot: int) -> None:
        digest = self._bucket_hash(self._items(slot))
        index = slot
        for level in range(TREE_DEPTH, 0, -1):
            if digest == _EMPTY[level]:
                self._nodes.pop((level, index), None)
            else:
                self._nodes[(level, index)] = digest
            sibling = self._node(level, index ^ 1)
            pair = sibling + digest if index & 1 else digest + sibling
            digest = self._hash(bytes.fromhex(pair))
            index >>= 1
        if digest == _EMPTY[0]:
            self._nodes.pop((0, 0), None)
        else:
            self._nodes[(0, 0)] = digest

    def prove(self, label: str) -> FreshnessProof:
        slot = self.slot_of(label)
        items = self._items(slot)
        siblings = []
        index = slot
        for level in range(TREE_DEPTH, 0, -1):
            siblings.append(self._node(level, index ^ 1))
            index >>= 1
        return FreshnessProof(
            label=label, slot=slot, items=items, siblings=tuple(siblings)
        )

    def verify(self, root: str, proof: FreshnessProof) -> str | None:
        if proof.slot != self.slot_of(proof.label):
            raise FreshnessError("proof slot does not match its label")
        digest = self._bucket_hash(proof.items)
        index = proof.slot
        for sibling in proof.siblings:
            pair = sibling + digest if index & 1 else digest + sibling
            digest = self._hash(bytes.fromhex(pair))
            index >>= 1
        if digest != root:
            raise FreshnessError("proof does not reproduce the pinned root")
        for name, leaf in proof.items:
            if name == proof.label:
                return leaf
        return None
