"""The shipped raw-digest Merkle tree against the frozen hex-string one.

``tests/core/reference_merkle.py`` is the tree as it first shipped:
nodes as hex strings keyed by ``(level, index)``.  Every pin and audit
record so far was taken over its roots, so the shipped tree must agree
with it byte for byte: equal roots after every step of a seeded random
set/delete sequence, roots that do not depend on insertion order,
proofs that verify (and that the reference verifies too), and absence
proofs for every label not bound.

``CHAOS_SEED`` is read as ``tests/faults/conftest.py`` reads it, so each
leg of the CI ``chaos`` job draws other sequences; locally it is 0.
"""

import os
import random

import pytest

from repro.core.freshness import MerkleTree, object_label, policy_label, record_digest

from tests.core.reference_merkle import ReferenceMerkleTree

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: A label pool small enough that sequences rebind and delete often and
#: large enough that some labels share a bucket slot or a sibling.
POOL = [object_label(f"key-{index}") for index in range(500)] + [
    policy_label(f"{index:064x}") for index in range(100)
]


def _shared_slots() -> list[str]:
    """Labels of the pool whose bucket holds another pool label too."""
    by_slot: dict[int, list[str]] = {}
    for label in POOL:
        by_slot.setdefault(MerkleTree.slot_of(label), []).append(label)
    return [label for labels in by_slot.values() if len(labels) > 1 for label in labels]


def _sequence(rng: random.Random, steps: int):
    """``(label, digest or None)`` steps; a quarter of them delete."""
    crowded = _shared_slots()
    for _ in range(steps):
        label = rng.choice(crowded if rng.random() < 0.3 else POOL)
        if rng.random() < 0.25:
            yield label, None
        else:
            yield label, record_digest(rng.randbytes(16))


def _assert_proofs(tree: MerkleTree, reference: ReferenceMerkleTree, bound: dict, rng):
    root = tree.root
    for label, digest in bound.items():
        proof = tree.prove(label)
        assert proof == reference.prove(label)
        assert tree.verify(root, proof) == digest
        assert reference.verify(reference.root, proof) == digest
    for label in rng.sample([label for label in POOL if label not in bound], 20) + [
        object_label("never-written")
    ]:
        proof = tree.prove(label)
        assert proof == reference.prove(label)
        assert tree.verify(root, proof) is None
        assert reference.verify(reference.root, proof) is None


@pytest.mark.parametrize("case", range(4))
def test_roots_and_proofs_match_the_reference(case):
    rng = random.Random(CHAOS_SEED * 1_000 + case)
    tree, reference, bound = MerkleTree(), ReferenceMerkleTree(), {}
    assert tree.root == reference.root
    for step, (label, digest) in enumerate(_sequence(rng, 600)):
        tree.set(label, digest)
        reference.set(label, digest)
        if digest is None:
            bound.pop(label, None)
        else:
            bound[label] = digest
        assert tree.root == reference.root, step
        assert tree.get(label) == reference.get(label) == bound.get(label)
        assert len(tree) == len(reference) == len(bound)
        if step % 150 == 149:
            _assert_proofs(tree, reference, bound, rng)
    # The overhead bench counts the bytes hashed; the count is unchanged.
    assert tree.hash_bytes == reference.hash_bytes

    shuffled = list(bound.items())
    rng.shuffle(shuffled)
    rebuilt = MerkleTree()
    for label, digest in shuffled:
        rebuilt.set(label, digest)
    assert rebuilt.root == tree.root

    for label in list(bound):
        tree.set(label, None)
        reference.set(label, None)
    assert tree.root == reference.root == MerkleTree().root
