"""The shipped raw-digest Merkle tree against the frozen hex-string one.

``tests/core/reference_merkle.py`` is the tree as it first shipped:
nodes as hex strings keyed by ``(level, index)``.  Every pin and audit
record so far was taken over its roots, so the shipped tree must agree
with it byte for byte: equal roots after every step of a seeded random
set/delete sequence, and roots that do not depend on insertion order.

The shipped tree builds no proofs: it never leaves the enclave, so a
read looks its leaf up.  The reference keeps its membership and absence
proofs, and the leaf a reference proof verifies against the reference
root is the oracle for that lookup: for the bare tree, and for a
bootstrapped :class:`FreshnessAuthority` driven through seeded
``prepare``/``settle``/``abort`` sequences, whose ``acceptable()`` must
also admit exactly the pending sides.

``CHAOS_SEED`` is read as ``tests/faults/conftest.py`` reads it, so each
leg of the CI ``chaos`` job draws other sequences; locally it is 0.
"""

import os
import random

import pytest

from repro.core.freshness import (
    FreshnessAuthority,
    MerkleTree,
    object_label,
    record_digest,
)
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

from tests.core.reference_merkle import ReferenceMerkleTree

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: A label pool small enough that sequences rebind and delete often and
#: large enough that some labels share a bucket slot or a sibling.  The
#: tree takes any string; the ``p/`` labels keep the sequences drawn
#: while policies still had leaves.
POOL = [object_label(f"key-{index}") for index in range(500)] + [
    f"p/{index:064x}" for index in range(100)
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


def _checked_labels(bound: dict, rng) -> list[str]:
    """Every bound label, 20 unbound ones and one never written."""
    unbound = rng.sample([label for label in POOL if label not in bound], 20)
    return list(bound) + unbound + [object_label("never-written")]


def _proven(reference: ReferenceMerkleTree, label: str) -> str | None:
    """The leaf the reference's proof for ``label`` verifies to (None:
    proven absent).  A verifier of its own does the hashing, so
    ``reference.hash_bytes`` keeps counting updates only."""
    return ReferenceMerkleTree().verify(reference.root, reference.prove(label))


def _assert_lookups(tree: MerkleTree, reference: ReferenceMerkleTree, bound: dict, rng):
    for label in _checked_labels(bound, rng):
        assert tree.get(label) == _proven(reference, label) == bound.get(label)


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
            _assert_lookups(tree, reference, bound, rng)
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


class _EmptyFleet:
    """The store bootstrap rebuilds from: a fleet with no records."""

    def scan_labels(self):
        return ()


@pytest.mark.parametrize("case", range(4))
def test_authority_lookups_match_the_reference_proofs(case):
    rng = random.Random(CHAOS_SEED * 1_000 + 100 + case)
    enclave = SgxPlatform("differential-host").launch(
        EnclaveBinary(name="pesos", content=b"differential")
    )
    authority = FreshnessAuthority(enclave)
    authority.bootstrap(_EmptyFleet())
    assert authority.active and not authority.forked
    reference, pending = ReferenceMerkleTree(), {}
    crowded = _shared_slots()
    for step in range(200):
        roll = rng.random()
        if roll < 0.5:
            label = rng.choice(crowded if rng.random() < 0.3 else POOL)
            digest = None if rng.random() < 0.25 else record_digest(rng.randbytes(16))
            authority.prepare(label, digest)
            pending[label] = (reference.get(label), digest)
            reference.set(label, digest)
        else:
            # Mostly an in-flight label; sometimes any label, and one
            # with nothing pending must change nothing.
            label = rng.choice(sorted(pending) if pending and rng.random() < 0.8 else POOL)
            if roll < 0.75:
                authority.settle(label)
                pending.pop(label, None)
            else:
                authority.abort(label)
                if label in pending:
                    # The tree takes the other side, which is now the
                    # pinned one: the pair swaps.
                    other, pinned = pending[label]
                    pending[label] = (pinned, other)
                    reference.set(label, other)
        bound = {label: reference.get(label) for label in POOL if reference.get(label)}
        assert authority.root == reference.root, step
        assert authority.pending == pending, step
        for label in _checked_labels(bound, rng):
            expected, allowed = authority.acceptable(label)
            assert expected == _proven(reference, label), (step, label)
            assert allowed == {expected, *pending.get(label, ())}, (step, label)
