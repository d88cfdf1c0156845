"""Property tests for the request holds of the one per-key lock table.

The table must never deadlock the cooperative scheduler (requests
spin-yield instead of blocking and hold one key at a time; commits
take all their keys at once), must keep reader/writer exclusion among
requests and between requests and transactions, and must always be
empty once every holder has released.
"""

from __future__ import annotations

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in CI
    HAVE_HYPOTHESIS = False

from repro.core.txn import COMMITTED, QUEUED, VllManager
from repro.sgx.scheduler import DispatchSchedule, UserspaceScheduler
from repro.sgx.syscalls import AsyncSyscallInterface

KEYS = ["a", "b", "c"]


def make_table(executor=None):
    return VllManager(executor or (lambda tx: {"ran": tx.txid}))


def committing(table, *keys):
    tx = table.create("fp")
    for key in keys:
        tx.add_write(key, b"v")
    return table.commit(tx)


def test_exclusive_excludes_everything():
    table = make_table()
    assert table.try_acquire("k", exclusive=True)
    assert not table.try_acquire("k", exclusive=True)
    assert not table.try_acquire("k", exclusive=False)
    table.release("k", exclusive=True)
    assert table.locked_keys() == set()


def test_shared_holds_overlap_but_block_writers():
    table = make_table()
    assert table.try_acquire("k", exclusive=False)
    assert table.try_acquire("k", exclusive=False)
    assert not table.try_acquire("k", exclusive=True)
    table.release("k", exclusive=False)
    assert not table.try_acquire("k", exclusive=True)
    table.release("k", exclusive=False)
    assert table.try_acquire("k", exclusive=True)


def test_release_of_never_taken_lock_raises():
    table = make_table()
    with pytest.raises(KeyError):
        table.release("ghost", exclusive=True)
    table.try_acquire("k", exclusive=False)
    with pytest.raises(KeyError):
        table.release("other", exclusive=False)
    with pytest.raises(KeyError):
        table.release("k", exclusive=True)  # held, but not in this mode
    table.release("k", exclusive=False)
    assert table.locked_keys() == set()


def test_transaction_on_a_key_blocks_both_modes():
    """A transaction vetoes request holds while queued and while running."""
    seen_while_running = []

    def executor(tx):
        seen_while_running.append(
            (table.try_acquire("hot", True), table.try_acquire("hot", False))
        )
        return {}

    table = make_table(executor)
    assert table.try_acquire("gate", exclusive=True)
    queued = committing(table, "gate", "hot")
    assert queued.state == QUEUED
    assert not table.try_acquire("hot", exclusive=True)
    assert not table.try_acquire("hot", exclusive=False)
    assert table.try_acquire("cold", exclusive=True)
    table.release("gate", exclusive=True)  # the transaction runs here
    assert queued.state == COMMITTED
    assert seen_while_running == [(False, False)]
    assert table.try_acquire("hot", exclusive=True)


def test_every_release_drains_the_queue():
    table = make_table()
    table.try_acquire("k", exclusive=False)
    table.try_acquire("k", exclusive=False)
    waiter = committing(table, "k")
    assert waiter.state == QUEUED
    table.release("k", exclusive=False)
    assert waiter.state == QUEUED  # one reader still holds the key
    table.release("k", exclusive=False)
    assert waiter.state == COMMITTED
    assert table.executed_from_queue == 1
    assert table.locked_keys() == set()


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(KEYS), st.booleans(), st.booleans()
            ),
            max_size=60,
        )
    )
    def test_random_acquire_release_never_corrupts(steps):
        """Random single-key traffic: exclusion invariants always hold.

        Each step (key, exclusive, hold) tries one acquisition and, per
        ``hold``, either releases it immediately or keeps it; kept
        holds release at the end, after which the table must be empty.
        """
        table = make_table()
        held: list[tuple[str, bool]] = []
        for key, exclusive, hold in steps:
            if table.try_acquire(key, exclusive):
                if hold:
                    held.append((key, exclusive))
                else:
                    table.release(key, exclusive)
            # Exclusion invariant after every step: a key is never
            # both shared and exclusive, and the record counts exactly
            # the holds this test kept.
            for probe in KEYS:
                lock = table._locks.get(probe)
                readers = held.count((probe, False))
                writers = held.count((probe, True))
                assert writers <= 1 and not (readers and writers)
                if lock is None:
                    assert not readers and not writers
                else:
                    assert (lock.shared, lock.exclusive) == (
                        readers, bool(writers)
                    )
        for key, exclusive in reversed(held):
            table.release(key, exclusive)
        assert table.locked_keys() == set()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_green_threads_never_deadlock(seed):
    """Random lock traffic from green threads drains to quiescence.

    Each green thread performs a seeded sequence of steps: a single-key
    request hold taken with spin-yield retry and kept across a few
    reschedules, or a commit over a random key set (all keys at once;
    it queues when any is held).  Under any dispatch schedule the run
    must finish (no deadlock, no livelock within the round bound) with
    the table empty, the queue empty and every commit executed.
    """
    table = make_table()
    scheduler = UserspaceScheduler(
        AsyncSyscallInterface(num_slots=4),
        hardware_threads=4,
        schedule=DispatchSchedule(seed),
    )
    commits = []

    def worker(worker_seed):
        rng = random.Random(worker_seed)
        for _ in range(6):
            if rng.random() < 0.25:
                keys = rng.sample(KEYS, rng.randrange(1, len(KEYS) + 1))
                commits.append(committing(table, *keys))
                yield "yield"
                continue
            key = rng.choice(KEYS)
            exclusive = rng.random() < 0.6
            while not table.try_acquire(key, exclusive):
                yield "yield"
            for _ in range(rng.randrange(3)):
                yield "yield"
            table.release(key, exclusive)
        return "done"

    threads = [
        scheduler.spawn(worker(seed * 100 + index)) for index in range(8)
    ]
    scheduler.run_to_completion(max_rounds=10_000)
    assert all(thread.result == "done" for thread in threads)
    assert all(thread.error is None for thread in threads)
    assert table.locked_keys() == set()
    assert table.queue_length == 0
    assert commits and all(tx.state == COMMITTED for tx in commits)
    assert table.executed_from_queue > 0
