"""Aborting a QUEUED transaction must wake its queue followers.

Regression test: ``VllManager.abort`` released the aborted
transaction's locks but never drained the queue, so a follower whose
only conflict was the aborted transaction stayed QUEUED until some
unrelated commit happened to drain for it — forever, on a quiet
system.  The sequential request path could not observe the stall (the
queue was always drained before the outermost commit returned), but
any other lock holder — a concurrent request holding the key, a
transaction still executing on it — makes it reachable.
"""

from __future__ import annotations

import pytest

from repro.core.txn import QUEUED, VllManager
from repro.errors import TransactionError


def run_writes(tx):
    return {key: b"done" for key in tx.keys()}


def make_queued_pair(manager):
    """Two transactions on "x", both queued behind an external hold."""
    blocked = manager.create("fp")
    blocked.add_write("x", b"1")
    follower = manager.create("fp")
    follower.add_write("x", b"2")
    manager.commit(blocked)
    manager.commit(follower)
    assert blocked.state == QUEUED
    assert follower.state == QUEUED
    return blocked, follower


def test_abort_of_queued_tx_drains_followers():
    manager = VllManager(run_writes)
    assert manager.try_acquire("x", exclusive=True)  # a put in flight
    blocked = manager.create("fp")
    blocked.add_write("x", b"1")
    blocked.add_write("y", b"1")
    follower = manager.create("fp")
    follower.add_write("y", b"2")
    manager.commit(blocked)  # waits for the put on "x"
    manager.commit(follower)  # waits for ``blocked`` on "y" only
    assert (blocked.state, follower.state) == (QUEUED, QUEUED)

    manager.abort(blocked)

    assert blocked.state == "aborted"
    assert follower.state == "committed", (
        "follower stayed QUEUED after its only blocker aborted"
    )
    assert manager.queue_length == 0
    assert manager.locked_keys() == {"x"}
    manager.release("x", exclusive=True)
    assert manager.locked_keys() == set()


def test_abort_drain_respects_running_transactions():
    """A transaction mid-execution on "x" (under the engine its commit
    overlaps drive I/O) blocks the queue front even when the abort of
    another queued transaction drains."""
    seen = []

    def executor(tx):
        if tx is runner:
            blocked, follower = make_queued_pair(manager)
            # Blocker still executing: the abort must NOT run the
            # follower.
            manager.abort(blocked)
            seen.append((blocked, follower, follower.state))
        return run_writes(tx)

    manager = VllManager(executor)
    runner = manager.create("fp")
    runner.add_write("x", b"0")
    manager.commit(runner)

    (blocked, follower, state_at_abort), = seen
    assert blocked.state == "aborted"
    assert state_at_abort == QUEUED
    # The running transaction finished; its unlock path drained.
    assert follower.state == "committed"
    assert manager.locked_keys() == set()


def test_abort_behind_a_request_hold():
    """End to end over request holds, as the engine takes them."""
    manager = VllManager(run_writes)

    assert manager.try_acquire("x", exclusive=True)  # a concurrent put
    blocked, follower = make_queued_pair(manager)

    manager.abort(blocked)
    assert follower.state == QUEUED  # request hold still there

    manager.release("x", exclusive=True)  # put finishes -> drain runs
    assert follower.state == "committed"
    assert manager.queue_length == 0


def test_abort_states():
    manager = VllManager(run_writes)
    open_tx = manager.create("fp")
    open_tx.add_write("y", b"1")
    manager.abort(open_tx)
    assert open_tx.state == "aborted"
    with pytest.raises(TransactionError):
        manager.abort(open_tx)
