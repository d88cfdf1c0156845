"""VLL transaction manager semantics."""

import pytest

from repro.core.asyncapi import RESULT_BUFFER_SIZE
from repro.core.txn import ABORTED, COMMITTED, QUEUED, Transaction, VllManager
from repro.errors import ReplicationDegraded, TransactionError


def _manager(executor=None):
    return VllManager(executor or (lambda tx: {"ok": True}))


def test_create_and_get():
    mgr = _manager()
    tx = mgr.create("fp")
    assert mgr.get(tx.txid, "fp") is tx


def test_get_enforces_ownership():
    mgr = _manager()
    tx = mgr.create("fp")
    with pytest.raises(TransactionError):
        mgr.get(tx.txid, "other")


def test_unknown_txid():
    with pytest.raises(TransactionError):
        _manager().get("tx-999999", "fp")


def test_uncontended_commit_executes_immediately():
    seen = []
    mgr = _manager(lambda tx: seen.append(tx.txid) or {"done": 1})
    tx = mgr.create("fp")
    tx.add_read("a")
    tx.add_write("b", b"v")
    mgr.commit(tx)
    assert tx.state == COMMITTED
    assert seen == [tx.txid]
    assert mgr.executed_immediately == 1
    assert mgr.locked_keys() == set()


def test_keys_deduplicated_and_ordered():
    tx = Transaction(txid="t", fingerprint="fp")
    tx.add_read("a")
    tx.add_read("a")
    tx.add_write("a", b"v")
    tx.add_write("b", b"v")
    assert tx.keys() == ["a", "b"]


def test_ops_rejected_after_commit():
    mgr = _manager()
    tx = mgr.create("fp")
    mgr.commit(tx)
    with pytest.raises(TransactionError):
        tx.add_read("x")
    with pytest.raises(TransactionError):
        mgr.commit(tx)


def test_abort_open_transaction():
    mgr = _manager()
    tx = mgr.create("fp")
    tx.add_write("a", b"v")
    mgr.abort(tx)
    assert tx.state == ABORTED
    assert mgr.locked_keys() == set()


def test_abort_committed_rejected():
    mgr = _manager()
    tx = mgr.create("fp")
    mgr.commit(tx)
    with pytest.raises(TransactionError):
        mgr.abort(tx)


def test_executor_abort_rolls_back():
    def failing(tx):
        raise TransactionError("policy denied inside txn")

    mgr = _manager(failing)
    tx = mgr.create("fp")
    tx.add_write("a", b"v")
    mgr.commit(tx)
    assert tx.state == ABORTED
    assert "policy denied" in tx.error
    assert mgr.locked_keys() == set()
    assert mgr.aborted == 1


def test_contended_commit_queues_then_runs():
    """While tx A executes, B commits on overlapping keys and queues."""
    mgr_holder = {}
    order = []

    def executor(tx):
        order.append(tx.txid)
        if tx.txid == "tx-000001":
            # Re-entrant commit while A holds the lock on "shared".
            b = mgr_holder["mgr"].get("tx-000002", "fp")
            mgr_holder["mgr"].commit(b)
            assert b.state == QUEUED  # blocked on A's lock
        return {"ok": tx.txid}

    mgr = VllManager(executor)
    mgr_holder["mgr"] = mgr
    a = mgr.create("fp")
    a.add_write("shared", b"va")
    b = mgr.create("fp")
    b.add_write("shared", b"vb")
    mgr.commit(a)
    assert a.state == COMMITTED
    assert b.state == COMMITTED  # drained from the queue after A
    assert order == [a.txid, b.txid]
    assert mgr.executed_from_queue == 1
    assert mgr.locked_keys() == set()


def test_queued_transaction_can_abort():
    def executor(tx):
        if tx.txid == "tx-000001":
            mgr2 = holder["mgr"]
            queued = mgr2.get("tx-000002", "fp")
            mgr2.commit(queued)
            mgr2.abort(queued)
        return {}

    holder = {}
    mgr = VllManager(executor)
    holder["mgr"] = mgr
    a = mgr.create("fp")
    a.add_write("k", b"v")
    b = mgr.create("fp")
    b.add_write("k", b"v")
    mgr.commit(a)
    assert b.state == ABORTED
    assert mgr.locked_keys() == set()


def test_disjoint_transactions_do_not_queue():
    mgr = _manager()
    a = mgr.create("fp")
    a.add_write("x", b"v")
    b = mgr.create("fp")
    b.add_write("y", b"v")
    mgr.commit(a)
    mgr.commit(b)
    assert mgr.executed_immediately == 2
    assert mgr.executed_from_queue == 0


def test_storage_failure_aborts_and_reaches_only_the_committer():
    """Any PesosError ends the transaction; run on the committer's own
    thread it is raised to it (after the keys are free), run from the
    queue it stays on the transaction."""
    def degraded(tx):
        raise ReplicationDegraded("1 of 2 replicas acknowledged")

    mgr = _manager(degraded)
    own = mgr.create("fp")
    own.add_write("a", b"v")
    with pytest.raises(ReplicationDegraded):
        mgr.commit(own)
    assert own.state == ABORTED and "replicas" in own.error
    assert mgr.locked_keys() == set()

    assert mgr.try_acquire("a")
    queued = mgr.create("fp")
    queued.add_write("a", b"v")
    mgr.commit(queued)
    assert queued.state == QUEUED
    mgr.release("a")  # runs the transaction; must not raise
    assert queued.state == ABORTED and "replicas" in queued.error
    assert mgr.locked_keys() == set()
    assert mgr.aborted == 2 and mgr.executed_from_queue == 1


def test_finished_transactions_are_bounded():
    """Only the last RESULT_BUFFER_SIZE finished transactions stay
    resident (5 000 of 5 000 did at d387684); open and queued ones do."""
    mgr = _manager()
    still_open = mgr.create("fp")
    assert mgr.try_acquire("held")
    waiting = mgr.create("fp")
    waiting.add_write("held", b"v")
    mgr.commit(waiting)
    finished = []
    for i in range(5000):
        tx = mgr.create("fp")
        tx.add_write("a", b"x" * 1024)
        if i % 10:
            mgr.commit(tx)
        else:
            mgr.abort(tx)
        finished.append(tx)
    assert len(mgr._transactions) == RESULT_BUFFER_SIZE + 2
    assert mgr.get(still_open.txid, "fp") is still_open
    assert mgr.get(waiting.txid, "fp") is waiting
    assert mgr.get(finished[-RESULT_BUFFER_SIZE].txid, "fp")
    with pytest.raises(TransactionError, match="no transaction"):
        mgr.get(finished[-RESULT_BUFFER_SIZE - 1].txid, "fp")
