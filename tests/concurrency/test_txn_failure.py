"""A transaction owns its failure, wherever its executor ran.

A commit that finds a key held queues; the queue is drained by whoever
releases the blocking hold — usually an unrelated request.  At d387684
``VllManager._run`` caught only ``TransactionError``, so a storage
error from the queued transaction's write (``ReplicationDegraded`` out
of ``store_version``) escaped through the bystander's
``KeyLockTable.release``: the bystander ``put``, whose value *was*
stored, answered ``500 request thread failed: ReplicationDegraded(...)``
on 19 of seeds 0-39, ``commit_tx`` had already answered 200, and the
transaction stayed ``open`` for ever (``tx_results`` 202).
"""

from __future__ import annotations

import pytest

from repro.core.engine import ConcurrentEngine
from repro.core.request import Request
from repro.errors import ReplicationDegraded

from tests.concurrency.harness import build_small_system

TX_VALUE = b"written by the transaction"


def degrade_transaction_writes(controller) -> None:
    """``store_version`` loses its write quorum for the tx's value only."""
    real = controller.store.store_version

    def store_version(meta, value, policy_hash, policy_id=None):
        if value == TX_VALUE:
            raise ReplicationDegraded("1 of 2 replicas acknowledged")
        return real(meta, value, policy_hash, policy_id)

    controller.store.store_version = store_version


def run_put_beside_commit(seed: int):
    controller = build_small_system(seed)
    degrade_transaction_writes(controller)
    tx = controller.txns.create("fp")
    tx.add_write("r-0", TX_VALUE)
    with ConcurrentEngine(controller, seed=seed) as engine:
        bystander, commit = engine.run_batch(
            [
                Request(method="put", key="r-0", value=b"bystander"),
                Request(method="commit_tx", txid=tx.txid),
            ],
            "fp",
        )
    return controller, tx, bystander, commit


@pytest.mark.parametrize("seed", range(40))
def test_queued_failure_never_lands_on_the_bystander(seed):
    controller, tx, bystander, commit = run_put_beside_commit(seed)
    assert bystander.status == 200, bystander.error
    assert controller.get("fp", "r-0").value == b"bystander"
    assert tx.state == "aborted"
    assert "replicas acknowledged" in tx.error
    results = controller.handle(
        Request(method="tx_results", txid=tx.txid), "fp"
    )
    assert results.status == 409 and "replicas acknowledged" in results.error
    assert controller.txns.locked_keys() == set()
    assert controller.txns.queue_length == 0
    if controller.txns.executed_from_queue:
        # Queued behind the put: the commit was acknowledged before
        # the executor ran; the failure is on the transaction.
        assert commit.status == 200
    else:
        # Ran on the committer's own thread: its answer keeps the
        # storage error's status and Retry-After.
        assert commit.status == 503
        assert commit.retry_after == ReplicationDegraded.retry_after


def test_both_paths_are_reached():
    ran_from_queue = {
        bool(run_put_beside_commit(seed)[0].txns.executed_from_queue)
        for seed in range(40)
    }
    assert ran_from_queue == {True, False}
