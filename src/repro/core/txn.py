"""ACID multi-object transactions via a VLL variant (§4.4).

Pesos adapts the VLL lock manager (Ren et al.): a committing
transaction tries to take all of its locks at once.  If every lock was
free it executes immediately; otherwise it joins the transaction
queue, and VLL's ordering guarantees that by the time a blocked
transaction reaches the *front* of the queue, every lock it needs is
held only by itself — so the front can always run.

Unlike the original in-memory-database implementation, the lock table
here is a small dict keyed by object keys, since only a fraction of
keys are expected to see transactional access.

Since the concurrent request engine (:mod:`repro.core.engine`) lets
commits overlap drive I/O, the manager is now overlap-aware:

- Keys held by *currently executing* transactions are tracked
  separately (``_running``), and :meth:`VllManager._drain_queue` only
  runs the queue front when its locks are *truly exclusive* — held by
  nobody but the front itself and transactions queued behind it (the
  actual VLL invariant; the sequential code could assume any drain
  point implied exclusivity).
- Non-transactional requests take per-key locks in a
  :class:`repro.core.locks.KeyLockTable` wired in via
  ``request_locks``; commits treat those holds as conflicts, and
  request-lock releases drain the queue.
- Aborting a QUEUED transaction drains the queue after unlocking —
  previously the released keys could leave a runnable front stalled
  until an unrelated commit happened to drain.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.sanitizer import NULL_SANITIZER
from repro.errors import TransactionError
from repro.telemetry import NULL_TELEMETRY

OPEN = "open"
QUEUED = "queued"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class Transaction:
    """One client transaction being assembled and committed."""

    txid: str
    fingerprint: str
    state: str = OPEN
    reads: list = field(default_factory=list)
    writes: dict = field(default_factory=dict)  # key -> (value, policy_id)
    results: dict = field(default_factory=dict)
    error: str = ""
    #: Execution context captured at commit time.  A queued transaction
    #: may execute later, on whichever request thread drains the queue,
    #: so the context must ride on the transaction itself (the old
    #: controller-global ``_tx_session_now`` tuple was clobbered as
    #: soon as two commits overlapped).
    session: object = None
    now: float = 0.0

    def keys(self) -> list:
        ordered = list(dict.fromkeys(self.reads))
        for key in self.writes:
            if key not in ordered:
                ordered.append(key)
        return ordered

    def _require_open(self) -> None:
        if self.state != OPEN:
            raise TransactionError(
                f"transaction {self.txid} is {self.state}, not open"
            )

    def add_read(self, key: str) -> None:
        self._require_open()
        self.reads.append(key)

    def add_write(self, key: str, value: bytes, policy_id: str = "") -> None:
        self._require_open()
        self.writes[key] = (value, policy_id)


class VllManager:
    """Lock table + transaction queue (exclusive locks only)."""

    def __init__(
        self,
        executor: Callable[[Transaction], dict],
        telemetry=None,
        request_locks=None,
    ):
        self._executor = executor
        self._locks: dict[str, int] = {}
        #: Keys held by transactions whose executor is running right
        #: now (commits overlap under the concurrent engine).
        self._running: dict[str, int] = {}
        #: Optional :class:`repro.core.locks.KeyLockTable` holding the
        #: non-transactional per-key request locks; holds there block
        #: commits, and the table's release hook drains our queue.
        self.request_locks = request_locks
        self._queue: deque[Transaction] = deque()
        self._transactions: dict[str, Transaction] = {}
        self._ids = itertools.count(1)
        self.executed_immediately = 0
        self.executed_from_queue = 0
        self.aborted = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Concurrency-sanitizer hooks; the shared no-op by default.
        self.sanitizer = NULL_SANITIZER
        self._m_outcomes = self.telemetry.counter(
            "pesos_txn_total",
            "Transactions finished, by outcome.",
            ("outcome",),
        )
        self._m_queued = self.telemetry.counter(
            "pesos_txn_queued_total",
            "Commits that blocked on locks and executed from the queue.",
        )
        self.telemetry.derived(
            "pesos_txn_queue_depth",
            "gauge",
            "Transactions waiting in the VLL queue.",
            lambda: len(self._queue),
        )
        self.telemetry.derived(
            "pesos_txn_locked_keys",
            "gauge",
            "Object keys currently holding VLL locks.",
            lambda: len(self._locks),
        )

    # -- lifecycle -----------------------------------------------------------

    def create(self, fingerprint: str) -> Transaction:
        txid = f"tx-{next(self._ids):06d}"
        tx = Transaction(txid=txid, fingerprint=fingerprint)
        self._transactions[txid] = tx
        return tx

    def get(self, txid: str, fingerprint: str) -> Transaction:
        tx = self._transactions.get(txid)
        if tx is None or tx.fingerprint != fingerprint:
            raise TransactionError(f"no transaction {txid!r}")
        return tx

    def abort(self, tx: Transaction) -> None:
        if tx.state == QUEUED:
            self._queue.remove(tx)
            self._unlock(tx)
            tx.state = ABORTED
            # The keys just released may be all the queue front was
            # waiting for; without this drain the followers stall
            # until some unrelated commit happens to drain for them.
            self._drain_queue()
        elif tx.state == OPEN:
            tx.state = ABORTED
        else:
            raise TransactionError(f"cannot abort {tx.state} transaction")
        self.aborted += 1
        self._m_outcomes.labels("client_abort").inc()

    # -- VLL commit path --------------------------------------------------------

    def commit(self, tx: Transaction) -> Transaction:
        """Try to run ``tx``; it either executes now or queues."""
        tx._require_open()
        keys = tx.keys()
        blocked = any(
            self._locks.get(key, 0) > 0 or self._request_locked(key)
            for key in keys
        )
        for key in keys:
            self._locks[key] = self._locks.get(key, 0) + 1
        if blocked:
            tx.state = QUEUED
            self._queue.append(tx)
        else:
            self._run(tx)
            self.executed_immediately += 1
            self._drain_queue()
        return tx

    def _request_locked(self, key: str) -> bool:
        return self.request_locks is not None and self.request_locks.locked(
            key
        )

    def _run(self, tx: Transaction) -> None:
        # The VLL grab in commit() is all-at-once (no hold-and-wait),
        # and a queued transaction runs on whichever thread drains the
        # queue — so the group is attributed here, to the thread that
        # actually executes under the locks.  Lock id ("obj", key) is
        # shared with KeyLockTable: the cross-wired conflict checks
        # make the two tables one logical lock per key.
        group = [("obj", key) for key in tx.keys()]
        self.sanitizer.on_group_acquire(group)
        for key in tx.keys():
            self._running[key] = self._running.get(key, 0) + 1
        with self.telemetry.span(
            "txn.execute", txid=tx.txid, keys=len(tx.keys())
        ):
            try:
                tx.results = self._executor(tx)
                tx.state = COMMITTED
                self._m_outcomes.labels("committed").inc()
            except TransactionError as exc:
                tx.state = ABORTED
                tx.error = str(exc)
                self.aborted += 1
                self._m_outcomes.labels("aborted").inc()
            finally:
                for key in tx.keys():
                    remaining = self._running.get(key, 0) - 1
                    if remaining <= 0:
                        self._running.pop(key, None)
                    else:
                        self._running[key] = remaining
                self._unlock(tx)
                self.sanitizer.on_group_release(group)

    def _unlock(self, tx: Transaction) -> None:
        for key in tx.keys():
            remaining = self._locks.get(key, 0) - 1
            if remaining <= 0:
                self._locks.pop(key, None)
            else:
                self._locks[key] = remaining

    def _front_exclusive(self, front: Transaction) -> bool:
        """VLL invariant check: may the queue front execute *now*?

        All other ``_locks`` holders of the front's keys are queued
        behind it (queue order mirrors acquisition order), so those
        never block it.  What does block it, once execution overlaps
        drive I/O: a transaction still *running* on one of its keys,
        or a non-transactional request holding the per-key lock.
        """
        return all(
            self._running.get(key, 0) == 0
            and not self._request_locked(key)
            for key in front.keys()
        )

    def _drain_queue(self) -> None:
        # Run queued transactions front-first while the front's locks
        # are truly exclusive; execution may in turn unblock the next
        # front, so keep draining.  A front still blocked by a running
        # transaction (or a request lock) stays queued — whoever
        # releases that hold drains again.
        while self._queue and self._front_exclusive(self._queue[0]):
            front = self._queue.popleft()
            front.state = OPEN
            self._run(front)
            self.executed_from_queue += 1
            self._m_queued.inc()

    def notify_release(self, key: str) -> None:
        """Request-lock release hook: a waiter may now be runnable."""
        if self._queue:
            self._drain_queue()

    # -- introspection ------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def holds(self, key: str) -> bool:
        """Whether any transaction (queued or running) locks ``key``."""
        return self._locks.get(key, 0) > 0

    def locked_keys(self) -> set:
        return set(self._locks)
