"""The per-key lock table and ACID multi-object transactions (§4.4).

Pesos adapts the VLL lock manager (Ren et al.): a committing
transaction tries to take all of its locks at once.  If every lock was
free it executes immediately; otherwise it joins the transaction
queue, and VLL's ordering guarantees that by the time a blocked
transaction reaches the *front* of the queue, every lock it needs is
held only by itself — so the front can always run.

Unlike the original in-memory-database implementation, the lock table
here is a small dict keyed by object keys, since only a fraction of
keys are expected to see contended access.  It is the *one* per-key
lock of the system: a record per key counts the non-transactional
requests holding it (shared readers or one exclusive writer, taken by
the concurrent engine through :meth:`VllManager.try_acquire`) beside
the transactions queued or running on it.

- A request hold refuses conflicting request holds and makes a commit
  queue; a transaction on a key, queued or running, refuses every
  request hold on it.  There is no blocking acquire: a refused green
  thread yields to the scheduler and retries (requests hold at most
  one key, commits take all of theirs at once, so nothing holds while
  it waits and nothing deadlocks).
- Commits overlap drive I/O under the engine, so the queue front runs
  only when its keys are *truly exclusive*: no request hold and no
  transaction still executing on them.  Other transactions counted on
  those keys are queued behind it and never block it.
- Draining the queue is the table's own step after every event that
  can free a front: a request release, a transaction finishing, an
  abort of a queued transaction.
- A transaction is ``running`` from the moment its executor starts
  until it finishes; under the engine that spans drive I/O, and for
  that long it refuses abort, further reads and writes, and a second
  commit.
- A transaction owns its failure.  Whatever :class:`PesosError` its
  executor raises ends it ``aborted`` with the text recorded, on
  whichever thread drained it; :meth:`VllManager.release` and
  :meth:`VllManager.abort` therefore never raise on behalf of a
  transaction the caller has nothing to do with.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.asyncapi import RESULT_BUFFER_SIZE
from repro.errors import PesosError, TransactionError
from repro.telemetry import NULL_TELEMETRY

OPEN = "open"
QUEUED = "queued"
RUNNING = "running"
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


@dataclass
class _KeyLock:
    """Every hold on one object key; the record exists while any does."""

    #: Non-transactional requests reading the key.
    shared: int = 0
    #: One non-transactional request writing it.
    exclusive: bool = False
    #: Transactions that took the key at commit: queued or running.
    txns: int = 0
    #: Of those, how many are executing right now.
    running: int = 0

    @property
    def requested(self) -> bool:
        """Whether a non-transactional request holds the key."""
        return self.exclusive or self.shared > 0


class VllManager:
    """The per-key lock table plus the transaction queue."""

    def __init__(
        self,
        executor: Callable[[Transaction], dict],
        telemetry=None,
    ):
        self._executor = executor
        self._locks: dict[str, _KeyLock] = {}
        self._queue: deque[Transaction] = deque()
        self._transactions: dict[str, Transaction] = {}
        #: Ids of finished transactions, oldest first.  Only the last
        #: ``RESULT_BUFFER_SIZE`` stay resident (write values and
        #: results included), the §4.1 bound on buffered results; open,
        #: queued and running transactions are never dropped.
        self._finished: deque[str] = deque()
        self._ids = itertools.count(1)
        self.executed_immediately = 0
        self.executed_from_queue = 0
        self.aborted = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Concurrency-sanitizer hooks, ``None`` by default.  Every lock
        #: event of the system is reported from this class, under one
        #: id per key, ``("obj", key)``.
        self.sanitizer = None
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
            self._unlock(tx.keys())
            self._finish(tx, ABORTED)
            # The keys just released may be all the queue front was
            # waiting for; without this drain the followers stall
            # until some unrelated commit happens to drain for them.
            self._drain()
        elif tx.state == OPEN:
            self._finish(tx, ABORTED)
        else:
            raise TransactionError(f"cannot abort {tx.state} transaction")
        self.aborted += 1
        self._m_outcomes.labels("client_abort").inc()

    def _finish(self, tx: Transaction, state: str) -> None:
        tx.state = state
        self._finished.append(tx.txid)
        if len(self._finished) > RESULT_BUFFER_SIZE:
            del self._transactions[self._finished.popleft()]

    # -- request holds -------------------------------------------------------

    def try_acquire(self, key: str, exclusive: bool = True) -> bool:
        """Take one request hold if compatible; never blocks."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _KeyLock()
        elif lock.txns or lock.exclusive or (exclusive and lock.shared):
            return False
        if exclusive:
            lock.exclusive = True
        else:
            lock.shared += 1
        if self.sanitizer is not None:
            self.sanitizer.on_lock_acquire(
                ("obj", key), "w" if exclusive else "r"
            )
        return True

    def release(self, key: str, exclusive: bool = True) -> None:
        """Drop one request hold (``KeyError`` if it was never taken),
        then run whatever queued transactions that frees."""
        lock = self._locks[key]
        if exclusive and lock.exclusive:
            lock.exclusive = False
        elif not exclusive and lock.shared:
            lock.shared -= 1
        else:
            raise KeyError(key)
        if not (lock.requested or lock.txns):
            del self._locks[key]
        if self.sanitizer is not None:
            self.sanitizer.on_lock_release(("obj", key))
        self._drain()

    # -- VLL commit path -----------------------------------------------------

    def commit(self, tx: Transaction) -> Transaction:
        """Try to run ``tx``; it either executes now or queues.

        Executed now, a failure that is not a :class:`TransactionError`
        (a storage error) is raised to the committer once the
        transaction is ``aborted`` and its keys are free, so its answer
        keeps that error's status and Retry-After.
        """
        tx._require_open()
        locks = [self._locks.setdefault(key, _KeyLock()) for key in tx.keys()]
        blocked = any(lock.txns or lock.requested for lock in locks)
        for lock in locks:
            lock.txns += 1
        if blocked:
            tx.state = QUEUED
            self._queue.append(tx)
            return tx
        failure = self._run(tx)
        self.executed_immediately += 1
        self._drain()
        if failure is not None and not isinstance(failure, TransactionError):
            raise failure
        return tx

    def _run(self, tx: Transaction) -> PesosError | None:
        """Execute ``tx`` under its keys; returns what aborted it."""
        # The VLL grab in commit() is all-at-once (no hold-and-wait),
        # and a queued transaction runs on whichever thread drains the
        # queue — so the group is attributed here, to the thread that
        # actually executes under the locks.
        tx.state = RUNNING
        keys = tx.keys()
        group = [("obj", key) for key in keys]
        if self.sanitizer is not None:
            self.sanitizer.on_group_acquire(group)
        for key in keys:
            self._locks[key].running += 1
        failure = None
        with self.telemetry.span("txn.execute", txid=tx.txid, keys=len(keys)):
            try:
                tx.results = self._executor(tx)
                self._finish(tx, COMMITTED)
                self._m_outcomes.labels("committed").inc()
            except PesosError as exc:
                failure = exc
                tx.error = str(exc)
                self._finish(tx, ABORTED)
                self.aborted += 1
                self._m_outcomes.labels("aborted").inc()
            finally:
                for key in keys:
                    self._locks[key].running -= 1
                self._unlock(keys)
                if self.sanitizer is not None:
                    self.sanitizer.on_group_release(group)
        return failure

    def _unlock(self, keys: list) -> None:
        for key in keys:
            lock = self._locks[key]
            lock.txns -= 1
            if not (lock.txns or lock.requested):
                del self._locks[key]

    def _front_exclusive(self, front: Transaction) -> bool:
        """VLL invariant check: may the queue front execute *now*?

        Every other transaction counted on the front's keys is queued
        behind it (queue order mirrors acquisition order), so those
        never block it.  What does block it, once execution overlaps
        drive I/O: a transaction still *running* on one of its keys,
        or a non-transactional request holding one.
        """
        locks = (self._locks[key] for key in front.keys())
        return not any(lock.running or lock.requested for lock in locks)

    def _drain(self) -> None:
        # Run queued transactions front-first while the front's locks
        # are truly exclusive; execution may in turn unblock the next
        # front, so keep draining.  A front still blocked by a running
        # transaction (or a request hold) stays queued — whoever
        # releases that hold drains again.
        while self._queue and self._front_exclusive(self._queue[0]):
            self._run(self._queue.popleft())
            self.executed_from_queue += 1
            self._m_queued.inc()

    # -- introspection -------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def locked_keys(self) -> set:
        """Keys with any hold on them (empty at quiescence)."""
        return set(self._locks)
