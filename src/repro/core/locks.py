"""Per-key request locks for the concurrent request engine.

Non-transactional requests historically bypassed the VLL lock table
(:mod:`repro.core.txn`), which was fine while :class:`PesosController`
executed requests start-to-finish sequentially.  Once requests run as
green threads that preempt at every drive operation, two puts to the
same key could interleave their content/metadata writes.  This module
adds the missing layer: a reader-writer lock table keyed by object
keys, designed for cooperative green threads.

There is deliberately no blocking ``acquire``: green threads call
:meth:`KeyLockTable.try_acquire` and, on failure, yield back to the
scheduler and retry on their next dispatch (the engine's spin-yield
loop).  Because every request holds at most one key lock — and
multi-key users go through :meth:`try_acquire_all`, which takes
all-or-nothing — there is no hold-and-wait and therefore no deadlock.

The table cooperates with the VLL transaction manager in both
directions: a ``conflicts`` callback lets transactional locks block
request locks, and an ``on_release`` callback lets a request-lock
release drain the VLL queue (a queued transaction's front may have
been waiting on exactly this key).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.analysis.sanitizer import NULL_SANITIZER


class KeyLockTable:
    """Reader-writer locks over object keys, for cooperative threads.

    Shared (read) holds may overlap each other; an exclusive (write)
    hold overlaps nothing.  Acquisition is non-blocking; fairness is
    the scheduler's concern (seeded schedules make starvation cases
    reproducible rather than impossible).
    """

    def __init__(
        self,
        conflicts: Callable[[str], bool] | None = None,
        on_release: Callable[[str], None] | None = None,
    ):
        #: key -> number of shared holders (absent = none).
        self._shared: dict[str, int] = {}
        #: keys currently held exclusively.
        self._exclusive: set[str] = set()
        #: External conflict source (the VLL lock table): when it
        #: reports a key, neither mode may be acquired.
        self._conflicts = conflicts
        #: Notified after each release, so lock-waiters outside this
        #: table (the VLL queue) can make progress.
        self._on_release = on_release
        self.acquisitions = 0
        self.contended = 0
        #: Concurrency-sanitizer hooks; the shared no-op by default.
        self.sanitizer = NULL_SANITIZER

    def bind(
        self,
        conflicts: Callable[[str], bool] | None = None,
        on_release: Callable[[str], None] | None = None,
    ) -> None:
        """Late-wire the VLL callbacks (the two objects cross-reference)."""
        if conflicts is not None:
            self._conflicts = conflicts
        if on_release is not None:
            self._on_release = on_release

    # -- acquisition -------------------------------------------------------

    def try_acquire(self, key: str, exclusive: bool = True) -> bool:
        """Take one lock if free; never blocks.  Returns success."""
        if self._conflicts is not None and self._conflicts(key):
            self.contended += 1
            return False
        if key in self._exclusive:
            self.contended += 1
            return False
        if exclusive:
            if self._shared.get(key, 0):
                self.contended += 1
                return False
            self._exclusive.add(key)
        else:
            self._shared[key] = self._shared.get(key, 0) + 1
        self.acquisitions += 1
        # Lock id ("obj", key) is shared with the VLL manager: the two
        # tables cross-exclude per key (conflicts/on_release wiring),
        # so they implement one logical lock, and the sanitizer must
        # see them as one or it reports false races between a request
        # and a transaction on the same key.
        self.sanitizer.on_lock_acquire(
            ("obj", key), "w" if exclusive else "r"
        )
        return True

    def try_acquire_all(
        self, keys: Sequence[str], exclusive: bool = True
    ) -> bool:
        """All-or-nothing multi-key acquisition (deadlock-free).

        Either every key is taken or none is; a partial grab is rolled
        back before returning, so callers can safely yield and retry
        without ever holding while waiting.
        """
        taken: list[str] = []
        # Report the whole grab as one atomic group event: the partial
        # holds inside this loop are rolled back before any wait, so
        # they must not create lock-order edges.
        sanitizer, self.sanitizer = self.sanitizer, NULL_SANITIZER
        try:
            for key in keys:
                if not self.try_acquire(key, exclusive):
                    for held in taken:
                        self.release(held, exclusive)
                    return False
                taken.append(key)
        finally:
            self.sanitizer = sanitizer
        self.sanitizer.on_group_acquire([("obj", key) for key in keys])
        return True

    # -- release -----------------------------------------------------------

    def release(self, key: str, exclusive: bool = True) -> None:
        """Drop one hold; raises ``KeyError`` on a lock never taken."""
        if exclusive:
            self._exclusive.remove(key)
        else:
            remaining = self._shared[key] - 1
            if remaining:
                self._shared[key] = remaining
            else:
                del self._shared[key]
        self.sanitizer.on_lock_release(("obj", key))
        if self._on_release is not None:
            self._on_release(key)

    def release_all(self, keys: Sequence[str], exclusive: bool = True) -> None:
        sanitizer, self.sanitizer = self.sanitizer, NULL_SANITIZER
        try:
            for key in keys:
                self.release(key, exclusive)
        finally:
            self.sanitizer = sanitizer
        self.sanitizer.on_group_release([("obj", key) for key in keys])

    # -- introspection -----------------------------------------------------

    def locked(self, key: str) -> bool:
        """Whether any hold (either mode) exists on ``key``."""
        return key in self._exclusive or bool(self._shared.get(key, 0))

    def __len__(self) -> int:
        """Number of keys with at least one hold (0 at quiescence)."""
        return len(self._exclusive) + len(self._shared)

    def snapshot(self) -> dict:
        return {
            "exclusive": sorted(self._exclusive),
            "shared": dict(sorted(self._shared.items())),
        }
