"""Shadow-state hook API for the concurrency sanitizer.

The deterministic engine (:mod:`repro.core.engine`), the per-key lock
table (:mod:`repro.core.txn`) and the green-thread scheduler
(:mod:`repro.sgx.scheduler`) all carry a ``sanitizer`` attribute.  It
is ``None`` by default, and each hook site is one ``is not None`` test,
so the shipped request path imports nothing from :mod:`repro.analysis`
and the engine's virtual-time numbers are bit-identical with the
sanitizer off.

A :class:`ShadowState` instance records a flat event stream:

- ``("dispatch", tid)`` — the scheduler handed a green thread the CPU;
  every later event is attributed to ``tid`` until the next dispatch.
- ``("acquire", tid, lock_id, mode)`` / ``("release", tid, lock_id)``
  — one lock taken or dropped.  Every lock event comes from the one
  lock table, :class:`repro.core.txn.VllManager`, under one id per
  key, ``("obj", k)``, whether a request or a transaction holds it.
- ``("acquire_group", tid, lock_ids)`` / ``("release_group", ...)`` —
  an all-or-nothing multi-lock acquisition (VLL takes every lock of a
  committing transaction at once).  Group members create no ordering
  edges among themselves: atomic acquisition cannot deadlock
  internally.
- ``("access", tid, field, kind)`` with kind ``"r"``/``"w"`` — one
  shared-field access.  The engine reports every drive operation's
  disk key here, so the shared state is exactly what two requests
  could clobber.

The analyzers (:mod:`repro.analysis.races`,
:mod:`repro.analysis.deadlock`) replay the stream after the run; the
recorder itself never interprets it, keeping the in-run overhead to a
list append.
"""

from __future__ import annotations

from typing import Any

#: Thread id attributed to main-thread (bootstrap / load phase) events.
MAIN_THREAD = -1


class ShadowState:
    """Event recorder attached to an engine run under analysis."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._current = MAIN_THREAD

    # -- hooks -------------------------------------------------------------

    def on_dispatch(self, tid: int) -> None:
        self._current = tid
        self.events.append(("dispatch", tid))

    def on_lock_acquire(self, lock_id: Any, mode: str = "w") -> None:
        self.events.append(("acquire", self._current, lock_id, mode))

    def on_lock_release(self, lock_id: Any) -> None:
        self.events.append(("release", self._current, lock_id))

    def on_group_acquire(self, lock_ids: list) -> None:
        self.events.append(("acquire_group", self._current, tuple(lock_ids)))

    def on_group_release(self, lock_ids: list) -> None:
        self.events.append(("release_group", self._current, tuple(lock_ids)))

    def on_access(self, field: Any, write: bool) -> None:
        self.events.append(
            ("access", self._current, field, "w" if write else "r")
        )


def replay_locksets(events: list[tuple]):
    """Generator over ``(event, held)`` where ``held`` maps tid to the
    multiset of lock ids that thread holds *before* the event applies.

    Shared helper for the analyzers: both the lockset race detector and
    the lock-order graph need per-thread held-lock state at each event.
    The yielded ``held`` mapping is live (mutated in place as the replay
    advances); consumers must copy what they keep.
    """
    held: dict[int, dict[Any, int]] = {}

    def locks_of(tid: int) -> dict[Any, int]:
        return held.setdefault(tid, {})

    for event in events:
        yield event, held
        kind = event[0]
        if kind == "acquire":
            _, tid, lock_id, _mode = event
            locks = locks_of(tid)
            locks[lock_id] = locks.get(lock_id, 0) + 1
        elif kind == "release":
            _, tid, lock_id = event
            locks = locks_of(tid)
            remaining = locks.get(lock_id, 0) - 1
            if remaining > 0:
                locks[lock_id] = remaining
            else:
                locks.pop(lock_id, None)
        elif kind == "acquire_group":
            _, tid, lock_ids = event
            locks = locks_of(tid)
            for lock_id in lock_ids:
                locks[lock_id] = locks.get(lock_id, 0) + 1
        elif kind == "release_group":
            _, tid, lock_ids = event
            locks = locks_of(tid)
            for lock_id in lock_ids:
                remaining = locks.get(lock_id, 0) - 1
                if remaining > 0:
                    locks[lock_id] = remaining
                else:
                    locks.pop(lock_id, None)
