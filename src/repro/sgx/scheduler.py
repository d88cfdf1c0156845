"""Userspace (green) threading, as Scone provides it inside enclaves.

SGX enclaves fix their hardware thread count at build time, so Scone
multiplexes many userspace threads onto few enclave threads.  A green
thread runs until its next *preemption point* — a system-call
submission — then yields back to the scheduler, which dispatches
another runnable thread instead of idling through the syscall (§4.6).

Tasks are Python generators that yield ``("syscall", operation, args)``
tuples; the scheduler submits these through an
:class:`~repro.sgx.syscalls.AsyncSyscallInterface` and resumes the
task with the result once the untrusted worker completes it.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.sgx.syscalls import AsyncSyscallInterface


class DispatchSchedule:
    """Seeded, replayable dispatch-order source.

    Each scheduling decision — "which of the ``n`` runnable threads
    runs next?" — is a pure function of ``(seed, decision counter)``
    through a counter-based PRF, exactly like the fault schedules in
    :mod:`repro.faults.schedule`.  Two schedules built from the same
    seed therefore make identical choices, so any interleaving a test
    or benchmark observes can be replayed from its seed alone.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._steps = itertools.count()

    def pick(self, n: int) -> int:
        """Index of the runnable thread to dispatch, in ``[0, n)``."""
        step = next(self._steps)
        if n <= 1:
            return 0
        digest = hashlib.sha256(
            f"{self.seed}:{step}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % n

    def reset(self) -> None:
        """Rewind the decision counter (fresh replay, same timeline)."""
        self._steps = itertools.count()


@dataclass
class GreenThread:
    """One userspace thread: a generator plus bookkeeping."""

    tid: int
    generator: Generator
    waiting_slot: int | None = None
    finished: bool = False
    result: Any = None
    error: BaseException | None = None
    context_switches: int = 0


class UserspaceScheduler:
    """Round-robin cooperative scheduler over an async syscall interface."""

    def __init__(
        self,
        syscalls: AsyncSyscallInterface,
        hardware_threads: int = 4,
        schedule: DispatchSchedule | None = None,
        before_worker: Callable[[], None] | None = None,
    ):
        if hardware_threads < 1:
            raise ConfigurationError("need at least one hardware thread")
        self.syscalls = syscalls
        self.hardware_threads = hardware_threads
        #: When set, dispatch order among runnable threads is driven by
        #: this seeded schedule instead of plain FIFO; the log below
        #: then replays identically for the same seed.
        self.schedule = schedule
        #: Hook run after a dispatch round, before the untrusted worker
        #: drains the submission queue (used to coalesce submissions).
        self.before_worker = before_worker
        self._threads: dict[int, GreenThread] = {}
        self._runnable: deque[int] = deque()
        self._blocked: dict[int, int] = {}  # slot -> tid
        self._next_tid = 0
        self.total_context_switches = 0
        #: Every scheduling event, in order: ``("dispatch", tid)`` when
        #: a runnable thread gets a hardware thread, ``("resume", tid)``
        #: when a completed syscall unblocks one.  The replayable record
        #: the determinism tests compare across runs.
        self.dispatch_log: list[tuple[str, int]] = []
        #: Concurrency-sanitizer hooks, ``None`` by default.  Dispatch
        #: events give the shadow state its "current thread"
        #: attribution (only one green thread runs at a time).
        self.sanitizer = None

    def spawn(self, generator: Generator) -> GreenThread:
        """Register a new green thread; it runs on the next step."""
        thread = GreenThread(tid=self._next_tid, generator=generator)
        self._next_tid += 1
        self._threads[thread.tid] = thread
        self._runnable.append(thread.tid)
        return thread

    @property
    def alive(self) -> int:
        return sum(1 for t in self._threads.values() if not t.finished)

    def step(self) -> bool:
        """Run one scheduling round; returns False when all threads done.

        A round dispatches up to ``hardware_threads`` runnable threads
        to their next preemption point, then lets the untrusted worker
        drain the submission queue and unblocks completed waiters.
        """
        dispatched = 0
        while self._runnable and dispatched < self.hardware_threads:
            tid = self._pick_runnable()
            self.dispatch_log.append(("dispatch", tid))
            self._run_until_preemption(self._threads[tid], send_value=None)
            dispatched += 1

        if self.before_worker is not None:
            self.before_worker()
        # Outside the enclave: syscall threads execute submitted calls.
        self.syscalls.run_worker()

        # Back inside: resume threads whose syscalls completed.
        while True:
            request = self.syscalls.poll()
            if request is None:
                break
            tid = self._blocked.pop(request.slot)
            thread = self._threads[tid]
            thread.waiting_slot = None
            self.dispatch_log.append(("resume", tid))
            if request.error is not None:
                self._throw_into(thread, request.error)
            else:
                self._run_until_preemption(thread, send_value=request.result)
        return self.alive > 0

    def _pick_runnable(self) -> int:
        """Next runnable tid: FIFO, or schedule-driven when seeded."""
        if self.schedule is None or len(self._runnable) == 1:
            return self._runnable.popleft()
        index = self.schedule.pick(len(self._runnable))
        self._runnable.rotate(-index)
        tid = self._runnable.popleft()
        self._runnable.rotate(index)
        return tid

    def run_to_completion(self, max_rounds: int = 100_000) -> None:
        """Step until every green thread finishes."""
        for _ in range(max_rounds):
            if not self.step():
                return
        raise ConfigurationError("scheduler did not converge (livelock?)")

    # -- internals --------------------------------------------------------

    def _run_until_preemption(self, thread: GreenThread, send_value: Any) -> None:
        thread.context_switches += 1
        self.total_context_switches += 1
        if self.sanitizer is not None:
            self.sanitizer.on_dispatch(thread.tid)
        try:
            yielded = thread.generator.send(send_value)
        except StopIteration as stop:
            thread.finished = True
            thread.result = stop.value
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            thread.finished = True
            thread.error = exc
            return
        self._handle_yield(thread, yielded)

    def _throw_into(self, thread: GreenThread, error: BaseException) -> None:
        thread.context_switches += 1
        self.total_context_switches += 1
        if self.sanitizer is not None:
            self.sanitizer.on_dispatch(thread.tid)
        try:
            yielded = thread.generator.throw(error)
        except StopIteration as stop:
            thread.finished = True
            thread.result = stop.value
            return
        except BaseException as exc:  # noqa: BLE001
            thread.finished = True
            thread.error = exc
            return
        self._handle_yield(thread, yielded)

    def _handle_yield(self, thread: GreenThread, yielded: Any) -> None:
        if (
            isinstance(yielded, tuple)
            and len(yielded) >= 2
            and yielded[0] == "syscall"
        ):
            operation = yielded[1]
            args = yielded[2] if len(yielded) > 2 else ()
            slot = self.syscalls.submit(operation, *args)
            thread.waiting_slot = slot
            self._blocked[slot] = thread.tid
        elif yielded == "yield":
            # Voluntary reschedule without a syscall.
            self._runnable.append(thread.tid)
        else:
            thread.finished = True
            thread.error = ConfigurationError(
                f"green thread yielded unknown value {yielded!r}"
            )
