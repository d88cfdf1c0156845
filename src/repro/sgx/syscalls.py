"""Asynchronous system-call interface (FlexSC / Scone style).

Trap instructions are illegal inside an enclave; a synchronous call
therefore costs an enclave exit + re-enter.  Scone instead passes
syscalls through shared memory: the in-enclave wrapper writes arguments
into a *slot*, pushes the slot index onto a submission queue, and an
untrusted runtime thread outside the enclave executes the call and
pushes the index back on a return queue (§4.6).

This module implements that machinery functionally — real slots, real
queues, an untrusted worker that executes Python callables — so tests
can demonstrate ordering and slot reuse, and the concurrent engine
carries every drive operation through it.  Arguments cross as they
are: what the engine submits is already sealed by the store and
signed by the Kinetic client.  Benchmarks charge per-call virtual-time
costs from the cost model instead of running the worker.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError, PesosError
from repro.telemetry import NULL_TELEMETRY


class SyscallQueueFull(PesosError):
    """All syscall slots are in flight; the caller must back off."""


@dataclass
class SyscallRequest:
    """One in-flight system call occupying a slot."""

    slot: int
    operation: str
    args: tuple = ()
    result: Any = None
    error: BaseException | None = None
    done: bool = False


class AsyncSyscallInterface:
    """Slots + submission/return queues between enclave and runtime."""

    def __init__(self, num_slots: int = 64, telemetry=None):
        if num_slots < 1:
            raise ConfigurationError("need at least one syscall slot")
        self._slots: list[SyscallRequest | None] = [None] * num_slots
        self._free: deque[int] = deque(range(num_slots))
        self._submission: deque[int] = deque()
        self._returns: deque[int] = deque()
        self._handlers: dict[str, Callable[..., Any]] = {}
        self.submitted = 0
        self.completed = 0
        #: Batched-submission accounting (see :meth:`coalesce_submissions`):
        #: how many grouped submissions the untrusted worker received,
        #: and how many individual calls rode along in an existing group.
        self.batched_submissions = 0
        self.coalesced_calls = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_syscalls = self.telemetry.counter(
            "pesos_sgx_syscalls_total",
            "Async syscall interface activity, by phase and operation.",
            ("phase", "operation"),
        )

    # -- untrusted-runtime side ------------------------------------------

    def register_handler(self, operation: str, handler: Callable[..., Any]) -> None:
        """Install the untrusted implementation of an operation."""
        self._handlers[operation] = handler

    def run_worker(self, max_calls: int | None = None) -> int:
        """Drain the submission queue like a syscall thread; returns count."""
        executed = 0
        while self._submission and (max_calls is None or executed < max_calls):
            slot_index = self._submission.popleft()
            request = self._slots[slot_index]
            assert request is not None, "submitted slot must be populated"
            handler = self._handlers.get(request.operation)
            try:
                if handler is None:
                    raise PesosError(f"ENOSYS: {request.operation}")
                request.result = handler(*request.args)
            except BaseException as exc:  # noqa: BLE001 - errno semantics
                request.error = exc
            request.done = True
            self._returns.append(slot_index)
            executed += 1
        return executed

    def coalesce_submissions(
        self, key_fn: Callable[[SyscallRequest], Any]
    ) -> int:
        """Stably group queued submissions by ``key_fn`` before the worker.

        Calls heading to the same destination (e.g. the same Kinetic
        drive) become one *batched submission*: the queue is reordered
        so equal-key entries are adjacent — first-appearance order of
        keys and the relative order within a key are both preserved, so
        the result is a pure function of the queue contents and the
        grouping stays replayable.  Returns the number of groups; the
        ``batched_submissions`` / ``coalesced_calls`` counters record
        how much submission traffic the batching saved.
        """
        if len(self._submission) < 2:
            groups = len(self._submission)
            self.batched_submissions += groups
            return groups
        buckets: dict[Any, list[int]] = {}
        for slot_index in self._submission:
            request = self._slots[slot_index]
            assert request is not None, "submitted slot must be populated"
            buckets.setdefault(key_fn(request), []).append(slot_index)
        self._submission.clear()
        for slots in buckets.values():
            self._submission.extend(slots)
            self.batched_submissions += 1
            self.coalesced_calls += len(slots) - 1
        return len(buckets)

    # -- enclave side -------------------------------------------------------

    def submit(self, operation: str, *args: Any) -> int:
        """Populate a slot and enqueue it; returns the slot index."""
        if not self._free:
            raise SyscallQueueFull("no free syscall slots")
        slot_index = self._free.popleft()
        self._slots[slot_index] = SyscallRequest(
            slot=slot_index, operation=operation, args=args
        )
        self._submission.append(slot_index)
        self.submitted += 1
        self._m_syscalls.labels("submitted", operation).inc()
        return slot_index

    def poll(self) -> SyscallRequest | None:
        """Pop one completed request from the return queue, if any."""
        if not self._returns:
            return None
        slot_index = self._returns.popleft()
        request = self._slots[slot_index]
        assert request is not None and request.done
        self._slots[slot_index] = None
        self._free.append(slot_index)
        self.completed += 1
        self._m_syscalls.labels("completed", request.operation).inc()
        return request

    def call(self, operation: str, *args: Any) -> Any:
        """Submit + run worker + poll: the synchronous convenience path."""
        self.submit(operation, *args)
        self.run_worker()
        request = self.poll()
        assert request is not None
        if request.error is not None:
            raise request.error
        return request.result

    @property
    def in_flight(self) -> int:
        return len(self._slots) - len(self._free)
