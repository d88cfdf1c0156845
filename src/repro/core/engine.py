"""Concurrent request execution engine (§4.6).

Pesos gets its throughput from Scone's userspace threading: requests
overlap drive I/O instead of idling through it.  This module puts that
mechanism on the request path.  Each incoming request runs as a green
thread on the :class:`~repro.sgx.scheduler.UserspaceScheduler`; every
Kinetic drive operation becomes a *preemption point* — the green
thread submits the call on the async syscall interface and yields, so
other requests proceed while the I/O is "in flight".

Three pieces make this work without rewriting the synchronous request
path into generators:

- :class:`ThreadTask` adapts a plain callable to the generator protocol
  (``send``/``throw``) by running it on a private OS thread with strict
  rendezvous handoff: exactly one thread — the scheduler's or one
  task's — is ever runnable, so execution stays fully deterministic
  and the existing scheduler drives it unchanged.
- A client-level *interceptor* (:attr:`KineticClient.interceptor`)
  routes ``get``/``put``/``delete``/``commit`` through the engine: on a task
  thread the call suspends and travels through
  :class:`~repro.sgx.syscalls.AsyncSyscallInterface`; on the main
  thread (bootstrap, load phases) it executes inline.
- Per-key request holds in the controller's one lock table
  (:class:`repro.core.txn.VllManager`) keep overlapping
  non-transactional operations on the same object serializable, among
  themselves and against transactions.

Dispatch order is driven by a seeded
:class:`~repro.sgx.scheduler.DispatchSchedule`, so any interleaving a
test or benchmark observes can be reproduced from its seed; adjacent
drive operations to the same drive are coalesced into batched
submissions before the untrusted worker runs.

Virtual time: the engine charges a simple overlap-aware cost model
(:data:`ENGINE_TIMING`) as it runs — drives serve their per-round
batches in parallel, enclave CPU is serial — so benchmarks can compare
concurrent against sequential execution in virtual seconds while the
functional behaviour stays bit-exact.  Its values derive from the
constants the discrete-event benchmarks are calibrated with.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Any

from repro.core.admission import AdmissionController
from repro.core.request import METHOD_TABLE, Request, Response
from repro.errors import ConfigurationError
from repro.kinetic.timing import SimulatorTiming
from repro.sgx.costs import SGX_COSTS
from repro.sgx.scheduler import DispatchSchedule, UserspaceScheduler
from repro.sgx.syscalls import AsyncSyscallInterface

#: Lock mode per request method, for the methods that take a request
#: lock at all (the ``lock`` column of the method table).
LOCK_MODES = {
    name: spec.lock for name, spec in METHOD_TABLE.items() if spec.lock
}


class ThreadTask:
    """Generator-protocol adapter running a callable on its own thread.

    The scheduler calls :meth:`send`/:meth:`throw` exactly as it would
    on a generator; the wrapped callable receives a :class:`TaskHandle`
    whose :meth:`~TaskHandle.emit` plays the role of ``yield`` — and
    works at *any* call depth, which is the whole point: the store's
    drive calls can suspend the request without the request path being
    generator-shaped.  Handoff is a strict rendezvous over two queues,
    so at most one side is ever running.
    """

    def __init__(self, fn):
        self._fn = fn
        self._to_task: SimpleQueue = SimpleQueue()
        self._from_task: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._started = False

    def _main(self) -> None:
        try:
            result = self._fn(TaskHandle(self))
        except BaseException as exc:  # noqa: BLE001 - re-raised in send()
            self._from_task.put(("raise", exc))
        else:
            self._from_task.put(("return", result))

    # -- generator protocol (scheduler side) ------------------------------

    def send(self, value: Any) -> Any:
        if not self._started:
            self._started = True
            self._thread.start()
        else:
            self._to_task.put(("value", value))
        return self._receive()

    def throw(self, error: BaseException) -> Any:
        if not self._started:
            raise error
        self._to_task.put(("error", error))
        return self._receive()

    def _receive(self) -> Any:
        kind, payload = self._from_task.get()
        if kind == "yield":
            return payload
        if kind == "return":
            stop = StopIteration()
            stop.value = payload
            raise stop
        raise payload


class TaskHandle:
    """The task side of the rendezvous: ``emit`` == ``yield``."""

    def __init__(self, task: ThreadTask):
        self._task = task

    def emit(self, value: Any) -> Any:
        """Yield ``value`` to the scheduler; returns what it sends back."""
        self._task._from_task.put(("yield", value))
        kind, payload = self._task._to_task.get()
        if kind == "error":
            raise payload
        return payload


@dataclass(frozen=True)
class EngineTiming:
    """Virtual-time cost model for engine runs.

    Enclave CPU is serial (charged per dispatched segment); drives
    serve their per-round batches in parallel with a fixed cost per
    *batched* submission — which is what coalescing saves — plus a
    per-operation service time.  No field has a number of its own
    (DESIGN.md §6): a request of k drive frames runs k + 1 segments, so
    at ``request_parse / 2`` a segment the one-frame base case costs
    its ``request_parse`` and each further frame what the DES charges
    for one (``disk_op_cpu``, to within 6 %); a batch pays the
    simulator's per-visit floor ``base_seconds`` once and each
    operation its share of the throughput, ``base_seconds /
    concurrency``; a submission is one ``syscall_async``.
    """

    cpu_per_segment: float
    drive_base: float
    drive_per_op: float
    syscall_submit: float


_SIM = SimulatorTiming()
ENGINE_TIMING = EngineTiming(
    cpu_per_segment=SGX_COSTS.request_parse / 2,
    drive_base=_SIM.base_seconds,
    drive_per_op=_SIM.base_seconds / _SIM.concurrency,
    syscall_submit=SGX_COSTS.syscall_async,
)


@dataclass
class _Item:
    """One submitted request plus its bookkeeping."""

    index: int
    request: Request
    fingerprint: str
    now: float
    response: Response | None = None
    tid: int | None = None
    #: Virtual time at which the item entered the admission queue;
    #: completion latency (queue wait included) is measured from here.
    vqueued: float = 0.0


@dataclass
class EngineStats:
    requests: int = 0
    rounds: int = 0
    drive_ops: int = 0
    batched_submissions: int = 0
    coalesced_calls: int = 0
    lock_spins: int = 0
    virtual_seconds: float = 0.0
    context_switches: int = 0
    shed_requests: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class ConcurrentEngine:
    """Runs batches of requests concurrently over one controller.

    Usage::

        engine = ConcurrentEngine(controller, seed=7, hardware_threads=8)
        for request, fingerprint in batch:
            engine.submit(request, fingerprint)
        responses = engine.run()        # submission order
        engine.close()

    ``seed`` fixes the dispatch schedule: two engines built with the
    same seed over equivalent controllers produce byte-identical
    orderings (see :meth:`trace_bytes`).  ``hardware_threads`` is the
    worker count — how many green threads advance per scheduling round
    (1 degenerates to sequential execution with identical accounting,
    which is the benchmark baseline).
    """

    def __init__(
        self,
        controller,
        seed: int = 0,
        hardware_threads: int = 8,
        max_inflight: int = 32,
        coalesce: bool = True,
        sanitizer=None,
        admission: AdmissionController | None = None,
    ):
        if max_inflight < 1:
            raise ConfigurationError("need at least one in-flight request")
        self.controller = controller
        self.seed = seed
        #: Overload protection (see :mod:`repro.core.admission`).  When
        #: set, submitted requests pass its rate limiter and bounded
        #: queue, and its AIMD limiter caps how many green threads each
        #: scheduling round dispatches.  Shed requests answer 429/503
        #: with Retry-After and never reach the controller.
        self.admission = admission
        if admission is not None:
            admission.attach(controller)
        #: Concurrency-sanitizer hooks (see :mod:`repro.analysis`), or
        #: ``None``: then each event site costs one ``is not None`` test.
        self.sanitizer = sanitizer
        self.coalesce = coalesce
        self.syscalls = AsyncSyscallInterface(
            num_slots=max(64, 2 * max_inflight),
            telemetry=getattr(controller, "telemetry", None),
        )
        self.syscalls.register_handler("drive_op", self._exec_drive_op)
        self.schedule = DispatchSchedule(seed)
        self.scheduler = UserspaceScheduler(
            self.syscalls,
            hardware_threads=hardware_threads,
            schedule=self.schedule,
            before_worker=self._before_worker,
        )
        self.max_inflight = max_inflight
        self.stats = EngineStats()
        #: Completion order: ``(index, method, key, status, version)``
        #: per finished request — the engine's linearization record.
        self.completion_log: list[tuple] = []
        self._items: list[_Item] = []
        self._pending: deque[_Item] = deque()
        self._round_latencies: list[float] = []
        self._local = threading.local()
        self._locks = controller.txns
        self._clients = list(controller.store.clients)
        self._client_index = {
            id(client): i for i, client in enumerate(self._clients)
        }
        self._last_switches = 0
        controller.store.install_io_interceptor(self._io_interceptor)
        # Fan the sanitizer out to every instrumented layer this engine
        # drives; close() restores None.
        self.scheduler.sanitizer = self.sanitizer
        self._locks.sanitizer = self.sanitizer

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Uninstall the drive interceptor (engine no longer usable)."""
        self.controller.store.install_io_interceptor(None)
        self.scheduler.sanitizer = None
        self._locks.sanitizer = None

    def __enter__(self) -> "ConcurrentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission and execution -----------------------------------------

    def submit(
        self, request: Request, fingerprint: str = "fp", now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> int:
        """Queue one request; returns its index into :meth:`run`'s result."""
        item = _Item(
            index=len(self._items),
            request=request,
            fingerprint=fingerprint,
            now=now,
        )
        self._items.append(item)
        item.vqueued = self.stats.virtual_seconds
        if self.admission is None:
            self._pending.append(item)
            return item.index
        decision = self.admission.offer(
            item, request, fingerprint, now, vnow=item.vqueued
        )
        if not decision.admitted:
            item.response = decision.to_response()
            self.stats.shed_requests += 1
            self._record_slo(item)
        self._collect_shed()
        return item.index

    def run(self, max_rounds: int = 1_000_000) -> list[Response]:
        """Execute everything submitted; responses in submission order."""
        for _ in range(max_rounds):
            self._admit()
            alive = self.scheduler.step()
            self.stats.rounds += 1
            if self.admission is not None and self._round_latencies:
                # One AIMD observation per round: the mean virtual
                # latency (queue wait included) of this round's
                # completions.  Deterministic — both the sample set and
                # the fold order follow the dispatch schedule.
                samples = self._round_latencies
                self.admission.observe(sum(samples) / len(samples))
                self._round_latencies = []
            if not alive and not self._pending and not self._queued():
                break
        else:
            raise ConfigurationError(
                "engine did not converge (livelock?)"
            )
        self._surface_failures()
        return [item.response for item in self._items]

    def _queued(self) -> int:
        return 0 if self.admission is None else len(self.admission.queue)

    def run_batch(
        self,
        requests: list,
        fingerprint: str = "fp",
        now: float = 0.0,  # pesos: allow[det-default-clock]
    ) -> list[Response]:
        """Convenience: submit a batch of requests and run it."""
        for entry in requests:
            if isinstance(entry, tuple):
                request, fp = entry
            else:
                request, fp = entry, fingerprint
            self.submit(request, fp, now=now)
        return self.run()

    def _admit(self) -> None:
        """Keep up to ``max_inflight`` requests live on the scheduler.

        With an admission controller attached, the effective width is
        the smaller of ``max_inflight`` and the AIMD limit, and the
        dispatch order (plus any queue-time shedding) is the admission
        queue's.
        """
        if self.admission is None:
            while self._pending and self.scheduler.alive < self.max_inflight:
                self._spawn(self._pending.popleft())
            return
        width = min(self.max_inflight, self.admission.limiter.limit)
        budget = width - self.scheduler.alive
        if budget > 0:
            vnow = self.stats.virtual_seconds
            for item in self.admission.dispatch(vnow, budget):
                self._spawn(item)
        self._collect_shed()

    def _spawn(self, item: _Item) -> None:
        task = ThreadTask(
            lambda handle, item=item: self._serve(handle, item)
        )
        item.tid = self.scheduler.spawn(task).tid
        self.stats.requests += 1

    def _collect_shed(self) -> None:
        """Answer queue entries the admission controller shed."""
        for item, decision in self.admission.take_shed():
            item.response = decision.to_response()
            self.stats.shed_requests += 1
            self._record_slo(item)

    def _record_slo(self, item: _Item) -> None:
        """Fold one finished (or shed) request into the SLO budgets.

        Latency is virtual queue-to-completion time — the same signal
        the AIMD limiter consumes — so SLO burn under the engine is a
        pure function of the dispatch schedule.
        """
        vnow = self.stats.virtual_seconds
        self.controller.telemetry.record_request(
            item.request.method,
            item.response is not None and item.response.ok,
            max(0.0, vnow - item.vqueued),
            vnow,
        )

    def _surface_failures(self) -> None:
        """Map green-thread crashes to 500 responses, in order."""
        threads = self.scheduler._threads
        for item in self._items:
            if item.response is None and item.tid is not None:
                thread = threads.get(item.tid)
                error = thread.error if thread is not None else None
                item.response = Response(
                    status=500,
                    error=f"request thread failed: {error!r}",
                )

    # -- one request, as a green thread ------------------------------------

    def _lock_mode(self, request: Request) -> str | None:
        """Request-lock mode for one request (``"w"``/``"r"``/None).

        A seam on purpose: the sanitizer regression test overrides this
        to drop the locks and prove the race detector fires.
        """
        return LOCK_MODES.get(request.method)

    def _serve(self, handle: TaskHandle, item: _Item) -> Response:
        self._local.handle = handle
        request = item.request
        mode = self._lock_mode(request)
        exclusive = mode == "w"
        if mode is not None and request.key:
            # Spin-yield acquisition: on contention, park for one
            # scheduling round and retry.  Requests hold at most one
            # key lock, so there is no hold-and-wait and no deadlock.
            while not self._locks.try_acquire(request.key, exclusive):
                self.stats.lock_spins += 1
                handle.emit("yield")
        try:
            response = self.controller.handle(
                request, item.fingerprint, item.now
            )
        finally:
            if mode is not None and request.key:
                self._locks.release(request.key, exclusive)
        item.response = response
        if self.admission is not None:
            self._round_latencies.append(
                max(0.0, self.stats.virtual_seconds - item.vqueued)
            )
        self._record_slo(item)
        self.completion_log.append(
            (
                item.index,
                request.method,
                request.key or "",
                response.status,
                -1 if response.version is None else response.version,
            )
        )
        return response

    # -- drive I/O as preemption points ------------------------------------

    def _io_interceptor(self, client, op: str, args: tuple, kwargs: dict):
        handle = getattr(self._local, "handle", None)
        if handle is None:
            # Main thread (bootstrap, load phase, admin): inline.
            return client.direct(op, *args, **kwargs)  # pesos: allow[core-drive-io]
        if self.sanitizer is not None and args:
            # The disk key is the shared state two requests can clobber;
            # report the access on the issuing thread, at submission
            # time, while the shadow state still attributes to it.  A
            # commit frame writes every key it names.
            keys = [o.key for o in args[0]] if op == "commit" else args[:1]
            for key in keys:
                self.sanitizer.on_access(key, op != "get")
        index = self._client_index[id(client)]
        return handle.emit(
            ("syscall", "drive_op", (index, op, args, kwargs))
        )

    def _exec_drive_op(self, index: int, op: str, args: tuple, kwargs: dict):
        """Untrusted-worker side: execute the real drive call."""
        self.stats.drive_ops += 1
        return self._clients[index].direct(op, *args, **kwargs)  # pesos: allow[core-drive-io]

    # -- per-round hook: coalescing + virtual time -------------------------

    def _drive_of(self, request) -> int:
        return request.args[0]

    def _before_worker(self) -> None:
        ops_per_drive: dict[int, int] = {}
        for slot_index in self.syscalls._submission:
            slot = self.syscalls._slots[slot_index]
            ops_per_drive[slot.args[0]] = (
                ops_per_drive.get(slot.args[0], 0) + 1
            )
        if self.coalesce:
            self.syscalls.coalesce_submissions(self._drive_of)
            submissions = len(ops_per_drive)
        else:
            submissions = sum(ops_per_drive.values())
        self.stats.batched_submissions = self.syscalls.batched_submissions
        self.stats.coalesced_calls = self.syscalls.coalesced_calls

        # Virtual time for this round: serial enclave CPU for every
        # dispatched segment and syscall submission, then the drives
        # serve their round batches in parallel with one another.  A
        # coalesced batch pays the drive's base cost once; uncoalesced
        # traffic pays it per operation.
        timing = ENGINE_TIMING
        switches = self.scheduler.total_context_switches
        segments = switches - self._last_switches
        self._last_switches = switches
        self.stats.context_switches = switches
        drive_seconds = 0.0
        for count in ops_per_drive.values():
            base = timing.drive_base * (1 if self.coalesce else count)
            drive_seconds = max(
                drive_seconds, base + count * timing.drive_per_op
            )
        self.stats.virtual_seconds += (
            segments * timing.cpu_per_segment
            + submissions * timing.syscall_submit
            + drive_seconds
        )

    # -- reproducibility ----------------------------------------------------

    def dispatch_trace(self) -> list[tuple[str, int]]:
        return list(self.scheduler.dispatch_log)

    def trace_bytes(self) -> bytes:
        """Canonical byte record of everything order-dependent.

        Two runs with the same seed over equivalent controllers must
        produce identical bytes; a differing seed almost surely will
        not.  This is the artifact the determinism acceptance test
        compares.
        """
        lines = [
            "|".join(str(part) for part in entry)
            for entry in self.completion_log
        ]
        lines.append("--dispatch--")
        lines.extend(
            f"{event}:{tid}" for event, tid in self.scheduler.dispatch_log
        )
        if self.admission is not None:
            # Admission decisions are part of the replayable schedule:
            # a same-seed run must shed the same requests with the same
            # Retry-After hints at the same decision points.
            lines.append("--admission--")
            lines.extend(self.admission.trace_lines())
        return "\n".join(lines).encode()
