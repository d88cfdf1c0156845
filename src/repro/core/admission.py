"""Admission control and overload protection.

The controller serves many concurrent clients from inside a
memory-constrained enclave (§4.1 async request interface, §4.2 bounded
caches), but admitting work without limit means a traffic spike queues
every request: virtual-time p99 explodes and the async result buffer
evicts still-pending operations (``AsyncTracker.discarded_pending``
witnesses exactly this).  TEE stores collapse, rather than degrade,
once the trusted core saturates — so graceful shedding has to live in
the enforcement layer itself, between the web server and the
concurrent engine.

Three cooperating mechanisms, composed by
:class:`AdmissionController`:

- :class:`AdmissionQueue` — a bounded, priority-aware queue.  When it
  fills, the lowest-priority newest entry is shed (writes outrank
  reads: an admitted write carries a durability promise, a shed read
  is merely a retry).  Entries also carry a per-class queue-time
  deadline; anything that waited too long is shed at dispatch instead
  of serving a response nobody is waiting for anymore.
- :class:`TokenBucket` — per-session rate limits keyed by the TLS
  certificate fingerprint.  Buckets live *on* the
  :class:`~repro.core.session.Session` object (wired through
  :class:`~repro.core.session.SessionManager`), so rate state expires
  exactly when the session does and costs nothing extra to bound.
- :class:`AdaptiveLimiter` — an AIMD concurrency limiter driven by a
  virtual-time latency signal.  It governs how many green threads
  :meth:`repro.core.engine.ConcurrentEngine._admit` dispatches per
  scheduling round: additive increase while latency meets the target,
  multiplicative decrease when a round overruns it.

Shed requests answer ``429`` (rate-limited: the client itself is the
overload) or ``503`` (queue shed: the *system* is the overload), both
with a ``Retry-After`` hint — the same response plumbing
:class:`~repro.errors.ReplicationDegraded` uses.  The hint carries
seeded PRF jitter (a pure function of ``(seed, decision index)``, like
the fault schedules) so a thundering herd decorrelates without
breaking byte-replayability.  Every queue-path decision lands in
:attr:`AdmissionController.decision_log`, which the engine folds into
``trace_bytes()`` — two same-seed runs shed the same requests at the
same points, byte for byte.  The synchronous gate only counts its
decisions: nothing replays a log of one-at-a-time requests, and a list
that grows with every request served has no place in the enclave.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from repro.core.request import METHOD_TABLE, Request, Response, error_response
from repro.errors import OverloadShed, RateLimited
from repro.telemetry import NULL_TELEMETRY

#: Priority class per request method (the ``priority`` column of the
#: method table); higher is admitted first and shed last.
DEFAULT_PRIORITIES: dict[str, int] = {
    name: spec.priority for name, spec in METHOD_TABLE.items()
}

#: Shed reasons (the ``outcome`` metric label, bounded by design).
SHED_RATE = "rate_limited"
SHED_QUEUE_FULL = "queue_full"
SHED_QUEUE_DELAY = "queue_delay"
SHED_DEADLINE = "deadline"
ADMITTED = "admitted"


@dataclass
class AdmissionConfig:
    """Tuning knobs for one admission controller."""

    #: Maximum queued (admitted but not yet dispatched) requests.
    queue_depth: int = 64
    #: Virtual seconds a request may wait in the queue before it is
    #: shed at dispatch time (staleness bound).
    max_queue_delay: float = 0.05
    #: Per-session token refill rate (requests per virtual second);
    #: None disables rate limiting.
    rate_per_second: float | None = None
    #: Bucket capacity: how large a burst one session may land.
    burst: float = 16.0
    #: AIMD concurrency limiter bounds and steps.
    min_limit: int = 1
    max_limit: int = 64
    initial_limit: int = 8
    additive_increase: int = 1
    multiplicative_backoff: float = 0.5
    #: Virtual-time latency target per completed request; rounds above
    #: it back the limit off, rounds at or below it grow it.
    latency_target: float = 0.002
    #: Retry-After hint: base plus PRF-jittered extra, in seconds.
    retry_after_base: float = 0.05
    retry_after_jitter: float = 0.1
    #: Seed for the Retry-After jitter PRF; decisions stay a pure
    #: function of (seed, decision index).
    seed: int = 0
    priorities: dict = field(
        default_factory=lambda: dict(DEFAULT_PRIORITIES)
    )

    def priority_of(self, method: str) -> int:
        return self.priorities.get(method, 1)


@dataclass
class TokenBucket:
    """Virtual-time token bucket; state lives on the client session."""

    rate: float
    burst: float
    tokens: float
    updated: float

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Refill to ``now`` and take ``amount`` tokens if available."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = max(self.updated, now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def seconds_until(self, amount: float = 1.0) -> float:
        """Virtual seconds until ``amount`` tokens will be available."""
        deficit = amount - self.tokens
        if deficit <= 0.0 or self.rate <= 0.0:
            return 0.0
        return deficit / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ADMITTED
    status: int = 200
    retry_after: float | None = None

    def to_response(self) -> Response:
        """Render a shed decision through the standard error plumbing."""
        if self.admitted:
            raise ValueError("admitted requests have no shed response")
        exc: OverloadShed
        if self.status == RateLimited.status:
            exc = RateLimited(
                "session rate limit exceeded", retry_after=self.retry_after
            )
        else:
            exc = OverloadShed(
                f"request shed by admission control ({self.reason})",
                retry_after=self.retry_after,
            )
        return error_response(exc)


#: Shared decision for the common case (admitted, nothing to report).
ADMIT = AdmissionDecision(admitted=True)


@dataclass
class _QueueEntry:
    """One queued request plus its bookkeeping."""

    seq: int
    token: object
    priority: int
    enqueued_at: float
    deadline: float | None
    #: The request and the session that sent it, so a shed of this
    #: entry (evicted to make room, or expired) is audited like any.
    request: Request
    fingerprint: str


class AdmissionQueue:
    """Bounded priority queue with deadline/queue-time shedding.

    Dispatch order is priority-descending, FIFO within a class.  On
    overflow the *lowest-priority newest* entry loses — the incoming
    request itself when nothing queued ranks below it.
    """

    def __init__(self, depth: int, max_delay: float):
        self.depth = depth
        self.max_delay = max_delay
        #: priority -> FIFO of entries; small fixed set of classes.
        self._classes: dict[int, deque[_QueueEntry]] = {}
        self._size = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: _QueueEntry) -> _QueueEntry | None:
        """Enqueue ``entry``; returns the entry shed to make room (which
        may be ``entry`` itself), or None when nothing was shed."""
        victim = None
        if self._size >= self.depth:
            victim = self._pick_victim(entry)
            if victim is entry:
                return entry
            self._remove(victim)
        fifo = self._classes.setdefault(entry.priority, deque())
        fifo.append(entry)
        self._size += 1
        self.peak_depth = max(self.peak_depth, self._size)
        return victim

    def pop(self) -> _QueueEntry | None:
        """Dequeue the highest-priority oldest entry."""
        for priority in sorted(self._classes, reverse=True):
            fifo = self._classes[priority]
            if fifo:
                self._size -= 1
                return fifo.popleft()
        return None

    def expire(self, vnow: float) -> list[_QueueEntry]:
        """Remove every entry whose wait or deadline has run out."""
        expired: list[_QueueEntry] = []
        for fifo in self._classes.values():
            keep: deque[_QueueEntry] = deque()
            for entry in fifo:
                overdue = vnow - entry.enqueued_at > self.max_delay
                missed = (
                    entry.deadline is not None and vnow > entry.deadline
                )
                if overdue or missed:
                    expired.append(entry)
                else:
                    keep.append(entry)
            fifo.clear()
            fifo.extend(keep)
        self._size -= len(expired)
        expired.sort(key=lambda e: e.seq)
        return expired

    def _pick_victim(self, incoming: _QueueEntry) -> _QueueEntry:
        occupied = [p for p, fifo in self._classes.items() if fifo]
        if not occupied:
            return incoming
        lowest = min(occupied)
        if incoming.priority <= lowest:
            return incoming
        return self._classes[lowest][-1]  # newest of the lowest class

    def _remove(self, entry: _QueueEntry) -> None:
        self._classes[entry.priority].remove(entry)
        self._size -= 1


class AdaptiveLimiter:
    """AIMD concurrency limit on a virtual-time latency signal."""

    def __init__(self, config: AdmissionConfig):
        self._config = config
        self.limit = config.initial_limit
        self.increases = 0
        self.backoffs = 0

    def observe(self, latency: float) -> None:
        """Feed one round's mean per-request virtual latency."""
        config = self._config
        if latency > config.latency_target:
            shrunk = int(self.limit * config.multiplicative_backoff)
            self.limit = max(config.min_limit, shrunk)
            self.backoffs += 1
        else:
            self.limit = min(
                config.max_limit, self.limit + config.additive_increase
            )
            self.increases += 1


class AdmissionController:
    """Overload protection between the web server and the engine.

    One instance guards one controller.  The synchronous
    request path uses :meth:`check` (rate limit only — there is no
    queue when requests are served one at a time); the concurrent
    engine uses :meth:`offer` / :meth:`dispatch` / :meth:`observe` and
    lets the limiter govern its per-round dispatch width.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        sessions=None,
        telemetry=None,
    ):
        self.config = config or AdmissionConfig()
        #: The SessionManager whose sessions carry the token buckets;
        #: bound by :meth:`attach` when not given here.
        self.sessions = sessions
        self.telemetry = telemetry or NULL_TELEMETRY
        self.queue = AdmissionQueue(
            self.config.queue_depth, self.config.max_queue_delay
        )
        self.limiter = AdaptiveLimiter(self.config)
        #: Every :meth:`offer` / :meth:`dispatch` decision in order:
        #: ``(index, outcome, status, retry_after)``.  Appended
        #: deterministically, folded into the engine trace.
        self.decision_log: list[tuple] = []
        #: Decisions made so far on either path: the log index and the
        #: Retry-After PRF input.
        self._decisions = 0
        #: Shed queue entries not yet claimed by the caller:
        #: ``(token, decision)`` pairs (see :meth:`take_shed`).
        self._shed: list[tuple[object, AdmissionDecision]] = []
        #: Optional :class:`repro.sgx.auditlog.AuditLog` (the
        #: controller's, via :meth:`attach`): every shed at the
        #: admission gate lands in the same tamper-evident chain as
        #: policy verdicts — the audit trail then answers "why did this
        #: session get a 429/503?" alongside "which clause allowed it?".
        self.auditor = None
        self._seq = 0
        self.admitted = 0
        self.shed_by_reason: dict[str, int] = {}
        self._bind_instruments()

    def attach(self, controller) -> "AdmissionController":
        """Wire this gate to the controller it guards.

        Every front end calls this, so a shed is counted and audited
        whichever of them admitted the request.  The controller's
        sessions (the token buckets live there), telemetry and audit
        chain fill only what construction left empty: an explicit
        choice wins, and only the null telemetry default is replaced.
        """
        if self.sessions is None:
            self.sessions = controller.sessions
        if self.telemetry is NULL_TELEMETRY:
            self.telemetry = controller.telemetry
            self._bind_instruments()
        if self.auditor is None:
            self.auditor = controller.auditor
        return self

    def _bind_instruments(self) -> None:
        self._m_decisions = self.telemetry.counter(
            "pesos_admission_decisions_total",
            "Admission decisions, by outcome.",
            ("outcome",),
        )
        self._g_queue = self.telemetry.gauge(
            "pesos_admission_queue_depth",
            "Requests currently waiting in the admission queue.",
        )
        self._g_limit = self.telemetry.gauge(
            "pesos_admission_limit",
            "Current AIMD concurrency limit (dispatches per round).",
        )
        self._h_wait = self.telemetry.histogram(
            "pesos_admission_queue_wait_seconds",
            "Virtual seconds admitted requests waited before dispatch.",
        )
        self._g_limit.set(self.limiter.limit)

    # -- rate limiting (sync + concurrent paths) ---------------------------

    def check(
        self, request: Request, fingerprint: str, now: float
    ) -> AdmissionDecision:
        """Per-session token-bucket check; the synchronous gate."""
        decision = self._record(
            self._check_rate(request, fingerprint, now), log=False
        )
        self._audit_shed(decision, request, fingerprint, now)
        return decision

    def _check_rate(
        self, request: Request, fingerprint: str, now: float
    ) -> AdmissionDecision:
        config = self.config
        if config.rate_per_second is None or self.sessions is None:
            return ADMIT
        session = self.sessions.connect(fingerprint, now=now)
        bucket = session.bucket
        if not isinstance(bucket, TokenBucket):
            bucket = TokenBucket(
                rate=config.rate_per_second,
                burst=config.burst,
                tokens=config.burst,
                updated=now,
            )
            session.bucket = bucket
        if bucket.try_take(now):
            return ADMIT
        hint = max(bucket.seconds_until(), self._jitter(SHED_RATE))
        return AdmissionDecision(
            admitted=False,
            reason=SHED_RATE,
            status=RateLimited.status,
            retry_after=round(hint, 9),
        )

    # -- queue (concurrent path) -------------------------------------------

    def offer(
        self,
        token: object,
        request: Request,
        fingerprint: str,
        now: float,
        vnow: float,
        deadline: float | None = None,
    ) -> AdmissionDecision:
        """Rate-check then enqueue one request for later dispatch.

        ``token`` is the caller's handle (an engine item, a bench op);
        it comes back from :meth:`dispatch` when admitted, or from
        :meth:`take_shed` when the queue later sheds it to make room.
        Returns the decision for *this* request only.
        """
        decision = self._check_rate(request, fingerprint, now)
        if not decision.admitted:
            decision = self._record(decision)
            self._audit_shed(decision, request, fingerprint, vnow)
            return decision
        entry = _QueueEntry(
            seq=self._next_seq(),
            token=token,
            priority=self.config.priority_of(request.method),
            enqueued_at=vnow,
            deadline=deadline,
            request=request,
            fingerprint=fingerprint,
        )
        victim = self.queue.push(entry)
        self._g_queue.set(len(self.queue))
        if victim is entry:
            decision = self._record(self._shed_decision(SHED_QUEUE_FULL))
            self._audit_shed(decision, request, fingerprint, vnow)
            return decision
        if victim is not None:
            self._shed_queued(victim, SHED_QUEUE_FULL, vnow)
        return self._record(ADMIT)

    def dispatch(self, vnow: float, budget: int) -> list[object]:
        """Pop up to ``budget`` runnable tokens, shedding stale entries.

        Entries whose queue wait exceeded ``max_queue_delay`` — or
        whose absolute deadline passed — are shed here rather than
        served: by the time they would run, nobody is waiting.
        """
        for entry in self.queue.expire(vnow):
            reason = (
                SHED_DEADLINE
                if entry.deadline is not None and vnow > entry.deadline
                else SHED_QUEUE_DELAY
            )
            self._shed_queued(entry, reason, vnow)
        ready: list[object] = []
        while len(ready) < budget:
            entry = self.queue.pop()
            if entry is None:
                break
            self._h_wait.observe(max(0.0, vnow - entry.enqueued_at))
            ready.append(entry.token)
        self._g_queue.set(len(self.queue))
        return ready

    def take_shed(self) -> list[tuple[object, AdmissionDecision]]:
        """Claim (token, decision) pairs for entries shed from the queue."""
        shed, self._shed = self._shed, []
        return shed

    def observe(self, latency: float) -> None:
        """Feed the limiter one round's latency signal."""
        self.limiter.observe(latency)
        self._g_limit.set(self.limiter.limit)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Operator view, merged into ``GET /_health``."""
        return {
            "queue_depth": len(self.queue),
            "peak_queue_depth": self.queue.peak_depth,
            "limit": self.limiter.limit,
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed_by_reason.items())),
        }

    def trace_lines(self) -> list[str]:
        """Canonical byte record of every decision, for replay checks."""
        return [
            "|".join(str(part) for part in entry)
            for entry in self.decision_log
        ]

    # -- internals ---------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _shed_decision(self, reason: str) -> AdmissionDecision:
        return AdmissionDecision(
            admitted=False,
            reason=reason,
            status=OverloadShed.status,
            retry_after=round(self._jitter(reason), 9),
        )

    def _shed_queued(
        self, entry: _QueueEntry, reason: str, vnow: float
    ) -> None:
        """Shed an entry that was already admitted to the queue."""
        decision = self._record(self._shed_decision(reason))
        self._audit_shed(decision, entry.request, entry.fingerprint, vnow)
        self._shed.append((entry.token, decision))

    def _jitter(self, reason: str) -> float:
        """Seeded PRF Retry-After: pure in (seed, decision index)."""
        config = self.config
        digest = hashlib.sha256(
            f"{config.seed}:{self._decisions}:{reason}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        return config.retry_after_base + frac * config.retry_after_jitter

    def _audit_shed(
        self,
        decision: AdmissionDecision,
        request: Request,
        fingerprint: str,
        vnow: float,
    ) -> None:
        """Append a shed to the audit chain, whatever shed it."""
        if decision.admitted or self.auditor is None:
            return
        self.auditor.record_shed(
            method=request.method,
            reason=decision.reason,
            session=fingerprint,
            key=request.key or "",
            vnow=vnow,
        )

    def _record(
        self, decision: AdmissionDecision, log: bool = True
    ) -> AdmissionDecision:
        if log:
            self.decision_log.append(
                (
                    self._decisions,
                    decision.reason,
                    decision.status,
                    "-"
                    if decision.retry_after is None
                    else f"{decision.retry_after:.9f}",
                )
            )
        self._decisions += 1
        if decision.admitted:
            self.admitted += 1
        else:
            self.shed_by_reason[decision.reason] = (
                self.shed_by_reason.get(decision.reason, 0) + 1
            )
            with self.telemetry.span(
                "admission.shed",
                reason=decision.reason,
                status=decision.status,
            ):
                pass
        self._m_decisions.labels(decision.reason).inc()
        return decision
