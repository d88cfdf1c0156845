"""Admission control: token buckets, bounded queue, AIMD, determinism."""

import pytest

from repro.core.admission import (
    ADMITTED,
    SHED_DEADLINE,
    SHED_QUEUE_DELAY,
    SHED_QUEUE_FULL,
    SHED_RATE,
    AdmissionConfig,
    AdmissionController,
    AdmissionQueue,
    AdaptiveLimiter,
    TokenBucket,
    _QueueEntry,
)
from repro.core.request import Request
from repro.core.session import SessionManager
from repro.telemetry import Telemetry


def _entry(seq, priority=1, at=0.0, deadline=None):
    return _QueueEntry(
        seq=seq, token=seq, priority=priority, enqueued_at=at,
        deadline=deadline, request=Request(method="get", key=f"k{seq}"),
        fingerprint="fp",
    )


# -- token bucket ----------------------------------------------------------

def test_bucket_allows_burst_then_refuses():
    bucket = TokenBucket(rate=1.0, burst=3.0, tokens=3.0, updated=0.0)
    assert all(bucket.try_take(0.0) for _ in range(3))
    assert not bucket.try_take(0.0)


def test_bucket_refills_with_virtual_time():
    bucket = TokenBucket(rate=2.0, burst=4.0, tokens=0.0, updated=0.0)
    assert not bucket.try_take(0.0)
    assert bucket.try_take(0.5)  # 0.5s * 2/s = 1 token
    assert bucket.seconds_until() == pytest.approx(0.5)


def test_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0, tokens=2.0, updated=0.0)
    bucket.try_take(100.0)
    assert bucket.tokens <= 2.0


def test_bucket_clock_never_runs_backwards():
    bucket = TokenBucket(rate=1.0, burst=5.0, tokens=0.0, updated=10.0)
    bucket.try_take(5.0)  # stale observation must not grow tokens
    assert bucket.tokens == 0.0
    assert bucket.updated == 10.0


# -- bounded priority queue ------------------------------------------------

def test_queue_dispatches_priority_then_fifo():
    queue = AdmissionQueue(depth=8, max_delay=1.0)
    queue.push(_entry(0, priority=1))
    queue.push(_entry(1, priority=2))
    queue.push(_entry(2, priority=2))
    assert [queue.pop().seq for _ in range(3)] == [1, 2, 0]


def test_queue_overflow_sheds_lowest_priority_newest():
    queue = AdmissionQueue(depth=2, max_delay=1.0)
    queue.push(_entry(0, priority=1))
    queue.push(_entry(1, priority=1))
    incoming = _entry(2, priority=2)
    victim = queue.push(incoming)
    assert victim is not None and victim.seq == 1  # newest low-priority
    assert len(queue) == 2
    assert queue.pop().seq == 2


def test_queue_overflow_rejects_incoming_when_it_ranks_lowest():
    queue = AdmissionQueue(depth=1, max_delay=1.0)
    queue.push(_entry(0, priority=2))
    incoming = _entry(1, priority=1)
    assert queue.push(incoming) is incoming
    assert len(queue) == 1


def test_queue_victim_skips_drained_priority_classes():
    # A class whose deque drained empty must not be picked as victim.
    queue = AdmissionQueue(depth=2, max_delay=1.0)
    queue.push(_entry(0, priority=0))
    assert queue.pop().seq == 0  # leaves empty class-0 deque behind
    queue.push(_entry(1, priority=1))
    queue.push(_entry(2, priority=1))
    victim = queue.push(_entry(3, priority=2))
    assert victim is not None and victim.seq == 2


def test_queue_expires_overdue_and_missed_deadlines():
    queue = AdmissionQueue(depth=8, max_delay=0.5)
    queue.push(_entry(0, at=0.0))                    # overdue at 1.0
    queue.push(_entry(1, at=0.9))                    # still fresh
    queue.push(_entry(2, at=0.9, deadline=0.95))     # missed deadline
    expired = queue.expire(1.0)
    assert [entry.seq for entry in expired] == [0, 2]
    assert len(queue) == 1


def test_queue_tracks_peak_depth():
    queue = AdmissionQueue(depth=8, max_delay=1.0)
    for seq in range(3):
        queue.push(_entry(seq))
    queue.pop()
    assert queue.peak_depth == 3


# -- AIMD limiter ----------------------------------------------------------

def test_limiter_additive_increase_multiplicative_decrease():
    config = AdmissionConfig(
        initial_limit=8, min_limit=1, max_limit=10,
        additive_increase=1, multiplicative_backoff=0.5,
        latency_target=0.01,
    )
    limiter = AdaptiveLimiter(config)
    limiter.observe(0.005)
    assert limiter.limit == 9
    limiter.observe(0.5)
    assert limiter.limit == 4
    for _ in range(20):
        limiter.observe(0.001)
    assert limiter.limit == 10  # capped at max


def test_limiter_never_below_min():
    limiter = AdaptiveLimiter(AdmissionConfig(initial_limit=2, min_limit=1))
    for _ in range(10):
        limiter.observe(1.0)
    assert limiter.limit == 1


# -- controller: rate path -------------------------------------------------

def _rate_controller(rate=1.0, burst=2.0, **kwargs):
    return AdmissionController(
        AdmissionConfig(rate_per_second=rate, burst=burst, **kwargs),
        sessions=SessionManager(),
    )


def test_rate_limit_sheds_429_with_retry_after():
    admission = _rate_controller(rate=1.0, burst=1.0)
    request = Request(method="get", key="k")
    assert admission.check(request, "fp-a", 0.0).admitted
    decision = admission.check(request, "fp-a", 0.0)
    assert not decision.admitted
    assert decision.reason == SHED_RATE
    response = decision.to_response()
    assert response.status == 429
    assert response.retry_after is not None and response.retry_after > 0


def test_rate_state_is_per_fingerprint():
    admission = _rate_controller(rate=1.0, burst=1.0)
    request = Request(method="get", key="k")
    assert admission.check(request, "fp-a", 0.0).admitted
    assert not admission.check(request, "fp-a", 0.0).admitted
    assert admission.check(request, "fp-b", 0.0).admitted


def test_rate_bucket_lives_on_the_session():
    sessions = SessionManager()
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=1.0), sessions=sessions
    )
    admission.check(Request(method="get", key="k"), "fp-a", 5.0)
    session = sessions.lookup("fp-a", now=5.0)
    assert isinstance(session.bucket, TokenBucket)


def test_rate_state_expires_with_the_session():
    sessions = SessionManager(expiry_seconds=10.0)
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=0.001, burst=1.0), sessions=sessions
    )
    request = Request(method="get", key="k")
    assert admission.check(request, "fp-a", 0.0).admitted
    assert not admission.check(request, "fp-a", 1.0).admitted
    # Long idle: the session (and its drained bucket) expires; the
    # reconnecting client starts with a fresh burst.
    assert admission.check(request, "fp-a", 1000.0).admitted


def test_rate_limiting_disabled_by_default():
    admission = AdmissionController(sessions=SessionManager())
    for _ in range(100):
        assert admission.check(Request(method="get", key="k"), "fp", 0.0).admitted


def test_sync_gate_keeps_no_per_request_log():
    """``check`` runs on every ``handle_bytes`` request; at d387684 it
    appended a tuple per call (10 001 entries here, 108.6 B each, for
    ever).  It now only advances the decision counter, so the
    Retry-After PRF still sees index 10 000 on the first shed."""
    admission = _rate_controller(rate=1000.0, burst=10000.0, seed=5)
    request = Request(method="get", key="k")
    for _ in range(10000):
        assert admission.check(request, "fp", 0.0).admitted
    shed = admission.check(request, "fp", 0.0)
    assert admission.decision_log == []
    assert (shed.reason, shed.retry_after) == (SHED_RATE, 0.053920524)
    assert admission.admitted == 10000
    assert admission.shed_by_reason == {SHED_RATE: 1}


def test_log_index_counts_sync_decisions_too():
    admission = _rate_controller(rate=None)
    admission.check(Request(method="get", key="k"), "fp", 0.0)
    _offer(admission, "t0")
    assert [entry[0] for entry in admission.decision_log] == [1]


# -- controller: queue path ------------------------------------------------

def _offer(admission, token, method="get", fp="fp", now=0.0, vnow=0.0,
           deadline=None):
    return admission.offer(
        token, Request(method=method, key="k"), fp, now, vnow,
        deadline=deadline,
    )


def test_offer_dispatch_roundtrip():
    admission = AdmissionController(sessions=SessionManager())
    assert _offer(admission, "t0").admitted
    assert admission.dispatch(0.0, budget=4) == ["t0"]
    assert admission.dispatch(0.0, budget=4) == []


def test_queue_full_sheds_503_and_reports_victims():
    admission = AdmissionController(
        AdmissionConfig(queue_depth=2), sessions=SessionManager()
    )
    _offer(admission, "r0", method="get")
    _offer(admission, "r1", method="get")
    decision = _offer(admission, "w0", method="put")  # outranks queued gets
    assert decision.admitted
    shed = admission.take_shed()
    assert [token for token, _d in shed] == ["r1"]
    shed_response = shed[0][1].to_response()
    assert shed_response.status == 503
    assert shed_response.retry_after is not None


def test_stale_entries_shed_at_dispatch():
    admission = AdmissionController(
        AdmissionConfig(max_queue_delay=0.5), sessions=SessionManager()
    )
    _offer(admission, "old", vnow=0.0)
    _offer(admission, "fresh", vnow=0.9)
    assert admission.dispatch(1.0, budget=8) == ["fresh"]
    shed = admission.take_shed()
    assert [token for token, _d in shed] == ["old"]
    assert shed[0][1].reason == SHED_QUEUE_DELAY


def test_deadline_shed_reason_distinguished():
    admission = AdmissionController(
        AdmissionConfig(max_queue_delay=100.0), sessions=SessionManager()
    )
    _offer(admission, "doomed", vnow=0.0, deadline=0.5)
    admission.dispatch(1.0, budget=8)
    [(token, decision)] = admission.take_shed()
    assert token == "doomed"
    assert decision.reason == SHED_DEADLINE


def test_snapshot_counts_every_outcome():
    admission = AdmissionController(
        AdmissionConfig(queue_depth=1), sessions=SessionManager()
    )
    _offer(admission, "a", method="get")
    _offer(admission, "b", method="get")  # incoming shed: queue full
    snapshot = admission.snapshot()
    assert snapshot["admitted"] == 1
    assert snapshot["shed"] == {SHED_QUEUE_FULL: 1}
    assert snapshot["queue_depth"] == 1
    assert snapshot["limit"] >= 1


# -- determinism -----------------------------------------------------------

def _exercise(admission):
    for index in range(16):
        _offer(admission, f"t{index}",
               method="put" if index % 3 else "get",
               vnow=index * 0.01)
    admission.dispatch(0.2, budget=4)
    return list(admission.decision_log)


def test_decision_log_is_replayable():
    config = AdmissionConfig(queue_depth=4, max_queue_delay=0.05, seed=9)
    first = _exercise(AdmissionController(config, sessions=SessionManager()))
    second = _exercise(AdmissionController(config, sessions=SessionManager()))
    assert first == second
    assert any(entry[1] != ADMITTED for entry in first)


def test_jitter_depends_on_seed():
    a = AdmissionController(
        AdmissionConfig(queue_depth=1, seed=1), sessions=SessionManager()
    )
    b = AdmissionController(
        AdmissionConfig(queue_depth=1, seed=2), sessions=SessionManager()
    )
    for admission in (a, b):
        _offer(admission, "x")
        _offer(admission, "y")
    assert a.decision_log != b.decision_log


def test_trace_lines_render_retry_after_fixed_width():
    admission = AdmissionController(
        AdmissionConfig(queue_depth=1), sessions=SessionManager()
    )
    _offer(admission, "x")
    _offer(admission, "y")
    lines = admission.trace_lines()
    assert lines[0].endswith("|-")          # admitted: no hint
    assert "." in lines[1].split("|")[-1]   # shed: formatted float


# -- telemetry -------------------------------------------------------------

def test_decisions_and_sheds_hit_the_registry():
    telemetry = Telemetry()
    admission = AdmissionController(
        AdmissionConfig(queue_depth=1),
        sessions=SessionManager(),
        telemetry=telemetry,
    )
    _offer(admission, "x")
    _offer(admission, "y")
    counter = telemetry.registry.get("pesos_admission_decisions_total")
    assert counter.labels(ADMITTED).value == 1
    assert counter.labels(SHED_QUEUE_FULL).value == 1
    spans = [s.name for s in telemetry.tracer.recent()]
    assert "admission.shed" in spans
