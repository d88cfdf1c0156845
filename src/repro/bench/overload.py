"""Overload sweep: goodput as offered load passes capacity.

The admission layer (:mod:`repro.core.admission`) exists for exactly
one scenario: offered load exceeds what the enclave can serve.  This
sweep reproduces it as an open-loop arrival process in virtual time —
clients do not slow down when the server does — at offered rates from
0.5x to 4x measured capacity, and records goodput (successful
responses per virtual second), latency, and queue depth with and
without admission control.

Why the unprotected series collapses: every queued request carries a
real cost inside a TEE — its session, lock record, and async slot sit
in EPC-backed memory, and past the working set each additional queued
entry adds paging pressure (the same cliff §6 measures for object
caches).  The simulation charges that as a capacity drag proportional
to queue depth (``OVERLOAD_DRAG``); the bounded admission queue caps
the drag, trading a 503 now for the whole fleet's throughput later.

Everything is deterministic: capacity is calibrated from the engine's
virtual-time cost model, arrivals are a pure function of the offered
rate, shedding jitter is the admission controller's seeded PRF, and
every point carries a digest of its full decision + completion record
(two same-seed sweeps match digest for digest).  Admitted operations
run against a *real* controller — acked writes are re-read at the end
of every point, witnessing that shedding never loses acknowledged
data.

:func:`run_open_loop` is the repo's one open-loop driver: the sweep
feeds it arrivals at a constant offered rate, and
:mod:`repro.workload.scenarios` feeds it arbitrary arrival curves.
(It lives here rather than under ``repro.workload`` because that
package imports this module for capacity calibration.)
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.bench.concurrency import (
    ConcurrencyConfig,
    build_concurrency_system,
    run_concurrency_point,
)
from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.request import Request


def _base_system() -> ConcurrencyConfig:
    return ConcurrencyConfig(
        name="overload", record_count=32, operations=0, seed=11
    )


@dataclass
class OverloadConfig:
    """One overload sweep."""

    name: str = "overload"
    #: System under test (drives, replication, preloaded records).
    base: ConcurrencyConfig = field(default_factory=_base_system)
    #: Operations offered per point.
    operations: int = 384
    #: Offered load as multiples of measured capacity.
    multipliers: tuple = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    read_fraction: float = 0.5
    #: Distinct client fingerprints issuing the load.
    clients: int = 8
    seed: int = 11


# Open-loop round constants: the model's tuning, the same for every
# sweep and scenario, so it sits beside the loop rather than on configs.

#: Scheduling-round length, in service times.
ROUND_SERVICES = 8.0
#: Admission knobs, in rounds (converted to virtual seconds once the
#: service time is known).  The latency target sits *above* the
#: staleness bound on purpose: queue wait is capped by
#: ``max_queue_delay`` shedding, so the limiter only backs off on
#: genuine service-time inflation, not on a merely full queue.
QUEUE_DEPTH = 48
MAX_QUEUE_DELAY_ROUNDS = 8.0
LATENCY_TARGET_ROUNDS = 16.0
#: Capacity drag per queued request (EPC paging pressure model).
OVERLOAD_DRAG = 0.004
#: Convergence guard: a run that has not drained by then is a bug.
MAX_ROUNDS = 400_000


@dataclass
class OverloadPoint:
    """One (multiplier, protection) measurement."""

    multiplier: float
    admission: bool
    offered_rate: float
    operations: int
    served: int
    ok: int
    shed_by_status: dict
    shed_with_retry_after: int
    duration: float
    goodput: float  # successful responses per virtual second
    mean_latency: float
    p99_latency: float
    peak_queue_depth: int
    final_limit: int
    acked_writes: int
    acked_writes_lost: int
    trace_sha: str
    #: Audit-chain head digest + length when the point ran with the
    #: tamper-evident decision log enabled ("" / 0 otherwise).
    audit_head: str = ""
    audit_records: int = 0

    @property
    def throughput(self) -> float:
        return self.goodput

    @property
    def kiops(self) -> float:
        return self.goodput / 1000.0

    def row(self) -> dict:
        return {
            "admission": self.admission,
            "offered_x": self.multiplier,
            "goodput": round(self.goodput, 1),
            "served": self.served,
            "shed": sum(self.shed_by_status.values()),
            "shed_by_status": dict(sorted(self.shed_by_status.items())),
            "mean_latency_ms": round(self.mean_latency * 1e3, 3),
            "p99_latency_ms": round(self.p99_latency * 1e3, 3),
            "peak_queue_depth": self.peak_queue_depth,
            "final_limit": self.final_limit,
            "acked_writes_lost": self.acked_writes_lost,
            "trace_sha": self.trace_sha,
        }


def calibrate_capacity(config: OverloadConfig) -> float:
    """Measure serving capacity (ops per virtual second) at width 8.

    Uses the real engine over the same system configuration, so the
    sweep's "1x" is the cost model's own saturation point rather than
    a magic number.
    """
    base = replace(
        config.base,
        operations=128,
        read_fraction=config.read_fraction,
        seed=config.seed,
    )
    return run_concurrency_point(base, workers=8).throughput


def make_overload_workload(
    config: OverloadConfig,
) -> list[tuple[Request, str]]:
    """Deterministic (request, fingerprint) stream over preloaded keys."""
    rng = random.Random(config.seed)
    payload = bytes(
        rng.randrange(256) for _ in range(config.base.value_size)
    )
    workload = []
    for index in range(config.operations):
        key = f"c-{rng.randrange(config.base.record_count):05d}"
        fingerprint = f"fp-load-{index % config.clients}"
        if rng.random() < config.read_fraction:
            request = Request(method="get", key=key)
        else:
            request = Request(method="put", key=key, value=payload)
        workload.append((request, fingerprint))
    return workload


class OpenLoopRun(NamedTuple):
    """Raw completion record of one :func:`run_open_loop` call."""

    #: ``(request, ok, finished_at, latency)`` per served request, in
    #: completion order (virtual seconds).
    served: list
    shed_by_status: dict
    shed_with_retry_after: int
    #: Virtual time the last round ended / the run spanned.
    end: float
    duration: float
    peak_queue_depth: int
    acked_writes: int
    acked_writes_lost: int
    #: Digest of the completion + admission decision record.
    trace_sha: str
    admission: AdmissionController | None


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(0.99 * (len(ordered) - 1))]


def run_open_loop(
    controller,
    workload: list[tuple[Request, str]],
    arrivals: list[float],
    capacity: float,
    with_admission: bool,
    seed: int,
) -> OpenLoopRun:
    """Serve ``workload`` open loop, in rounds of virtual time.

    Request ``i`` arrives at ``arrivals[i]`` whatever the server is
    doing.  Each round admits what has arrived (into the admission
    queue, or an unbounded FIFO when ``with_admission`` is off), then
    serves as many requests as ``capacity`` — dragged down by the
    queued state — allows.  Completions and sheds fold into the
    controller's telemetry (SLO engine, trace-id exemplars) on the
    same virtual clock; acknowledged writes are re-read at the end.
    """
    telemetry = controller.telemetry
    service = 1.0 / capacity
    round_s = ROUND_SERVICES * service
    admission: AdmissionController | None = None
    if with_admission:
        admission = AdmissionController(
            AdmissionConfig(
                queue_depth=QUEUE_DEPTH,
                max_queue_delay=MAX_QUEUE_DELAY_ROUNDS * round_s,
                latency_target=LATENCY_TARGET_ROUNDS * round_s,
                max_limit=int(2 * ROUND_SERVICES),
                seed=seed,
            )
        ).attach(controller)

    vnow = 0.0
    next_arrival = 0
    plain: deque[int] = deque()  # unprotected FIFO (admission off)
    outcomes = shed_retry = 0
    shed_by_status: dict[int, int] = {}
    served: list[tuple] = []
    completions: list[tuple] = []
    acked: dict[str, bytes] = {}
    carry = 0.0
    peak_plain = 0
    if telemetry.enabled:
        # Spans (and therefore SLO exemplars) carry the simulation's
        # virtual clock, so /_traces and /_slo line up in one timeline.
        telemetry.tracer.set_virtual_clock(lambda: vnow)

    def shed(token: int, decision) -> None:
        nonlocal outcomes, shed_retry
        request, _fingerprint = workload[token]
        response = decision.to_response()
        shed_by_status[response.status] = (
            shed_by_status.get(response.status, 0) + 1
        )
        if response.retry_after is not None:
            shed_retry += 1
        completions.append((token, "shed", response.status))
        outcomes += 1
        telemetry.record_request(
            request.method, False, max(0.0, vnow - arrivals[token]), vnow
        )

    def serve(token: int) -> None:
        nonlocal outcomes
        request, fingerprint = workload[token]
        response = controller.handle(request, fingerprint, vnow)
        outcomes += 1
        if response.ok and request.method == "put":
            acked[request.key] = request.value
        latency = vnow - arrivals[token]
        served.append((request, response.ok, vnow, latency))
        completions.append((token, request.method, response.status))
        trace_id = None
        if telemetry.enabled:
            recent = telemetry.tracer.recent(1)
            if recent:
                trace_id = recent[-1].trace_id
        telemetry.record_request(
            request.method, response.ok, latency, vnow, trace_id=trace_id
        )

    for _ in range(MAX_ROUNDS):
        if outcomes >= len(workload):
            break
        vnow += round_s
        while next_arrival < len(workload) and arrivals[next_arrival] <= vnow:
            token = next_arrival
            next_arrival += 1
            request, fingerprint = workload[token]
            if admission is None:
                plain.append(token)
                continue
            decision = admission.offer(
                token, request, fingerprint, now=vnow, vnow=arrivals[token]
            )
            if not decision.admitted:
                shed(token, decision)
        queue_depth = len(plain) if admission is None else len(admission.queue)
        peak_plain = max(peak_plain, len(plain))
        # Queued state costs enclave capacity (EPC pressure); a bounded
        # queue bounds the drag, an unbounded one does not.
        overload_drag = OVERLOAD_DRAG * queue_depth
        effective = capacity / (1.0 + overload_drag)
        carry = min(carry + effective * round_s, 2.0 * ROUND_SERVICES)
        budget = int(carry)
        before = len(served)
        if admission is None:
            while budget > 0 and plain:
                serve(plain.popleft())
                budget -= 1
                carry -= 1.0
        else:
            width = min(budget, admission.limiter.limit)
            for token in admission.dispatch(vnow, max(0, width)):
                serve(token)
                carry -= 1.0
            for token, decision in admission.take_shed():
                shed(token, decision)
            fresh = [latency for *_, latency in served[before:]]
            if fresh:
                admission.observe(sum(fresh) / len(fresh))
    else:
        raise RuntimeError("open-loop run did not converge")

    # No acked write lost: everything acknowledged under shedding must
    # still read back as the acknowledged bytes.
    lost = 0
    for key in sorted(acked):
        response = controller.handle(
            Request(method="get", key=key), "fp-verify", vnow
        )
        if not response.ok or response.value != acked[key]:
            lost += 1

    record = [
        "|".join(str(part) for part in entry) for entry in completions
    ]
    if admission is not None:
        record.append("--admission--")
        record.extend(admission.trace_lines())
    return OpenLoopRun(
        served=served,
        shed_by_status=shed_by_status,
        shed_with_retry_after=shed_retry,
        end=vnow,
        duration=max(vnow, arrivals[-1]) if arrivals else vnow,
        peak_queue_depth=(
            peak_plain if admission is None else admission.queue.peak_depth
        ),
        acked_writes=len(acked),
        acked_writes_lost=lost,
        trace_sha=hashlib.sha256(
            "\n".join(record).encode()
        ).hexdigest()[:16],
        admission=admission,
    )


def run_overload_point(
    config: OverloadConfig,
    multiplier: float,
    with_admission: bool,
    capacity: float,
    telemetry=None,
    audit_log_size: int | None = None,
    sink: dict | None = None,
) -> OverloadPoint:
    """One offered-load point: arrivals at a constant ``multiplier x
    capacity`` through :func:`run_open_loop`.

    ``telemetry`` threads a live sink through the run;
    ``audit_log_size`` enables the tamper-evident decision chain;
    ``sink``, when given, receives the live ``controller`` /
    ``admission`` / ``telemetry`` objects so callers (tests, the SLO
    CI job) can inspect them afterwards.
    """
    controller = build_concurrency_system(
        config.base, telemetry=telemetry, audit_log_size=audit_log_size
    )
    workload = make_overload_workload(config)
    offered = multiplier * capacity
    arrivals = [index / offered for index in range(len(workload))]
    run = run_open_loop(
        controller, workload, arrivals, capacity, with_admission, config.seed
    )
    if sink is not None:
        sink["controller"] = controller
        sink["admission"] = run.admission
        sink["telemetry"] = controller.telemetry
    latencies = sorted(latency for *_, latency in run.served)
    ok = sum(1 for _request, served_ok, *_ in run.served if served_ok)
    auditor = controller.auditor
    return OverloadPoint(
        multiplier=multiplier,
        admission=with_admission,
        offered_rate=offered,
        operations=len(workload),
        served=len(run.served),
        ok=ok,
        shed_by_status=run.shed_by_status,
        shed_with_retry_after=run.shed_with_retry_after,
        duration=run.duration,
        goodput=ok / run.duration,
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        p99_latency=p99(latencies),
        peak_queue_depth=run.peak_queue_depth,
        final_limit=run.admission.limiter.limit if run.admission else 0,
        acked_writes=run.acked_writes,
        acked_writes_lost=run.acked_writes_lost,
        trace_sha=run.trace_sha,
        audit_head="" if auditor is None else auditor.head,
        audit_records=0 if auditor is None else len(auditor),
    )


def run_overload_sweep(
    config: OverloadConfig | None = None,
) -> dict[str, list[OverloadPoint]]:
    """Both series over every multiplier; admission first."""
    config = config or OverloadConfig()
    capacity = calibrate_capacity(config)
    sweep: dict[str, list[OverloadPoint]] = {
        "admission": [],
        "no-admission": [],
    }
    for multiplier in config.multipliers:
        sweep["admission"].append(
            run_overload_point(config, multiplier, True, capacity)
        )
        sweep["no-admission"].append(
            run_overload_point(config, multiplier, False, capacity)
        )
    return sweep


def degradation(points: list[OverloadPoint]) -> float:
    """Goodput at the highest multiplier as a fraction of series peak."""
    peak = max(point.goodput for point in points)
    last = max(points, key=lambda point: point.multiplier)
    return last.goodput / peak if peak else 0.0
