"""Drive a real controller through one arrival curve, open loop.

The loop itself is :func:`repro.bench.overload.run_open_loop` (see
there for the model); a scenario only supplies what differs from the
overload sweep — arrival times integrated from an arbitrary
:mod:`arrival curve <repro.workload.arrival>` and an op mix with
scans — and reads off what an SRE would actually look at on the
dashboard: per-class p99 virtual-time latency (``get/p1`` vs
``put/p2``), shed rate, and the live SLO engine's burn/worst-state at
the end of the run.  Every run is deterministic — the arrival times are
a pure function of the curve, the op mix and keys come from one seeded
RNG, and the result carries a SHA over the full completion + admission
decision record, so two same-seed runs match byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.concurrency import ConcurrencyConfig, build_concurrency_system
from repro.bench.overload import p99, run_open_loop
from repro.core.request import Request
from repro.telemetry import Telemetry
from repro.telemetry.slo import SloEngine, classify


def _base_system() -> ConcurrencyConfig:
    return ConcurrencyConfig(
        name="workload", record_count=32, operations=0, seed=17
    )


@dataclass
class ScenarioConfig:
    """Knobs shared by every scenario (the curve is passed separately)."""

    name: str = "scenario"
    base: ConcurrencyConfig = field(default_factory=_base_system)
    read_fraction: float = 0.55
    #: Fraction of operations issued as short range scans (workload-E
    #: flavoured traffic mixed into the stream).
    scan_fraction: float = 0.1
    scan_count: int = 8
    clients: int = 16
    seed: int = 17
    #: Cap on generated arrivals (keeps pathological curves bounded).
    max_operations: int = 4096


@dataclass
class ScenarioResult:
    """Headline numbers for one (curve, seed) run."""

    name: str
    curve: str
    operations: int
    served: int
    ok: int
    shed_by_status: dict
    shed_rate: float
    duration: float
    goodput: float
    p99_by_class: dict
    mean_latency: float
    peak_queue_depth: int
    final_limit: int
    acked_writes: int
    acked_writes_lost: int
    worst_slo_state: str
    max_burn_rate: float
    trace_sha: str
    #: Virtual completion times of successful responses, for windowed
    #: goodput (e.g. goodput *during* a flash-crowd storm).
    ok_times: list = field(default_factory=list)

    def goodput_in(self, start: float, end: float) -> float:
        """Successful responses per virtual second inside a window."""
        if end <= start:
            return 0.0
        count = sum(1 for t in self.ok_times if start <= t < end)
        return count / (end - start)

    def row(self) -> dict:
        return {
            "scenario": self.name,
            "curve": self.curve,
            "goodput": round(self.goodput, 1),
            "shed_rate": round(self.shed_rate, 4),
            "p99_ms": {
                cls: round(v * 1e3, 3)
                for cls, v in sorted(self.p99_by_class.items())
            },
            "slo": self.worst_slo_state,
            "burn": round(self.max_burn_rate, 3),
            "acked_writes_lost": self.acked_writes_lost,
            "trace_sha": self.trace_sha,
        }


def make_scenario_workload(
    config: ScenarioConfig,
    arrivals: list[float],
    key_chooser=None,
) -> list[tuple[Request, str]]:
    """Deterministic (request, fingerprint) stream, one per arrival.

    ``key_chooser`` (e.g. :class:`~repro.workload.arrival.HotKeyStorm`)
    maps an arrival time to a key index; the default is seeded uniform
    choice over the preloaded records.
    """
    rng = random.Random(config.seed)
    payload = bytes(
        rng.randrange(256) for _ in range(config.base.value_size)
    )
    workload = []
    scan_threshold = config.read_fraction + config.scan_fraction
    for index, t in enumerate(arrivals):
        if key_chooser is not None:
            key_index = key_chooser.next(t)
        else:
            key_index = rng.randrange(config.base.record_count)
        key = f"c-{key_index:05d}"
        fingerprint = f"fp-wl-{index % config.clients}"
        dice = rng.random()
        if dice < config.read_fraction:
            request = Request(method="get", key=key)
        elif dice < scan_threshold:
            request = Request(
                method="scan", key=key, scan_count=config.scan_count
            )
        else:
            request = Request(method="put", key=key, value=payload)
        workload.append((request, fingerprint))
    return workload


def run_scenario(
    config: ScenarioConfig,
    curve,
    capacity: float,
    horizon: float,
    key_chooser=None,
    telemetry: Telemetry | None = None,
) -> ScenarioResult:
    """Open-loop run of ``curve`` against a fresh controller stack."""
    from repro.workload.arrival import generate_arrivals

    arrivals = generate_arrivals(
        curve, horizon, max_events=config.max_operations
    )
    workload = make_scenario_workload(config, arrivals, key_chooser)
    if telemetry is None:
        telemetry = Telemetry()
    if telemetry.enabled and telemetry.slo is None:
        telemetry.attach_slo(SloEngine())
    controller = build_concurrency_system(config.base, telemetry=telemetry)
    telemetry = controller.telemetry
    run = run_open_loop(
        controller, workload, arrivals, capacity, True, config.seed
    )

    latencies: list[float] = []
    ok_times: list[float] = []
    class_latencies: dict[str, list[float]] = {}
    for request, ok, finished_at, latency in run.served:
        latencies.append(latency)
        if ok:
            ok_times.append(finished_at)
        class_latencies.setdefault(
            classify(request.method), []
        ).append(latency)
    max_burn = 0.0
    worst = "healthy"
    if telemetry.slo is not None:
        worst = telemetry.slo.worst_state(run.end)
        for objective in telemetry.slo.objectives:
            if objective.events:
                max_burn = max(
                    max_burn,
                    objective.burn_rate(run.end, objective.spec.fast),
                )
    return ScenarioResult(
        name=config.name,
        curve=getattr(curve, "name", "custom"),
        operations=len(workload),
        served=len(run.served),
        ok=len(ok_times),
        shed_by_status=run.shed_by_status,
        shed_rate=(
            sum(run.shed_by_status.values()) / len(workload)
            if workload else 0.0
        ),
        duration=run.duration,
        goodput=len(ok_times) / run.duration if run.duration else 0.0,
        p99_by_class={
            cls: p99(values) for cls, values in class_latencies.items()
        },
        mean_latency=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        peak_queue_depth=run.peak_queue_depth,
        final_limit=run.admission.limiter.limit if run.admission else 0,
        acked_writes=run.acked_writes,
        acked_writes_lost=run.acked_writes_lost,
        worst_slo_state=worst,
        max_burn_rate=max_burn,
        trace_sha=run.trace_sha,
        ok_times=ok_times,
    )
