"""Concurrency sweep: engine throughput vs worker count (§4.6).

Unlike the discrete-event benchmarks in :mod:`repro.bench.harness`,
this sweep runs the *real* request path — controller, store, policy
machinery, drives — under the concurrent request engine
(:class:`repro.core.engine.ConcurrentEngine`), measuring virtual-time
throughput as the hardware-thread count grows.  One worker is the
sequential baseline: the same engine, the same cost model, the same
seeded workload, just no overlap.  The ratio between a point and that
baseline is therefore a pure measurement of how much drive latency the
green-thread scheduler hides.

The workload is an I/O-heavy YCSB-style put/get mix over many distinct
keys with deliberately tiny caches, so most operations reach the
drives — where overlap pays.  Everything is seeded: the key sequence,
the operation mix, and the dispatch schedule, so a sweep is exactly
reproducible (``trace_bytes`` of two same-seed runs match byte for
byte).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.sanitizer import ShadowState
from repro.bench.harness import BENCH_BINARY
from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig, PesosController
from repro.core.effects import EffectsRecorder
from repro.core.engine import ConcurrentEngine
from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform


@dataclass
class ConcurrencyConfig:
    """One sweep: an I/O-heavy mixed workload over a small fleet."""

    name: str = "concurrency"
    num_drives: int = 4
    replication_factor: int = 2
    record_count: int = 48
    operations: int = 192
    read_fraction: float = 0.5
    value_size: int = 512
    worker_counts: tuple = (1, 2, 4, 8)
    seed: int = 7
    max_inflight: int = 32


@dataclass
class ConcurrencyPoint:
    """One measured worker count."""

    workers: int
    operations: int
    virtual_seconds: float
    throughput: float  # operations per virtual second
    rounds: int
    drive_ops: int
    batched_submissions: int
    coalesced_calls: int
    lock_spins: int

    @property
    def kiops(self) -> float:
        return self.throughput / 1000.0

    def row(self) -> dict:
        return {
            "workers": self.workers,
            "kiops": round(self.kiops, 2),
            "virtual_ms": round(self.virtual_seconds * 1e3, 3),
            "rounds": self.rounds,
            "coalesced": self.coalesced_calls,
        }


def build_concurrency_system(
    config: ConcurrencyConfig,
    telemetry=None,
    audit_log_size: int | None = None,
) -> PesosController:
    """Fresh controller + drives, preloaded with every workload key.

    Caches are kept tiny on purpose: the sweep measures how well the
    engine overlaps *drive* time, so reads must actually reach drives
    rather than the object cache.  ``telemetry`` threads a live sink
    through the whole stack (SLO recording included);
    ``audit_log_size`` enables the tamper-evident decision chain.
    """
    cluster = DriveCluster(num_drives=config.num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"concurrency-key".ljust(32, b"\0"),
        config=ControllerConfig(
            replication_factor=config.replication_factor,
            keep_history=False,
            cache=CacheConfig(
                object_bytes=1024, key_bytes=256, policy_bytes=4096
            ),
            audit_log_size=audit_log_size,
        ),
        telemetry=telemetry,
        # A SystemModel over this controller prices its effects.
        effects=EffectsRecorder(registry=telemetry and telemetry.registry),
        enclave=SgxPlatform("bench-host").launch(BENCH_BINARY),
    )
    payload = _payload(config.value_size, config.seed)
    for index in range(config.record_count):
        response = controller.put("fp-bench", _key(index), payload)
        if not response.ok:
            raise RuntimeError(f"load failed: {response.error}")
    return controller


def _key(index: int) -> str:
    return f"c-{index:05d}"


def _payload(size: int, seed: int) -> bytes:
    return random.Random(seed).getrandbits(8 * max(1, size)).to_bytes(
        max(1, size), "big"
    )


def make_workload(config: ConcurrencyConfig) -> list[Request]:
    """Deterministic put/get mix over the preloaded key space."""
    rng = random.Random(config.seed)
    payload = _payload(config.value_size, config.seed)
    requests = []
    for _ in range(config.operations):
        index = rng.randrange(config.record_count)
        if rng.random() < config.read_fraction:
            requests.append(Request(method="get", key=_key(index)))
        else:
            requests.append(
                Request(method="put", key=_key(index), value=payload)
            )
    return requests


def run_concurrency_point(
    config: ConcurrencyConfig, workers: int
) -> ConcurrencyPoint:
    """Build a fresh system and run the seeded workload at one width."""
    controller = build_concurrency_system(config)
    with ConcurrentEngine(
        controller,
        seed=config.seed,
        hardware_threads=workers,
        max_inflight=config.max_inflight,
    ) as engine:
        responses = engine.run_batch(make_workload(config), "fp-bench")
        for response in responses:
            if not response.ok:
                raise RuntimeError(
                    f"workload op failed: {response.status} {response.error}"
                )
        stats = engine.stats
        return ConcurrencyPoint(
            workers=workers,
            operations=len(responses),
            virtual_seconds=stats.virtual_seconds,
            throughput=len(responses) / stats.virtual_seconds,
            rounds=stats.rounds,
            drive_ops=stats.drive_ops,
            batched_submissions=stats.batched_submissions,
            coalesced_calls=stats.coalesced_calls,
            lock_spins=stats.lock_spins,
        )


def run_concurrency_sweep(
    config: ConcurrencyConfig | None = None,
) -> list[ConcurrencyPoint]:
    """Throughput vs worker count; workers=1 is the sequential baseline."""
    config = config or ConcurrencyConfig()
    return [
        run_concurrency_point(config, workers)
        for workers in config.worker_counts
    ]


def run_sanitizer_overhead(
    config: ConcurrencyConfig | None = None, workers: int = 8
) -> dict:
    """Virtual-time cost of recording sanitizer shadow state.

    Runs the same seeded workload twice — hooks at the no-op default,
    then with a recording :class:`~repro.analysis.sanitizer.ShadowState` — and
    reports both virtual times.  The hooks sit outside the cost model,
    so the two runs must stay within 5% of each other (in practice they
    are bit-identical: instrumentation observes the schedule, it never
    advances the clock).
    """
    config = config or ConcurrencyConfig()
    times = {}
    events = 0
    for label, sanitizer in (("baseline", None), ("sanitized", ShadowState())):
        controller = build_concurrency_system(config)
        with ConcurrentEngine(
            controller,
            seed=config.seed,
            hardware_threads=workers,
            max_inflight=config.max_inflight,
            sanitizer=sanitizer,
        ) as engine:
            engine.run_batch(make_workload(config), "fp-bench")
            times[label] = engine.stats.virtual_seconds
        if sanitizer is not None:
            events = len(sanitizer.events)
    overhead = times["sanitized"] / times["baseline"] - 1.0
    return {
        "workers": workers,
        "baseline_virtual_ms": round(times["baseline"] * 1e3, 3),
        "sanitized_virtual_ms": round(times["sanitized"] * 1e3, 3),
        "overhead_pct": round(overhead * 100.0, 3),
        "within_budget": abs(overhead) <= 0.05,
        "shadow_events": events,
    }


def run_trace(
    config: ConcurrencyConfig | None = None, workers: int = 8
) -> bytes:
    """The canonical order record of one seeded run (reproducibility)."""
    config = config or ConcurrencyConfig()
    controller = build_concurrency_system(config)
    with ConcurrentEngine(
        controller,
        seed=config.seed,
        hardware_threads=workers,
        max_inflight=config.max_inflight,
    ) as engine:
        engine.run_batch(make_workload(config), "fp-bench")
        return engine.trace_bytes()
