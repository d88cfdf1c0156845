"""Experiment runner: build a system, load it, sweep client counts.

A *loaded system* couples one functional controller (with its drives
and installed policies) to a YCSB trace.  ``run_point`` then simulates
a closed loop of N clients replaying the trace through the
discrete-event model and reports virtual-time throughput and latency
for that point; sweeping N reproduces the paper's client axes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.bench.configs import SystemConfig
from repro.bench.model import SystemModel
from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig, PesosController
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.sim import Environment
from repro.ycsb.runner import load_phase, operation_request
from repro.ycsb.workload import (
    Trace,
    WORKLOAD_A,
    WorkloadSpec,
    generate_trace,
)


@dataclass
class ExperimentResult:
    """One measured point of one configuration."""

    config: str
    clients: int
    throughput: float  # operations per virtual second
    mean_latency: float
    p50_latency: float
    p99_latency: float
    operations: int
    denied: int = 0
    errors: int = 0
    #: Charged virtual service seconds per model layer (measurement
    #: window only); see :meth:`repro.bench.model.SystemModel.breakdown`.
    breakdown: dict = field(default_factory=dict)

    @property
    def kiops(self) -> float:
        return self.throughput / 1000.0

    def row(self) -> dict:
        return {
            "config": self.config,
            "clients": self.clients,
            "kiops": round(self.kiops, 2),
            "mean_ms": round(self.mean_latency * 1e3, 3),
            "p99_ms": round(self.p99_latency * 1e3, 3),
            "ops": self.operations,
        }


@dataclass
class LoadedSystem:
    """A functional controller pre-loaded with a trace's records."""

    config: SystemConfig
    controller: PesosController
    cluster: DriveCluster
    trace: Trace
    policy_id: str = ""
    version_aware: bool = False
    #: Optional override for how one trace operation executes; see
    #: the MAL experiment.  Signature: (system, operation) -> Response.
    op_executor: object = None
    _payload_cache: dict = field(default_factory=dict)

    def payload(self, size: int) -> bytes:
        if size not in self._payload_cache:
            self._payload_cache[size] = random.Random(size).getrandbits(
                8 * max(1, size)
            ).to_bytes(max(1, size), "big")
        return self._payload_cache[size]


#: The controller binary every DES bench enclave runs.
BENCH_BINARY = EnclaveBinary("pesos", b"bench controller")


def build_system(
    config: SystemConfig,
    workload: WorkloadSpec | None = None,
    policy_source: str = "",
    version_aware: bool = False,
    cache_config: CacheConfig | None = None,
    keep_history: bool = False,
    enforce_policies: bool = True,
    ssd_cache_entries: int | None = None,
    seed: int = 42,
) -> LoadedSystem:
    """Create drives + controller, install policy, run the load phase."""
    workload = workload or WORKLOAD_A
    if cache_config is None:
        from repro.bench.configs import paper_ratio_caches

        cache_config = paper_ratio_caches(
            workload.record_count, workload.value_size
        )
    cluster = DriveCluster(num_drives=config.num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"bench-key".ljust(32, b"\0"),
        config=ControllerConfig(
            replication_factor=config.replication_factor,
            write_quorum=config.write_quorum,
            keep_history=keep_history or version_aware,
            cache=cache_config,
            enforce_policies=enforce_policies,
            ssd_cache_entries=ssd_cache_entries,
        ),
        enclave=SgxPlatform("bench-host").launch(BENCH_BINARY),
    )
    policy_id = ""
    if policy_source:
        response = controller.put_policy("fp-bench", policy_source)
        if not response.ok:
            raise RuntimeError(f"policy rejected: {response.error}")
        policy_id = response.policy_id

    trace = generate_trace(workload, seed=seed)
    loaded = LoadedSystem(
        config=config,
        controller=controller,
        cluster=cluster,
        trace=trace,
        policy_id=policy_id,
        version_aware=version_aware,
    )
    load_phase(
        controller,
        trace,
        "fp-bench",
        policy_id,
        version_aware=version_aware,
        payload=loaded.payload,
    )
    return loaded


def _default_executor(loaded: LoadedSystem, operation):
    """Run one trace operation as the benchmark client."""
    request = operation_request(
        loaded.controller,
        operation,
        loaded.payload,
        loaded.policy_id,
        loaded.version_aware,
    )
    return loaded.controller.handle(request, "fp-bench")


def run_point(
    loaded: LoadedSystem,
    num_clients: int,
    measure_ops: int = 4000,
    warmup_ops: int = 500,
    seed: int = 99,
    telemetry=None,
) -> ExperimentResult:
    """Simulate ``num_clients`` closed-loop clients; measure one point."""
    env = Environment()
    model = SystemModel(
        env, loaded.controller, loaded.config, seed=seed, telemetry=telemetry
    )
    operations = itertools.cycle(loaded.trace.operations)
    total_target = warmup_ops + measure_ops
    state = {"completed": 0, "denied": 0, "errors": 0}
    stop = env.event()
    executor = loaded.op_executor or _default_executor

    def client_loop():
        while state["completed"] < total_target:
            operation = next(operations)
            request_bytes = 96 + operation.value_size
            response = yield from model.request(
                lambda op=operation: executor(loaded, op), request_bytes
            )
            if response.status == 403:
                state["denied"] += 1
            elif not response.ok:
                state["errors"] += 1
            state["completed"] += 1
            if state["completed"] == warmup_ops:
                model.meter.open_window(env.now)
                model.latency.reset()
                model.reset_breakdown()
            if state["completed"] == total_target and not stop.triggered:
                stop.succeed()

    for _ in range(num_clients):
        env.process(client_loop())
    env.run(until=stop)
    model.meter.close_window(env.now)

    return ExperimentResult(
        config=loaded.config.name,
        clients=num_clients,
        throughput=model.meter.rate(),
        mean_latency=model.latency.mean,
        p50_latency=model.latency.percentile(50),
        p99_latency=model.latency.percentile(99),
        operations=measure_ops,
        denied=state["denied"],
        errors=state["errors"],
        breakdown=model.breakdown(),
    )

