"""Run one workload once, in this process, and measure it.

Load shape: closed loop, one client thread, zero think time.  The
controller is a synchronous in-process call, so service time *is*
latency at concurrency one; queueing is what the DES benches model.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core.admission import AdmissionController
from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.kinetic.cluster import DriveCluster
from repro.sgx.attestation import AttestationService, SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.telemetry import NULL_TELEMETRY

from benchmarks.wall import layers
from benchmarks.wall.calibrate import Calibrator
from benchmarks.wall.spec import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    TAILS,
    WORKLOAD_BY_NAME,
    Workload,
)
from benchmarks.wall.workloads import PUT, SCAN_OP, Plan, build_plan

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The timed phase runs as this many batches (~100 ms each at the
#: nominal op counts).  Between batches, outside every clock, the
#: oracle checks the batch's replies and the calibrator takes a slice.
BATCHES = 64
#: Calibration slices taken during one load phase.
_LOAD_SLICES = 32

_ADMIN_IDENTITY = "pesos-admin"
_READBACK_KEYS = 200


class Deployment:
    """The infrastructure that exists before a controller launches:
    an SGX platform and an attestation service holding the runtime
    secrets for the expected measurement."""

    def __init__(self, seed: int):
        rng = random.Random(f"wall-secrets-{seed}")
        self.binary = EnclaveBinary(name="pesos", content=b"controller v1")
        self.platform = SgxPlatform("wall-m1", key_bits=512)
        self.service = AttestationService()
        self.service.trust_platform(self.platform)
        self.storage_key = rng.randbytes(32)
        self.disk_key = rng.randbytes(32)
        self.service.register_enclave(
            self.binary.measurement(),
            {
                "storage_key": self.storage_key.hex(),
                "disk_identity": _ADMIN_IDENTITY,
                "disk_hmac_key": self.disk_key.hex(),
            },
        )


@dataclass
class System:
    cluster: DriveCluster
    controller: PesosController
    server: WebServer


def controller_config(workload: Workload) -> ControllerConfig:
    """Shipped defaults except what the workload table states."""
    config = ControllerConfig(
        replication_factor=3, freshness_enabled=workload.freshness
    )
    if workload.cache is not None:
        config.cache = workload.cache
    return config


def _status(raw: bytes) -> int:
    return int(raw[9:12])


def _body(raw: bytes) -> bytes:
    return raw.partition(b"\r\n\r\n")[2]


@dataclass
class SetUp:
    system: System
    #: Calibrated and raw seconds of the whole set-up.
    seconds: float
    raw_seconds: float
    #: Calibrated latency of every load-phase PUT.
    put_latencies: list


def set_up(deployment: Deployment, plan: Plan) -> SetUp:
    """§3.1 bootstrap, policy install and load phase."""
    cluster = DriveCluster(num_drives=3)
    calibrator = Calibrator()
    calibrator.slice()
    started = time.perf_counter()
    controller = PesosController.launch(
        deployment.binary,
        deployment.platform,
        deployment.service,
        cluster,
        config=controller_config(plan.workload),
        telemetry=NULL_TELEMETRY,
    )
    server = WebServer(
        controller, telemetry=NULL_TELEMETRY, admission=AdmissionController()
    )
    handle = server.handle_bytes
    owner = plan.clients[0]
    for source, expected_id in plan.policies:
        reply = parse_http_response(
            handle(
                build_http_request(
                    Request(method="put_policy", value=source.encode())
                ),
                owner,
            )
        )
        if reply.status != 200 or reply.policy_id != expected_id:
            raise RuntimeError(f"policy install failed: {reply}")
    clock = time.perf_counter
    latencies = []
    every = max(1, len(plan.load) // _LOAD_SLICES)
    for index, (raw, fingerprint) in enumerate(plan.load):
        if index % every == 0:
            calibrator.slice()
        before = clock()
        reply = handle(raw, fingerprint)
        latencies.append(clock() - before)
        if _status(reply) != 200:
            raise RuntimeError(f"load PUT failed: {reply[:200]!r}")
    elapsed = time.perf_counter() - started - sum(calibrator.slices[1:])
    calibrator.slice()
    factor = Calibrator.factor(calibrator.slices)
    return SetUp(
        System(cluster, controller, server),
        elapsed * factor,
        elapsed,
        [latency * factor for latency in latencies],
    )


# ---------------------------------------------------------------------------
# Public counters, read before and after the timed phase
# ---------------------------------------------------------------------------

def read_counters(system: System) -> dict:
    """Every exact count the program exposes, as a flat dict of ints."""
    controller = system.controller
    counters: dict[str, int] = {}
    for field_name in (
        "puts", "gets", "deletes", "range_scans", "bytes_written",
        "bytes_read",
    ):
        counters[f"drive.{field_name}"] = sum(
            getattr(drive.stats, field_name) for drive in system.cluster
        )
    counters["drive.used_bytes"] = sum(d.used_bytes for d in system.cluster)
    counters["drive.key_count"] = sum(d.key_count for d in system.cluster)
    clients = controller.store.clients
    counters["client.round_trips"] = sum(c.requests_sent for c in clients)
    counters["client.wire_bytes"] = sum(c.bytes_on_wire for c in clients)
    counters["client.retries"] = sum(c.retries for c in clients)
    for region, stats in controller.caches.region_stats().items():
        counters[f"cache.{region}.hits"] = stats.hits
        counters[f"cache.{region}.misses"] = stats.misses
        counters[f"cache.{region}.evictions"] = stats.evictions
    decisions = controller.policy_engine.decisions.stats
    counters["decision.hits"] = decisions.hits
    counters["decision.misses"] = decisions.misses
    counters["decision.epoch_advances"] = decisions.epoch_advances
    admission = system.server.admission
    counters["admission.admitted"] = admission.admitted
    counters["admission.shed"] = sum(admission.shed_by_reason.values())
    freshness = controller.freshness
    counters["freshness.pins"] = freshness.pins if freshness else 0
    counters["freshness.proof_hits"] = freshness.cache.hits if freshness else 0
    counters["freshness.proof_misses"] = (
        freshness.cache.misses if freshness else 0
    )
    return counters


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------

@dataclass
class Timed:
    """One pass over the plan's timed requests.

    Latencies and the per-batch figures are calibrated (see
    :mod:`benchmarks.wall.calibrate`); the ``raw_`` fields are what
    the clocks read on this machine at that moment.
    """

    latencies: list = field(default_factory=list)
    #: Calibration factor each request's raw clock readings were scaled by.
    request_factor: list = field(default_factory=list)
    #: Per batch: calibrated seconds inside handle_bytes, and of process
    #: CPU, per request.
    batch_seconds_per_op: list = field(default_factory=list)
    batch_cpu_per_op: list = field(default_factory=list)
    raw_handle_seconds: float = 0.0
    raw_cpu_seconds: float = 0.0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def handle_seconds(self) -> float:
        return sum(self.latencies)


def _check(kind: str, expected, reply: bytes) -> str | None:
    """The oracle: ``None`` when the reply is the right answer."""
    status = _status(reply)
    if status != 200:
        return f"{kind} answered {status}"
    if kind == PUT:
        return None
    if _body(reply) != expected:
        return f"{kind} returned the wrong body"
    if kind == SCAN_OP:
        scanned = parse_http_response(reply).extra.get("scanned")
        lines = expected.count(b"\n") + 1 if expected else 0
        if scanned != lines:
            return f"scan reports {scanned} records for {lines} lines"
    return None


def run_timed(system: System, plan: Plan, tracer=None) -> Timed:
    """Closed loop over the pre-built requests, in ``BATCHES`` batches."""
    handle = system.server.handle_bytes
    raws, fingerprints = plan.raws, plan.fingerprints
    kinds, expected = plan.kinds, plan.expected
    clock, cpu_clock = time.perf_counter, time.process_time
    calibrator = Calibrator()
    timed = Timed()
    # Spans carry the index of the request being served; untraced, the
    # same store lands on a throwaway object so both passes run one loop.
    marker = tracer if tracer is not None else SimpleNamespace()
    total = len(raws)
    size = max(1, -(-total // BATCHES))
    batches = []  # (raw latencies, raw cpu seconds, [slice before, after])
    for first in range(0, total, size):
        last = min(first + size, total)
        replies = []
        latencies = []
        slice_before = calibrator.slice()
        cpu_before = cpu_clock()
        for index in range(first, last):
            marker.current_request = index
            before = clock()
            reply = handle(raws[index], fingerprints[index], index * 0.001)
            latencies.append(clock() - before)
            replies.append(reply)
        cpu_seconds = cpu_clock() - cpu_before
        batches.append(
            (latencies, cpu_seconds, [slice_before, calibrator.slice()])
        )
        for index, reply in zip(range(first, last), replies):
            problem = _check(kinds[index], expected[index], reply)
            if problem is not None:
                timed.failed += 1
                if len(timed.failures) < 5:
                    timed.failures.append(f"op {index}: {problem}")
    for position, (latencies, cpu_seconds, _slices) in enumerate(batches):
        # Each batch is read against the slices around it and around its
        # two neighbours: six ~3 ms samples of the machine's speed.
        window = batches[max(0, position - 1):position + 2]
        factor = Calibrator.factor([s for b in window for s in b[2]])
        timed.latencies.extend(latency * factor for latency in latencies)
        timed.request_factor.extend([factor] * len(latencies))
        timed.batch_seconds_per_op.append(sum(latencies) * factor / len(latencies))
        timed.batch_cpu_per_op.append(cpu_seconds * factor / len(latencies))
        timed.raw_handle_seconds += sum(latencies)
        timed.raw_cpu_seconds += cpu_seconds
    return timed


# ---------------------------------------------------------------------------
# Post-run correctness: deny probes and restart read-back
# ---------------------------------------------------------------------------

def run_probes(system: System, plan: Plan) -> list[str]:
    problems = []
    for probe in plan.probes:
        status = _status(system.server.handle_bytes(probe.raw, probe.fingerprint))
        if status != 403:
            problems.append(f"deny probe ({probe.what}) answered {status}")
    return problems


def restart_readback(
    deployment: Deployment, system: System, plan: Plan
) -> list[str]:
    """A new controller over the same drives and storage key must serve
    exactly what the oracle's shadow holds."""
    clients = system.cluster.connect_all(_ADMIN_IDENTITY, deployment.disk_key)
    controller = PesosController(
        clients,
        storage_key=deployment.storage_key,
        config=controller_config(plan.workload),
        telemetry=NULL_TELEMETRY,
    )
    server = WebServer(controller, telemetry=NULL_TELEMETRY)
    keys = sorted(key for key in plan.shadow if not key.endswith(".log"))
    rng = random.Random(plan.seed)
    sample = rng.sample(keys, min(_READBACK_KEYS, len(keys)))
    problems = []
    for key in sample:
        reply = server.handle_bytes(
            build_http_request(Request(method="get", key=key)),
            rng.choice(plan.clients),
        )
        if _status(reply) != 200 or _body(reply) != plan.shadow[key][0]:
            problems.append(f"restart read-back of {key} differs")
    return problems[:5]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(sorted_values: list, percent: float):
    """Nearest-rank percentile; ``None`` with fewer than ten samples
    beyond it (the tail would be one noisy request)."""
    count = len(sorted_values)
    if not count:
        return None
    beyond = count * (100.0 - percent) / 100.0
    if percent > 50 and beyond < 10:
        return None
    rank = max(1, -(-count * percent // 100))
    return sorted_values[int(rank) - 1]


def _ms(value):
    return None if value is None else value * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    scale: float
    traced: bool
    correct: bool
    attempted: int
    failed: int
    problems: list
    #: name -> {"value", "unit", "samples"}
    end_to_end: dict
    #: Ungated tail latencies of this run (see ``spec.TAILS``).
    tails: dict
    per_layer: dict
    #: Exact counts that must repeat byte for byte on the same seed.
    counts: dict
    trace_hash: str
    #: What the clocks read before calibration, for the curious.
    raw: dict = field(default_factory=dict)

    def contract_line(self) -> dict:
        """The one JSON object the driver reads from the last line."""
        source = self.per_layer if self.traced else self.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in source.items()
            },
        }

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "scale": self.scale,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "end_to_end": self.end_to_end,
            "tails": self.tails,
            "per_layer": self.per_layer,
            "counts": self.counts,
            "trace_hash": self.trace_hash,
            "raw": self.raw,
        }


def read_write_samples(
    plan: Plan, timed: Timed, load_put_latencies: list
) -> tuple[list, list]:
    """Sorted read and write latencies; writes per ``write_sample``."""
    reads, writes = [], []
    for kind, latency in zip(plan.kinds, timed.latencies):
        (writes if kind == PUT else reads).append(latency)
    if plan.workload.write_sample != "timed":
        writes = list(load_put_latencies)
    reads.sort()
    writes.sort()
    return reads, writes


def tail_latencies(reads: list, writes: list) -> dict:
    """The ungated tails; ``None`` with under ten samples beyond."""
    samples = {"read": reads, "write": writes}
    tails = {}
    for name in TAILS:
        kind, _, rest = name.partition("_p")
        tails[name] = {
            "value": _ms(percentile(samples[kind], float(rest[:2]))),
            "unit": "ms",
            "samples": len(samples[kind]),
        }
    return tails


def end_to_end_metrics(
    plan: Plan,
    timed: Timed,
    reads: list,
    writes: list,
    setup_seconds: float,
    totals: dict,
) -> dict:
    ops = len(timed.latencies)
    ok = ops - timed.failed
    values = {
        "ops_s": (
            _ratio(ok / ops, statistics.median(timed.batch_seconds_per_op)),
            ops,
        ),
        "cpu_us_per_op": (
            statistics.median(timed.batch_cpu_per_op) * 1e6, ops,
        ),
        "read_p50_ms": (_ms(percentile(reads, 50)), len(reads)),
        "write_p50_ms": (_ms(percentile(writes, 50)), len(writes)),
        "setup_s": (setup_seconds, 1),
        "write_amp": (
            _ratio(totals["drive.bytes_written"], plan.user_bytes_put),
            plan.user_bytes_put,
        ),
        "space_amp": (
            _ratio(totals["drive.used_bytes"], plan.live_value_bytes()),
            len(plan.shadow),
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            1,
        ),
    }
    return {
        metric.name: {
            "value": values[metric.name][0],
            "unit": metric.unit,
            "samples": values[metric.name][1],
        }
        for metric in END_TO_END
    }


def per_layer_metrics(
    plan: Plan,
    timed: Timed,
    summary: layers.TraceSummary,
    delta: dict,
    totals: dict,
    untraced_handle_seconds: float,
    tails: dict,
) -> dict:
    ops = len(timed.latencies)
    puts = plan.kinds.count(PUT)
    root = summary.root_seconds
    values: dict[str, float] = {}
    for layer in LAYERS:
        totals_ = summary.by_layer.get(layer, layers.SpanTotals())
        values[f"{layer}.self_us_per_op"] = _ratio(totals_.self_seconds, ops) * 1e6
        values[f"{layer}.share"] = _ratio(totals_.self_seconds, root)
        values[f"{layer}.calls_per_op"] = _ratio(totals_.calls, ops)
    name = summary.name
    round_trips = delta["client.round_trips"]
    sealed = summary.sized.get("StreamAead.seal", 0)

    def hit_ratio(prefix: str) -> float:
        hits = delta[f"{prefix}hits"]
        return _ratio(hits, hits + delta[f"{prefix}misses"])

    values.update({
        "core.webserver.parse_us_per_op":
            _ratio(name("parse_http_request").inclusive_seconds, ops) * 1e6,
        "core.webserver.render_us_per_op":
            _ratio(name("render_http_response").inclusive_seconds, ops) * 1e6,
        **{
            f"core.webserver.{tail}": tails[tail]["value"] or 0.0
            for tail in TAILS
        },
        "core.admission.shed": delta["admission.shed"],
        "core.cache.object_hit_ratio": hit_ratio("cache.object."),
        "core.cache.keys_hit_ratio": hit_ratio("cache.keys."),
        "core.cache.policy_hit_ratio": hit_ratio("cache.policy."),
        "core.cache.object_evictions": delta["cache.object.evictions"],
        "core.cache.keys_evictions": delta["cache.keys.evictions"],
        "policy.checks_per_op": _ratio(name("PolicyEngine.evaluate").calls, ops),
        "policy.evaluate_us_per_check": name("PolicyEngine.evaluate").mean_us,
        "policy.from_content_us_per_put":
            _ratio(name("VersionInfo.from_content").inclusive_seconds, puts) * 1e6,
        "policy.decision_cache_hit_ratio": hit_ratio("decision."),
        "policy.epoch_advances": delta["decision.epoch_advances"],
        "core.store.meta_bytes_per_put":
            _ratio(summary.sized.get("StoredMeta.encode", 0), puts),
        "core.store.replica_writes_per_put": _ratio(delta["drive.puts"], puts),
        "core.store.read_meta_us": name("ObjectStore.read_meta").mean_us,
        "core.store.store_version_us": name("ObjectStore.store_version").mean_us,
        "core.store.scan_keys_us": name("ObjectStore.scan_keys").mean_us,
        "crypto.aead.bytes_sealed_per_op": _ratio(sealed, ops),
        "crypto.aead.bytes_opened_per_op":
            _ratio(summary.sized.get("StreamAead.open", 0), ops),
        "crypto.aead.seal_us_per_kib":
            _ratio(name("StreamAead.seal").inclusive_seconds, sealed / 1024.0) * 1e6,
        "kinetic.client.round_trips_per_op": _ratio(round_trips, ops),
        "kinetic.client.wire_bytes_per_op": _ratio(delta["client.wire_bytes"], ops),
        "kinetic.client.retries": delta["client.retries"],
        "kinetic.protocol.sign_us": name("Message.sign").mean_us,
        "kinetic.protocol.verify_us": name("Message.verify").mean_us,
        "kinetic.protocol.encode_us": name("Message.encode").mean_us,
        "kinetic.protocol.decode_us": name("Message.decode").mean_us,
        "kinetic.protocol.command_bytes_per_rt":
            _ratio(summary.counts.get("Message.command_bytes", 0), round_trips),
        "kinetic.protocol.encode_fields_per_rt":
            _ratio(summary.counts.get("protocol.encode_fields", 0), round_trips),
        "kinetic.drive.puts_per_op": _ratio(delta["drive.puts"], ops),
        "kinetic.drive.gets_per_op": _ratio(delta["drive.gets"], ops),
        "kinetic.drive.range_scans_per_op": _ratio(delta["drive.range_scans"], ops),
        "kinetic.drive.key_count": totals["drive.key_count"],
        "core.freshness.pins_per_put": _ratio(delta["freshness.pins"], puts),
        "core.freshness.proof_cache_hit_ratio": hit_ratio("freshness.proof_"),
        "core.freshness.prepare_us": name("FreshnessAuthority.prepare").mean_us,
        "core.freshness.settle_us": name("FreshnessAuthority.settle").mean_us,
        "sgx.enclave.seals_per_put": _ratio(name("Enclave.seal").calls, puts),
        "sgx.enclave.seal_us_per_call": name("Enclave.seal").mean_us,
        "trace.overhead_x": _ratio(timed.handle_seconds, untraced_handle_seconds),
        "trace.coverage": 1.0 - _ratio(summary.root_self_seconds, root),
    })
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in PER_LAYER
    }


def exact_counts(plan: Plan, delta: dict, totals: dict) -> dict:
    """What two same-seed runs must reproduce byte for byte."""
    counts = {f"timed.{name}": value for name, value in delta.items()}
    counts["total.drive.bytes_written"] = totals["drive.bytes_written"]
    counts["total.drive.used_bytes"] = totals["drive.used_bytes"]
    counts["total.drive.key_count"] = totals["drive.key_count"]
    counts["user_bytes_put"] = plan.user_bytes_put
    counts["live_value_bytes"] = plan.live_value_bytes()
    counts["ops"] = len(plan.raws)
    return counts


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One set-up and one timed phase on it, with the counters read
    just before and just after the timed phase."""

    setup: SetUp
    timed: Timed
    before: dict
    totals: dict


def measured_pass(deployment: Deployment, plan: Plan, tracer=None) -> Pass:
    ready = set_up(deployment, plan)
    # The harness' own pre-built request lists are not re-traversed by
    # collections during timing; GC itself stays enabled.
    gc.collect()
    gc.freeze()
    try:
        before = read_counters(ready.system)
        if tracer is not None:
            tracer.install()
        try:
            timed = run_timed(ready.system, plan, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers.assert_pristine()
        totals = read_counters(ready.system)
    finally:
        gc.unfreeze()
    return Pass(ready, timed, before, totals)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    write_trace_file: bool = True,
) -> RunResult:
    """Plan, set up, time, verify and measure one workload.

    Untraced: one set-up and one timed phase.  Traced: the same, then a
    second, identical set-up whose timed phase runs under the tracer.
    End-to-end metrics and tails always come from the untraced pass;
    ``trace.overhead_x`` is the ratio of the two.
    """
    workload = WORKLOAD_BY_NAME[name]
    plan = build_plan(workload, seed, seconds, scale)
    deployment = Deployment(seed)

    layers.assert_pristine()
    gc.collect()
    untraced = measured_pass(deployment, plan)
    problems = list(untraced.timed.failures)
    last = untraced
    if trace:
        tracer = layers.Tracer()
        last = measured_pass(deployment, plan, tracer)
        problems += last.timed.failures
    system = last.setup.system
    delta = _delta(last.totals, last.before)

    problems += run_probes(system, plan)
    if workload.restart_readback:
        problems += restart_readback(deployment, system, plan)
    if delta["admission.shed"]:
        problems.append(f"{delta['admission.shed']} requests shed")

    reads, writes = read_write_samples(
        plan, untraced.timed, untraced.setup.put_latencies
    )
    end_to_end = end_to_end_metrics(
        plan, untraced.timed, reads, writes, untraced.setup.seconds,
        last.totals,
    )
    tails = tail_latencies(reads, writes)
    per_layer: dict = {}
    if trace:
        factors = last.timed.request_factor
        per_layer = per_layer_metrics(
            plan, last.timed, tracer.summarise(factors), delta, last.totals,
            untraced.timed.handle_seconds, tails,
        )
        if write_trace_file:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            tracer.dump(
                os.path.join(RESULTS_DIR, f"trace_{name}.json"), name, seed,
                factors,
            )
    measured = untraced.timed
    return RunResult(
        workload=name,
        seed=seed,
        seconds=seconds,
        scale=scale,
        traced=trace,
        correct=not problems,
        attempted=len(plan.raws),
        failed=max(measured.failed, last.timed.failed),
        problems=problems,
        end_to_end=end_to_end,
        tails=tails,
        per_layer=per_layer,
        counts=exact_counts(plan, delta, last.totals),
        trace_hash=plan.trace_hash,
        raw={
            "ops_s": _ratio(
                len(plan.raws) - measured.failed, measured.raw_handle_seconds
            ),
            "cpu_us_per_op": _ratio(measured.raw_cpu_seconds, len(plan.raws)) * 1e6,
            "setup_s": untraced.setup.raw_seconds,
            "machine_speed": _ratio(
                measured.handle_seconds, measured.raw_handle_seconds
            ),
        },
    )
