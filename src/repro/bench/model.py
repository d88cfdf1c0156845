"""Discrete-event system model wrapping the functional controller.

One :class:`SystemModel` owns the virtual resources of a deployment —
controller CPU cores, the client-facing network link, per-drive
service stations, the optional shared enclosure uplink — and exposes
:meth:`SystemModel.request`, a process generator that executes one
client request functionally and charges its costs in virtual time:

1. client->controller network (latency + serialized transfer),
2. controller CPU (parse, copies, crypto, policy work, and per drive
   frame the marshalling, syscall pair and replication overheads, all
   derived from the request's recorded effects),
3. one service visit per frame the request put on the drive link —
   a GET, a GETKEYRANGE page, a PUT or COMMIT of however many records
   (network + optional enclosure + drive),
4. response marshalling CPU and the return network hop.

Functional execution happens atomically at the start of step 2 (the
standard execute-then-charge DES technique); queueing behaviour and
therefore throughput/latency curves come from the resource model.
"""

from __future__ import annotations

import random

from repro.bench.configs import SystemConfig
from repro.core.effects import (
    DECRYPT,
    DISK_DELETE,
    DISK_RANGE,
    DISK_READ,
    DISK_WRITE,
    ENCRYPT,
    POLICY_CHECK,
    POLICY_COMPILE,
    POLICY_LOAD,
    SSD_READ,
    SSD_WRITE,
    NullRecorder,
    transitions,
)
from repro.errors import ConfigurationError
from repro.kinetic.timing import OP_DELETE, OP_RANGE, OP_READ, OP_WRITE
from repro.sim import Environment, Histogram, Resource, ThroughputMeter
from repro.telemetry import NULL_TELEMETRY

#: Layers of the request lifecycle whose charged service time the model
#: accounts separately; ``SystemModel.breakdown()`` reports these keys.
LAYERS = (
    "client_net",
    "cpu",
    "ssd",
    "drive_net",
    "enclosure",
    "drive_service",
)

#: The drive operation each frame effect is served as.
_FRAME_OPS = {
    DISK_READ: OP_READ,
    DISK_RANGE: OP_RANGE,
    DISK_WRITE: OP_WRITE,
    DISK_DELETE: OP_DELETE,
}


class DriveStation:
    """Virtual-time service model for one backend drive."""

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        seed: int,
        layer_seconds: dict,
    ):
        self.env = env
        self.timing = config.drive_timing
        self.resource = Resource(env, capacity=self.timing.concurrency)
        self._rng = random.Random(seed)
        self._layer_seconds = layer_seconds

    def service(self, op: str, nbytes: int):
        yield self.resource.acquire()
        try:
            service_time = self.timing.service_time(op, nbytes, self._rng)
            self._layer_seconds["drive_service"] += service_time
            yield self.env.timeout(service_time)
        finally:
            self.resource.release()


class SystemModel:
    """The deployment's shared virtual resources + request lifecycle."""

    def __init__(
        self,
        env: Environment,
        controller,
        config: SystemConfig,
        seed: int = 1234,
        telemetry=None,
    ):
        if isinstance(controller.effects, NullRecorder):
            # Every request would be priced at zero CPU and no drive visit.
            raise ConfigurationError(
                "the model prices a controller's effects: build it with "
                "effects=EffectsRecorder()"
            )
        self.env = env
        self.controller = controller
        self.config = config
        self.cpu = Resource(env, capacity=config.controller_cores)
        self.client_link = Resource(env, capacity=1)
        self.drive_link = Resource(env, capacity=1)
        self.enclosure = (
            Resource(env, capacity=1) if config.enclosure_per_op else None
        )
        self.layer_seconds: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.drives = [
            DriveStation(
                env, config, seed=seed + index,
                layer_seconds=self.layer_seconds,
            )
            for index in range(config.num_drives)
        ]
        self.ssd = Resource(env, capacity=config.ssd_concurrency)
        self.latency = Histogram(min_value=1e-5, max_value=50.0, growth=1.04)
        self.meter = ThroughputMeter()
        self.cpu_seconds_charged = 0.0
        self.telemetry = telemetry or NULL_TELEMETRY
        if self.telemetry.enabled:
            self.telemetry.tracer.set_virtual_clock(lambda: env.now)
        self.telemetry.derived(
            "pesos_bench_layer_seconds",
            "gauge",
            "Virtual service seconds charged per model layer.",
            lambda: sorted(self.layer_seconds.items()),
            ("layer",),
        )

    def _charge(self, layer: str, seconds: float) -> float:
        """Account ``seconds`` of service time to ``layer``."""
        self.layer_seconds[layer] += seconds
        return seconds

    # -- per-layer accounting ----------------------------------------------

    def breakdown(self) -> dict:
        """Charged service seconds per layer since the last reset.

        These are *service* charges, not wall residence: queueing delay
        at a contended resource is visible in latency percentiles but
        not attributed here, so the dict answers "where would the next
        second of capacity help" rather than "where did requests wait".
        """
        return dict(self.layer_seconds)

    def reset_breakdown(self) -> None:
        for layer in self.layer_seconds:
            self.layer_seconds[layer] = 0.0

    # -- cost derivation ---------------------------------------------------

    def _derive_costs(self, events, request_bytes: int, response_bytes: int):
        """Split recorded effects into CPU time and backend visits."""
        cost = self.config.cost
        cpu = cost.request_parse
        cpu += cost.copy_cost(request_bytes + response_bytes)
        disk_ops = []
        ssd_ops = []
        for event in events:
            kind = event[0]
            if kind in _FRAME_OPS:
                # One visit and one marshalling charge per frame; a
                # replica past the first adds coordination (§6.3).
                _kind, drive, nbytes, *mutation = event
                disk_ops.append((_FRAME_OPS[kind], drive, nbytes))
                cpu += self.config.disk_op_cpu
                if mutation and mutation[1]:  # replica ordinal > 0
                    cpu += self.config.replica_write_cpu
            elif kind in (SSD_READ, SSD_WRITE):
                ssd_ops.append((kind, event[1]))
            elif kind in (ENCRYPT, DECRYPT):
                cpu += cost.encryption_cost(event[1])
            elif kind == POLICY_CHECK:
                cpu += cost.policy_check * max(1, event[1])
            elif kind == POLICY_COMPILE:
                cpu += cost.policy_compile
            elif kind == POLICY_LOAD:
                cpu += cost.policy_load
        cpu += sum(transitions(events).values()) * cost.syscall_cost()
        # Enclave-boundary copies for payload and backend traffic.
        ssd_bytes = sum(nbytes for _op, nbytes in ssd_ops)
        disk_bytes = sum(nbytes for _op, _idx, nbytes in disk_ops)
        touched = request_bytes + response_bytes + disk_bytes + ssd_bytes
        cpu += touched * cost.boundary_per_byte
        cpu += self._epc_cost(touched)
        return cpu, disk_ops, ssd_ops

    def _epc_cost(self, touched_bytes: int) -> float:
        """Approximate paging cost once the enclave exceeds the EPC."""
        cost = self.config.cost
        if cost.epc_limit is None or not touched_bytes:
            return 0.0
        footprint = (
            self.config.fixed_enclave_bytes
            + self.controller.caches.memory_in_use()
            + self.controller.sessions.memory_in_use()
        )
        if footprint <= cost.epc_limit:
            return 0.0
        overflow_fraction = 1.0 - cost.epc_limit / footprint
        faults = (touched_bytes / 4096.0) * overflow_fraction
        return faults * cost.epc_page_fault

    # -- request lifecycle -----------------------------------------------------

    def request(self, execute, request_bytes: int):
        """Process generator for one client request.

        ``execute`` is a zero-argument callable that performs the
        functional operation and returns its Response; recorded
        effects are drained from the controller afterwards.
        """
        env = self.env
        config = self.config
        started = env.now

        # Client -> controller: latency plus serialized transfer.
        yield env.timeout(self._charge("client_net", config.client_net_latency))
        yield self.client_link.acquire()
        yield env.timeout(
            self._charge("client_net", request_bytes / config.client_bandwidth)
        )
        self.client_link.release()

        # Functional execution (atomic) + effect-derived costs.
        self.controller.effects.drain()
        response = execute()
        events = self.controller.effects.drain()
        response_bytes = len(response.value) if response.value else 64
        cpu_time, disk_ops, ssd_ops = self._derive_costs(
            events, request_bytes, response_bytes
        )

        # Controller CPU: split around the backend visits (2/3 before,
        # 1/3 for response marshalling after).
        yield self.cpu.acquire()
        yield env.timeout(self._charge("cpu", cpu_time * 2 / 3))
        self.cpu.release()
        self.cpu_seconds_charged += cpu_time

        for op, _nbytes in ssd_ops:
            yield self.ssd.acquire()
            yield env.timeout(
                self._charge(
                    "ssd",
                    config.ssd_read_seconds
                    if op == SSD_READ
                    else config.ssd_write_seconds,
                )
            )
            self.ssd.release()

        for op, drive_index, nbytes in disk_ops:
            yield env.timeout(
                self._charge("drive_net", config.drive_net_latency)
            )
            yield self.drive_link.acquire()
            yield env.timeout(
                self._charge(
                    "drive_net", max(64, nbytes) / config.drive_bandwidth
                )
            )
            self.drive_link.release()
            if self.enclosure is not None:
                yield self.enclosure.acquire()
                yield env.timeout(
                    self._charge("enclosure", config.enclosure_per_op)
                )
                self.enclosure.release()
            yield from self.drives[drive_index % len(self.drives)].service(
                op, nbytes
            )

        yield self.cpu.acquire()
        yield env.timeout(self._charge("cpu", cpu_time / 3))
        self.cpu.release()

        # Controller -> client.
        yield self.client_link.acquire()
        yield env.timeout(
            self._charge(
                "client_net", response_bytes / config.client_bandwidth
            )
        )
        self.client_link.release()
        yield env.timeout(self._charge("client_net", config.client_net_latency))

        self.latency.add(env.now - started)
        self.meter.record()
        return response
