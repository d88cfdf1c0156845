"""Replay YCSB traces against a controller (the adapted client, §6.1)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from repro.core.controller import PesosController
from repro.core.request import Request
from repro.ycsb.workload import INSERT, READ, RMW, SCAN, Trace, UPDATE


def _payload(size: int, rng: random.Random) -> bytes:
    """Deterministic pseudo-random payload of ``size`` bytes."""
    return rng.getrandbits(8 * size).to_bytes(size, "big") if size else b""


def operation_request(
    controller: PesosController,
    operation,
    payload,
    policy_id: str = "",
    version_aware: bool = False,
) -> Request:
    """Translate one trace operation into the client's request.

    ``payload(size)`` supplies the value bytes and is called for
    writes only, so a seeded generator advances exactly once per
    write.  A version-aware client names the next version explicitly,
    which takes one metadata lookup first.
    """
    if operation.op == READ:
        return Request(method="get", key=operation.key)
    if operation.op == SCAN:
        return Request(
            method="scan", key=operation.key, scan_count=operation.scan_length
        )
    if operation.op == RMW:
        return Request(
            method="rmw",
            key=operation.key,
            value=payload(operation.value_size),
            policy_id=policy_id,
        )
    if operation.op in (UPDATE, INSERT):
        version = None
        if version_aware:
            meta = controller._get_meta(operation.key)
            version = (
                meta.current_version + 1
                if meta is not None and meta.exists
                else 0
            )
        return Request(
            method="put",
            key=operation.key,
            value=payload(operation.value_size),
            policy_id=policy_id,
            version=version,
        )
    raise ValueError(f"unknown op {operation.op!r}")


def load_phase(
    controller: PesosController,
    trace: Trace,
    fingerprint: str,
    policy_id: str = "",
    seed: int = 7,
    version_aware: bool = False,
    payload=None,
) -> int:
    """Insert every record of the trace's load phase; returns count.

    Values come from ``payload(size)`` when given (the DES harness
    passes its size-cached one), else from a generator seeded ``seed``.
    """
    payload = payload or partial(_payload, rng=random.Random(seed))
    for key in trace.load_keys:
        request = Request(
            method="put",
            key=key,
            value=payload(trace.spec.value_size),
            policy_id=policy_id,
            version=0 if version_aware else None,
        )
        response = controller.handle(request, fingerprint)
        if not response.ok:
            raise RuntimeError(f"load failed on {key}: {response.error}")
    return len(trace.load_keys)


@dataclass
class RunStats:
    """Outcome counters for one replay."""

    reads: int = 0
    updates: int = 0
    inserts: int = 0
    scans: int = 0
    rmws: int = 0
    #: Records returned across all range scans (scan fan-out measure).
    records_scanned: int = 0
    denied: int = 0
    errors: int = 0
    statuses: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return (
            self.reads + self.updates + self.inserts
            + self.scans + self.rmws
        )


class TraceRunner:
    """Replays a trace's operation phase through the controller."""

    def __init__(
        self,
        controller: PesosController,
        fingerprint: str,
        policy_id: str = "",
        version_aware: bool = False,
        seed: int = 13,
    ):
        self.controller = controller
        self.fingerprint = fingerprint
        self.policy_id = policy_id
        self.version_aware = version_aware
        self._rng = random.Random(seed)
        self.stats = RunStats()

    def run(self, trace: Trace, limit: int | None = None) -> RunStats:
        for index, operation in enumerate(trace.operations):
            if limit is not None and index >= limit:
                break
            self.execute(operation)
        return self.stats

    #: ``RunStats`` counter per trace operation kind.
    _COUNTERS = {
        READ: "reads",
        SCAN: "scans",
        RMW: "rmws",
        UPDATE: "updates",
        INSERT: "inserts",
    }

    def execute(self, operation) -> None:
        """Run a single trace operation, updating counters."""
        request = operation_request(
            self.controller,
            operation,
            partial(_payload, rng=self._rng),
            self.policy_id,
            self.version_aware,
        )
        counter = self._COUNTERS[operation.op]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        response = self.controller.handle(request, self.fingerprint)
        self.stats.statuses[response.status] = (
            self.stats.statuses.get(response.status, 0) + 1
        )
        if operation.op == SCAN and response.ok:
            self.stats.records_scanned += response.extra.get("scanned", 0)
        if response.status == 403:
            self.stats.denied += 1
        elif not response.ok:
            self.stats.errors += 1
