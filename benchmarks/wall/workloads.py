"""Turn (workload, seed) into request bytes and their expected answers.

Everything the program will see is built here, before any timing:
the policy sources, the load-phase PUTs, the timed requests, and —
because one closed-loop client makes the outcome of every request a
pure function of the trace — the oracle's expected reply for each.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

from repro.core.request import Request, build_http_request
from repro.policy.compiler import compile_source
from repro.usecases.mal import mal_policy, read_intent
from repro.usecases.versioned import versioned_policy
from repro.ycsb.workload import (
    INSERT,
    READ,
    SCAN,
    UPDATE,
    WORKLOAD_C,
    generate_trace,
    trace_bytes,
)

from benchmarks.wall.spec import MAL, NOMINAL_SECONDS, VALUE_SIZE, Workload

GET, PUT, SCAN_OP = "get", "put", "scan"

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_FIELDS = 10
#: Payload characters per line so that ten ``field<i>=...`` lines joined
#: by newlines total exactly ``VALUE_SIZE`` bytes.
_LINE_CHARS = (VALUE_SIZE - _FIELDS * len("fieldN=") - (_FIELDS - 1)) // _FIELDS
_LAST_LINE_EXTRA = (
    VALUE_SIZE
    - _FIELDS * len("fieldN=")
    - (_FIELDS - 1)
    - _FIELDS * _LINE_CHARS
)

INTRUDER = "fp-wall-intruder"


def ycsb_value(rng: random.Random) -> bytes:
    """A YCSB-shaped record: ten ``field<i>=<a-z0-9...>`` text lines.

    Printable text, not random bytes: ``VersionInfo.from_content``
    tokenises text payloads and returns at once on binary ones, so
    random bytes would hide that layer.
    """
    chars = rng.choices(_ALPHABET, k=_FIELDS * _LINE_CHARS + _LAST_LINE_EXTRA)
    lines = []
    for index in range(_FIELDS):
        lo = index * _LINE_CHARS
        hi = lo + _LINE_CHARS + (_LAST_LINE_EXTRA if index == _FIELDS - 1 else 0)
        lines.append(f"field{index}=" + "".join(chars[lo:hi]))
    return "\n".join(lines).encode()


def acl_policy(clients: list[str]) -> str:
    """Readers and writers named one by one with ``sessionKeyIs``."""
    grant = " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in clients)
    return f"read :- {grant}\nupdate :- {grant}"


@dataclass
class Probe:
    """A request that must be refused with 403."""

    raw: bytes
    fingerprint: str
    what: str


@dataclass
class Plan:
    """One workload instance: requests in order plus the oracle."""

    workload: Workload
    seed: int
    clients: list
    #: ``(source, expected policy id)`` in install order.
    policies: list = field(default_factory=list)
    #: Load phase: ``(raw, fingerprint)``; every one must answer 200.
    load: list = field(default_factory=list)
    #: Timed phase, parallel lists.
    raws: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    #: GET: the body; SCAN: the ``key@version`` lines; PUT: ``None``.
    expected: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    #: key -> (latest value, latest version) after load + timed phase.
    shadow: dict = field(default_factory=dict)
    user_bytes_load: int = 0
    user_bytes_timed: int = 0
    trace_hash: str = ""

    @property
    def user_bytes_put(self) -> int:
        return self.user_bytes_load + self.user_bytes_timed

    def live_value_bytes(self) -> int:
        return sum(len(value) for value, _version in self.shadow.values())


def scaled_counts(
    workload: Workload, seconds: float, scale: float
) -> tuple[int, int]:
    """``(records, timed ops)``: ``scale`` shrinks both (smoke runs),
    ``seconds`` stretches only the timed phase."""
    records = max(8, round(workload.records * scale))
    ops = max(8, round(workload.ops * scale * seconds / NOMINAL_SECONDS))
    return records, ops


def build_plan(
    workload: Workload, seed: int, seconds: float, scale: float = 1.0
) -> Plan:
    records, ops = scaled_counts(workload, seconds, scale)
    spec = (workload.ycsb or WORKLOAD_C).scaled(
        record_count=records, operation_count=ops, value_size=VALUE_SIZE
    )
    trace = generate_trace(spec, seed)
    rng = random.Random(seed)
    clients = [f"fp-wall-client-{i}" for i in range(workload.clients)]
    plan = Plan(workload=workload, seed=seed, clients=clients)
    plan.trace_hash = hashlib.sha256(trace_bytes(trace)).hexdigest()
    if workload.policy == MAL:
        _plan_mal_load(plan, trace.load_keys)
    else:
        _plan_acl_load(plan, trace.load_keys, rng)
    _plan_timed(plan, trace.operations, rng)
    return plan


def _policy_id(source: str) -> str:
    return compile_source(source).policy_hash()


def _put(key: str, value: bytes, **extra) -> bytes:
    return build_http_request(
        Request(method="put", key=key, value=value, **extra)
    )


def _plan_acl_load(plan: Plan, keys: list, rng: random.Random) -> None:
    source = acl_policy(plan.clients)
    policy_id = _policy_id(source)
    plan.policies.append((source, policy_id))
    for key in keys:
        value = ycsb_value(rng)
        plan.load.append(
            (_put(key, value, policy_id=policy_id), rng.choice(plan.clients))
        )
        plan.shadow[key] = (value, 0)
        plan.user_bytes_load += len(value)
    probe_key = keys[0]
    plan.probes = [
        Probe(
            build_http_request(Request(method="get", key=probe_key)),
            INTRUDER,
            "foreign fingerprint reads an ACL object",
        ),
        Probe(
            _put(probe_key, b"overwritten by the intruder"),
            INTRUDER,
            "foreign fingerprint updates an ACL object",
        ),
    ]


def _plan_mal_load(plan: Plan, keys: list) -> None:
    """§5.4: every object has a ``.log`` holding one read intent per
    client, so any of the clients may read; the intruder has none."""
    owner = plan.clients[0]
    log_source = versioned_policy()
    mal_source = mal_policy(owner)
    log_id, mal_id = _policy_id(log_source), _policy_id(mal_source)
    plan.policies += [(log_source, log_id), (mal_source, mal_id)]
    for key in keys:
        log_key = key + ".log"
        log_value = "".join(
            read_intent(key, 0, client) + "\n" for client in plan.clients
        ).encode()
        value = f"protected record {key}\n".encode().ljust(VALUE_SIZE, b".")
        plan.load.append(
            (_put(log_key, log_value, policy_id=log_id, version=0), owner)
        )
        plan.load.append((_put(key, value, policy_id=mal_id), owner))
        plan.shadow[log_key] = (log_value, 0)
        plan.shadow[key] = (value, 0)
        plan.user_bytes_load += len(log_value) + len(value)
    plan.probes = [
        Probe(
            build_http_request(Request(method="get", key=keys[0])),
            INTRUDER,
            "client with no intent entry reads a MAL object",
        )
    ]


def _plan_timed(plan: Plan, operations: list, rng: random.Random) -> None:
    shadow = plan.shadow
    policy_id = plan.policies[-1][1]
    # Sorted live keys for the scan oracle; inserts only ever append
    # (YCSB insert keys continue the load numbering).
    live = sorted(key for key in shadow if not key.endswith(".log"))
    for operation in operations:
        fingerprint = rng.choice(plan.clients)
        key = operation.key
        if operation.op == READ:
            request = Request(method="get", key=key)
            kind, expect = GET, shadow[key][0]
        elif operation.op in (UPDATE, INSERT):
            value = ycsb_value(rng)
            if operation.op == INSERT:
                request = Request(
                    method="put", key=key, value=value, policy_id=policy_id
                )
                version = 0
                assert not live or key > live[-1]
                live.append(key)
            else:
                request = Request(method="put", key=key, value=value)
                version = shadow[key][1] + 1
            shadow[key] = (value, version)
            plan.user_bytes_timed += len(value)
            kind, expect = PUT, None
        elif operation.op == SCAN:
            request = Request(
                method="scan", key=key, scan_count=operation.scan_length
            )
            first = bisect.bisect_left(live, key)
            hits = live[first:first + operation.scan_length]
            kind = SCAN_OP
            expect = "\n".join(
                f"{hit}@{shadow[hit][1]}" for hit in hits
            ).encode()
        else:
            raise ValueError(f"workload op {operation.op!r} not supported")
        plan.raws.append(build_http_request(request))
        plan.fingerprints.append(fingerprint)
        plan.kinds.append(kind)
        plan.expected.append(expect)
