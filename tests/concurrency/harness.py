"""Schedule-exploration harness for the concurrent request engine.

One *exploration* builds a small fresh system, derives a mixed
put/get/delete/transaction workload from a seed, runs it through the
:class:`~repro.core.engine.ConcurrentEngine` under the seed's dispatch
schedule, and checks the observed history against a sequential
in-memory model.  Every seed is a different interleaving of the same
kind of workload; sweeping seeds explores the schedule space the way
the fault-injection suite sweeps failure timings.

The linearizability argument: request locks are held from before the
first store access until after the last, and the completion log is
appended atomically with lock release (no preemption point between
them).  Per-key completion order therefore *is* the linearization
order, so replaying the completion log against a sequential model —
keys to the latest acknowledged (value, version) — must reproduce
every response exactly.  Transactions run on a disjoint key space and
are checked through their own invariant: each transaction reads both
transaction keys (must see an atomic snapshot: equal markers) and
writes its txid to both, so at quiescence the two keys must again hold
one transaction's marker.

On any violation the harness raises with the seed in the message, so
a failing interleaving can be replayed exactly:

    PYTHONPATH=src python -c "
    from tests.concurrency.harness import explore; explore(<seed>)"
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.deadlock import find_deadlocks
from repro.analysis.races import find_races
from repro.analysis.sanitizer import ShadowState
from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig, PesosController
from repro.core.engine import ConcurrentEngine
from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

R_KEYS = [f"r-{i}" for i in range(6)]
T_KEYS = ["t-a", "t-b"]
TX_INIT = b"tx-init"


@dataclass
class Exploration:
    """Everything one seeded run produced, for assertions beyond pass."""

    seed: int
    requests: list
    responses: list
    completion_log: list
    trace: bytes
    committed_txids: list
    controller: PesosController = None
    violations: list = field(default_factory=list)
    #: Race/deadlock findings from the concurrency sanitizer (empty on
    #: a healthy run; populated before the raise when it fires).
    sanitizer_findings: list = field(default_factory=list)


class LinearizabilityError(AssertionError):
    """A history the sequential model cannot explain."""


def build_small_system(seed: int) -> PesosController:
    """3 drives, replication 2, tiny caches, preloaded key spaces."""
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=b"explore-key".ljust(32, b"\0"),
        config=ControllerConfig(
            replication_factor=2,
            cache=CacheConfig(
                object_bytes=1024, key_bytes=256, policy_bytes=4096
            ),
        ),
    )
    for key in R_KEYS:
        assert controller.put("fp", key, f"init:{key}".encode()).ok
    for key in T_KEYS:
        assert controller.put("fp", key, TX_INIT).ok
    return controller


def make_workload(
    controller: PesosController, seed: int, operations: int = 26
) -> tuple[list, dict]:
    """Seeded mixed workload: requests for the batch + put-value map.

    Transactions are assembled inline (create/add_read/add_write are
    pure metadata, no drive I/O) so the batch carries only their
    commit/abort requests, which is where concurrency matters.
    """
    rng = random.Random(seed)
    requests: list[Request] = []
    values: dict[int, bytes] = {}
    serial = 0
    for _ in range(operations):
        roll = rng.random()
        key = rng.choice(R_KEYS)
        if roll < 0.45:
            requests.append(Request(method="get", key=key))
        elif roll < 0.80:
            serial += 1
            value = f"s{seed}:w{serial}".encode()
            values[len(requests)] = value
            requests.append(Request(method="put", key=key, value=value))
        elif roll < 0.88:
            requests.append(Request(method="delete", key=key))
        else:
            tx = controller.txns.create("fp")
            for t_key in T_KEYS:
                tx.add_read(t_key)
            for t_key in T_KEYS:
                tx.add_write(t_key, tx.txid.encode())
            method = "commit_tx" if rng.random() < 0.8 else "abort_tx"
            requests.append(Request(method=method, txid=tx.txid))
    return requests, values


def check_history(exploration: Exploration, values: dict) -> None:
    """Replay the completion log against the sequential model."""
    seed = exploration.seed
    # Model: key -> (value, version) for live keys.
    model: dict[str, tuple[bytes, int]] = {}
    for key in R_KEYS:
        model[key] = (f"init:{key}".encode(), 0)

    def fail(message: str) -> None:
        raise LinearizabilityError(
            f"seed {seed}: {message}\n"
            f"replay with: tests.concurrency.harness.explore({seed})"
        )

    for entry in exploration.completion_log:
        index, method, key, status, _version = entry
        response = exploration.responses[index]
        if method == "get":
            if key in model:
                value, version = model[key]
                if status != 200:
                    fail(f"get {key!r} (op {index}) got {status}, "
                         f"model holds v{version}")
                if response.value != value or response.version != version:
                    fail(
                        f"get {key!r} (op {index}) observed "
                        f"v{response.version}={response.value!r}, model "
                        f"says v{version}={value!r}"
                    )
            elif status != 404:
                fail(f"get of deleted {key!r} (op {index}) got {status}")
        elif method == "put":
            if status != 200:
                fail(f"put {key!r} (op {index}) failed with {status}")
            previous = model.get(key, (b"", -1))[1]
            if response.version <= previous:
                fail(
                    f"put {key!r} (op {index}) acked v{response.version} "
                    f"<= model v{previous} (lost update)"
                )
            model[key] = (values[index], response.version)
        elif method == "delete":
            if key in model:
                if status != 200:
                    fail(f"delete {key!r} (op {index}) got {status}")
                del model[key]
            elif status != 404:
                fail(f"double delete {key!r} (op {index}) got {status}")
        elif method in ("commit_tx", "abort_tx"):
            continue  # checked via the transaction invariant below
        else:
            fail(f"unexpected method {method!r} in completion log")

    _check_transactions(exploration, fail)


def _check_transactions(exploration: Exploration, fail) -> None:
    """Atomic-snapshot + serial-order invariants on the tx key space.

    Every transaction reads both keys and writes its txid to both, so
    the store's per-key write versions reconstruct the serial order the
    lock manager actually produced: sorting committed transactions by
    their acked write version must give the *same* order on both keys,
    each transaction must have read an untorn snapshot, and that
    snapshot must be exactly what its serial predecessor wrote.
    """
    controller = exploration.controller
    committed = [
        controller.txns._transactions[txid]
        for txid in exploration.committed_txids
        if controller.txns._transactions[txid].state == "committed"
    ]

    def rank(tx, key):
        return int(tx.results[f"write:{key}"].lstrip(b"v"))

    orders = [
        [tx.txid for tx in sorted(committed, key=lambda t: rank(t, key))]
        for key in T_KEYS
    ]
    if orders[0] != orders[1]:
        fail(f"serial orders diverge across tx keys: {orders!r}")
    serial = sorted(committed, key=lambda t: rank(t, T_KEYS[0]))
    expected = TX_INIT
    for tx in serial:
        reads = [tx.results[f"read:{key}"] for key in T_KEYS]
        if len(set(reads)) != 1:
            fail(
                f"transaction {tx.txid} read a torn snapshot: "
                f"{[r[:24] for r in reads]}"
            )
        if reads[0] != expected:
            fail(
                f"transaction {tx.txid} read {reads[0]!r} but its "
                f"serial predecessor wrote {expected!r}"
            )
        expected = tx.txid.encode()
    finals = [controller.get("fp", key).value for key in T_KEYS]
    if len(set(finals)) != 1:
        fail(f"tx keys diverged at quiescence: {finals!r}")
    if finals[0] != expected:
        fail(
            f"final tx marker {finals[0]!r} does not match the last "
            f"serial writer {expected!r}"
        )


def explore(
    seed: int,
    operations: int = 26,
    workers: int = 6,
    engine_cls: type = ConcurrentEngine,
    sanitize: bool = True,
) -> Exploration:
    """Run one seeded interleaving end to end; raises on any violation.

    With ``sanitize`` (the default) the run records a shadow-state
    event stream and every explored interleaving is also checked for
    lockset races and lock-order cycles — defects *some other*
    interleaving would hit, even if this one got lucky.
    """
    controller = build_small_system(seed)
    requests, values = make_workload(controller, seed, operations)
    shadow = ShadowState() if sanitize else None
    with engine_cls(
        controller, seed=seed, hardware_threads=workers, sanitizer=shadow
    ) as engine:
        responses = engine.run_batch(requests, "fp")
        exploration = Exploration(
            seed=seed,
            requests=requests,
            responses=responses,
            completion_log=list(engine.completion_log),
            trace=engine.trace_bytes(),
            committed_txids=[
                request.txid
                for request in requests
                if request.method == "commit_tx"
            ],
            controller=controller,
        )
    if shadow is not None:
        exploration.sanitizer_findings = find_races(
            shadow.events
        ) + find_deadlocks(shadow.events)
        if exploration.sanitizer_findings:
            details = "\n".join(
                f"  [{f.rule}] {f.message}"
                for f in exploration.sanitizer_findings
            )
            raise LinearizabilityError(
                f"seed {seed}: concurrency sanitizer reported "
                f"{len(exploration.sanitizer_findings)} finding(s):\n"
                f"{details}"
            )
    for index, response in enumerate(responses):
        if response.status >= 500:
            raise LinearizabilityError(
                f"seed {seed}: op {index} "
                f"({requests[index].method}) crashed: {response.error}"
            )
    if controller.txns.locked_keys():
        raise LinearizabilityError(
            f"seed {seed}: key locks leaked: "
            f"{sorted(controller.txns.locked_keys())}"
        )
    if controller.txns.queue_length:
        raise LinearizabilityError(
            f"seed {seed}: {controller.txns.queue_length} transactions "
            "stuck in the VLL queue at quiescence"
        )
    check_history(exploration, values)
    return exploration
