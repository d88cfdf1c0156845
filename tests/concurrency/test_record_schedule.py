"""A check sees the record current when it resolved it, and that record
never changes under it.

``doc``'s policy reads ``doc.log`` (``objSays``), which no request on
``doc`` locks.  One batch of checks resolves the log's record; then a
put, a delete and a recreate of the log each run beside checks, through
the concurrent engine under a seeded dispatch schedule, so a check may
resolve the log before, during or after the write.  Every record a
check resolves must be the one the store last acknowledged for its key
at that instant (None while the key is deleted), must be unchanged once
every write has run, and the verdict must be what that record's current
version says.  ``SCHEDULE_SEED`` shifts the explored seeds, as in
``test_linearizability.py``.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.controller import ControllerConfig
from repro.core.engine import ConcurrentEngine
from repro.core.request import Request
from tests.core.conftest import make_clients
from tests.enclave import boot

BASE = int(os.environ.get("SCHEDULE_SEED", "0")) * 10_000
SEEDS = range(BASE, BASE + 24)

OWNER, BOB, CAROL = "fp-alice", "fp-bob", "fp-carol"
#: ``doc`` is readable by whoever its log's current version names.
MAY = (
    "read :- objId(log, L) /\\ sessionKeyIs(U) /\\ objSays(L, LV, 'may'(U))\n"
    f"update :- sessionKeyIs(k'{OWNER}')\n"
    f"delete :- sessionKeyIs(k'{OWNER}')"
)


def may(*clients: str) -> bytes:
    return "".join(f"'may'(k'{client}')\n" for client in clients).encode()


def _snapshot(record):
    if record is None:
        return None
    return (record.key, record.current_version, record.policy_id,
            dict(record.versions))


class Recorder:
    """What the store acknowledged per key, and every record a check
    resolved and its verdict."""

    def __init__(self, controller):
        self.controller = controller
        #: ("begin" | "ack" | "resolve", key, record snapshot), in order
        self.events = []
        self.resolved = []  # (key, record, snapshot when resolved)
        self.violations = []
        #: content hash -> who the bytes let read
        self.readers = {}
        store = controller.store
        store_version, delete_object = store.store_version, store.delete_object
        view, evaluate = controller._view, controller._evaluate

        def acknowledged_put(meta, value, *args):
            self.events.append(("begin", meta.key, None))
            record = store_version(meta, value, *args)
            self.readers[hashlib.sha256(value).hexdigest()] = {
                line[len("'may'(k'"):-2]
                for line in value.decode().splitlines()
            }
            self.events.append(("ack", meta.key, _snapshot(record)))
            return record

        def acknowledged_delete(meta):
            self.events.append(("begin", meta.key, None))
            delete_object(meta)
            self.events.append(("ack", meta.key, None))

        def resolve(key):
            record = view(key)
            self.events.append(("resolve", key, _snapshot(record)))
            self.resolved.append((key, record, _snapshot(record)))
            return record

        def checked(operation, policy, inputs, build):
            built = []

            def capture():
                built.append(build())
                return built[-1]

            decision = evaluate(operation, policy, inputs, capture)
            if operation != "read":
                return decision
            for ctx in built:
                log = ctx.objects.get("doc.log")
                row = log and log.versions[log.current_version]
                expected = row is not None and (
                    inputs.session_key in self.readers[row.content_hash]
                )
                if decision.granted != expected:
                    self.violations.append(
                        f"{inputs.session_key} granted {decision.granted} "
                        f"over {_snapshot(log)}"
                    )
            return decision

        store.store_version = acknowledged_put
        store.delete_object = acknowledged_delete
        controller._view = resolve
        controller._evaluate = checked

    def stale_resolutions(self) -> list:
        """Each resolution that saw neither the record last acknowledged
        for its key nor the one a write then in flight acknowledged."""
        stale = []
        for at, (kind, key, seen) in enumerate(self.events):
            if kind != "resolve":
                continue
            acked, writing = None, False
            for other, other_key, snapshot in self.events[:at]:
                if other_key == key and other != "resolve":
                    acked = snapshot if other == "ack" else acked
                    writing = other == "begin"
            later = [
                snapshot for other, other_key, snapshot in self.events[at:]
                if other == "ack" and other_key == key
            ]
            allowed = [acked] + later[:1] if writing else [acked]
            if seen not in allowed:
                stale.append((key, seen, allowed))
        return stale


def _checks():
    return [(Request(method="get", key="doc"), who) for who in (BOB, CAROL)]


def _put_log(value):
    return Request(method="put", key="doc.log", value=value), OWNER


@pytest.mark.parametrize("seed", SEEDS)
def test_a_check_sees_the_record_current_when_it_ran(seed):
    controller = boot(
        make_clients(3)[0], storage_key=b"r" * 32,
        config=ControllerConfig(replication_factor=2),
    )
    recorder = Recorder(controller)
    policy = controller.put_policy(OWNER, MAY).policy_id
    assert controller.put(OWNER, "doc.log", may(BOB)).ok
    assert controller.put(OWNER, "doc", b"secret", policy_id=policy).ok
    steps = [
        [],
        [_put_log(may(CAROL))],
        [(Request(method="delete", key="doc.log"), OWNER)],
        [_put_log(may(BOB, CAROL))],  # the recreate: doc.log@0 again
    ]
    statuses = []
    with ConcurrentEngine(controller, seed=seed) as engine:
        for mutation in steps:
            responses = engine.run_batch(mutation + _checks() + _checks())
            assert all(r.status in (200, 403) for r in responses), seed
            statuses.append([r.status for r in responses])
    assert recorder.violations == [], (seed, recorder.violations)
    assert recorder.stale_resolutions() == [], seed
    # Every record a check held is as it was when the check resolved it.
    for key, record, snapshot in recorder.resolved:
        assert _snapshot(record) == snapshot, (seed, key)
    # Each step's mutation was acknowledged.
    assert all(status[0] == 200 for status in statuses[1:])
    assert {key for key, _record, _snap in recorder.resolved} == {"doc.log"}
    assert controller._get_meta("doc.log").current_version == 0
