"""The failure-free drive-op sequence, a differential oracle.

A fixed script (200 keys at RF 3, no faults: insert, update, get cold,
scan, delete) runs through clients that record every drive operation
as ``drive op disk-key``; a commit frame is one line naming every
record it puts or deletes.  The sequence must hash to the recorded
digest, so a change to the store may not add, drop or reorder a single
drive operation.  Freshness on and off send the same 3 036 lines.
"""

import hashlib
import random

from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig
from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

from tests.core.conftest import ALICE
from tests.enclave import boot

#: SHA-256 over the drive-op lines of :func:`_scripted_run`.
DRIVE_OP_SEQUENCE_SHA256 = (
    "178e9572056dfe3986e4107f1ca3f3d8a568e9551e5665ef4fe7183fc11a7ceb"
)
DRIVE_OP_COUNT = 3036


def _scripted_run(freshness_enabled: bool = True) -> list[str]:
    """200 keys, RF 3, no faults: insert, update, get cold, scan, delete."""
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    ops: list[str] = []

    def record(client, op, args, kwargs):
        if op == "commit":
            what = " ".join(
                f"{'delete' if item.value is None else 'put'} "
                f"{item.key.hex()}"
                for item in args[0]
            )
        else:
            what = args[0].hex()
        ops.append(f"{clients.index(client)} {op} {what}")
        return client.direct(op, *args, **kwargs)

    def recording_range(index, client):
        inner = client.get_key_range

        def get_key_range(**kwargs):
            ops.append(
                f"{index} range {kwargs['start_key'].hex()} "
                f"{kwargs['max_returned']} {kwargs['start_inclusive']}"
            )
            return inner(**kwargs)

        return get_key_range

    for index, client in enumerate(clients):
        client.interceptor = record
        client.get_key_range = recording_range(index, client)
    controller = boot(
        clients,
        storage_key=b"k" * 32,
        # Caches far smaller than the data set, so the get phase reads
        # metadata and values from the drives.
        config=ControllerConfig(
            replication_factor=3,
            cache=CacheConfig(object_bytes=4096, key_bytes=2048),
            freshness_enabled=freshness_enabled,
        ),
    )
    rng = random.Random(15)
    keys = [f"user{i:05d}" for i in range(200)]
    policy = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ALICE}')",
    )
    assert policy.ok
    for key in keys:
        assert controller.put(
            ALICE, key, rng.randbytes(100), policy_id=policy.policy_id
        ).ok
    for key in rng.choices(keys, k=200):
        assert controller.put(ALICE, key, rng.randbytes(100)).ok
    for key in rng.choices(keys, k=200):
        assert controller.get(ALICE, key).ok
    for start in rng.choices(keys, k=20):
        response = controller.handle(
            Request(method="scan", key=start, scan_count=rng.randint(1, 50)),
            ALICE,
        )
        assert response.ok
    for key in keys:
        assert controller.delete(ALICE, key).ok
    return ops


def test_failure_free_drive_op_sequence_is_the_recorded_one():
    ops = _scripted_run()
    assert len(ops) == DRIVE_OP_COUNT
    digest = hashlib.sha256("\n".join(ops).encode()).hexdigest()
    assert digest == DRIVE_OP_SEQUENCE_SHA256


def test_failure_free_drive_op_sequence_with_freshness_off_is_the_recorded_one():
    """Freshness off, explicitly: the newest-of-quorum path still ships
    (``ControllerConfig(freshness_enabled=False)``).  Failure-free, it
    sends what the pinned path sends: no GET for a key the enclave does
    not hold, and one boot listing."""
    ops = _scripted_run(freshness_enabled=False)
    assert len(ops) == DRIVE_OP_COUNT
    digest = hashlib.sha256("\n".join(ops).encode()).hexdigest()
    assert digest == DRIVE_OP_SEQUENCE_SHA256
