"""Pins the shape of ``core/store.py``: one replica read, one pager.

Two kinds of guard.  The structural ones count what the single read
walk replaced (drive-error handlers, ``_verifying`` reach-ins) so a
fourth copy of the loop cannot grow back unnoticed.  The behavioural
one replays a fixed failure-free script and compares the per-drive
``(op, disk key)`` sequence against a recorded digest: a refactor of
the store may not add, drop or reorder a single drive operation.  The
read side of that sequence dates from *before* the three walks were
merged (PR 14, 6 093 ops, ``20e4b6a3…``); the write side was re-pinned
when a PUT became one ``COMMIT`` frame per replica (value + ``m/``
record; 3 drive ops at RF 3, not 6) and a DELETE of an object one
frame per replica (every slot + ``m/``; 3, not 6): 2 400 fewer drive
operations (3 693), the 1 830 GET and 60 range lines identical to the
old sequence, line for line.  The range side was re-pinned when a scan
became a slice of the store's key directory: the 20 scans' 60 range
reads became the first scan's listing that seeds it (two pages a
drive), 3 639 lines, every other line unchanged.  It was re-pinned once
more when freshness shipped on: a create reads the ``m/`` record of a
label the pinned tree does not hold from no drive (600 GETs fewer), and
the bootstrap's listing of the empty fleet (one page a drive) seeds the
directory the first scan listed (3 range reads fewer): 3 036 lines,
1 800 commit frames as before.  With freshness off the script still
sends the 3 639 above, and a second pin holds it to that.
"""

import hashlib
import inspect
import random
import re
from pathlib import Path

import repro.core.store as store_module
from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig
from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

from tests.core.conftest import ALICE
from tests.enclave import boot

#: SHA-256 over the drive-op lines of :func:`_scripted_run`; a commit
#: frame is one line naming every record it puts or deletes.
DRIVE_OP_SEQUENCE_SHA256 = (
    "178e9572056dfe3986e4107f1ca3f3d8a568e9551e5665ef4fe7183fc11a7ceb"
)
DRIVE_OP_COUNT = 3036
#: The same with freshness off: the sequence before freshness shipped on.
FRESHNESS_OFF_SHA256 = (
    "6441729eeee11e5d308181a04670f8639bbf563c3cd45448e20a7534373ab3d6"
)
FRESHNESS_OFF_COUNT = 3639


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
    (``ControllerConfig(freshness_enabled=False)``), and its sequence
    is the one recorded before freshness shipped on."""
    ops = _scripted_run(freshness_enabled=False)
    assert len(ops) == FRESHNESS_OFF_COUNT
    digest = hashlib.sha256("\n".join(ops).encode()).hexdigest()
    assert digest == FRESHNESS_OFF_SHA256


def _source(module) -> str:
    return Path(module.__file__).read_text()


def test_store_has_one_read_walk():
    source = _source(store_module)
    assert len(re.findall(
        r"except \(DriveOffline, TransientIOError\)", source
    )) <= 5
    # One drive GET, one key-range call, and one drive write:
    # ``_send`` holds the forced PUT and the one COMMIT, and a re-seed
    # goes through it.
    assert len(re.findall(r"\.get\(disk_key\)", source)) == 1
    assert source.count("get_key_range(") == 1
    assert source.count("force=True") == 2  # _send, _forced
    assert source.count(".commit(") == 1
    assert source.count("self._verifying()") <= 2
    for literal in ('b"val:"', 'b"meta:"', 'b"policy:"'):
        assert source.count(literal) == 1, literal


def test_nothing_outside_the_store_asks_whether_it_verifies():
    """The content hash always anchors a value read, so no caller has a
    reason to know which metadata rule is in force."""
    package = Path(store_module.__file__).parents[1]
    askers = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if "_verifying" in path.read_text()
    }
    assert askers == {"core/store.py"}
    view = _source(store_module).split("class StoreBackedView", 1)[1]
    assert "_verifying" not in view


def test_the_store_constructor_took_no_new_option():
    parameters = inspect.signature(store_module.ObjectStore.__init__).parameters
    assert list(parameters) == [
        "self", "clients", "storage_key", "replication_factor",
        "keep_history", "effects", "telemetry",
        "write_quorum", "breaker_threshold", "breaker_cooldown_ops",
    ]
