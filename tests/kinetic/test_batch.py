"""The Kinetic COMMIT frame: one signed request, all ops or none."""

import pytest

from repro.errors import (
    KineticAuthError,
    KineticError,
    KineticNotFound,
    KineticVersionMismatch,
    TransientIOError,
)
from repro.kinetic.client import KineticClient
from repro.kinetic.drive import KineticDrive, Role
from repro.kinetic.protocol import Message, MessageType, Op
from repro.kinetic.retry import RetryPolicy


@pytest.fixture()
def client():
    return KineticClient(
        KineticDrive("d0", capacity_bytes=1 << 16),
        KineticDrive.DEMO_IDENTITY,
        KineticDrive.DEMO_KEY,
    )


def test_batch_commit_applies_all(client):
    sent = client.requests_sent
    assert client.commit([Op(b"a", b"1"), Op(b"b", b"2")]) == 2
    assert client.requests_sent == sent + 1  # one frame, one round trip
    assert client.get(b"a")[0] == b"1"
    assert client.get(b"b")[0] == b"2"
    stats = client.drive.stats
    assert (stats.puts, stats.bytes_written) == (2, 2)  # per record


def test_batch_version_conflict_aborts_everything(client):
    version = client.put(b"guarded", b"v0")
    with pytest.raises(KineticVersionMismatch):
        client.commit([
            Op(b"other", b"new"),
            Op(b"guarded", b"v1", db_version=b"stale"),
        ])
    # Atomicity: the first op was not applied either.
    with pytest.raises(KineticNotFound):
        client.get(b"other")
    assert client.get(b"guarded")[0] == b"v0"
    assert client.get_version(b"guarded") == version
    assert client.drive.stats.version_failures == 1


def test_batch_correct_versions_commit(client):
    version = client.put(b"k", b"v0")
    ops = [
        Op(b"k", b"v1", db_version=version, new_version=b"chosen"),
        Op(b"k2", b"x"),
    ]
    assert client.commit(ops) == 2
    assert client.get(b"k") == (b"v1", b"chosen")


def test_versions_staged_within_a_frame(client):
    """Each op is checked against what the ops before it leave."""
    ops = [
        Op(b"k", b"first", new_version=b"v1"),
        Op(b"k", b"second", db_version=b"v1", new_version=b"v2"),
    ]
    assert client.commit(ops) == 2
    assert client.get(b"k") == (b"second", b"v2")
    with pytest.raises(KineticVersionMismatch):
        client.commit([
            Op(b"k", b"third", db_version=b"v2", new_version=b"v3"),
            Op(b"k", b"fourth", db_version=b"v2"),  # v3 by now
        ])
    assert client.get(b"k") == (b"second", b"v2")
    assert client.drive.used_bytes == len(b"second")


def test_batch_delete_and_put(client):
    version = client.put(b"old", b"v")
    assert client.commit([
        Op(b"old", None, db_version=version), Op(b"new", b"v"),
    ]) == 2
    with pytest.raises(KineticNotFound):
        client.get(b"old")
    assert client.get(b"new")[0] == b"v"
    assert client.drive.stats.deletes == 1


def test_batch_delete_missing_aborts(client):
    client.put(b"present", b"v")
    with pytest.raises(KineticError):
        client.commit([
            Op(b"present", b"v2", force=True), Op(b"ghost", None),
        ])
    assert client.get(b"present")[0] == b"v"  # untouched


def test_forced_delete_of_a_missing_key_is_a_no_op(client):
    client.put(b"present", b"v")
    applied = client.commit([
        Op(b"present", b"v2", force=True), Op(b"ghost", None, force=True),
    ])
    assert applied == 1
    assert client.get(b"present")[0] == b"v2"
    assert client.drive.stats.deletes == 0


def test_batch_put_then_delete_same_key(client):
    assert client.commit([
        Op(b"temp", b"v"), Op(b"temp", None, force=True),
    ]) == 2
    with pytest.raises(KineticNotFound):
        client.get(b"temp")
    assert client.drive.used_bytes == 0


def test_batch_over_capacity_aborts(client):
    with pytest.raises(KineticError, match="NO_SPACE|full"):
        client.commit([
            Op(b"big1", b"x" * 40_000), Op(b"big2", b"x" * 40_000),
        ])
    assert client.drive.key_count == 0
    # Capacity is judged on what the whole frame leaves behind.
    client.put(b"big1", b"x" * 40_000)
    assert client.commit([
        Op(b"big1", None, force=True), Op(b"big2", b"x" * 40_000),
    ]) == 2


def test_malformed_op_rejected(client):
    """What batch ids used to be refused for — an op the drive cannot
    place — is now an op it cannot parse: the whole frame is refused."""
    client.put(b"k", b"kept")
    for ops in (
        "not-a-list",
        [[b"k"]],                                # too short
        [[b"k", b"v", b"", None, False, 1]],     # too long
        [["k", b"v", b"", None, False]],         # key is not bytes
        [[b"k", 7, b"", None, False]],           # value is not bytes
        [Op(b"k", b"fine"), [b"k2", 7, b"", None, False]],
    ):
        with pytest.raises(KineticError, match="INVALID_REQUEST"):
            client.commit(ops)
    assert client.get(b"k")[0] == b"kept"
    assert client.drive.key_count == 1


def test_independent_batches(client):
    """Frames share no state: one aborting does not touch the next."""
    with pytest.raises(KineticVersionMismatch):
        client.commit([Op(b"a", b"1", db_version=b"nope")])
    assert client.commit([Op(b"b", b"2")]) == 1
    with pytest.raises(KineticNotFound):
        client.get(b"a")
    assert client.get(b"b")[0] == b"2"


def test_commit_needs_write_and_delete_roles(client):
    client.set_security([
        ("admin", b"admin-key", Role.all()),
        ("writer", b"writer-key", Role.WRITE | Role.READ),
    ])
    writer = KineticClient(client.drive, "writer", b"writer-key")
    writer.put(b"k", b"v")
    with pytest.raises(KineticAuthError, match="missing role"):
        writer.commit([Op(b"k", b"v2", force=True)])
    assert writer.get(b"k")[0] == b"v"


def test_tampering_with_one_op_rejects_the_frame(client):
    """The HMAC covers the frame, so no op can be altered on the wire."""
    client.put(b"a", b"old")
    request = client._next_message(
        MessageType.COMMIT,
        {"ops": [Op(b"a", b"AAAA", force=True), Op(b"b", b"BBBB", force=True)]},
    )
    wire = request.encode()
    assert wire.count(b"BBBB") == 1
    tampered = Message.decode(wire.replace(b"BBBB", b"XXXX"))
    response = client.drive.handle(tampered)
    assert response.status.name == "HMAC_FAILURE"
    assert client.get(b"a")[0] == b"old"
    with pytest.raises(KineticNotFound):
        client.get(b"b")
    assert client.drive.stats.auth_failures == 1


def test_retry_of_a_dropped_forced_frame_is_idempotent():
    """A forced frame can be re-sent blindly: same state, whether the
    drop lost the request or (as here, the second time) the frame had
    already been applied."""
    from repro.faults import DriveFaultSpec, FaultInjector

    injector = FaultInjector(seed=0)
    drive = injector.wrap(
        KineticDrive("d0"), DriveFaultSpec(drop_every=2)
    )
    client = KineticClient(
        drive, KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    client.put(b"gone", b"x")  # local op 0; every odd op is dropped
    ops = [
        Op(b"value", b"v", force=True),
        Op(b"meta", b"m", force=True),
        Op(b"gone", None, force=True),
    ]
    assert client.commit(ops) == 3  # dropped once, then applied
    assert client.retries == 1 and injector.stats.drops == 1
    state = dict(drive._entries)
    assert client.commit(ops) == 2  # applied again: the DELETE is a no-op
    assert {k: e.value for k, e in drive._entries.items()} == {
        k: e.value for k, e in state.items()
    } == {b"value": b"v", b"meta": b"m"}
    with pytest.raises(TransientIOError):
        KineticClient(
            drive, KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        ).commit(ops)  # no retry policy: the drop surfaces
