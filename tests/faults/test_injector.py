"""The fault injector: transparent wrapping, drops, crashes, retries."""

import pytest

from repro.errors import DriveOffline, TransientIOError
from repro.faults import DriveFaultSpec, FaultInjector
from repro.kinetic.client import KineticClient
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import Op
from repro.kinetic.retry import NO_RETRY, RetryPolicy

from tests.faults.conftest import CHAOS_SEED


def _wrapped_client(spec, retry_policy=None, seed=CHAOS_SEED):
    injector = FaultInjector(seed=seed)
    drive = injector.wrap(KineticDrive(drive_id="disk-0"), spec)
    client = KineticClient(
        drive=drive,
        identity=KineticDrive.DEMO_IDENTITY,
        hmac_key=KineticDrive.DEMO_KEY,
        retry_policy=retry_policy,
    )
    return injector, drive, client


def test_wrapper_is_transparent():
    injector = FaultInjector()
    inner = KineticDrive(drive_id="disk-7")
    wrapped = injector.wrap(inner, DriveFaultSpec())
    assert wrapped.drive_id == "disk-7"
    assert wrapped.online is True
    assert wrapped.key_count == 0
    wrapped.fail()
    assert inner.online is False
    wrapped.recover()


def test_no_spec_changes_nothing():
    _injector, _drive, client = _wrapped_client(None)
    client.put(b"k", b"v")
    assert client.get(b"k")[0] == b"v"


def test_drop_surfaces_as_transient_error_without_retry():
    _injector, _drive, client = _wrapped_client(DriveFaultSpec(drop_every=1))
    with pytest.raises(TransientIOError):
        client.put(b"k", b"v")


def test_dropped_request_was_not_applied():
    """Drops happen before the drive applies the op: retry-safe."""
    injector, drive, client = _wrapped_client(DriveFaultSpec(drop_every=1))
    with pytest.raises(TransientIOError):
        client.put(b"k", b"v")
    assert drive.key_count == 0
    assert injector.stats.drops == 1


def test_commit_frame_stocks_the_replay_buffer_per_put_key():
    """The adversary keeps the pre-write copy of *every* record a frame
    overwrites, and the frame is still one op on the drive's clock."""
    _injector, drive, client = _wrapped_client(None)
    client.put(b"value", b"v0")
    client.put(b"meta", b"m0")
    client.put(b"doomed", b"d0")
    before = drive.local_op
    client.commit([
        Op(b"value", b"v1", force=True),
        Op(b"meta", b"m1", force=True),
        Op(b"doomed", None, force=True),
        Op(b"fresh", b"f0", force=True),
    ])
    assert drive.local_op == before + 1
    retained = {
        key: [value for value, _version in history]
        for key, history in drive._retained.items()
    }
    assert retained == {b"value": [b"v0"], b"meta": [b"m0"]}


def test_dropped_commit_frame_applied_nothing():
    injector, drive, client = _wrapped_client(DriveFaultSpec(drop_every=1))
    with pytest.raises(TransientIOError):
        client.commit([Op(b"a", b"1", force=True), Op(b"b", b"2", force=True)])
    assert drive.key_count == 0
    assert injector.stats.drops == 1


def test_retry_policy_rides_through_drops():
    injector, drive, client = _wrapped_client(
        DriveFaultSpec(drop_every=2), retry_policy=RetryPolicy()
    )
    for i in range(20):
        client.put(b"k%d" % i, b"v")
    assert drive.key_count == 20
    assert injector.stats.drops > 0
    assert client.retries == injector.stats.drops
    assert client.retry_delay_seconds > 0.0  # backoff charged, not slept


def test_no_retry_policy_constant():
    assert NO_RETRY.max_attempts == 1


def test_retry_budget_exhausts():
    """Every attempt dropped: the transient error finally escapes."""
    _injector, _drive, client = _wrapped_client(
        DriveFaultSpec(drop_every=1), retry_policy=RetryPolicy(max_attempts=3)
    )
    with pytest.raises(TransientIOError):
        client.put(b"k", b"v")


def test_backoff_grows_and_is_capped():
    policy = RetryPolicy(
        base_delay=0.002, multiplier=2.0, max_delay=0.005, jitter=0.0
    )
    rng = None  # jitter disabled: rng unused
    assert policy.delay(1, rng) == pytest.approx(0.002)
    assert policy.delay(2, rng) == pytest.approx(0.004)
    assert policy.delay(3, rng) == pytest.approx(0.005)  # capped


def test_crash_window_hits_idle_drives_too():
    """The global clock crashes drive 1 even if only drive 0 serves."""
    injector = FaultInjector(seed=CHAOS_SEED)
    active = injector.wrap(KineticDrive(drive_id="disk-0"), None)
    bystander = injector.wrap(
        KineticDrive(drive_id="disk-1"),
        DriveFaultSpec(crash_at=5, recover_at=10),
    )
    client = KineticClient(
        drive=active,
        identity=KineticDrive.DEMO_IDENTITY,
        hmac_key=KineticDrive.DEMO_KEY,
    )
    for i in range(5):
        client.put(b"k%d" % i, b"v")
    assert not bystander.online  # crashed on schedule, zero traffic
    for i in range(5):
        client.put(b"j%d" % i, b"v")
    assert bystander.online  # recovered on schedule
    assert injector.stats.transitions == 2


def test_offline_drive_raises_drive_offline():
    injector, drive, client = _wrapped_client(DriveFaultSpec(crash_at=0))
    assert not drive.online
    with pytest.raises(DriveOffline):
        client.put(b"k", b"v")


def test_corruption_flips_at_rest_bits():
    """A corrupt GET serves a bit-flipped blob that still validates at
    the wire layer — only content-level checks can catch it."""
    injector, drive, client = _wrapped_client(
        DriveFaultSpec(corrupt_rate=1.0)
    )
    # Corruption only fires on GET; the PUT lands clean.
    client.put(b"k", b"payload-bytes")
    blob, _version = client.get(b"k")  # no wire-level error
    assert blob != b"payload-bytes"
    assert injector.stats.corruptions == 1


def test_slow_ops_charge_virtual_latency():
    injector, _drive, client = _wrapped_client(
        DriveFaultSpec(slow_rate=1.0, slow_seconds=0.25)
    )
    client.put(b"k", b"v")
    assert injector.stats.slow_ops == 1
    assert injector.stats.slow_seconds == pytest.approx(0.25)


def test_same_seed_same_stats():
    def run(seed):
        injector, _drive, client = _wrapped_client(
            DriveFaultSpec(drop_rate=0.2, slow_rate=0.1),
            retry_policy=RetryPolicy(max_attempts=8),
            seed=seed,
        )
        for i in range(50):
            client.put(b"k%d" % i, b"v")
        return injector.stats.as_tuple()

    assert run(CHAOS_SEED) == run(CHAOS_SEED)
    assert run(CHAOS_SEED) != run(CHAOS_SEED + 17)


def test_wrap_cluster_replaces_drives():
    from repro.kinetic.cluster import DriveCluster

    cluster = DriveCluster(num_drives=3)
    injector = FaultInjector(seed=CHAOS_SEED)
    wrapped = injector.wrap_cluster(
        cluster, {1: DriveFaultSpec(drop_every=2)}
    )
    assert cluster.drives == wrapped
    assert wrapped[0].schedule.spec == DriveFaultSpec()
    assert wrapped[1].schedule.spec.drop_every == 2
