"""Freshness under churn: scan-heavy (workload E) rollback chaos.

The satellite contract (ISSUE 8): compose rollback faults with range
scans across 50 seeded scenarios and observe **zero stale acked
reads**.  Scans return key@version listings; every per-key metadata
read behind them goes through the verified path, so a rolled-back
replica can degrade a scan (5xx, shorter range) but can never make it
advertise a stale version as current — and follow-up GETs on scanned
keys must serve the acked bytes or refuse.
"""

import random

import pytest

from repro.core.cache import CacheConfig
from repro.core.request import Request
from repro.core.store import ObjectStore
from repro.faults import DriveFaultSpec
from repro.kinetic.retry import RetryPolicy
from repro.sgx.attestation import SgxPlatform
from repro.ycsb.workload import WORKLOAD_E, generate_trace

from tests.faults.conftest import CHAOS_SEED, FP, chaos_stack, restart_controller

BASE = CHAOS_SEED * 1000 + 700


#: The controller every scenario boots, and restarts into.
_CONFIG = dict(
    freshness_enabled=True,
    replication_factor=3,
    write_quorum=2,
    cache=CacheConfig(object_bytes=1, key_bytes=1),
    anti_entropy_interval=20,
)


def _freshness_stack(seed, specs=None):
    stack = chaos_stack(
        num_drives=3,
        specs=specs,
        seed=seed,
        retry_policy=RetryPolicy(max_attempts=8),
        platform=SgxPlatform("chaos-host"),
        **_CONFIG,
    )
    assert not stack.controller.freshness.forked
    return stack


def _scan_keys(response):
    if not response.value:
        return {}
    return dict(
        line.split("@") for line in response.value.decode().splitlines()
    )


@pytest.mark.parametrize("offset", range(50))
def test_scan_heavy_chaos_serves_no_stale_acked_reads(offset):
    """Workload-E-shaped traffic (mostly scans + follow-up reads, a few
    overwrites) while one drive rolls back mid-run: every successful
    read returns the acked bytes, every successful scan advertises only
    current versions, and refusals are 5xx — never stale data."""
    seed = BASE + offset
    rng = random.Random(seed)
    stack = _freshness_stack(
        seed, specs={2: DriveFaultSpec(replay_rate=0.15, drop_rate=0.02)}
    )
    controller = stack.controller

    keys = [f"user{index:012d}" for index in range(8)]
    acked = {}
    versions = {}
    for key in keys:
        value = b"v0:" + key.encode()
        response = controller.put(FP, key, value)
        assert response.ok, response.error
        acked[key] = value
        versions[key] = response.version
    for key in keys:  # stock the replay buffers with overwrites
        value = b"v1:" + key.encode()
        response = controller.put(FP, key, value)
        if response.ok:
            acked[key] = value
            versions[key] = response.version

    # Arm the rollback: drive 0 snapshots now, silently rolls back a
    # few dozen ops later, mid-scan-storm.
    start = stack.injector.global_op
    stack.injector.reschedule(
        0,
        DriveFaultSpec(
            capture_at=start, rollback_at=start + rng.randrange(5, 40)
        ),
    )

    # Scan-length distribution straight from the workload-E generator.
    trace = generate_trace(
        WORKLOAD_E.scaled(
            record_count=len(keys),
            operation_count=40,
            max_scan_length=len(keys),
        ),
        seed=seed,
    )
    scan_lengths = [
        op.scan_length for op in trace.operations if op.op == "scan"
    ]

    stale = []
    for index in range(40):
        dice = rng.random()
        if dice < 0.15:  # overwrite: keeps versions moving under attack
            key = rng.choice(keys)
            value = f"w{index}:{key}".encode()
            response = controller.put(FP, key, value)
            if response.ok:
                acked[key] = value
                versions[key] = response.version
        elif dice < 0.75:  # range scan from a random start key
            start_key = rng.choice(keys)
            count = scan_lengths[index % len(scan_lengths)]
            response = controller.handle(
                Request(method="scan", key=start_key, scan_count=count), FP
            )
            if response.ok:
                for key, version in _scan_keys(response).items():
                    if key in versions and int(version) < versions[key]:
                        stale.append(("scan", key, version, versions[key]))
            else:
                assert response.status >= 500, (response.status, response.error)
        else:  # follow-up point read
            key = rng.choice(keys)
            response = controller.get(FP, key)
            if response.ok:
                if response.value != acked[key]:
                    stale.append(("get", key, response.value, acked[key]))
            else:
                assert response.status >= 500, (key, response.status)
    assert not stale, f"stale acked reads served: {stale}"
    assert stack.injector.stats.rollbacks == 1

    # Attack over: faults cleared, anti-entropy converges, and a full
    # scan + read-back returns every acked value at its final version.
    for index in range(3):
        stack.injector.reschedule(index, DriveFaultSpec())
    controller.anti_entropy.run_until_converged()
    response = controller.handle(
        Request(method="scan", key=keys[0], scan_count=len(keys)), FP
    )
    assert response.ok
    final = _scan_keys(response)
    assert set(final) == set(keys)
    for key in keys:
        assert int(final[key]) == versions[key], key
        read = controller.get(FP, key)
        assert read.ok and read.value == acked[key]


def _loaded(seed):
    """A freshness stack holding eight acknowledged objects."""
    stack = _freshness_stack(seed)
    keys = [f"user{index:012d}" for index in range(8)]
    for key in keys:
        assert stack.controller.put(FP, key, b"v:" + key.encode()).ok
    return stack, keys


def _full_scan(controller, keys):
    return controller.handle(
        Request(method="scan", key=keys[0], scan_count=len(keys)), FP
    )


@pytest.mark.parametrize("offset", range(4))
def test_a_key_every_replica_drops_after_boot_is_listed_or_refused(offset):
    """A restart's listing seeds the scan's key directory; then every
    replica loses one object's ``m/`` record before the first scan.
    The scan lists the key or fails with a 5xx: dropping it silently
    would report an acknowledged object as deleted."""
    seed = BASE + 100 + offset
    stack, keys = _loaded(seed)
    platform = stack.controller.freshness.platform
    controller = restart_controller(stack, platform=platform, **_CONFIG)
    assert not controller.freshness.forked
    hidden = random.Random(seed).choice(keys)
    disk_key = ObjectStore.meta_key(hidden)
    for drive in stack.injector.drives:
        del drive._inner._entries[disk_key]
        drive._inner._sorted_keys.remove(disk_key)
    response = _full_scan(controller, keys)
    if response.ok:
        assert hidden in _scan_keys(response)
    else:
        assert response.status >= 500, (response.status, response.error)


@pytest.mark.parametrize("offset", range(4))
def test_a_record_one_replica_gains_is_never_listed(offset):
    """One replica gains an ``m/`` record the controller never wrote —
    a real sealed record of another key, under a key between two live
    ones.  No scan lists it."""
    seed = BASE + 200 + offset
    rng = random.Random(seed)
    stack, keys = _loaded(seed)
    invented = rng.choice(keys) + "x"
    inner = rng.choice(stack.injector.drives)._inner
    donor = inner._entries[ObjectStore.meta_key(rng.choice(keys))]
    inner._entries_put_raw(
        ObjectStore.meta_key(invented), donor.value, donor.version
    )
    response = _full_scan(stack.controller, keys + [invented])
    assert response.ok, response.error
    assert set(_scan_keys(response)) == set(keys)
