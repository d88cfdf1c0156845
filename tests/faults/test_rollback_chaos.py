"""Rollback / replay / fork chaos against the freshness authority.

The acceptance bar (ISSUE 7): across 100+ seeded scenarios composing
rollback-to-old-version, replay-of-stale-replica and fork-across-
restart attacks with crashes and quorum degradation, the store serves
**zero stale acknowledged reads** (every read either matches the pinned
leaf or is a 5xx) and detects **every fork** at bootstrap.

Seeds derive from ``CHAOS_SEED`` so the CI matrix sweeps disjoint
regions of the scenario space.
"""

import random

import pytest

from repro.core.cache import CacheConfig
from repro.core.store import ObjectStore, placement
from repro.faults import DriveFaultSpec
from repro.kinetic.retry import RetryPolicy
from repro.policy.compiled import DecisionCache
from repro.sgx.attestation import SgxPlatform

from tests.faults.conftest import (
    CHAOS_SEED,
    FP,
    chaos_stack,
    restart_controller,
)

BASE = CHAOS_SEED * 1000

OPEN_POLICY = "read :- sessionKeyIs(K)\nupdate :- sessionKeyIs(K)"


#: Effectively no enclave object/key caching (1-byte budgets): every
#: read in these scenarios must go to the (attacked) drives and match
#: the pinned leaf.
NO_CACHE = CacheConfig(object_bytes=1, key_bytes=1)


def _freshness_stack(seed, specs=None, cache=NO_CACHE, **overrides):
    platform = SgxPlatform("chaos-host")
    stack = chaos_stack(
        num_drives=3,
        specs=specs,
        seed=seed,
        retry_policy=RetryPolicy(max_attempts=8),
        platform=platform,
        replication_factor=3,
        write_quorum=2,
        cache=cache,
        **overrides,
    )
    assert not stack.controller.freshness.forked
    return stack, platform


# -- rollback + replay under degraded quorum -------------------------------


@pytest.mark.parametrize("offset", range(60))
def test_rollback_and_replay_never_serve_stale_reads(offset):
    """In-place rollback of one drive + probabilistic replay + (for
    half the seeds) a crash of a second drive: reads are either the
    latest acknowledged value or a 5xx — never stale data."""
    seed = BASE + offset
    rng = random.Random(seed)
    stack, _platform = _freshness_stack(
        seed,
        specs={2: DriveFaultSpec(replay_rate=0.2, drop_rate=0.02)},
        anti_entropy_interval=20,
    )
    controller = stack.controller

    keys = [f"obj-{index}" for index in range(6)]
    acked = {}
    for key in keys:
        value = b"v0:" + key.encode()
        response = controller.put(FP, key, value)
        assert response.ok, response.error
        acked[key] = value
    for round_no in range(2):  # overwrites stock the replay buffers
        for key in keys:
            value = f"v{round_no + 1}:{key}".encode()
            response = controller.put(FP, key, value)
            if response.ok:
                acked[key] = value

    # Arm the attack: drive 0 snapshots now and silently rolls back a
    # few dozen global ops later; for half the seeds drive 1 crashes
    # across that window, so the stale replica reappears exactly while
    # the read quorum is degraded.
    start = stack.injector.global_op
    stack.injector.reschedule(
        0,
        DriveFaultSpec(
            capture_at=start, rollback_at=start + rng.randrange(5, 40)
        ),
    )
    crashed = rng.random() < 0.5
    if crashed:
        stack.injector.reschedule(
            1,
            DriveFaultSpec(
                crash_at=start + rng.randrange(3, 20),
                recover_at=start + 150,
            ),
        )

    wrong = []
    for index in range(50):
        key = rng.choice(keys)
        if rng.random() < 0.35:
            value = f"w{index}:{key}".encode()
            response = controller.put(FP, key, value)
            if response.ok:
                acked[key] = value
        else:
            response = controller.get(FP, key)
            if response.ok:
                if response.value != acked[key]:
                    wrong.append((key, response.value, acked[key]))
            else:
                # Refusing is allowed under attack; lying is not.  A
                # 4xx here would mean an acked object vanished.
                assert response.status >= 500, (key, response.status)
    assert not wrong, f"stale reads served: {wrong}"
    assert stack.injector.stats.rollbacks == 1

    # Attack over: clear every fault, let anti-entropy converge, and
    # require every acked value back.
    for index in range(3):
        stack.injector.reschedule(index, DriveFaultSpec())
    controller.anti_entropy.run_until_converged()
    for key in keys:
        response = controller.get(FP, key)
        assert response.ok, (key, response.error)
        assert response.value == acked[key]


@pytest.mark.parametrize("offset", range(5))
def test_total_replay_is_refused_not_served(offset):
    """Every drive answering GETs from its stale retained copy: the
    verified read must fail closed (503), and serve correct data again
    the moment the replay stops."""
    seed = BASE + 600 + offset
    stack, _platform = _freshness_stack(seed)
    controller = stack.controller
    assert controller.put(FP, "obj", b"old").ok
    assert controller.put(FP, "obj", b"new").ok  # stocks replay buffers
    for drive in stack.injector.drives:
        # The overwrite arrived inside a commit frame; an injector blind
        # to frames would retain nothing and "pass" by serving no replay.
        assert b"m/obj" in drive._retained, drive.drive_id
    authority = controller.freshness
    for index in range(3):
        stack.injector.reschedule(index, DriveFaultSpec(replay_rate=1.0))
    response = controller.get(FP, "obj")
    assert not response.ok and response.status >= 500
    assert authority.stale_rejected > 0
    assert stack.injector.stats.replays > 0
    for index in range(3):
        stack.injector.reschedule(index, DriveFaultSpec())
    response = controller.get(FP, "obj")
    assert response.ok and response.value == b"new"


# -- what a log says, under replay ------------------------------------------

INTRUDER = "fp-intruder"
MAY = (
    "read :- objId(log, L) /\\ sessionKeyIs(U) /\\ objSays(L, LV, 'may'(U))\n"
    f"update :- sessionKeyIs(k'{FP}')"
)


@pytest.mark.parametrize("offset", range(5))
def test_replayed_log_blob_never_says_what_the_log_no_longer_says(offset):
    """``objSays`` facts are memoised on the cached bytes of a log
    version.  The log revokes the intruder by an in-place overwrite
    (``keep_history=False``), so every replica holds a retained blob
    that still names them; replicas then replay it while the object
    cache (and, for each re-read, the decision cache) keeps being
    emptied.  The facts must come from bytes the verified metadata's
    content hash admits: the intruder's probe answers 403 (or a 5xx
    refusal under total replay), never 200, and the owner never reads
    bytes other than ``secret``."""
    seed = BASE + 700 + offset
    rng = random.Random(seed)
    stack, _platform = _freshness_stack(
        seed,
        # Objects stay cached (the memo is in play); metadata never is.
        cache=CacheConfig(key_bytes=1),
        keep_history=False,
    )
    controller, injector = stack.controller, stack.injector

    def status(client):
        response = controller.get(client, "doc")
        assert not response.ok or response.value == b"secret"
        return response.status

    old = f"'may'(k'{INTRUDER}')\n'may'(k'{FP}')\n".encode()
    assert controller.put(FP, "doc.log", old).ok
    policy = controller.put_policy(FP, MAY)
    assert controller.put(FP, "doc", b"secret", policy_id=policy.policy_id).ok
    assert status(INTRUDER) == 200  # facts of the old bytes, resident
    assert controller.put(FP, "doc.log", f"'may'(k'{FP}')\n".encode()).ok
    slot = controller.store.value_key("doc.log", controller.store.LATEST_SLOT)
    for drive in injector.drives:
        assert slot in drive._retained, drive.drive_id
    assert (status(INTRUDER), status(FP)) == (403, 200)

    # The replica a read of the log asks first, and for half the seeds
    # the one it fails over to.
    replaying = placement("doc.log", 3, 3)[: rng.choice((1, 2))]
    for index in replaying:
        injector.reschedule(index, DriveFaultSpec(replay_rate=1.0))
    for _ in range(3):
        controller.caches.objects.clear()  # evicted: re-read under attack
        controller.policy_engine.decisions = DecisionCache()  # forced misses
        assert (status(INTRUDER), status(FP)) == (403, 200)
    assert injector.stats.replays > 0

    for index in range(3):
        injector.reschedule(index, DriveFaultSpec(replay_rate=1.0))
    controller.caches.objects.clear()
    # The verdicts the log's record keys answer without reading the log;
    # a check that must read it is refused, not lied to.
    intruder, owner = status(INTRUDER), status(FP)
    assert intruder == 403 or intruder >= 500
    assert owner == 200 or owner >= 500
    controller.policy_engine.decisions = DecisionCache()
    assert status(INTRUDER) >= 500 and status(FP) >= 500
    for index in range(3):
        injector.reschedule(index, DriveFaultSpec())
    assert (status(INTRUDER), status(FP)) == (403, 200)


# -- fork across restart ---------------------------------------------------


@pytest.mark.parametrize("offset", range(40))
def test_fork_across_restart_is_always_detected(offset):
    """The whole fleet restored to an old image across a controller
    restart (same trusted hardware): bootstrap must refuse to serve."""
    seed = BASE + 200 + offset
    rng = random.Random(seed)
    stack, platform = _freshness_stack(seed)
    controller = stack.controller

    for index in range(rng.randrange(2, 6)):
        assert controller.put(FP, f"pre-{index}", b"pre").ok
    if rng.random() < 0.3:
        assert controller.put_policy(FP, OPEN_POLICY).ok
    for drive in stack.injector.drives:
        drive.capture_snapshot()
    for index in range(rng.randrange(1, 4)):  # pins past the snapshot
        assert controller.put(FP, f"post-{index}", b"post").ok
    for drive in stack.injector.drives:
        assert drive.restore_snapshot("fork")
    assert stack.injector.stats.forks == 3

    restarted = restart_controller(stack, platform=platform)
    assert restarted.freshness.forked, "fork went undetected"
    assert "never pinned" in restarted.freshness.fork_reason
    assert restarted.health()["status"] == "critical"
    response = restarted.get(FP, "pre-0")
    assert response.status == 503 and not response.ok


def test_forked_controller_runs_no_repair_pass():
    """A fork detected with a key in the repair journal: the refused
    requests must not pump anti-entropy, whose repair writes replicas
    by the unverified newest-of-quorum rule."""
    platform = SgxPlatform("chaos-host")
    stack = chaos_stack(
        platform=platform,
        replication_factor=3,
        anti_entropy_interval=1,
    )
    for index in range(4):
        assert stack.controller.put(FP, f"pre-{index}", b"pre").ok
    for drive in stack.injector.drives:
        drive.capture_snapshot()
    assert stack.controller.put(FP, "post-0", b"post").ok
    for drive in stack.injector.drives:
        assert drive.restore_snapshot("fork")
    # One replica lost a record, which the rebuild finds missing.
    inner = stack.injector.drives[0]._inner
    disk_key = ObjectStore.meta_key("pre-0")
    del inner._entries[disk_key]
    inner._sorted_keys.remove(disk_key)

    restarted = restart_controller(
        stack,
        platform=platform,
        replication_factor=3,
        anti_entropy_interval=1,
    )
    assert restarted.freshness.forked
    # The rebuild journals nothing (it writes nothing to a fleet it may
    # refuse): give the repair pass the work it must still not do.
    restarted.store.journal.mark("object", "pre-0", [0])
    puts = [drive._inner.stats.puts for drive in stack.injector.drives]
    for index in range(3):
        assert restarted.get(FP, f"pre-{index}").status == 503
    assert restarted.anti_entropy.runs == 0
    assert [drive._inner.stats.puts for drive in stack.injector.drives] == puts


@pytest.mark.parametrize("offset", range(10))
def test_stale_pin_replay_across_restart_is_detected(offset):
    """The host replays an old sealed pin blob (drives untouched):
    the monotonic counter exposes it at bootstrap."""
    seed = BASE + 300 + offset
    stack, platform = _freshness_stack(seed)
    controller = stack.controller
    assert controller.put(FP, "obj", b"v1").ok
    stale_blob = platform.pin_slot
    assert controller.put(FP, "obj", b"v2").ok
    platform.pin_slot = stale_blob

    restarted = restart_controller(stack, platform=platform)
    assert restarted.freshness.forked
    assert "stale sealed" in restarted.freshness.fork_reason
    assert restarted.get(FP, "obj").status == 503


@pytest.mark.parametrize("offset", range(5))
def test_clean_restart_after_chaos_is_not_a_fork(offset):
    """No-attack control: transient drops plus a restart on the same
    hardware must bootstrap active and keep serving verified reads."""
    seed = BASE + 400 + offset
    stack, platform = _freshness_stack(
        seed, specs={1: DriveFaultSpec(drop_rate=0.05)}
    )
    controller = stack.controller
    acked = {}
    for index in range(8):
        key = f"obj-{index}"
        value = f"v:{key}".encode()
        response = controller.put(FP, key, value)
        if response.ok:
            acked[key] = value
    assert acked
    # Quiesce the faults so the restart sees a reachable fleet (an
    # unreachable-at-bootstrap fleet forks to the safe side; see
    # docs/freshness.md).
    stack.injector.reschedule(1, DriveFaultSpec())

    restarted = restart_controller(stack, platform=platform)
    assert not restarted.freshness.forked, restarted.freshness.fork_reason
    assert restarted.health()["status"] != "critical"
    for key, value in acked.items():
        response = restarted.get(FP, key)
        assert response.ok and response.value == value
