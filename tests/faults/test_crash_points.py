"""Crash-point suite: no prefix of a mutation's drive ops tears state.

For each mutating request — put (insert and update), delete,
put_policy, rmw, a two-key transaction — the failure-free run is
recorded first: how many drive operations it issues, and what every
key it touches reads as before and after.  Then, for every prefix
length ``k`` of that sequence, a fresh stack replays the same setup,
the controller process is killed when it reaches for drive operation
``k + 1`` (the :class:`~repro.faults.FaultInjector` global op clock is
the hook), a new controller is launched on the same
:class:`~repro.kinetic.cluster.DriveCluster`, and every key must read
as exactly its last acknowledged state or its new one — never a 5xx,
never new bytes under old metadata — and must take the next write.

The kill is a ``BaseException`` raised out of the drive call, so no
``except Exception`` cleanup of the dying controller (the freshness
authority's ``abort``, say) gets to run: what survives is what the
drives and the trusted hardware hold.

Runs on the shipped default flags (freshness on, the same trusted
hardware across the restart), with ``keep_history=False``, and with
freshness off, with and without history, so the newest-of-quorum
recovery it still ships keeps its crash points until that path goes.
Each at replication factor 1 (the ``ControllerConfig`` default) and 3.
"""

from dataclasses import dataclass, field

import pytest

from repro.core.request import Request
from repro.policy.compiler import compile_source
from repro.sgx.attestation import SgxPlatform

from tests.faults.conftest import FP, chaos_stack, restart_controller

OPEN_POLICY = f"read :- sessionKeyIs(k'{FP}')\nupdate :- sessionKeyIs(k'{FP}')"

#: What a key reads as: ``None`` (404) or ``(value, version)``.
ABSENT = None


class ControllerKilled(BaseException):
    """The controller process died at a drive-operation boundary."""


def _kill_after(injector, ops: int) -> None:
    """Kill whoever asks any drive for operation ``ops + 1`` from now."""
    deadline = injector.global_op + ops
    tick = injector.tick

    def guarded_tick():
        if injector.global_op >= deadline:
            raise ControllerKilled
        return tick()

    injector.tick = guarded_tick


def _revive(injector) -> None:
    del injector.__dict__["tick"]


@dataclass
class Scenario:
    """One mutation: its setup, the request(s), the states around it."""

    name: str
    mutate: object                      # (controller) -> final Response
    before: dict = field(default_factory=dict)   # key -> state
    after: dict = field(default_factory=dict)
    setup: object = lambda controller: None


def _seed(*pairs):
    def setup(controller):
        for key, value in pairs:
            assert controller.put(FP, key, value).ok
    return setup


def _transaction(controller):
    txid = controller.handle(Request(method="create_tx"), FP).txid
    for key, value in (("acct-a", b"a-new"), ("acct-b", b"b-new")):
        assert controller.handle(
            Request(method="add_write", key=key, value=value, txid=txid), FP
        ).ok
    return controller.handle(Request(method="commit_tx", txid=txid), FP)


SCENARIOS = [
    Scenario(
        "put-insert",
        lambda c: c.put(FP, "obj", b"new-value"),
        before={"obj": ABSENT},
        after={"obj": (b"new-value", 0)},
    ),
    Scenario(
        "put-update",
        lambda c: c.put(FP, "obj", b"new-value"),
        before={"obj": (b"old-value", 0)},
        after={"obj": (b"new-value", 1)},
        setup=_seed(("obj", b"old-value")),
    ),
    Scenario(
        "delete",
        lambda c: c.delete(FP, "obj"),
        before={"obj": (b"old-value", 0)},
        after={"obj": ABSENT},
        setup=_seed(("obj", b"old-value")),
    ),
    Scenario(
        "rmw",
        lambda c: c.handle(
            Request(method="rmw", key="obj", value=b"new-value"), FP
        ),
        before={"obj": (b"old-value", 0)},
        after={"obj": (b"new-value", 1)},
        setup=_seed(("obj", b"old-value")),
    ),
    Scenario(
        "two-key-transaction",
        _transaction,
        before={"acct-a": (b"a-old", 0), "acct-b": (b"b-old", 0)},
        after={"acct-a": (b"a-new", 1), "acct-b": (b"b-new", 1)},
        setup=_seed(("acct-a", b"a-old"), ("acct-b", b"b-old")),
    ),
]

CONFIGS = {
    "default": {},
    "no-history": {"keep_history": False},
    "freshness-off": {"freshness_enabled": False},
    "freshness-off-no-history": {
        "freshness_enabled": False, "keep_history": False,
    },
}


def _prepared(scenario, config: dict, replication_factor: int):
    """A fresh stack with ``scenario``'s setup applied and read back."""
    platform = SgxPlatform("crash-host")
    stack = chaos_stack(
        num_drives=3,
        retry_policy=None,
        platform=platform,
        replication_factor=replication_factor,
        **config,
    )
    scenario.setup(stack.controller)
    # The read-back also warms the caches the same way in every run,
    # so the recorded drive-op count holds for each crash run.
    for key, state in scenario.before.items():
        assert _read(stack.controller, key) == (state, None)
    return stack, platform


def _read(controller, key):
    """``(state, problem)`` of one object key on ``controller``."""
    response = controller.get(FP, key)
    if response.status == 404:
        return ABSENT, None
    if not response.ok:
        return None, f"{key}: GET {response.status} {response.error}"
    return (response.value, response.version), None


def _record(scenario, config, replication_factor) -> int:
    """Drive ops of the failure-free run (which must read as ``after``)."""
    stack, _platform = _prepared(scenario, config, replication_factor)
    start = stack.injector.global_op
    assert scenario.mutate(stack.controller).ok
    total = stack.injector.global_op - start
    for key, state in scenario.after.items():
        assert _read(stack.controller, key) == (state, None)
    return total


def _crash_and_recover(scenario, config, replication_factor, prefix):
    """Run ``scenario`` killed after ``prefix`` drive ops; restart."""
    stack, platform = _prepared(scenario, config, replication_factor)
    _kill_after(stack.injector, prefix)
    try:
        acknowledged = scenario.mutate(stack.controller).ok
    except ControllerKilled:
        acknowledged = False
    _revive(stack.injector)
    controller = restart_controller(
        stack,
        platform=platform,
        replication_factor=replication_factor,
        **config,
    )
    return controller, acknowledged


def _after_restart(controller, key, allowed) -> str | None:
    """What is wrong with ``key`` on the restarted controller, if anything."""
    state, problem = _read(controller, key)
    if problem is not None:
        return problem
    if state not in allowed:
        return f"{key}: reads {state!r}, not one of {allowed!r}"
    # Not wedged either: the key takes the next write.
    follow_up = controller.put(FP, key, b"after-restart")
    if not follow_up.ok:
        return f"{key}: next PUT {follow_up.status} {follow_up.error}"
    state, problem = _read(controller, key)
    if problem is None and state[0] != b"after-restart":
        problem = f"{key}: next PUT acknowledged, reads {state!r}"
    return problem


@pytest.mark.parametrize("replication_factor", [1, 3])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[scenario.name for scenario in SCENARIOS]
)
def test_every_crash_point_leaves_old_or_new(
    scenario, config_name, replication_factor
):
    config = CONFIGS[config_name]
    total = _record(scenario, config, replication_factor)
    assert total >= replication_factor
    torn = []
    for prefix in range(total + 1):
        controller, acknowledged = _crash_and_recover(
            scenario, config, replication_factor, prefix
        )
        assert acknowledged == (prefix == total)
        for key, new in scenario.after.items():
            allowed = (new,) if acknowledged else (scenario.before[key], new)
            problem = _after_restart(controller, key, allowed)
            if problem is not None:
                torn.append(f"after {prefix}/{total} drive ops: {problem}")
    assert not torn, "\n".join(torn)


@pytest.mark.parametrize("replication_factor", [1, 3])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_crash_point_of_put_policy_leaves_absent_or_whole(
    config_name, replication_factor
):
    """A policy record is content-addressed and written once: after a
    crash it is either not there or byte-for-byte the compiled policy,
    and in either case installing it again succeeds."""
    config = CONFIGS[config_name]
    scenario = Scenario(
        "put-policy", lambda c: c.put_policy(FP, OPEN_POLICY)
    )
    total = _record(scenario, config, replication_factor)
    policy = compile_source(OPEN_POLICY)
    policy_id, blob = policy.policy_hash(), policy.to_bytes()
    probe = Request(method="get_policy", policy_id=policy_id)

    torn = []
    for prefix in range(total + 1):
        controller, acknowledged = _crash_and_recover(
            scenario, config, replication_factor, prefix
        )
        assert acknowledged == (prefix == total)
        response = controller.handle(probe, FP)
        where = f"after {prefix}/{total} drive ops"
        if response.status == 404 and not acknowledged:
            pass
        elif not response.ok:
            torn.append(f"{where}: {response.status} {response.error}")
        elif response.value != blob:
            torn.append(f"{where}: policy bytes differ")
        again = controller.put_policy(FP, OPEN_POLICY)
        if not (again.ok and again.policy_id == policy_id):
            torn.append(f"{where}: re-install {again.status} {again.error}")
        bound = controller.put(FP, "guarded", b"v", policy_id=policy_id)
        if not bound.ok:
            torn.append(f"{where}: bind {bound.status} {bound.error}")
    assert not torn, "\n".join(torn)
