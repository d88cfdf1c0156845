"""Trace replay against a live controller."""

import pytest

from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.usecases.versioned import versioned_policy
from repro.ycsb.runner import TraceRunner, load_phase
from repro.ycsb.workload import WORKLOAD_A, generate_trace
from tests.enclave import boot

CLIENT = "fp-ycsb"


@pytest.fixture()
def controller():
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(clients, storage_key=b"k" * 32)


@pytest.fixture()
def small_trace():
    return generate_trace(
        WORKLOAD_A.scaled(record_count=50, operation_count=200, value_size=64),
        seed=1,
    )


def test_load_phase_inserts_all_records(controller, small_trace):
    count = load_phase(controller, small_trace, CLIENT)
    assert count == 50
    assert controller.get(CLIENT, small_trace.load_keys[0]).ok


def test_run_executes_all_operations(controller, small_trace):
    load_phase(controller, small_trace, CLIENT)
    stats = TraceRunner(controller, CLIENT).run(small_trace)
    assert stats.total == 200
    assert stats.errors == 0
    assert stats.denied == 0
    assert stats.reads > 0
    assert stats.updates > 0


def test_run_with_limit(controller, small_trace):
    load_phase(controller, small_trace, CLIENT)
    stats = TraceRunner(controller, CLIENT).run(small_trace, limit=10)
    assert stats.total == 10


def test_run_with_attached_policy(controller, small_trace):
    policy_id = controller.put_policy(
        CLIENT, f"read :- sessionKeyIs(k'{CLIENT}')\nupdate :- sessionKeyIs(K)"
    ).policy_id
    load_phase(controller, small_trace, CLIENT, policy_id=policy_id)
    stats = TraceRunner(controller, CLIENT, policy_id=policy_id).run(small_trace)
    assert stats.denied == 0
    # A stranger is denied reads under the same policy.
    stranger = TraceRunner(controller, "fp-stranger")
    stranger.run(small_trace, limit=50)
    assert stranger.stats.denied > 0


def test_version_aware_runner_with_versioned_policy(controller, small_trace):
    policy_id = controller.put_policy(CLIENT, versioned_policy()).policy_id
    load_phase(
        controller, small_trace, CLIENT, policy_id=policy_id,
        version_aware=True,
    )
    runner = TraceRunner(
        controller, CLIENT, policy_id=policy_id, version_aware=True
    )
    stats = runner.run(small_trace)
    assert stats.denied == 0
    assert stats.errors == 0


def test_payloads_have_requested_size(controller, small_trace):
    load_phase(controller, small_trace, CLIENT)
    value = controller.get(CLIENT, small_trace.load_keys[3]).value
    assert len(value) == 64
