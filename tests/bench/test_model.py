"""System model: cost derivation and the request lifecycle."""

import pytest

from repro.bench.configs import make_config
from repro.bench.model import SystemModel
from repro.core.effects import (
    DISK_RANGE,
    DISK_READ,
    DISK_WRITE,
    ENCRYPT,
    POLICY_CHECK,
    POLICY_LOAD,
)
from repro.core.request import Response
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sim import Environment
from tests.enclave import boot


def _model(mode="sgx", **overrides):
    config = make_config(mode, "sim", **overrides)
    cluster = DriveCluster(num_drives=config.num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = boot(clients, storage_key=b"k" * 32)
    env = Environment()
    return env, SystemModel(env, controller, config)


def test_costs_scale_with_disk_ops():
    _env, model = _model()
    cpu_none, ops_none, _ssd = model._derive_costs([], 1024, 1024)
    cpu_two, ops_two, _ssd = model._derive_costs(
        [(DISK_WRITE, 0, 1152, 2, 0), (DISK_READ, 0, 128)], 1024, 1024
    )
    assert len(ops_none) == 0
    assert len(ops_two) == 2
    assert cpu_two > cpu_none


def _frame_cpu(model, nbytes):
    """What any frame costs: marshalling, a syscall pair, the bytes."""
    cost = model.config.cost
    return (
        model.config.disk_op_cpu
        + 2 * cost.syscall_cost()
        + nbytes * cost.boundary_per_byte
    )


def test_replica_writes_charged_beyond_two():
    """Replication CPU goes by the replica ordinal each frame carries
    (it went by counting a request's writes past the second)."""
    _env, model = _model()
    first = [(DISK_WRITE, 0, 1152, 2, 0)]
    replicated = first + [(DISK_WRITE, 1, 1152, 2, 1), (DISK_WRITE, 2, 1152, 3, 2)]
    cpu_first, ops_first, _ = model._derive_costs(first, 1024, 64)
    cpu_repl, ops_repl, _ = model._derive_costs(replicated, 1024, 64)
    # One visit per frame, whatever its record count.
    assert (len(ops_first), len(ops_repl)) == (1, 3)
    # Each further replica: a frame plus replication coordination.
    assert cpu_repl - cpu_first == pytest.approx(
        2 * (_frame_cpu(model, 1152) + model.config.replica_write_cpu)
    )


def test_unreplicated_frames_in_one_request_pay_no_replication():
    # A MAL write: the log append and the object PUT are two frames of
    # one request, each to its first replica.
    _env, model = _model()
    one = [(DISK_WRITE, 0, 1152, 2, 0)]
    mal = one + [(DISK_WRITE, 1, 1152, 2, 0)]
    cpu_one, _, _ = model._derive_costs(one, 1024, 64)
    cpu_mal, _, _ = model._derive_costs(mal, 1024, 64)
    assert model.config.replica_write_cpu > 0
    assert cpu_mal - cpu_one == pytest.approx(_frame_cpu(model, 1152))


def test_range_page_is_served_as_a_range_visit():
    _env, model = _model()
    _cpu, ops, _ = model._derive_costs(
        [(DISK_RANGE, 2, 300), (DISK_READ, 2, 300)], 64, 64
    )
    assert ops == [("range", 2, 300), ("read", 2, 300)]


def test_sgx_charges_more_than_native_for_same_events():
    _env, sgx = _model("sgx")
    _env2, native = _model("native")
    events = [(DISK_READ, 0, 1024), (ENCRYPT, 1024), (POLICY_CHECK, 5)]
    sgx_cpu, _, _ = sgx._derive_costs(events, 1024, 1024)
    native_cpu, _, _ = native._derive_costs(events, 1024, 1024)
    assert sgx_cpu > native_cpu


def test_policy_load_charged():
    _env, model = _model()
    with_load, _, _ = model._derive_costs([(POLICY_LOAD, 300)], 64, 64)
    without, _, _ = model._derive_costs([], 64, 64)
    assert with_load - without == pytest.approx(
        model.config.cost.policy_load
    )


def test_epc_cost_zero_within_limit():
    _env, model = _model()
    assert model._epc_cost(4096) == 0.0


def test_epc_cost_positive_when_overflowing():
    from dataclasses import replace

    _env, model = _model()
    model.config = replace(
        model.config, cost=replace(model.config.cost, epc_limit=1 << 20)
    )
    assert model._epc_cost(64 * 1024) > 0.0


def test_request_lifecycle_advances_time_and_meters():
    env, model = _model()
    model.meter.open_window(env.now)

    def execute():
        model.controller.effects.record(DISK_WRITE, 0, 1024, 1, 0)
        return Response(status=200, value=b"x" * 128)

    done = {}

    def proc():
        response = yield from model.request(execute, request_bytes=1024)
        done["status"] = response.status

    env.process(proc())
    env.run()
    assert done["status"] == 200
    assert env.now > 0
    assert model.latency.count == 1
    assert model.meter.completed == 1


def test_concurrent_requests_queue_on_cpu():
    def execute():
        return Response(status=200, value=b"")

    # One uncontended request...
    env_solo, solo = _model(controller_cores=1)
    env_solo.process(solo.request(execute, request_bytes=512))
    env_solo.run()
    uncontended = solo.latency.stats.max

    # ...vs 64 concurrent ones on a single core.
    env, model = _model(controller_cores=1)
    for _ in range(64):
        env.process(model.request(execute, request_bytes=512))
    env.run()
    assert model.latency.count == 64
    # Queueing on the single CPU dominates the uncontended latency.
    assert model.latency.stats.min > 5 * uncontended


def test_drive_station_respects_concurrency():
    env, model = _model()
    station = model.drives[0]
    finished = []

    def proc():
        yield from station.service("read", 1024)
        finished.append(env.now)

    for _ in range(station.timing.concurrency + 1):
        env.process(proc())
    env.run()
    # The extra request had to wait for a slot.
    assert max(finished) > min(finished)
