"""Workloads E and F: trace shape, determinism, end-to-end replay."""

import pytest

from repro.core.request import Request
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.ycsb.runner import TraceRunner, load_phase
from repro.ycsb.workload import (
    INSERT,
    RMW,
    SCAN,
    WORKLOAD_A,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    WorkloadSpec,
    generate_trace,
    trace_bytes,
)
from repro.errors import ConfigurationError
from tests.enclave import boot

CLIENT = "fp-ef"


def _controller():
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(clients, storage_key=b"k" * 32)


def test_workload_e_is_scan_heavy():
    trace = generate_trace(
        WORKLOAD_E.scaled(record_count=100, operation_count=2000), seed=3
    )
    ops = [op.op for op in trace.operations]
    scans = ops.count(SCAN)
    inserts = ops.count(INSERT)
    assert scans + inserts == len(ops)
    assert 0.90 < scans / len(ops) < 0.99


def test_workload_e_scan_lengths_in_bounds():
    spec = WORKLOAD_E.scaled(
        record_count=100, operation_count=1000, max_scan_length=25
    )
    trace = generate_trace(spec, seed=5)
    lengths = [
        op.scan_length for op in trace.operations if op.op == SCAN
    ]
    assert lengths
    assert all(1 <= length <= 25 for length in lengths)
    assert len(set(lengths)) > 5  # a distribution, not a constant


def test_workload_f_mixes_reads_and_rmws():
    trace = generate_trace(
        WORKLOAD_F.scaled(record_count=100, operation_count=2000), seed=3
    )
    ops = [op.op for op in trace.operations]
    rmws = ops.count(RMW)
    assert 0.4 < rmws / len(ops) < 0.6
    assert rmws + ops.count("read") == len(ops)


@pytest.mark.parametrize("spec", [WORKLOAD_E, WORKLOAD_F], ids="EF")
def test_same_seed_traces_are_byte_identical(spec):
    small = spec.scaled(record_count=60, operation_count=400)
    first = trace_bytes(generate_trace(small, seed=11))
    second = trace_bytes(generate_trace(small, seed=11))
    assert first == second
    assert trace_bytes(generate_trace(small, seed=12)) != first


def test_adding_ef_left_ad_traces_untouched():
    """The E/F branch logic must not perturb A-D rng sequences: the
    dice/key draw order per operation is part of the replay contract."""
    for spec in (WORKLOAD_A, WORKLOAD_D):
        small = spec.scaled(record_count=40, operation_count=300)
        ops = generate_trace(small, seed=7).operations
        assert not any(op.op in (SCAN, RMW) for op in ops)
        # D still inserts through the else-branch.
        if spec.insert_proportion:
            assert any(op.op == INSERT for op in ops)


def test_proportions_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        WorkloadSpec("bad", read_proportion=0.5, update_proportion=0.2)


def test_workload_e_runs_end_to_end():
    trace = generate_trace(
        WORKLOAD_E.scaled(record_count=40, operation_count=150, value_size=64),
        seed=9,
    )
    controller = _controller()
    load_phase(controller, trace, CLIENT)
    stats = TraceRunner(controller, CLIENT).run(trace)
    assert stats.errors == 0
    assert stats.scans > 0
    assert stats.records_scanned > stats.scans  # scans return ranges
    assert stats.total == 150


def test_workload_f_runs_end_to_end():
    trace = generate_trace(
        WORKLOAD_F.scaled(record_count=40, operation_count=150, value_size=64),
        seed=9,
    )
    controller = _controller()
    load_phase(controller, trace, CLIENT)
    stats = TraceRunner(controller, CLIENT).run(trace)
    assert stats.errors == 0
    assert stats.rmws > 0 and stats.reads > 0
    # Every RMW bumped its key's version: spot-check one key.
    key = next(op.key for op in trace.operations if op.op == RMW)
    response = controller.handle(Request(method="get", key=key), CLIENT)
    assert response.ok and response.version >= 1
