"""Experiment harness: building, loading, and measuring points."""

import pytest

from repro.bench.configs import make_config
from repro.bench.harness import build_system, run_point
from repro.ycsb.workload import WORKLOAD_A

TINY = WORKLOAD_A.scaled(record_count=200, operation_count=400, value_size=256)


@pytest.fixture(scope="module")
def loaded():
    return build_system(
        make_config("sgx", "sim"),
        workload=TINY,
        policy_source="read :- sessionKeyIs(K)\nupdate :- sessionKeyIs(K)",
    )


def test_build_loads_all_records(loaded):
    first = loaded.trace.load_keys[0]
    response = loaded.controller.get("fp-bench", first)
    assert response.ok
    assert len(response.value) == 256


def test_build_installs_policy(loaded):
    assert loaded.policy_id
    meta = loaded.controller._get_meta(loaded.trace.load_keys[0])
    assert meta.policy_id == loaded.policy_id


def test_run_point_measures_throughput(loaded):
    result = run_point(loaded, 10, measure_ops=300, warmup_ops=50)
    assert result.throughput > 0
    assert result.mean_latency > 0
    assert result.p99_latency >= result.p50_latency
    assert result.operations == 300
    assert result.denied == 0
    assert result.errors == 0


def test_more_clients_more_throughput_until_saturation(loaded):
    light = run_point(loaded, 1, measure_ops=200, warmup_ops=20)
    heavy = run_point(loaded, 50, measure_ops=600, warmup_ops=60)
    assert heavy.throughput > 2 * light.throughput


def test_sweep_returns_point_per_count(loaded):
    results = [
        run_point(loaded, clients, measure_ops=150, warmup_ops=20)
        for clients in (1, 5)
    ]
    assert [r.clients for r in results] == [1, 5]


def test_result_row_shape(loaded):
    result = run_point(loaded, 2, measure_ops=100, warmup_ops=10)
    row = result.row()
    assert set(row) == {"config", "clients", "kiops", "mean_ms", "p99_ms", "ops"}
    assert row["config"] == "sgx-sim"


def test_bad_policy_rejected():
    with pytest.raises(RuntimeError, match="policy rejected"):
        build_system(
            make_config("sgx", "sim"), workload=TINY, policy_source="read :-"
        )


def test_version_aware_build():
    from repro.usecases.versioned import versioned_policy

    loaded = build_system(
        make_config("native", "sim"),
        workload=TINY,
        policy_source=versioned_policy(),
        version_aware=True,
    )
    result = run_point(loaded, 5, measure_ops=200, warmup_ops=20)
    assert result.denied == 0
    assert result.errors == 0


def test_replicated_build_writes_everywhere():
    config = make_config("sgx", "sim", num_drives=2)
    from dataclasses import replace

    config = replace(config, replication_factor=2)
    loaded = build_system(config, workload=TINY)
    for drive in loaded.cluster:
        assert drive.key_count > 0


def test_run_point_reports_layer_breakdown(loaded):
    from repro.bench.model import LAYERS

    result = run_point(loaded, 4, measure_ops=200, warmup_ops=20)
    assert set(result.breakdown) == set(LAYERS)
    # The measured window charges real service time to the dominant
    # layers of this configuration.
    assert result.breakdown["cpu"] > 0
    assert result.breakdown["client_net"] > 0
    assert result.breakdown["drive_service"] > 0


def test_run_point_with_telemetry_exposes_layer_gauges(loaded):
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    result = run_point(
        loaded, 2, measure_ops=100, warmup_ops=10, telemetry=telemetry
    )
    families = {family.name for family in telemetry.registry.collect()}
    assert "pesos_bench_layer_seconds" in families
    assert result.breakdown["cpu"] > 0


def test_des_sees_the_parents_events_for_every_request(monkeypatch):
    """The controller bounds the effects backlog nobody drains; the DES
    drains per request and must not notice.  Both SHAs and the event
    count were re-captured when the ledger went to one effect per frame
    (PR 22): the 1 261 PUTs of this run each record one ``disk_write``
    (value + ``m/`` bytes summed, then records 2, ordinal 0) where they
    recorded two, 17 619 - 1 261 events, and each of the 30 GETs records
    its ``disk_read`` when the drive answers, before the ``decrypt``
    instead of after it.  Folding 87c2486's lists (kinds ``f22f10ab…``,
    full ``5d2ce7df…``) those two ways gave ``03af0d22…`` and
    ``4133a3fa…``.  All three were re-captured again when a cache lookup
    left the ledger (the LFU's own stats count it): these are the
    parent's 2 503 lists with every ``cache_hit``/``cache_miss`` tuple
    filtered out, 16 358 - 7 509 events, nothing else moved.  The full
    SHA was re-captured once more when a ``keep_history=False`` record
    stopped listing the version its slot no longer holds: each of the
    1 261 PUTs seals an ``m/`` record one 49-byte row shorter, so its
    ``encrypt`` and its ``disk_write`` byte sum are 49 smaller; kinds,
    count and every other event are the parent's."""
    import hashlib

    from repro.bench.model import SystemModel
    from repro.core.controller import EFFECTS_BACKLOG

    seen = []
    derive = SystemModel._derive_costs

    def recording(self, events, request_bytes, response_bytes):
        seen.append(list(events))
        return derive(self, events, request_bytes, response_bytes)

    monkeypatch.setattr(SystemModel, "_derive_costs", recording)
    loaded = build_system(
        make_config("sgx", "sim", num_drives=2),
        workload=WORKLOAD_A.scaled(
            record_count=120, operation_count=400, value_size=128
        ),
        policy_source=(
            "read :- sessionKeyIs(k'fp-bench')\n"
            "update :- sessionKeyIs(k'fp-bench')"
        ),
    )
    # What a load phase ten times this size leaves behind, undrained.
    loaded.controller.effects.events.extend(
        [("copy", 0)] * (EFFECTS_BACKLOG + 1)
    )
    run_point(loaded, 4, measure_ops=2400, warmup_ops=100)
    assert (len(seen), sum(map(len, seen))) == (2503, 8849)
    kinds = [[event[0] for event in events] for events in seen]
    assert hashlib.sha256(repr(kinds).encode()).hexdigest() == (
        "4d2c1e98d8fc6a5e585df8037484c21f9584cc9a2e00cfaa866b74faa17735c8"
    )
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "d7f7b0343783b1abb5043d5e8481d5792a40fc3f58f06c9760946b3a1a656713"
    )
