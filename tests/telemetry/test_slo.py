"""SLO engine: specs, burn-rate math, state machine, exemplars."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import NullTelemetry, Telemetry, render_prometheus
from repro.telemetry.slo import (
    ObjectiveState,
    SloEngine,
    SloSpec,
    classify,
    default_slos,
)


# -- classification ---------------------------------------------------------

def test_classify_maps_methods_to_classes():
    assert classify("get") == "get/p1"
    assert classify("attest") == "get/p1"
    assert classify("put") == "put/p2"
    assert classify("delete") == "put/p2"
    assert classify("put_policy") == "policy/p2"
    assert classify("get_policy") == "policy/p1"
    assert classify("commit_tx") == "txn/p2"
    assert classify("status") == "status/p0"


def test_classify_unknown_method_falls_back():
    assert classify("frobnicate") == "other/p1"


# -- spec validation --------------------------------------------------------

def test_spec_rejects_unknown_objective():
    with pytest.raises(ConfigurationError):
        SloSpec(name="x", request_class="get/p1", objective="throughput")


def test_spec_latency_requires_threshold():
    with pytest.raises(ConfigurationError):
        SloSpec(name="x", request_class="get/p1", objective="latency")


def test_spec_rejects_target_out_of_range():
    with pytest.raises(ConfigurationError):
        SloSpec(name="x", request_class="get/p1", target=1.0)
    with pytest.raises(ConfigurationError):
        SloSpec(name="x", request_class="get/p1", target=0.0)


@pytest.mark.parametrize("bad", [
    pytest.param({"window": 0.0}, id="window"),
    pytest.param({"fast_window": 0.0}, id="fast-zero"),
    pytest.param({"slow_window": 0.0}, id="slow-zero"),
    pytest.param({"fast_window": -1.0, "slow_window": -1.0}, id="alerts-negative"),
    pytest.param({"objective": "latency", "threshold": -0.5}, id="threshold-negative"),
])
def test_spec_rejects_nonpositive_window(bad):
    with pytest.raises(ConfigurationError):
        SloSpec(name="x", request_class="get/p1", **bad)


def test_spec_default_alert_windows():
    spec = SloSpec(name="x", request_class="get/p1", window=60.0)
    assert spec.fast == pytest.approx(5.0)
    assert spec.slow == pytest.approx(30.0)


def test_default_slos_cover_both_objectives():
    specs = default_slos()
    kinds = {(spec.request_class, spec.objective) for spec in specs}
    assert ("get/p1", "availability") in kinds
    assert ("get/p1", "latency") in kinds
    assert ("put/p2", "availability") in kinds
    # Latency objectives always carry a threshold.
    assert all(
        spec.threshold is not None
        for spec in specs
        if spec.objective == "latency"
    )


# -- burn-rate and budget math ----------------------------------------------

def _availability_state(target=0.9, window=10.0, **kwargs):
    return ObjectiveState(
        SloSpec(
            name="t", request_class="get/p1", target=target,
            window=window, **kwargs,
        )
    )


def test_burn_rate_one_is_sustainable():
    # target 0.9 over 10s: a 10% bad fraction spends exactly the budget.
    state = _availability_state()
    for index in range(10):
        state.record(ok=index != 0, latency=0.0, vnow=index * 1.0)
    assert state.burn_rate(9.0, 10.0) == pytest.approx(1.0)


def test_burn_rate_empty_window_is_zero():
    state = _availability_state()
    assert state.burn_rate(5.0, 10.0) == 0.0


def test_budget_untouched_is_full():
    state = _availability_state()
    state.record(ok=True, latency=0.0, vnow=1.0)
    assert state.budget_remaining(1.0) == pytest.approx(1.0)


def test_budget_clamps_at_zero():
    state = _availability_state()
    for index in range(10):
        state.record(ok=False, latency=0.0, vnow=index * 0.1)
    assert state.budget_remaining(1.0) == 0.0


def test_budget_refills_as_window_slides():
    state = _availability_state()
    for index in range(10):
        state.record(ok=False, latency=0.0, vnow=index * 0.1)
    assert state.state(1.0) == "exhausted"
    # Much later, the bad burst has slid out of every window.
    state.record(ok=True, latency=0.0, vnow=100.0)
    assert state.budget_remaining(100.0) == pytest.approx(1.0)
    assert state.state(100.0) == "healthy"


# -- the state machine ------------------------------------------------------

def test_states_progress_healthy_burning_exhausted():
    # target 0.99 over 60s: fast window 5s (burn >= 14.4), slow 30s
    # (burn >= 6).  A long healthy stretch, then a failure burst that
    # dominates both alert windows but not yet the whole budget, then
    # enough failures to exhaust it.
    spec = SloSpec(
        name="t", request_class="get/p1", target=0.99, window=60.0
    )
    state = ObjectiveState(spec)
    for index in range(1000):
        state.record(ok=True, latency=0.0, vnow=index * 0.029)
    assert state.state(29.0) == "healthy"

    for index in range(6):
        state.record(ok=False, latency=0.0, vnow=56.0 + index * 0.5)
    # Fast and slow windows hold only the burst -> both burn thresholds
    # exceeded; the full-window budget still has headroom.
    assert state.burn_rate(59.0, spec.fast) >= spec.fast_burn
    assert state.burn_rate(59.0, spec.slow) >= spec.slow_burn
    assert state.budget_remaining(59.0) > 0.0
    assert state.state(59.0) == "burning"

    for index in range(20):
        state.record(ok=False, latency=0.0, vnow=59.0 + index * 0.01)
    assert state.budget_remaining(59.2) == 0.0
    assert state.state(59.2) == "exhausted"


def test_short_blip_does_not_burn():
    # One failure in an otherwise healthy stream trips neither the
    # budget nor the dual-window alert.
    spec = SloSpec(
        name="t", request_class="get/p1", target=0.99, window=60.0
    )
    state = ObjectiveState(spec)
    for index in range(2000):
        state.record(ok=index != 1000, latency=0.0, vnow=index * 0.03)
    assert state.state(60.0) == "healthy"


# -- latency objectives and exemplars ---------------------------------------

def test_latency_objective_counts_slow_success_as_bad():
    spec = SloSpec(
        name="lat", request_class="get/p1", objective="latency",
        target=0.5, threshold=0.01, window=10.0,
    )
    state = ObjectiveState(spec)
    state.record(ok=True, latency=0.005, vnow=1.0)   # good
    state.record(ok=True, latency=0.050, vnow=2.0)   # slow -> bad
    state.record(ok=False, latency=0.001, vnow=3.0)  # failed -> bad
    assert state.good_total == 1
    assert state.bad_total == 2


def test_exemplars_capture_breaching_trace_ids():
    spec = SloSpec(
        name="lat", request_class="get/p1", objective="latency",
        target=0.5, threshold=0.01, window=10.0, max_exemplars=2,
    )
    state = ObjectiveState(spec)
    state.record(ok=True, latency=0.005, vnow=1.0, trace_id=0xAA)
    state.record(ok=True, latency=0.05, vnow=2.0, trace_id=0xBB)
    state.record(ok=True, latency=0.05, vnow=3.0)  # breach, no trace
    state.record(ok=True, latency=0.05, vnow=4.0, trace_id=0xCC)
    state.record(ok=True, latency=0.05, vnow=5.0, trace_id=0xDD)
    # Only breaching events with a trace id land; ring keeps newest 2.
    snap = state.snapshot(5.0)
    assert snap["exemplar_trace_ids"] == [0xCC, 0xDD]
    assert snap["exemplars"][0]["latency_s"] == pytest.approx(0.05)


# -- the engine -------------------------------------------------------------

def test_engine_folds_into_every_objective_of_class():
    engine = SloEngine()
    engine.record("get", ok=True, latency=0.001, vnow=1.0)
    availability = engine.get("get-p1-availability")
    latency = engine.get("get-p1-latency")
    assert availability.good_total == 1
    assert latency.good_total == 1
    assert engine.recorded == 1


def test_engine_ignores_classes_without_objectives():
    engine = SloEngine()
    engine.record("status", ok=True, latency=0.001, vnow=1.0)
    assert engine.recorded == 0


def test_engine_worst_state_and_health_status():
    engine = SloEngine([
        SloSpec(name="a", request_class="get/p1", target=0.5, window=10.0),
        SloSpec(name="b", request_class="put/p2", target=0.5, window=10.0),
    ])
    assert engine.worst_state() == "healthy"
    assert engine.health_status() == "ok"
    for _ in range(4):
        engine.record("put", ok=False, latency=0.0, vnow=1.0)
    assert engine.worst_state(1.0) == "exhausted"
    assert engine.health_status(1.0) == "critical"


def test_engine_snapshot_shape():
    engine = SloEngine([
        SloSpec(name="a", request_class="get/p1", target=0.5, window=10.0),
    ])
    engine.record("get", ok=True, latency=0.001, vnow=2.0)
    snap = engine.snapshot()
    assert snap["vnow"] == 2.0
    assert snap["recorded"] == 1
    assert snap["worst_state"] == "healthy"
    (objective,) = snap["objectives"]
    assert objective["slo"] == "a"
    assert objective["events_in_window"] == 1


def test_engine_metrics_land_on_registry():
    telemetry = Telemetry()
    engine = telemetry.attach_slo(SloEngine([
        SloSpec(name="a", request_class="get/p1", target=0.5, window=10.0),
    ]))
    engine.record("get", ok=False, latency=0.0, vnow=1.0)
    text = render_prometheus(telemetry.registry)
    assert 'pesos_slo_error_budget_remaining{slo="a"}' in text
    assert 'pesos_slo_burn_rate{slo="a",window="fast"}' in text
    assert 'pesos_slo_state{slo="a"}' in text
    assert 'pesos_slo_events_total{outcome="bad",slo="a"} 1' in text


def test_telemetry_record_request_routes_to_engine():
    telemetry = Telemetry()
    telemetry.attach_slo(SloEngine())
    telemetry.record_request("get", ok=True, latency=0.001, vnow=1.0)
    assert telemetry.slo.recorded == 1


def test_telemetry_without_engine_drops_records():
    telemetry = Telemetry()
    telemetry.record_request("get", ok=True, latency=0.001, vnow=1.0)
    assert telemetry.slo is None


def test_null_telemetry_slo_is_inert():
    null = NullTelemetry()
    assert null.attach_slo() is None
    null.record_request("get", ok=True, latency=0.001, vnow=1.0)
    assert null.slo is None
