"""Scenario runs: goodput, SLO headline numbers, reproducibility."""

import pytest

from repro.bench.concurrency import ConcurrencyConfig
from repro.workload.arrival import FlashCrowdCurve, SteadyCurve
from repro.workload.scenarios import ScenarioConfig, run_scenario

CAPACITY = 2000.0  # fixed for test speed; the bench calibrates its own


def _config(name, **overrides):
    base = ConcurrencyConfig(
        name="wl-test", record_count=16, operations=0, seed=21
    )
    return ScenarioConfig(
        name=name, base=base, seed=21, max_operations=256, **overrides
    )


@pytest.fixture(scope="module")
def steady_result():
    horizon = 256 / (0.8 * CAPACITY)
    return run_scenario(
        _config("steady"), SteadyCurve(0.8 * CAPACITY), CAPACITY, horizon
    )


def test_steady_under_capacity_sheds_nothing(steady_result):
    # Trace pins here and below: recorded at c905a5a, the last commit
    # where scenarios ran their own copy of the open-loop round loop.
    assert steady_result.trace_sha == "2f9fd7a3d12c5347"
    assert steady_result.shed_rate == 0.0
    assert steady_result.ok == steady_result.operations
    assert steady_result.worst_slo_state == "healthy"


def test_steady_reports_per_class_p99(steady_result):
    assert "get/p1" in steady_result.p99_by_class
    assert "put/p2" in steady_result.p99_by_class
    assert all(v >= 0 for v in steady_result.p99_by_class.values())


def test_scenario_trace_is_reproducible():
    horizon = 128 / CAPACITY
    shas = set()
    for _ in range(2):
        result = run_scenario(
            _config("repro"), SteadyCurve(CAPACITY), CAPACITY, horizon
        )
        shas.add(result.trace_sha)
    assert shas == {"8530fa35a6232157"}


def test_flash_crowd_sheds_but_keeps_goodput():
    horizon = 256 / (0.8 * CAPACITY)
    curve = FlashCrowdCurve(
        0.5 * CAPACITY, 3.0 * CAPACITY,
        start=0.3 * horizon, duration=0.4 * horizon,
    )
    result = run_scenario(_config("flash"), curve, CAPACITY, horizon)
    assert result.trace_sha == "7989dd4f2e61969c"
    assert result.shed_rate > 0.1  # the storm overwhelms capacity
    statuses = set(result.shed_by_status)
    assert statuses <= {429, 503} and statuses
    # The acceptance gate: goodput during the storm stays >= 70% of
    # what a steady 0.8x run sustains.
    storm_goodput = result.goodput_in(
        curve.start, curve.start + curve.duration
    )
    assert storm_goodput >= 0.7 * 0.8 * CAPACITY
    assert result.acked_writes_lost == 0


def test_flash_crowd_burns_slo_budget():
    horizon = 256 / (0.8 * CAPACITY)
    curve = FlashCrowdCurve(
        0.5 * CAPACITY, 3.0 * CAPACITY,
        start=0.3 * horizon, duration=0.4 * horizon,
    )
    result = run_scenario(_config("burn"), curve, CAPACITY, horizon)
    assert result.max_burn_rate > 0.0
    assert result.worst_slo_state in ("burning", "exhausted")


def test_scan_traffic_reaches_the_range_path():
    horizon = 128 / CAPACITY
    result = run_scenario(
        _config("scans", scan_fraction=0.5, read_fraction=0.25),
        SteadyCurve(CAPACITY), CAPACITY, horizon,
    )
    assert result.trace_sha == "e7f4aa776b6ec5bc"
    assert "scan/p1" in result.p99_by_class
    assert result.acked_writes_lost == 0
