"""End-to-end sanitizer checks against the real engine.

Two directions:

- *Regression*: an engine variant with request-lock acquisition
  removed must produce race findings — proof the shadow state actually
  observes the engine and the detector bites when protection is gone.
- *No-op*: with no sanitizer (the default ``None``) the engine's virtual
  time and trace bytes are bit-identical to a sanitized run's, so the
  hooks cannot perturb what the determinism suite certifies.
"""

import pytest

from repro.analysis.deadlock import find_deadlocks
from repro.analysis.races import find_races
from repro.analysis.sanitizer import ShadowState
from repro.core.engine import ConcurrentEngine
from tests.concurrency.harness import (
    LinearizabilityError,
    build_small_system,
    explore,
    make_workload,
)

SEEDS = [0, 3, 11]


class UnlockedEngine(ConcurrentEngine):
    """The engine with per-key request locking surgically removed."""

    def _lock_mode(self, request):
        return None


@pytest.mark.parametrize("seed", SEEDS)
def test_removing_request_locks_is_caught(seed):
    with pytest.raises(LinearizabilityError) as excinfo:
        explore(seed, engine_cls=UnlockedEngine)
    assert "race/lockset" in str(excinfo.value)


def test_unlocked_engine_findings_name_shared_disk_keys():
    controller = build_small_system(3)
    requests, _ = make_workload(controller, 3, 26)
    shadow = ShadowState()
    with UnlockedEngine(
        controller, seed=3, hardware_threads=6, sanitizer=shadow
    ) as engine:
        engine.run_batch(requests, "fp")
    findings = find_races(shadow.events)
    assert findings, "unlocked engine must race on shared disk keys"
    assert all(f.rule == "race/lockset" for f in findings)


@pytest.mark.parametrize("seed", SEEDS)
def test_locked_engine_is_race_and_deadlock_free(seed):
    exploration = explore(seed)
    assert exploration.sanitizer_findings == []


def test_commit_frame_reports_one_write_access_per_key():
    """A PUT's value and ``m/`` record travel in one frame; the shadow
    state must see both disk keys written, not one unhashable list."""
    from repro.core.request import Request

    controller = build_small_system(1)
    shadow = ShadowState()
    with ConcurrentEngine(controller, seed=1, sanitizer=shadow) as engine:
        response, = engine.run_batch(
            [Request(method="put", key="framed", value=b"v")], "fp"
        )
    assert response.ok
    written = [
        event[2] for event in shadow.events
        if event[0] == "access" and event[3] == "w"
    ]
    replicas = controller.store.replication_factor
    assert sorted(set(written)) == [
        b"m/framed", controller.store._value_record("framed", 0)[0],
    ]
    assert len(written) == 2 * replicas
    assert engine.stats.drive_ops >= replicas  # one submission per frame


def test_lock_order_graph_of_real_runs_is_acyclic():
    controller = build_small_system(5)
    requests, _ = make_workload(controller, 5, 26)
    shadow = ShadowState()
    with ConcurrentEngine(
        controller, seed=5, hardware_threads=6, sanitizer=shadow
    ) as engine:
        engine.run_batch(requests, "fp")
    assert shadow.events, "instrumentation recorded nothing"
    assert find_deadlocks(shadow.events) == []


def test_null_sanitizer_changes_nothing():
    """Same seed, hooks on vs off: bit-identical run artifacts."""
    results = {}
    for label, sanitizer in (("off", None), ("on", ShadowState())):
        controller = build_small_system(9)
        requests, _ = make_workload(controller, 9, 26)
        with ConcurrentEngine(
            controller, seed=9, hardware_threads=6, sanitizer=sanitizer
        ) as engine:
            engine.run_batch(requests, "fp")
            results[label] = (
                engine.trace_bytes(),
                engine.stats.virtual_seconds,
            )
    assert results["off"] == results["on"]


def test_sanitizer_overhead_within_budget():
    """The acceptance gate: recording hooks cost <5% virtual time."""
    from repro.bench.concurrency import ConcurrencyConfig, run_sanitizer_overhead

    config = ConcurrencyConfig(record_count=16, operations=64)
    report = run_sanitizer_overhead(config, workers=4)
    assert report["within_budget"]
    assert report["overhead_pct"] == 0.0  # hooks never touch the clock
    assert report["shadow_events"] > 0


def test_engine_close_restores_the_null_sanitizer():
    controller = build_small_system(0)
    shadow = ShadowState()
    engine = ConcurrentEngine(controller, seed=0, sanitizer=shadow)
    assert controller.txns.sanitizer is shadow
    assert engine.scheduler.sanitizer is shadow
    engine.close()
    assert controller.txns.sanitizer is None
    assert engine.scheduler.sanitizer is None
