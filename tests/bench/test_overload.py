"""Overload bench: graceful degradation, shed contract, replayability."""

import pytest

from repro.bench.overload import (
    QUEUE_DEPTH,
    OverloadConfig,
    calibrate_capacity,
    degradation,
    make_overload_workload,
    run_overload_point,
    run_overload_sweep,
)

# Enough offered work for the unprotected queue to actually build up;
# the collapse the sweep demonstrates is a function of queue growth.
SMOKE = OverloadConfig(operations=192, multipliers=(1.0, 4.0))


def _sweep():
    return run_overload_sweep(SMOKE)


def test_goodput_degrades_gracefully_with_admission():
    sweep = _sweep()
    assert degradation(sweep["admission"]) >= 0.8
    # The unprotected series must do visibly worse at the same load.
    protected = next(
        p for p in sweep["admission"] if p.multiplier == 4.0
    )
    unprotected = next(
        p for p in sweep["no-admission"] if p.multiplier == 4.0
    )
    assert protected.goodput > unprotected.goodput


def test_queue_bounded_and_sheds_carry_retry_after():
    for point in _sweep()["admission"]:
        assert point.peak_queue_depth <= QUEUE_DEPTH
        assert set(point.shed_by_status) <= {429, 503}
        assert point.shed_with_retry_after == sum(
            point.shed_by_status.values()
        )


def test_no_acked_write_lost_at_any_load():
    for series in _sweep().values():
        for point in series:
            assert point.acked_writes > 0
            assert point.acked_writes_lost == 0


def test_sweep_is_byte_replayable():
    first = [p.trace_sha for p in _sweep()["admission"]]
    second = [p.trace_sha for p in _sweep()["admission"]]
    assert first == second


#: ``trace_sha`` of SMOKE points at the last commit with two open-loop
#: loops (c905a5a), before ``run_open_loop`` replaced them.  Without
#: admission the FIFO serves everything in arrival order, so the record
#: does not depend on the offered rate.  The 1x admission point was
#: re-pinned (was ``fa4c033218217ce8``) when a PUT became three drive
#: submissions instead of six: calibrated capacity rose 4 739 -> 6 598
#: ops per virtual second, arrivals and queue deadlines are floats in
#: units of ``1 / capacity``, and at exactly 1x a few same-round
#: get/put pairs dispatch in the other order — the same 192
#: completions, all 200, none shed.  Re-pinned again (was
#: ``48aa1c369300675f``) for the same reason when the engine's clock
#: became derived from the calibrated constants (PR 22: capacity
#: 6 598 -> 4 710); the other three did not move.  Re-pinned once more
#: (was ``88e64e0c416fda00``) when a cached GET stopped touching its
#: object twice: the object region's eviction order shifts, so which
#: GETs hit it does (not how many: 3 of 120), and at exactly 1x a few
#: same-round pairs dispatch in the other order again.  Re-pinned (was
#: ``fa4c033218217ce8``) when a ``keep_history=False`` record stopped
#: listing the version its slot no longer holds: each PUT seals a
#: 49-byte shorter ``m/`` record, capacity 4 715 -> 4 800, and at 1x
#: the same 192 completions, all 200, none shed, dispatch in another
#: order; the other three did not move.
_PINNED_TRACES = {
    (1.0, True): "48aa1c369300675f",
    (1.0, False): "cbf8087d4d102e43",
    (4.0, True): "0d4d530476481a0a",
    (4.0, False): "cbf8087d4d102e43",
}


@pytest.mark.parametrize("multiplier,admission", sorted(_PINNED_TRACES))
def test_point_trace_is_pinned(multiplier, admission):
    point = run_overload_point(
        SMOKE, multiplier, admission, calibrate_capacity(SMOKE)
    )
    assert point.trace_sha == _PINNED_TRACES[multiplier, admission]


def test_workload_and_calibration_deterministic():
    assert make_overload_workload(SMOKE)[0][0].key == (
        make_overload_workload(SMOKE)[0][0].key
    )
    assert calibrate_capacity(SMOKE) == calibrate_capacity(SMOKE)


def test_single_point_outcome_conservation():
    capacity = calibrate_capacity(SMOKE)
    point = run_overload_point(SMOKE, 4.0, True, capacity)
    assert point.served + sum(point.shed_by_status.values()) == (
        point.operations
    )


# -- SLO + audit acceptance -------------------------------------------------

def _slo_telemetry(capacity):
    """A latency objective tuned so a 2x run walks the whole state arc.

    The threshold sits between an idle put's latency and the queue-wait
    latency once the admission queue fills, and the burn thresholds are
    reachable for the 30% budget: a seeded overload run starts healthy,
    burns as queueing inflates latency, and exhausts the budget before
    the run drains.  Times are in service times (``1 / capacity``), the
    open-loop driver's own unit, so the arc does not move when the cost
    of a request does (a PUT went from six drive operations to three).
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.slo import SloEngine, SloSpec

    service = 1.0 / capacity
    telemetry = Telemetry()
    engine = telemetry.attach_slo(SloEngine([
        SloSpec(
            name="put-latency", request_class="put/p2",
            objective="latency", target=0.7, threshold=19 * service,
            window=60.0, fast_window=19 * service,
            slow_window=47 * service, fast_burn=2.0, slow_burn=1.5,
        ),
    ]))
    return telemetry, engine.get("put-latency")


def test_overload_run_walks_healthy_burning_exhausted():
    capacity = calibrate_capacity(SMOKE)
    telemetry, objective = _slo_telemetry(capacity)
    transitions = []

    original = telemetry.record_request

    def sampling(method, ok, latency, vnow, trace_id=None):
        original(method, ok, latency, vnow, trace_id=trace_id)
        state = objective.state(vnow)
        if not transitions or transitions[-1] != state:
            transitions.append(state)

    telemetry.record_request = sampling
    run_overload_point(SMOKE, 2.0, True, capacity, telemetry=telemetry)
    assert transitions == ["healthy", "burning", "exhausted"]
    assert objective.state(objective.last_vnow) == "exhausted"


def test_overload_exemplars_resolve_to_traces():
    capacity = calibrate_capacity(SMOKE)
    telemetry, objective = _slo_telemetry(capacity)
    run_overload_point(SMOKE, 2.0, True, capacity, telemetry=telemetry)
    snap = objective.snapshot()
    assert snap["state"] == "exhausted"
    assert snap["exemplar_trace_ids"]
    for trace_id in snap["exemplar_trace_ids"]:
        span = telemetry.tracer.find(trace_id)
        assert span is not None, hex(trace_id)
        assert span.op == "put"


def test_overload_audit_chain_is_deterministic():
    capacity = calibrate_capacity(SMOKE)

    def run():
        sink = {}
        point = run_overload_point(
            SMOKE, 3.0, True, capacity, audit_log_size=512, sink=sink
        )
        auditor = sink["controller"].auditor
        assert auditor.verify()["ok"]
        hashes = [record.entry_hash for record in auditor.records]
        return point.audit_head, point.audit_records, hashes

    first = run()
    second = run()
    assert first == second
    head, records, _hashes = first
    assert records > 0
    assert head


def test_overload_point_without_audit_leaves_fields_empty():
    capacity = calibrate_capacity(SMOKE)
    point = run_overload_point(SMOKE, 1.0, True, capacity)
    assert point.audit_head == ""
    assert point.audit_records == 0
