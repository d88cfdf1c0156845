"""Admission control on the concurrent request path.

The engine with an :class:`AdmissionController` attached must shed
deterministically (429/503 + Retry-After, folded into the replay
trace), bound its queue, respect the AIMD dispatch width — and never
lose an acknowledged write: every 2xx put remains readable afterwards.
"""

from __future__ import annotations

from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.engine import ConcurrentEngine
from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.telemetry import Telemetry
from tests.concurrency.test_engine import build_controller, workload


def _admission(**overrides):
    config = AdmissionConfig(**overrides)
    return AdmissionController(config)


def _run(admission_config=None, ops=48, keys=12, seed=7, clients=4):
    controller = build_controller()
    admission = (
        None
        if admission_config is None
        else AdmissionController(admission_config)
    )
    with ConcurrentEngine(
        controller, seed=seed, hardware_threads=4, admission=admission
    ) as engine:
        for index, request in enumerate(workload(ops, keys=keys)):
            engine.submit(request, f"fp{index % clients}", now=float(index))
        responses = engine.run()
    return controller, engine, responses


def test_unlimited_engine_unchanged_without_admission():
    _controller, engine, responses = _run(None)
    assert all(response.status == 200 for response in responses)
    assert engine.stats.shed_requests == 0
    assert b"--admission--" not in engine.trace_bytes()


def test_overload_sheds_503_with_retry_after():
    _controller, engine, responses = _run(AdmissionConfig(queue_depth=8))
    shed = [r for r in responses if r.status == 503]
    served = [r for r in responses if r.status == 200]
    assert shed and served
    assert engine.stats.shed_requests == len(shed)
    assert all(r.retry_after is not None and r.retry_after > 0 for r in shed)


def test_rate_limited_client_sheds_429():
    _controller, engine, responses = _run(
        AdmissionConfig(rate_per_second=0.001, burst=2.0), clients=1
    )
    statuses = {response.status for response in responses}
    assert 429 in statuses
    rate_limited = [r for r in responses if r.status == 429]
    assert all(r.retry_after is not None for r in rate_limited)


def test_no_acked_write_lost_under_shedding():
    controller, _engine, responses = _run(AdmissionConfig(queue_depth=6))
    requests = workload(48, keys=12)
    acked = {}
    for request, response in zip(requests, responses):
        if request.method == "put" and response.ok:
            acked[request.key] = request.value
    assert acked  # the scenario admitted some writes
    for key, value in acked.items():
        read = controller.handle(Request(method="get", key=key), "fp0", 99.0)
        assert read.ok and read.value == value


def test_dispatch_width_capped_by_aimd_limit():
    class ProbedEngine(ConcurrentEngine):
        peak = 0

        def _admit(self):
            super()._admit()
            self.peak = max(self.peak, self.scheduler.alive)

    controller = build_controller()
    admission = AdmissionController(
        AdmissionConfig(initial_limit=2, max_limit=2, min_limit=1)
    )
    with ProbedEngine(
        controller, seed=7, hardware_threads=4, admission=admission
    ) as engine:
        for index, request in enumerate(workload(24, keys=8)):
            engine.submit(request, f"fp{index % 4}", now=float(index))
        engine.run()
    # With the limit pinned at 2, no round ever had >2 live threads.
    assert 0 < engine.peak <= 2


def test_trace_includes_admission_decisions_and_replays():
    def trace(seed):
        _controller, engine, _responses = _run(
            AdmissionConfig(queue_depth=8, seed=3), seed=seed
        )
        return engine.trace_bytes()

    first, second = trace(7), trace(7)
    assert b"--admission--" in first
    assert first == second
    assert trace(8) != first


def test_queue_depth_stays_bounded():
    config = AdmissionConfig(queue_depth=5)
    _controller, engine, _responses = _run(config)
    assert engine.admission.queue.peak_depth <= config.queue_depth


# -- through the web server -------------------------------------------------

def test_webserver_batch_path_sheds_and_serves():
    controller = build_controller()
    server = WebServer(
        controller,
        admission=AdmissionController(AdmissionConfig(queue_depth=8)),
    )
    items = [
        (
            build_http_request(
                Request(method="put", key=f"k{i % 6}", value=b"v")
            ),
            f"fp{i % 3}",
        )
        for i in range(32)
    ]
    responses = [
        parse_http_response(raw) for raw in server.handle_batch(items, seed=5)
    ]
    statuses = {response.status for response in responses}
    assert statuses <= {200, 503}
    assert 503 in statuses
    assert all(
        response.retry_after is not None
        for response in responses
        if response.status == 503
    )


def _refusals(controller):
    """The chain's records but its freshness pins."""
    return [r for r in controller.auditor.records if r.operation != "pin"]


def test_webserver_sync_path_rate_limits_429():
    controller = build_controller(telemetry=Telemetry(), audit_log_size=64)
    server = WebServer(
        controller,
        admission=AdmissionController(
            AdmissionConfig(rate_per_second=0.001, burst=1.0)
        ),
    )
    raw = build_http_request(Request(method="get", key="k"))
    first = parse_http_response(server.handle_bytes(raw, "fp-a", now=0.0))
    second = parse_http_response(server.handle_bytes(raw, "fp-a", now=0.0))
    assert first.status in (200, 404)  # admitted (key may not exist)
    assert second.status == 429
    assert second.retry_after is not None
    # The shed reaches the controller's audit chain and its counters;
    # the one other record is the boot's freshness pin.
    assert controller.auditor.decisions_by_kind == {"pin": 1, "shed": 1}
    (record,) = _refusals(controller)
    assert (record.operation, record.session, record.detail) == (
        "get", "fp-a", "rate_limited",
    )
    decisions = controller.telemetry.registry.get(
        "pesos_admission_decisions_total"
    )
    assert decisions.labels("rate_limited").value == 1


def test_health_reports_admission_state():
    import json

    controller = build_controller()
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=0.001, burst=1.0)
    )
    server = WebServer(controller, admission=admission)
    raw = build_http_request(Request(method="get", key="k"))
    server.handle_bytes(raw, "fp-a", now=0.0)
    server.handle_bytes(raw, "fp-a", now=0.0)  # rate-shed
    health = server._handle_admin(b"GET /_health HTTP/1.1\r\n\r\n")
    body = json.loads(health.split(b"\r\n\r\n", 1)[1])
    assert body["admission"]["admitted"] == 1
    assert body["admission"]["shed"] == {"rate_limited": 1}


def test_webserver_binds_admission_to_controller_sessions():
    controller = build_controller()
    admission = AdmissionController(AdmissionConfig(rate_per_second=1.0))
    server = WebServer(controller, admission=admission)
    assert admission.sessions is controller.sessions
    assert server.admission is admission


def test_webserver_late_binds_admission_telemetry():
    from repro.telemetry import Telemetry

    controller = build_controller()
    controller.telemetry = Telemetry()
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=0.001, burst=1.0)
    )
    server = WebServer(controller, admission=admission)
    raw = build_http_request(Request(method="get", key="k"))
    server.handle_bytes(raw, "fp-a", now=0.0)
    server.handle_bytes(raw, "fp-a", now=0.0)  # rate-shed
    metrics = server._handle_admin(b"GET /_metrics HTTP/1.1\r\n\r\n").decode()
    assert "pesos_admission_decisions_total" in metrics
    assert 'outcome="rate_limited"' in metrics


def test_admission_telemetry_chosen_at_construction_wins():
    from repro.telemetry import Telemetry

    controller = build_controller()
    controller.telemetry = Telemetry()
    explicit = Telemetry()
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=1.0), telemetry=explicit
    )
    WebServer(controller, admission=admission)
    assert admission.telemetry is explicit


def _shed_chain(front_end):
    """Audit state after one over-capacity batch through ``front_end``."""
    controller = build_controller(audit_log_size=4096)
    admission = AdmissionController(AdmissionConfig(queue_depth=4, seed=5))
    batch = [
        (request, f"fp{index % 4}")
        for index, request in enumerate(workload(96, keys=12))
    ]
    front_end(controller, admission, batch)
    assert sum(admission.shed_by_reason.values()) > 80
    return controller.auditor


def _through_engine(controller, admission, batch):
    with ConcurrentEngine(
        controller, seed=9, hardware_threads=4, admission=admission
    ) as engine:
        for request, fingerprint in batch:
            engine.submit(request, fingerprint, now=2.0)
        engine.run()


def _through_webserver(controller, admission, batch):
    WebServer(controller, admission=admission).handle_batch(
        [
            (build_http_request(request), fingerprint)
            for request, fingerprint in batch
        ],
        seed=9,
        workers=4,
        now=2.0,
    )


def test_sheds_are_audited_whichever_front_end_admitted_them():
    # One wiring (AdmissionController.attach): the engine used to bind
    # sessions and telemetry but not the auditor, so the same batch left
    # its sheds in the chain through handle_batch and none through a
    # bare engine.
    engine_chain = _shed_chain(_through_engine)
    server_chain = _shed_chain(_through_webserver)
    assert engine_chain.decisions_by_kind["shed"] > 80
    assert engine_chain.decisions_by_kind == server_chain.decisions_by_kind
    assert engine_chain.head == server_chain.head
    assert engine_chain.verify()["ok"]


def test_evicted_and_expired_queue_entries_are_audited():
    """Eight gets then eight puts into a queue of four: the puts evict
    the four queued gets, and 12 requests answer 503.  At d387684 the
    chain held 8 ``shed`` records — an entry shed *after* it was queued
    left none."""
    controller = build_controller(audit_log_size=4096)
    admission = AdmissionController(AdmissionConfig(queue_depth=4))
    requests = [Request(method="get", key=f"k{i}") for i in range(8)] + [
        Request(method="put", key=f"k{i}", value=b"v") for i in range(8)
    ]
    with ConcurrentEngine(controller, admission=admission) as engine:
        responses = engine.run_batch(requests, "fp")
    shed = [i for i, r in enumerate(responses) if r.status == 503]
    assert len(shed) == 12
    records = [r for r in controller.auditor.records if r.decision == "shed"]
    assert sorted((r.operation, r.key) for r in records) == sorted(
        (requests[i].method, requests[i].key) for i in shed
    )
    assert {(r.session, r.detail) for r in records} == {("fp", "queue_full")}
    assert controller.auditor.verify()["ok"]

    # Expiry at dispatch takes the same path.
    controller = build_controller(audit_log_size=64)
    admission = AdmissionController(
        AdmissionConfig(max_queue_delay=0.5)
    ).attach(controller)
    admission.offer("old", Request(method="get", key="stale"), "fp-a", 0.0, 0.0)
    assert admission.dispatch(1.0, budget=8) == []
    (record,) = _refusals(controller)
    assert (record.operation, record.key, record.session, record.detail) == (
        "get", "stale", "fp-a", "queue_delay",
    )
    assert record.vnow == 1.0

