"""End-to-end telemetry: instrumented request path + admin endpoints."""

import json

import pytest

from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from tests.core.conftest import ALICE, make_clients
from tests.enclave import boot


@pytest.fixture()
def telemetry():
    return Telemetry()


@pytest.fixture()
def server(telemetry):
    clients, _cluster = make_clients()
    controller = boot(
        clients, storage_key=b"k" * 32, telemetry=telemetry
    )
    return WebServer(controller)


def _roundtrip(server):
    put = server.handle_bytes(
        build_http_request(Request(method="put", key="doc", value=b"v" * 64)),
        ALICE,
    )
    assert parse_http_response(put).status == 200
    get = server.handle_bytes(
        build_http_request(Request(method="get", key="doc")), ALICE
    )
    assert parse_http_response(get).status == 200


def _admin(server, path):
    raw = server.handle_bytes(f"GET {path} HTTP/1.1\r\n\r\n".encode(), ALICE)
    head, body = raw.split(b"\r\n\r\n", 1)
    status = int(head.split(b" ", 2)[1])
    return status, body


def test_server_inherits_controller_telemetry(server, telemetry):
    assert server.telemetry is telemetry


def test_metrics_cover_every_layer(server):
    _roundtrip(server)
    status, body = _admin(server, "/_metrics")
    assert status == 200
    text = body.decode()
    for family in (
        "pesos_http_requests_total",          # webserver
        "pesos_http_bytes_total",
        "pesos_controller_requests_total",    # controller
        "pesos_policy_check_seconds",
        "pesos_cache_hit_ratio",              # enclave caches
        "pesos_drive_op_seconds",             # store -> kinetic
        "pesos_drive_bytes_total",
        "pesos_sgx_transitions_total",        # sgx transition estimate
        "pesos_sessions_active",              # derived callback gauge
    ):
        assert family in text, family
    assert 'pesos_controller_requests_total{method="put",outcome="ok"} 1' in text
    assert 'pesos_controller_requests_total{method="get",outcome="ok"} 1' in text
    assert 'pesos_sgx_transitions_total{reason="client_io"} 4' in text


def test_metrics_json_format(server):
    _roundtrip(server)
    status, body = _admin(server, "/_metrics?format=json")
    assert status == 200
    data = json.loads(body)
    assert data["pesos_http_requests_total"]["kind"] == "counter"
    assert data["pesos_http_requests_total"]["samples"][0]["value"] == 2


def test_traces_show_nested_layers_with_durations(server):
    _roundtrip(server)
    status, body = _admin(server, "/_traces")
    assert status == 200
    dump = json.loads(body)
    assert dump["traces_completed"] == 2

    def depth_path(span):
        best = [span["name"]]
        for child in span["children"]:
            tail = depth_path(child)
            if len(tail) + 1 > len(best):
                best = [span["name"], *tail]
        return best

    put_trace = dump["recent"][0]
    path = depth_path(put_trace)
    # http.request > controller.handle > store.store_version > kinetic.put
    assert path[0] == "http.request"
    assert "controller.handle" in path
    assert "store.store_version" in path
    assert "kinetic.put" in path
    assert len(path) >= 4

    def walk(span):
        yield span
        for child in span["children"]:
            yield from walk(child)

    for name in ("http.request", "controller.handle",
                 "store.store_version", "kinetic.put"):
        span = next(s for s in walk(put_trace) if s["name"] == name)
        assert span["duration_s"] > 0.0, name


def test_traces_limit_parameter(server):
    for _ in range(5):
        _roundtrip(server)
    _status, body = _admin(server, "/_traces?limit=3")
    assert len(json.loads(body)["recent"]) == 3


def test_admin_scrapes_do_not_distort_serving_stats(server):
    _roundtrip(server)
    before = server._m_requests.value
    _admin(server, "/_metrics")
    _admin(server, "/_traces")
    assert server._m_requests.value == before


def test_unknown_admin_path_is_404(server):
    status, _body = _admin(server, "/_whatever")
    assert status == 404


def test_disabled_telemetry_returns_503():
    clients, _cluster = make_clients()
    controller = boot(clients, storage_key=b"k" * 32)
    server = WebServer(controller, telemetry=NULL_TELEMETRY)
    status, body = _admin(server, "/_metrics")
    assert status == 503
    assert b"telemetry disabled" in body


def test_policy_denial_counted(server, telemetry):
    policy = server.controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    )
    server.handle_bytes(
        build_http_request(
            Request(method="put", key="sec", value=b"v",
                    policy_id=policy.policy_id)
        ),
        ALICE,
    )
    raw = server.handle_bytes(
        build_http_request(Request(method="get", key="sec")), "fp-eve"
    )
    assert parse_http_response(raw).status == 403
    counter = telemetry.registry.get("pesos_policy_denials_total")
    assert counter.labels("read").value == 1


def test_slow_log_threshold():
    clients, _cluster = make_clients()
    slow_telemetry = Telemetry(slow_threshold=0.0)
    controller = boot(
        clients, storage_key=b"k" * 32, telemetry=slow_telemetry
    )
    server = WebServer(controller)
    _roundtrip(server)
    assert len(slow_telemetry.tracer.slow()) == 2


def test_slo_endpoint_503_without_engine(server):
    status, body = _admin(server, "/_slo")
    assert status == 503
    assert b"no slo engine attached" in body


def test_slo_endpoint_reports_budgets(server, telemetry):
    telemetry.attach_slo()
    _roundtrip(server)
    status, body = _admin(server, "/_slo")
    assert status == 200
    snap = json.loads(body)
    assert snap["recorded"] == 2
    assert snap["worst_state"] == "healthy"
    by_name = {obj["slo"]: obj for obj in snap["objectives"]}
    assert by_name["get-p1-availability"]["events_in_window"] == 1
    assert by_name["put-p2-availability"]["budget_remaining"] == 1.0


def test_slo_endpoint_prometheus_format(server, telemetry):
    telemetry.attach_slo()
    _roundtrip(server)
    status, body = _admin(server, "/_slo?format=prometheus")
    assert status == 200
    text = body.decode()
    assert "pesos_slo_error_budget_remaining" in text
    assert 'pesos_slo_burn_rate{slo="get-p1-availability",window="fast"}' in text


def test_slo_exemplars_resolve_to_traces(server, telemetry):
    from repro.telemetry import SloEngine, SloSpec

    # A zero-latency threshold makes every served GET a breach, so the
    # objective collects exemplar trace ids we can chase via /_traces.
    telemetry.attach_slo(SloEngine([
        SloSpec(name="tight", request_class="get/p1", objective="latency",
                target=0.5, threshold=0.0, window=60.0),
    ]))
    _roundtrip(server)
    _status, body = _admin(server, "/_slo")
    (objective,) = json.loads(body)["objectives"]
    assert objective["exemplar_trace_ids"]
    for trace_id in objective["exemplar_trace_ids"]:
        span = telemetry.tracer.find(trace_id)
        assert span is not None
        assert span.op == "get"


def test_health_folds_slo_state(server, telemetry):
    telemetry.attach_slo()
    _roundtrip(server)
    # One failing GET among three: budget (1% of 3 events) is blown.
    raw = server.handle_bytes(
        build_http_request(Request(method="get", key="absent")), ALICE
    )
    assert parse_http_response(raw).status == 404
    status, body = _admin(server, "/_health")
    report = json.loads(body)
    assert report["slo"]["worst_state"] == "exhausted"
    assert report["slo"]["status"] == "critical"
    assert report["status"] == "critical"
    assert status == 503


def test_health_without_engine_has_no_slo_section(server):
    status, body = _admin(server, "/_health")
    assert status == 200
    assert "slo" not in json.loads(body)


def test_health_and_admission_snapshot_under_null_telemetry():
    from repro.core.admission import AdmissionController

    clients, _cluster = make_clients()
    controller = boot(clients, storage_key=b"k" * 32)
    server = WebServer(
        controller, telemetry=NULL_TELEMETRY,
        admission=AdmissionController(),
    )
    _roundtrip(server)
    status, body = _admin(server, "/_health")
    assert status == 200
    report = json.loads(body)
    assert report["status"] == "ok"
    assert "slo" not in report
    assert report["admission"]["admitted"] == 2
    assert report["admission"]["queue_depth"] == 0


def _audit_server(telemetry=None):
    from repro.core.controller import ControllerConfig

    clients, _cluster = make_clients()
    controller = boot(
        clients, storage_key=b"k" * 32,
        config=ControllerConfig(audit_log_size=64),
        telemetry=telemetry,
    )
    if telemetry is None:
        return WebServer(controller, telemetry=NULL_TELEMETRY)
    return WebServer(controller)


def test_audit_endpoint_503_when_disabled(server):
    status, body = _admin(server, "/_audit")
    assert status == 503
    assert b"audit log disabled" in body


def _policied_roundtrip(server):
    """A put+get pair governed by a policy, so decisions get audited."""
    policy = server.controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    )
    put = server.handle_bytes(
        build_http_request(
            Request(method="put", key="doc", value=b"v" * 64,
                    policy_id=policy.policy_id)
        ),
        ALICE,
    )
    assert parse_http_response(put).status == 200
    get = server.handle_bytes(
        build_http_request(Request(method="get", key="doc")), ALICE
    )
    assert parse_http_response(get).status == 200


def test_audit_endpoint_records_decisions():
    telemetry = Telemetry()
    server = _audit_server(telemetry)
    _policied_roundtrip(server)
    status, body = _admin(server, "/_audit?verify=1")
    assert status == 200
    snap = json.loads(body)
    # Two decisions, and three freshness pins: the boot's, then the
    # prepare and settle of the write the update decision granted.
    assert snap["length"] == 5
    assert snap["decisions"] == {"allow": 2, "pin": 3}
    assert snap["verification"]["ok"]
    operations = [record["operation"] for record in snap["records"]]
    assert operations == ["pin", "update", "pin", "pin", "read"]
    # The chain head also lands on the scrape.
    head = snap["head"]
    _status, metrics = _admin(server, "/_metrics")
    assert f'pesos_audit_chain_head{{digest="{head}"}} 5' in metrics.decode()


def test_audit_endpoint_answers_without_telemetry():
    # The chain is config-gated, not telemetry-gated: it must answer
    # (and verify) with metrics off.
    server = _audit_server()
    _policied_roundtrip(server)
    status, body = _admin(server, "/_audit?verify=1")
    assert status == 200
    assert json.loads(body)["verification"]["ok"]
    status, _body = _admin(server, "/_metrics")
    assert status == 503


def test_audit_verify_detects_flipped_byte():
    server = _audit_server()
    _policied_roundtrip(server)
    status, _body = _admin(server, "/_audit?verify=1")
    assert status == 200
    record = server.controller.auditor.records[0]
    record.decision = "deny" if record.decision == "allow" else "allow"
    raw = server.handle_bytes(b"GET /_audit?verify=1 HTTP/1.1\r\n\r\n", ALICE)
    # One reason table for client and admin responses alike.
    assert raw.startswith(b"HTTP/1.1 500 Internal Server Error\r\n")
    status, body = _admin(server, "/_audit?verify=1")
    assert status == 500
    verification = json.loads(body)["verification"]
    assert not verification["ok"]
    assert verification["first_bad_seq"] == record.seq


def test_policy_denial_lands_in_audit_chain():
    server = _audit_server(Telemetry())
    policy = server.controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    )
    server.handle_bytes(
        build_http_request(
            Request(method="put", key="sec", value=b"v",
                    policy_id=policy.policy_id)
        ),
        ALICE,
    )
    raw = server.handle_bytes(
        build_http_request(Request(method="get", key="sec")), "fp-eve"
    )
    assert parse_http_response(raw).status == 403
    snap = server.controller.auditor.snapshot()
    deny = next(
        record for record in snap["records"]
        if record["decision"] == "deny"
    )
    assert deny["operation"] == "read"
    assert deny["session"] == "fp-eve"
    assert deny["clause_path"] == "read/denied"
    assert deny["policy_hash"]
    assert server.controller.auditor.verify()["ok"]


def test_traces_slow_only_filter():
    clients, _cluster = make_clients()
    slow_telemetry = Telemetry(slow_threshold=0.0)
    controller = boot(
        clients, storage_key=b"k" * 32, telemetry=slow_telemetry
    )
    server = WebServer(controller)
    _roundtrip(server)
    status, body = _admin(server, "/_traces?slow=1")
    assert status == 200
    dump = json.loads(body)
    assert "recent" not in dump
    assert [span["op"] for span in dump["slow"]] == ["put", "get"]
    assert all(span["trace_id"] for span in dump["slow"])


def test_async_completed_after_evict_surfaces(server, telemetry):
    from repro.core.asyncapi import AsyncTracker

    # buffer_size=0: every begin() immediately evicts its own entry,
    # so the in-flight operation completes after eviction — the worst
    # case the counter exists to witness.
    server.controller.async_tracker = AsyncTracker(buffer_size=0)
    raw = server.handle_bytes(
        build_http_request(
            Request(method="put", key="k", value=b"v", asynchronous=True)
        ),
        ALICE,
    )
    assert parse_http_response(raw).status == 202
    status, body = _admin(server, "/_metrics")
    assert status == 200
    text = body.decode()
    assert "pesos_async_completed_after_evict_total 1" in text
    assert 'pesos_async_results_discarded_total{state="pending"} 1' in text
    names = [
        span.name
        for root in telemetry.tracer.recent()
        for span in root.walk()
    ]
    assert "async.completed_after_evict" in names
