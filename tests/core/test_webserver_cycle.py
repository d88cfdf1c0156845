"""One request cycle, whatever telemetry the server was given.

A scripted run covering every way the front door turns a request into
a reply is answered by two servers over equal deployments, one with
``NULL_TELEMETRY`` and one with a live ``Telemetry``: the replies are
the same bytes, and what the live one recorded — counters, span trees,
the SLO feed — is pinned as it stood at faa8494, where the cycle was
written out inside the spans and again in ``handle_batch``.
"""

import pytest

import repro.core.webserver as webserver_module
from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.controller import ControllerConfig
from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.telemetry import NULL_TELEMETRY, Telemetry, Tracer
from tests.core.conftest import ALICE, BOB
from tests.enclave import boot

EVE = "fp-eve"
POLICY = f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')"

MALFORMED_HEAD = b"\xff\xfe not http"
BAD_LENGTH = b"POST /put/doc HTTP/1.1\r\nContent-Length: 9\r\n\r\nhello"
UNKNOWN_METHOD = b"POST /frobnicate/doc HTTP/1.1\r\n\r\n"


def _http(**fields) -> bytes:
    return build_http_request(Request(**fields))


class _Recording(Telemetry):
    """A live telemetry that also keeps what the SLO feed was given."""

    def __init__(self):
        ticks = iter(range(10**6))
        super().__init__(tracer=Tracer(virtual_clock=lambda: next(ticks)))
        self.fed = []

    def record_request(self, method, ok, latency, vnow, trace_id=None):
        self.fed.append((method, ok, latency, vnow, trace_id))


def _deployment(telemetry):
    cluster = DriveCluster(num_drives=3)
    controller = boot(
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        storage_key=b"k" * 32,
        config=ControllerConfig(replication_factor=3),
        telemetry=telemetry,
    )
    # One token per session, refilled before the next step is sent.
    admission = AdmissionController(
        AdmissionConfig(rate_per_second=1.0, burst=1.0)
    )
    return WebServer(controller, telemetry=telemetry, admission=admission), cluster


def _run_script(server, cluster) -> tuple[list[bytes], list[bytes]]:
    """Every way a request becomes a reply; what was sent, what came back."""
    sent, replies = [], []

    def send(raw, fingerprint=ALICE, now=None):
        now = 2.0 * len(sent) if now is None else now
        sent.append(raw)
        replies.append(server.handle_bytes(raw, fingerprint, now))
        return parse_http_response(replies[-1])

    policy = send(_http(method="put_policy", value=POLICY.encode())).policy_id
    send(_http(method="put", key="doc", value=b"hello", policy_id=policy))
    send(_http(method="get", key="doc"))
    send(_http(method="get", key="missing"), BOB)
    send(_http(method="get", key="doc"), EVE)
    send(MALFORMED_HEAD)
    send(BAD_LENGTH)
    send(UNKNOWN_METHOD)
    send(_http(method="get", key="doc"), now=16.0)
    send(_http(method="get", key="doc"), now=16.0)  # a second token
    cluster.drive(1).fail()
    cluster.drive(2).fail()
    send(_http(method="put", key="doc2", value=b"v"))
    return sent, replies


STATUSES = [200, 200, 200, 404, 403, 400, 400, 400, 200, 429, 503]


def test_replies_do_not_depend_on_telemetry():
    _, bare = _run_script(*_deployment(NULL_TELEMETRY))
    _, live = _run_script(*_deployment(_Recording()))
    assert bare == live
    assert [parse_http_response(raw).status for raw in bare] == STATUSES
    assert b"\r\nRetry-After: 1\r\n" in bare[-1]
    assert b"\r\nRetry-After: " in bare[-2]


def test_live_telemetry_records_what_it_did_at_the_parent():
    telemetry = _Recording()
    server, cluster = _deployment(telemetry)
    sent, replies = _run_script(server, cluster)

    assert server._m_requests.value == len(replies)
    assert server._m_responses.series() == {
        ("200",): 4, ("404",): 1, ("403",): 1, ("400",): 3,
        ("429",): 1, ("503",): 1,
    }
    assert server._m_errors.series() == {("response",): 7}
    assert server._m_bytes.series() == {
        ("in",): sum(map(len, sent)), ("out",): sum(map(len, replies)),
    }

    roots = telemetry.tracer.recent()
    assert [root.name for root in roots] == ["http.request"] * len(replies)
    assert [root.attributes for root in roots] == [
        {"fingerprint": ALICE, "method": "put_policy", "status": 200},
        {"fingerprint": ALICE, "method": "put", "key": "doc", "status": 200},
        {"fingerprint": ALICE, "method": "get", "key": "doc", "status": 200},
        {"fingerprint": BOB, "method": "get", "key": "missing", "status": 404},
        {"fingerprint": EVE, "method": "get", "key": "doc", "status": 403},
        {"fingerprint": ALICE, "status": 400},
        {"fingerprint": ALICE, "status": 400},
        {"fingerprint": ALICE, "status": 400},
        {"fingerprint": ALICE, "method": "get", "key": "doc", "status": 200},
        {"fingerprint": ALICE, "method": "get", "key": "doc",
         "shed": "rate_limited", "status": 429},
        {"fingerprint": ALICE, "method": "put", "key": "doc2", "status": 503},
    ]
    # Attribute order is what /_traces renders, so it is pinned too.
    assert list(roots[9].attributes) == [
        "fingerprint", "method", "key", "shed", "status",
    ]
    between = {400: [], 429: ["admission.shed"]}
    assert [[child.name for child in root.children] for root in roots] == [
        ["http.parse", *between.get(status, ["controller.handle"]), "http.render"]
        for status in STATUSES
    ]
    assert all(not root.error for root in roots)
    parses = [root.children[0] for root in roots]
    assert [span.attributes for span in parses] == [
        {"bytes": len(raw)} for raw in sent
    ]
    assert [span.error for span in parses] == [
        "", "", "", "", "",
        "RequestError: malformed HTTP request: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte",
        "RequestError: Content-Length does not describe the 5-byte body",
        "RequestError: unknown method 'frobnicate'",
        "", "", "",
    ]
    assert all(root.children[-1].attributes == {} for root in roots)

    # The SLO feed: every request that parsed, sheds included, with the
    # root span's virtual duration and trace id.
    parsed = [root for root, status in zip(roots, STATUSES) if status != 400]
    assert telemetry.fed == [
        (
            root.attributes["method"],
            root.attributes["status"] < 300,
            root.virtual_duration,
            now,
            root.trace_id,
        )
        for root, now in zip(
            parsed, [0.0, 2.0, 4.0, 6.0, 8.0, 16.0, 16.0, 20.0]
        )
    ]
    assert [root.trace_id for root in roots] == list(range(1, 12))


@pytest.mark.parametrize("telemetry", [NULL_TELEMETRY, None])
def test_a_crash_in_the_parser_reaches_the_transport(monkeypatch, telemetry):
    """Not a PesosError: nothing maps it; a live telemetry counts it."""
    telemetry = telemetry or _Recording()
    server, _cluster = _deployment(telemetry)

    def broken(_raw):
        raise RuntimeError("codec crash")

    monkeypatch.setattr(webserver_module, "parse_http_request", broken)
    with pytest.raises(RuntimeError, match="codec crash"):
        server.handle_bytes(_http(method="get", key="doc"), ALICE)
    if telemetry.enabled:
        assert server._m_errors.series() == {("parse_failure",): 1}
        (root,) = telemetry.tracer.recent()
        assert root.attributes == {"fingerprint": ALICE, "error": "parse_failure"}
        assert root.error == root.children[0].error == "RuntimeError: codec crash"
        assert telemetry.fed == []


@pytest.mark.parametrize("telemetry", [NULL_TELEMETRY, None])
def test_handle_batch_answers_what_handle_bytes_answers(telemetry):
    """The items of the script whose reply does not depend on order."""
    _, scripted = _run_script(*_deployment(NULL_TELEMETRY))
    server, _cluster = _deployment(telemetry or _Recording())
    policy = parse_http_response(
        server.handle_bytes(_http(method="put_policy", value=POLICY.encode()), ALICE)
    ).policy_id
    server.handle_bytes(
        _http(method="put", key="doc", value=b"hello", policy_id=policy), ALICE, 2.0
    )
    items = [
        (_http(method="get", key="doc"), ALICE),
        (_http(method="get", key="missing"), BOB),
        (_http(method="get", key="doc"), EVE),
        (MALFORMED_HEAD, ALICE),
        (BAD_LENGTH, ALICE),
        (UNKNOWN_METHOD, ALICE),
    ]
    live = server.telemetry.enabled
    before = dict(server._m_responses.series()) if live else {}
    assert server.handle_batch(items, seed=3, now=4.0) == scripted[2:8]
    if live:
        after = server._m_responses.series()
        assert {
            key: after[key] - before.get(key, 0) for key in after
        } == {("200",): 1, ("404",): 1, ("403",): 1, ("400",): 3}
        assert server._m_requests.value == 2 + len(items)
        assert server._m_errors.series() == {("response",): 5}
