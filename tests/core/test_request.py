"""Request model and HTTP framing round-trips."""

import pytest

from repro.core.admission import DEFAULT_PRIORITIES, AdmissionConfig
from repro.core.controller import PesosController
from repro.core.engine import LOCK_MODES
from repro.core.request import (
    ASYNC_METHODS,
    METHOD_TABLE,
    METHODS,
    Request,
    Response,
    build_http_request,
    parse_http_request,
    parse_http_response,
    render_http_response,
)
from repro.errors import RequestError
from repro.telemetry.slo import _METHOD_CLASSES


def test_validate_accepts_basic_put():
    Request(method="put", key="k", value=b"v").validate()


def test_unknown_method_rejected():
    with pytest.raises(RequestError):
        Request(method="frobnicate").validate()


def test_put_requires_key():
    with pytest.raises(RequestError):
        Request(method="put", value=b"v").validate()


def test_async_only_for_write_methods():
    Request(method="put", key="k", asynchronous=True).validate()
    with pytest.raises(RequestError):
        Request(method="get", key="k", asynchronous=True).validate()


def test_status_requires_operation_id():
    with pytest.raises(RequestError):
        Request(method="status").validate()
    Request(method="status", operation_id="op-1").validate()


def test_put_policy_requires_source():
    with pytest.raises(RequestError):
        Request(method="put_policy").validate()


def test_attest_requires_key():
    with pytest.raises(RequestError):
        Request(method="attest").validate()
    Request(method="attest", key="obj").validate()


def test_http_request_roundtrip():
    original = Request(
        method="put",
        key="photos/cat.jpg",
        value=b"binary image data",
        policy_id="ph123",
        version=4,
        asynchronous=True,
        log_key="photos/cat.jpg.log",
    )
    wire = build_http_request(original)
    parsed = parse_http_request(wire)
    assert parsed.method == "put"
    assert parsed.key == "photos/cat.jpg"
    assert parsed.value == b"binary image data"
    assert parsed.policy_id == "ph123"
    assert parsed.version == 4
    assert parsed.asynchronous
    assert parsed.log_key == "photos/cat.jpg.log"


#: Ids that a query string would split, cut short or re-read if they
#: travelled unquoted.
AWKWARD_IDS = ["a&version=9", "a=b", "a+b", "a#frag", "100%", "two words",
               "&=+#% ", "tx-1f2e"]


@pytest.mark.parametrize("ident", AWKWARD_IDS)
def test_http_request_quotes_every_id_it_carries(ident):
    original = Request(
        method="put", key="k", value=b"v", policy_id=ident, txid=ident,
        operation_id=ident, log_key=ident,
    )
    parsed = parse_http_request(build_http_request(original))
    assert (parsed.policy_id, parsed.txid, parsed.operation_id, parsed.log_key) == (
        ident, ident, ident, ident,
    )
    assert parsed.version is None  # nothing smuggled in


def test_hex_ids_and_tx_tokens_quote_to_themselves():
    """The bytes of an ordinary request do not change with the quoting."""
    wire = build_http_request(Request(
        method="put", key="k", value=b"v", policy_id="0a" * 32,
        txid="tx-00000001", operation_id="op-7",
    ))
    assert wire.startswith(
        b"POST /put/k?policy=" + b"0a" * 32 + b"&txid=tx-00000001&op=op-7 HTTP/1.1\r\n"
    )


def test_http_request_minimal():
    parsed = parse_http_request(b"POST /get/mykey HTTP/1.1\r\n\r\n")
    assert parsed.method == "get"
    assert parsed.key == "mykey"
    assert parsed.version is None


def test_http_request_rejects_get_verb():
    with pytest.raises(RequestError):
        parse_http_request(b"GET /get/mykey HTTP/1.1\r\n\r\n")


def test_http_request_rejects_garbage():
    with pytest.raises(RequestError):
        parse_http_request(b"\xff\xfe not http")


def test_http_request_missing_method():
    with pytest.raises(RequestError):
        parse_http_request(b"POST / HTTP/1.1\r\n\r\n")


def _put_doc(*header_lines, body=b"hello"):
    head = b"".join(line + b"\r\n" for line in header_lines)
    return b"POST /put/doc HTTP/1.1\r\n" + head + b"\r\n" + body


def test_http_request_content_length_must_equal_the_body():
    """A declared length is checked, not ignored: a cut-off body or a
    body with a pipelined request behind it is not stored as the value."""
    assert parse_http_request(_put_doc(b"Content-Length: 5")).value == b"hello"
    assert parse_http_request(_put_doc(b"content-length:5 ")).value == b"hello"
    assert parse_http_request(_put_doc(b"Content-Length: 0", body=b"")).value == b""
    browser = (b"Host: pesos.example", b"Accept: */*", b"Content-Length : 5", b"X-a: b")
    assert parse_http_request(_put_doc(*browser)).value == b"hello"
    assert parse_http_request(_put_doc()).value == b"hello"  # absent: as before
    pipelined = b"hello" + _put_doc(b"Content-Length: 5", body=b"world")
    for refused in (
        _put_doc(b"Content-Length: 1024"),  # short body
        _put_doc(b"Content-Length: 5", body=pipelined),  # long body
        _put_doc(b"Content-Length: five"),
        _put_doc(b"Content-Length: -5"),
        _put_doc(b"Content-Length: 05"),
        _put_doc(b"Content-Length: 5, 5"),
        _put_doc(b"Content-Length:"),
        _put_doc(b"Content-Length: " + b"9" * 5000),
        _put_doc(b"Content-Length: 5", b"Content-Length: 5"),  # duplicated
        _put_doc(b"Content-Length: 5", b"CONTENT-LENGTH: 6"),
        _put_doc(*browser, body=b"hell"),  # not the only header
        _put_doc(b"Content-Length : 1024"),  # space before the colon
        _put_doc(b" Content-Length: 1024"),  # leading whitespace
        _put_doc(b"X-Pad: a", b"\tContent-Length: 1024"),  # obs-fold
    ):
        with pytest.raises(RequestError):
            parse_http_request(refused)


def test_http_response_roundtrip():
    original = Response(
        status=200,
        value=b"object bytes",
        version=7,
        policy_id="ph",
        operation_id="op-1",
        txid="tx-1",
    )
    parsed = parse_http_response(render_http_response(original))
    assert parsed.status == 200
    assert parsed.value == b"object bytes"
    assert parsed.version == 7
    assert parsed.policy_id == "ph"
    assert parsed.operation_id == "op-1"
    assert parsed.txid == "tx-1"


def test_http_error_response_roundtrip():
    original = Response(status=403, error="policy denies read on x")
    parsed = parse_http_response(render_http_response(original))
    assert parsed.status == 403
    assert parsed.error == "policy denies read on x"
    assert not parsed.ok


def test_response_ok_predicate():
    assert Response(status=200).ok
    assert Response(status=202).ok
    assert not Response(status=404).ok


# -- the method table ---------------------------------------------------------

#: A literal copy of the five per-method tables as they stood before
#: they were derived from ``METHOD_TABLE`` (commit c905a5a): method ->
#: (needs a key, async-eligible, engine lock mode, admission priority).
#: The handler column was the ``_handle_<name>`` naming convention.
_BEFORE_THE_TABLE = {
    "put": (True, True, "w", 2),
    "get": (True, False, "r", 1),
    "scan": (True, False, "r", 1),
    "rmw": (True, False, "w", 2),
    "delete": (True, True, "w", 2),
    "put_policy": (False, False, None, 2),
    "get_policy": (False, False, None, 1),
    "attest": (True, False, "r", 1),
    "status": (False, False, None, 0),
    "create_tx": (False, False, None, 1),
    "add_read": (True, False, None, 2),
    "add_write": (True, False, None, 2),
    "commit_tx": (False, True, None, 2),
    "abort_tx": (False, False, None, 2),
    "tx_results": (False, False, None, 1),
}


def test_every_per_method_table_names_the_same_methods():
    assert set(METHOD_TABLE) == METHODS == set(_BEFORE_THE_TABLE)
    # The SLO classes stay in repro.telemetry (import-free of
    # repro.core), so they are checked against the table, not derived.
    assert set(_METHOD_CLASSES) == METHODS


@pytest.mark.parametrize("method", sorted(_BEFORE_THE_TABLE))
def test_derived_lookups_answer_as_the_literal_tables_did(method):
    needs_key, async_ok, lock, priority = _BEFORE_THE_TABLE[method]
    assert (method in ASYNC_METHODS) == async_ok
    assert LOCK_MODES.get(method) == lock
    assert DEFAULT_PRIORITIES[method] == priority
    assert AdmissionConfig().priority_of(method) == priority
    assert _METHOD_CLASSES[method].endswith(f"/p{priority}")
    request = Request(
        method=method, value=b"v", scan_count=1, operation_id="op"
    )
    if needs_key:
        with pytest.raises(RequestError, match="requires a key"):
            request.validate()
    else:
        request.validate()
    assert callable(getattr(PesosController, METHOD_TABLE[method].handler))
