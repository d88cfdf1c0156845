"""The request-target parser against the stdlib parser it replaced.

``_reference_parse`` is ``parse_http_request`` as it stood at faa8494
(``urlparse``, ``parse_qs``, ``unquote``), kept here and nowhere under
``src/``.  Whatever ``build_http_request`` can emit, the two read the
same; ``TARGETS`` is every hand-written target on which they are meant
to differ, with what each one answers.
"""

from urllib.parse import parse_qs, unquote, urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import (
    _CONTENT_LENGTHS,
    METHODS,
    Request,
    build_http_request,
    parse_http_request,
    split_target,
)
from repro.core.webserver import WebServer
from repro.errors import RequestError
from tests.core.conftest import ALICE


def _reference_parse(raw: bytes, log_decoded_twice: bool = True) -> Request:
    """The parent's parser.  ``log_decoded_twice=False`` takes out its
    one defect a well-formed client can reach (satellite 1), so the
    rest of it can be compared over log keys that hold a ``%``."""
    try:
        head, _, body = raw.partition(b"\r\n\r\n")
        request_line, _, headers = head.partition(b"\r\n")
        verb, target, _version = request_line.decode().split(" ", 2)
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError(f"malformed HTTP request: {exc}") from exc
    if verb != "POST":
        raise RequestError(f"only POST is supported, got {verb}")
    declared = _CONTENT_LENGTHS.findall(headers)
    if declared and declared != [b"%d" % len(body)]:
        raise RequestError("Content-Length does not describe the body")
    parsed = urlparse(target)
    parts = [part for part in parsed.path.split("/") if part]
    if not parts:
        raise RequestError("missing method in URL path")
    method = parts[0]
    key = unquote("/".join(parts[1:])) if len(parts) > 1 else ""
    params = parse_qs(parsed.query)

    def single(name: str, default: str = "") -> str:
        values = params.get(name)
        return values[0] if values else default

    version_text = single("version")
    count_text = single("count")
    log_key = single("log")
    request = Request(
        method=method,
        key=key,
        value=body,
        policy_id=single("policy"),
        version=int(version_text) if version_text else None,
        asynchronous=single("async") in ("1", "true"),
        txid=single("txid"),
        operation_id=single("op"),
        log_key=unquote(log_key) if log_decoded_twice else log_key,
        scan_count=int(count_text) if count_text else 0,
    )
    request.validate()
    return request


def _outcome(parse, raw: bytes):
    """What a parser makes of ``raw``: a Request, or the exception type."""
    try:
        return parse(raw)
    # The parent's crashes (ValueError out of int() and urlsplit) are
    # outcomes this table names, so they are caught to be compared.
    except (RequestError, ValueError) as exc:
        return type(exc)


# -- whatever a client built, both parsers read alike -------------------------

#: Text that leans on what a target gives meaning to.
_text = st.lists(
    st.sampled_from(
        ["%", "%2F", "%25", "%4", "+", "/", ";", "?", "&", "=", "#", " ", "é"]
    )
    | st.text(max_size=3),
    max_size=6,
).map("".join)
_token = st.text("0123456789abcdef-._~", max_size=8)

_requests = st.builds(
    Request,
    method=st.one_of(st.sampled_from(sorted(METHODS)), st.just("frobnicate")),
    key=_text,
    value=st.binary(max_size=24),
    policy_id=_token,
    version=st.none() | st.integers(0, 10**18 - 1),
    asynchronous=st.booleans(),
    txid=_token,
    operation_id=_token,
    log_key=_text,
    scan_count=st.integers(0, 10**6),
)


@settings(max_examples=400, deadline=None)
@given(_requests)
def test_built_requests_parse_as_the_reference_parsed_them(request):
    raw = build_http_request(request)
    expected = _outcome(
        lambda doc: _reference_parse(doc, log_decoded_twice=False), raw
    )
    assert _outcome(parse_http_request, raw) == expected
    try:
        request.validate()
    except RequestError:
        assert expected is RequestError
    else:
        # Every field build_http_request carries comes back as sent.
        assert expected == request


@pytest.mark.parametrize(
    "log_key", ["a%2Fb", "100%25", "%41", "a%2525b", "%", "a+b", "a b/c;d?e&f=g#h"]
)
def test_log_key_is_decoded_once(log_key):
    """Satellite 1: the MAL policy reads the log object the client named.
    At faa8494 ``a%2Fb`` arrived as ``a/b`` — a different object."""
    sent = Request(method="get", key="k", log_key=log_key)
    assert parse_http_request(build_http_request(sent)) == sent


def test_the_reference_did_decode_it_twice():
    raw = build_http_request(Request(method="get", key="k", log_key="a%2Fb"))
    assert _reference_parse(raw).log_key == "a/b"


# -- where the two are meant to differ ----------------------------------------


def _get(key="k", **fields):
    return Request(method="get", key=key, **fields)


#: (target, what the new parser answers, what the parent answered).
TARGETS = [
    # satellite 1: one decode
    ("/get/k?log=a%252Fb", _get(log_key="a%2Fb"), _get(log_key="a/b")),
    # satellite 2: version and count are ASCII decimal digits or a 400
    ("/get/k?version=x", RequestError, ValueError),
    ("/scan/k?count=1e3", RequestError, ValueError),
    ("/get/k?version=%C3", RequestError, ValueError),
    ("/get/k?version=1.0", RequestError, ValueError),
    ("/get/k?version=" + "9" * 5000, RequestError, ValueError),
    ("/get/k?version=%2B5", RequestError, _get(version=5)),
    ("/get/k?version=+5", RequestError, _get(version=5)),  # '+' is a blank
    ("/get/k?version=5%20", RequestError, _get(version=5)),
    ("/get/k?version=5_0", RequestError, _get(version=50)),
    ("/get/k?version=-1", RequestError, _get(version=-1)),
    ("/get/k?version=%D9%A3", RequestError, _get(version=3)),  # U+0663
    ("/get/k?version=%C2%B2", RequestError, ValueError),  # U+00B2 isdigit()
    ("/get/k?version=007", _get(version=7), _get(version=7)),
    ("/get/k?version=" + "9" * 18, _get(version=10**18 - 1), _get(version=10**18 - 1)),
    ("/get/k?version=" + "1" * 19, RequestError, _get(version=int("1" * 19))),
    # satellite 3: nothing is cut off the key
    ("/get/a;b", _get("a;b"), _get("a")),
    ("/get/a;b/c", _get("a;b/c"), _get("a;b/c")),
    ("/get/a#b", RequestError, _get("a")),
    ("/get/k?log=x#y", RequestError, _get(log_key="x")),
    ("/get/k#", RequestError, _get()),
    ("/get/a\tb", _get("a\tb"), _get("ab")),
    # origin-form only: an absolute-form target is refused, like any
    # other that does not start with '/'
    ("http://host/get/k", RequestError, _get()),
    ("HTTPS://host:8443/get/a%2Fb?version=3", RequestError, _get("a/b", version=3)),
    ("http://host", RequestError, RequestError),
    ("http://[/get/k", RequestError, ValueError),  # "Invalid IPv6 URL"
    ("get/k", RequestError, _get()),
    ("get:k", RequestError, RequestError),
    ("*", RequestError, RequestError),
    ("", RequestError, RequestError),
    # a leading '//' is two empty segments, not an authority
    ("//get/k", _get(), RequestError),  # parent: method 'k' on host 'get'
    ("//a/", RequestError, RequestError),
    ("//[/get/k", RequestError, ValueError),  # method '[' is unknown
    ("/get//a//b/", _get("a/b"), _get("a/b")),
    ("/get/", RequestError, RequestError),
    ("/", RequestError, RequestError),
    # the query grammar both share
    ("/get/k?version=1&version=2", _get(version=1), _get(version=1)),
    ("/get/k?version=&log=", _get(), _get()),
    ("/get/k?version=&version=2", _get(version=2), _get(version=2)),
    ("/put/k?async", Request(method="put", key="k"), Request(method="put", key="k")),
    ("/put/k?async=true", Request(method="put", key="k", asynchronous=True),
     Request(method="put", key="k", asynchronous=True)),
    ("/get/k?&&log=x&", _get(log_key="x"), _get(log_key="x")),
    ("/get/k?log=a=b", _get(log_key="a=b"), _get(log_key="a=b")),
    ("/get/k?log=a;txid=b", _get(log_key="a;txid=b"), _get(log_key="a;txid=b")),
    ("/get/k?%6Cog=x", _get(log_key="x"), _get(log_key="x")),
    ("/get/a+b?log=a+b", _get("a+b", log_key="a b"), _get("a+b", log_key="a b")),
    ("/get/a&b=c", _get("a&b=c"), _get("a&b=c")),
    ("/get/a%3Fb?log=c?d", _get("a?b", log_key="c?d"), _get("a?b", log_key="c?d")),
    ("/get/%C3", _get("�"), _get("�")),
    ("/get/ké", _get("ké"), _get("ké")),
    ("/g%65t/k", RequestError, RequestError),  # the method is literal
]


def _rows(rows):
    """One pytest.param per row, named by its target (cut short)."""
    return [
        pytest.param(
            *row,
            id=row[0] if len(row[0]) < 40 else f"{row[0][:24]}..({len(row[0])})",
        )
        for row in rows
    ]


@pytest.mark.parametrize("target, expected, parent", _rows(TARGETS))
def test_hand_written_targets(target, expected, parent):
    raw = f"POST {target} HTTP/1.1\r\n\r\n".encode()
    assert _outcome(parse_http_request, raw) == expected
    assert _outcome(_reference_parse, raw) == parent


@pytest.mark.parametrize(
    "target",
    _rows((row[0],) for row in TARGETS if row[1] is RequestError),
)
def test_a_refused_target_is_a_400_not_a_crash(controller, target):
    """Satellite 2 through the front door: at faa8494 ``?version=x``
    raised ``ValueError`` out of ``handle_bytes`` to the transport."""
    raw = f"POST {target} HTTP/1.1\r\n\r\n".encode()
    reply = WebServer(controller).handle_bytes(raw, ALICE)
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")


def test_split_target_is_what_the_admin_surface_reads(controller):
    assert split_target("/_traces?limit=5&slow=1") == (
        "_traces", {"limit": "5", "slow": "1"}
    )
    server = WebServer(controller)
    health = server.handle_bytes(b"GET /_health?x=1 HTTP/1.1\r\n\r\n", ALICE)
    assert health.startswith(b"HTTP/1.1 200 OK\r\n")
    fragment = server.handle_bytes(b"GET /_health#x HTTP/1.1\r\n\r\n", ALICE)
    assert fragment.startswith(b"HTTP/1.1 400 Bad Request\r\n")
