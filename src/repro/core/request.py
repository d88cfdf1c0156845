"""Client request and response model (the REST surface, §4.1).

A Pesos POST request carries at most four parameters — method, key,
value, policy id — plus optional version/certificate/async extras.
:func:`parse_http_request` and :func:`render_http_response` provide the
actual HTTP framing for clients that speak bytes; the controller and
all benchmarks work on the structured :class:`Request` directly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import NamedTuple
from urllib.parse import quote, unquote, unquote_plus

from repro.errors import PesosError, RequestError


class MethodSpec(NamedTuple):
    """Everything the request path knows about one method."""

    #: ``validate`` refuses the request without an object key.
    needs_key: bool
    #: Eligible for the asynchronous interface (§4.1: put, update,
    #: delete, and transactions; GETs and session management are
    #: always synchronous).
    async_ok: bool
    #: Engine request lock: ``"w"`` exclusive, ``"r"`` shared, None =
    #: no request lock (transactions go through VLL; policies are
    #: content-addressed, so concurrent identical writes are idempotent).
    lock: str | None
    #: Admission priority class; higher is admitted first and shed
    #: last.  Writes and transaction control outrank reads; ``status``
    #: polls rank lowest (the result is buffered, polling again is free).
    priority: int
    #: Name of the :class:`~repro.core.controller.PesosController`
    #: method serving it.
    handler: str


#: The one method table: what the request handler accepts, and how each
#: layer of the request path treats it.  Everything else that needs a
#: per-method fact (``validate``, the engine's locks, admission's
#: priorities, controller dispatch) derives it from here.
METHOD_TABLE: dict[str, MethodSpec] = {
    "put": MethodSpec(True, True, "w", 2, "_handle_put"),
    "get": MethodSpec(True, False, "r", 1, "_handle_get"),
    "scan": MethodSpec(True, False, "r", 1, "_handle_scan"),
    "rmw": MethodSpec(True, False, "w", 2, "_handle_rmw"),
    "delete": MethodSpec(True, True, "w", 2, "_handle_delete"),
    "put_policy": MethodSpec(False, False, None, 2, "_handle_put_policy"),
    "get_policy": MethodSpec(False, False, None, 1, "_handle_get_policy"),
    "attest": MethodSpec(True, False, "r", 1, "_handle_attest"),
    "status": MethodSpec(False, False, None, 0, "_handle_status"),
    "create_tx": MethodSpec(False, False, None, 1, "_handle_create_tx"),
    "add_read": MethodSpec(True, False, None, 2, "_handle_add_read"),
    "add_write": MethodSpec(True, False, None, 2, "_handle_add_write"),
    "commit_tx": MethodSpec(False, True, None, 2, "_handle_commit_tx"),
    "abort_tx": MethodSpec(False, False, None, 2, "_handle_abort_tx"),
    "tx_results": MethodSpec(False, False, None, 1, "_handle_tx_results"),
}

METHODS = frozenset(METHOD_TABLE)
ASYNC_METHODS = frozenset(
    name for name, spec in METHOD_TABLE.items() if spec.async_ok
)


@dataclass
class Request:
    """One parsed client request."""

    method: str
    key: str = ""
    value: bytes = b""
    policy_id: str = ""
    version: int | None = None
    certificates: list = field(default_factory=list)
    asynchronous: bool = False
    txid: str = ""
    operation_id: str = ""
    log_key: str = ""
    #: Records one range scan covers (``scan`` requests only).
    scan_count: int = 0

    def validate(self) -> None:
        spec = METHOD_TABLE.get(self.method)
        if spec is None:
            raise RequestError(f"unknown method {self.method!r}")
        if self.asynchronous and not spec.async_ok:
            raise RequestError(
                f"method {self.method!r} does not support the async interface"
            )
        if spec.needs_key and not self.key:
            raise RequestError(f"{self.method} requires a key")
        if self.method == "scan" and self.scan_count < 1:
            raise RequestError("scan requires a positive record count")
        if self.method == "put_policy" and not self.value:
            raise RequestError("put_policy requires policy source as value")
        if self.method == "status" and not self.operation_id:
            raise RequestError("status requires an operation id")


@dataclass
class Response:
    """The controller's answer to one request."""

    status: int = 200
    value: bytes = b""
    error: str = ""
    version: int | None = None
    policy_id: str = ""
    operation_id: str = ""
    txid: str = ""
    extra: dict = field(default_factory=dict)
    #: Seconds the client should wait before retrying; rendered as a
    #: ``Retry-After`` header on 5xx responses (quorum degradation).
    retry_after: float | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def error_response(exc: PesosError) -> Response:
    """The one mapping of a failure to a response: its status, its
    message, and any ``Retry-After`` degradation hint it carries."""
    return Response(
        status=exc.status,
        error=str(exc),
        retry_after=getattr(exc, "retry_after", None),
    )


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------

# Any spelling a server might honour (case, space before the colon, a
# folded line) declares a length; to miss one is to skip the check.
_CONTENT_LENGTHS = re.compile(
    rb"(?im)^[ \t]*content-length[ \t]*:[ \t]*([^\r\n]*?)[ \t]*(?=\r|\Z)"
)


def split_target(target: str) -> tuple[str, dict[str, str]]:
    """The one reading of a request target: its path and parameters.

    Origin-form only: ``1*( "/" [ segment ] ) [ "?" pair *( "&" pair ) ]``,
    ``pair = name "=" value``.  The path comes back as its non-empty
    segments joined by ``/``, not yet percent-decoded; names and values
    come back decoded once, ``+`` a space, a pair with no value absent,
    the first of a repeated name winning.  ``;`` is an ordinary
    character; a ``#`` is refused, because a client keeps its fragment
    and one that arrives is part of a name the sender did not quote.
    """
    if not target.startswith("/") or "#" in target:
        raise RequestError("request target is not origin-form (or has a '#')")
    path, _, query = target.partition("?")
    params: dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if value:
                params.setdefault(unquote_plus(name), unquote_plus(value))
    path = path.strip("/")
    if "//" in path:
        path = "/".join(filter(None, path.split("/")))
    return path, params


def decimal_param(params: dict[str, str], name: str, default):
    """A parameter that is ASCII decimal digits and nothing else —
    at most eighteen, which ``int`` always takes and 2**63 holds."""
    text = params.get(name)
    if text is None:
        return default
    if not (text.isascii() and text.isdigit() and len(text) <= 18):
        raise RequestError(f"{name} must be a decimal number, got {text!r}")
    return int(text)


def parse_http_request(raw: bytes) -> Request:
    """Parse an HTTP/1.1 POST into a :class:`Request`.

    The URL path is ``/<method>/<key>``; query parameters carry policy
    id, version, async flag, txid, operation id and log key; the body
    is the value, whose length in decimal is what a ``Content-Length``
    header, when present, must say, once.
    """
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
        raise RequestError(
            f"Content-Length does not describe the {len(body)}-byte body"
        )
    path, params = split_target(target)
    method, _, key = path.partition("/")
    request = Request(method=method, key=unquote(key), value=body)
    if params:
        request.policy_id = params.get("policy", "")
        request.version = decimal_param(params, "version", None)
        request.asynchronous = params.get("async") in ("1", "true")
        request.txid = params.get("txid", "")
        request.operation_id = params.get("op", "")
        request.log_key = params.get("log", "")
        request.scan_count = decimal_param(params, "count", 0)
    request.validate()  # an empty path is the unknown method ''
    return request


#: The stdlib's phrases: what every status the program sends carried.
_REASONS = {status.value: status.phrase for status in HTTPStatus}


def render_http_response(response: Response) -> bytes:
    """Serialize a :class:`Response` as HTTP/1.1 bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    headers = [f"HTTP/1.1 {response.status} {reason}"]
    if response.version is not None:
        headers.append(f"X-Pesos-Version: {response.version}")
    if response.policy_id:
        headers.append(f"X-Pesos-Policy: {response.policy_id}")
    if response.operation_id:
        headers.append(f"X-Pesos-Operation: {response.operation_id}")
    if response.txid:
        headers.append(f"X-Pesos-Txid: {response.txid}")
    if response.error:
        headers.append(f"X-Pesos-Error: {quote(response.error)}")
    if response.retry_after is not None:
        headers.append(f"Retry-After: {response.retry_after:g}")
    if response.extra.get("warnings"):
        # Structured policy-verifier warnings, URL-quoted JSON: the
        # header survives the flat name/value transport unharmed.
        headers.append(
            "X-Pesos-Policy-Warnings: "
            + quote(json.dumps(response.extra["warnings"]), safe="")
        )
    if "scanned" in response.extra:
        headers.append(f"X-Pesos-Scanned: {response.extra['scanned']}")
    if "denied" in response.extra:
        headers.append(f"X-Pesos-Denied: {response.extra['denied']}")
    if "read_version" in response.extra:
        headers.append(
            f"X-Pesos-Read-Version: {response.extra['read_version']}"
        )
    body = response.value
    headers.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


def build_http_request(request: Request) -> bytes:
    """Serialize a :class:`Request` as HTTP bytes (client side)."""
    query = []
    if request.policy_id:
        query.append(f"policy={quote(request.policy_id, safe='')}")
    if request.version is not None:
        query.append(f"version={request.version}")
    if request.scan_count:
        query.append(f"count={request.scan_count}")
    if request.asynchronous:
        query.append("async=1")
    if request.txid:
        query.append(f"txid={quote(request.txid, safe='')}")
    if request.operation_id:
        query.append(f"op={quote(request.operation_id, safe='')}")
    if request.log_key:
        query.append(f"log={quote(request.log_key, safe='')}")
    path = f"/{request.method}"
    if request.key:
        path += f"/{quote(request.key, safe='')}"
    if query:
        path += "?" + "&".join(query)
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Content-Length: {len(request.value)}\r\n"
    )
    return head.encode() + b"\r\n" + request.value


def parse_http_response(raw: bytes) -> Response:
    """Parse HTTP response bytes back into a :class:`Response`."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        headers[name] = value
    extra = {}
    if "X-Pesos-Policy-Warnings" in headers:
        extra["warnings"] = json.loads(
            unquote(headers["X-Pesos-Policy-Warnings"])
        )
    if "X-Pesos-Scanned" in headers:
        extra["scanned"] = int(headers["X-Pesos-Scanned"])
    if "X-Pesos-Denied" in headers:
        extra["denied"] = int(headers["X-Pesos-Denied"])
    if "X-Pesos-Read-Version" in headers:
        extra["read_version"] = int(headers["X-Pesos-Read-Version"])
    return Response(
        status=status,
        value=body,
        version=(
            int(headers["X-Pesos-Version"])
            if "X-Pesos-Version" in headers
            else None
        ),
        policy_id=headers.get("X-Pesos-Policy", ""),
        operation_id=headers.get("X-Pesos-Operation", ""),
        txid=headers.get("X-Pesos-Txid", ""),
        error=unquote(headers.get("X-Pesos-Error", "")),
        retry_after=(
            float(headers["Retry-After"]) if "Retry-After" in headers else None
        ),
        extra=extra,
    )
