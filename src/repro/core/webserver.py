"""The embedded web server (the paper's mongoose stand-in, §3.1-§3.2).

Terminates client connections, parses HTTP POST requests, hands them
to the request handler, and renders responses — steps 2-3 of the
paper's request flow.  Two front-ends share the parsing logic:

- :meth:`WebServer.handle_bytes` — raw HTTP bytes in, raw HTTP bytes
  out, for clients that speak the wire format.
- :meth:`WebServer.accept` — establishes a mutually-authenticated
  secure channel (the TLS session) and returns a
  :class:`ClientConnection` that decrypts requests, authenticates the
  client by certificate fingerprint, and encrypts responses.

The server is also the admin surface for telemetry and operations:
``GET /_metrics`` returns the registry in Prometheus text format
(``?format=json`` for JSON), ``GET /_traces`` returns recent span
trees plus the slow-request log, and ``GET /_health`` reports
per-drive breaker state and quorum standing (HTTP 503 once the fleet
cannot meet the write quorum, so load balancers can eject the
instance).  Admin requests bypass request accounting so scrapes do not
distort the serving metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.controller import PesosController
from repro.core.request import (
    _REASONS,
    Request,
    Response,
    decimal_param,
    error_response,
    parse_http_request,
    render_http_response,
    split_target,
)
from repro.crypto.certs import KeyPair, TrustStore
from repro.crypto.channel import SecureChannel, establish_channel
from repro.errors import PesosError, RequestError
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    render_json,
    render_prometheus,
    render_traces_json,
)


class WebServer:
    """Connection handling + HTTP parsing in front of the controller."""

    def __init__(
        self,
        controller: PesosController,
        server_keys: KeyPair | None = None,
        client_trust: TrustStore | None = None,
        telemetry=None,
        admission=None,
    ):
        self.controller = controller
        self.server_keys = server_keys
        self.client_trust = client_trust
        #: Overload protection (:class:`repro.core.admission
        #: .AdmissionController`).  When set, the synchronous path rate
        #: limits per session before the controller runs, and
        #: :meth:`handle_batch` hands the same instance to its engine
        #: so the bounded queue and AIMD limiter govern dispatch.
        self.admission = admission
        if admission is not None:
            admission.attach(controller)
        if telemetry is None:
            # Share the controller's telemetry when it has a live one,
            # so /_metrics covers every layer in one registry.
            shared = controller.telemetry
            telemetry = shared if shared.enabled else Telemetry()
        self.telemetry = telemetry
        self._m_requests = telemetry.counter(
            "pesos_http_requests_total",
            "Client request cycles entered (admin scrapes excluded).",
        )
        self._m_responses = telemetry.counter(
            "pesos_http_responses_total",
            "Responses rendered, by HTTP status.",
            ("status",),
        )
        self._m_errors = telemetry.counter(
            "pesos_http_errors_total",
            "Error responses plus parse failures, by kind.",
            ("kind",),
        )
        self._m_bytes = telemetry.counter(
            "pesos_http_bytes_total",
            "Request/response bytes through the front-end, by direction.",
            ("direction",),
        )
        self._m_handshakes = telemetry.counter(
            "pesos_tls_handshakes_total",
            "Mutually-authenticated TLS sessions established.",
        )

    # -- plain HTTP front-end ---------------------------------------------

    def handle_bytes(
        self, raw: bytes, fingerprint: str, now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> bytes:
        """One request/response cycle over raw HTTP bytes.

        ``fingerprint`` identifies the authenticated client (in the
        TLS front-end it comes from the session's peer certificate).
        The cycle is :meth:`_parse`, :meth:`_serve` and rendering; a
        disabled telemetry has nothing to feed, so they run bare (the
        rule ``PesosController.handle`` follows), and a live one runs
        the same steps inside its spans and counters.
        """
        if raw.startswith(b"GET /_"):
            return self._handle_admin(raw)
        telemetry = self.telemetry
        if not telemetry.enabled:
            answer = self._parse(raw)
            if isinstance(answer, Request):
                answer = self._serve(answer, fingerprint, now)
            return render_http_response(answer)
        self._m_requests.inc()
        self._m_bytes.labels("in").inc(len(raw))
        request = None
        with telemetry.span("http.request", fingerprint=fingerprint) as root:
            try:
                answer = self._parse(raw, telemetry.span)
            # Deliberately broad: *any* non-protocol failure
            # (framing bug, codec crash) must be counted before it
            # propagates to the transport layer, and it is re-raised
            # unmodified — nothing is swallowed or leaked.
            # pesos: allow[core-no-swallow]
            except Exception:
                self._m_errors.labels("parse_failure").inc()
                root.set("error", "parse_failure")
                raise
            if isinstance(answer, Request):
                request = answer
                root.set("method", request.method)
                if request.key:
                    root.set("key", request.key)
                answer = self._serve(request, fingerprint, now, root)
            root.set("status", answer.status)
            with telemetry.span("http.render"):
                rendered = self._render(answer)
        if request is not None:
            # Fold the finished request into the SLO error budgets:
            # virtual duration when the tracer has a virtual clock
            # (benchmarks), wall seconds otherwise.  Sheds count as bad
            # events — the client did not get service.
            latency = root.virtual_duration
            if latency is None:
                latency = root.duration
            telemetry.record_request(
                request.method, answer.ok, latency, now, trace_id=root.trace_id
            )
        return rendered

    def _parse(self, raw: bytes, span=None) -> Request | Response:
        """The request ``raw`` carries, or the response that refuses it
        (under a live telemetry's ``span`` factory, after the refusal
        has crossed the ``http.parse`` span)."""
        try:
            if span is None:
                return parse_http_request(raw)
            with span("http.parse", bytes=len(raw)):
                return parse_http_request(raw)
        except PesosError as exc:
            return error_response(exc)

    def _serve(
        self, request: Request, fingerprint: str, now: float, root=None
    ) -> Response:
        """Admit, then handle; a live ``root`` span learns of a shed."""
        if self.admission is not None:
            decision = self.admission.check(request, fingerprint, now)
            if not decision.admitted:
                # Shed before any side effect: the controller never
                # sees the request, so retrying is always safe.
                if root is not None:
                    root.set("shed", decision.reason)
                return decision.to_response()
        try:
            return self.controller.handle(request, fingerprint, now)
        except PesosError as exc:
            return error_response(exc)

    def _render(self, response: Response) -> bytes:
        """Count a response, then serialize it."""
        self._m_responses.labels(str(response.status)).inc()
        if not response.ok:
            self._m_errors.labels("response").inc()
        rendered = render_http_response(response)
        self._m_bytes.labels("out").inc(len(rendered))
        return rendered

    # -- concurrent batch front-end ---------------------------------------

    def handle_batch(
        self,
        items: list[tuple[bytes, str]],
        seed: int = 0,
        workers: int = 8,
        now: float = 0.0,  # pesos: allow[det-default-clock]
    ) -> list[bytes]:
        """Serve many raw-HTTP requests concurrently; responses in order.

        ``items`` is a list of ``(raw_bytes, fingerprint)`` pairs —
        one per client connection with a request pending.  Requests are
        parsed on the main thread (parse failures answer inline and
        never reach the engine), then run as green threads on a
        :class:`~repro.core.engine.ConcurrentEngine` whose dispatch
        order is fixed by ``seed``; overlapping requests preempt each
        other at every drive operation exactly as under real load.
        """
        from repro.core.engine import ConcurrentEngine

        answers: list[Request | Response] = []
        for raw, _fingerprint in items:
            self._m_requests.inc()
            self._m_bytes.labels("in").inc(len(raw))
            answers.append(self._parse(raw))
        parsed = [
            index for index, answer in enumerate(answers)
            if isinstance(answer, Request)
        ]
        with ConcurrentEngine(
            self.controller,
            seed=seed,
            hardware_threads=workers,
            admission=self.admission,
        ) as engine:
            for index in parsed:
                engine.submit(answers[index], items[index][1], now=now)
            for index, response in zip(parsed, engine.run()):
                answers[index] = response
        return [self._render(response) for response in answers]

    # -- admin surface ----------------------------------------------------

    def _handle_admin(self, raw: bytes) -> bytes:
        """Serve ``/_health``, ``/_metrics``, ``/_traces``, ``/_slo``,
        and ``/_audit``."""
        # ``raw`` starts ``GET /_``, so the line has a second word.
        target = raw.split(b"\r\n", 1)[0].decode("latin-1").split(" ")[1]
        try:
            path, params = split_target(target)
            limit = decimal_param(params, "limit", None)
        except RequestError as exc:
            return _admin_response(400, "text/plain", f"{exc}\n".encode())
        if path == "_health":
            # Health must answer even with telemetry disabled: it is
            # what the load balancer polls when things go wrong.
            report = self.controller.health()
            slo = self.telemetry.slo
            if slo is not None:
                # Fold budget burn into the verdict: a store meeting
                # quorum but hemorrhaging its error budget is not "ok".
                severity = ("ok", "degraded", "critical")
                slo_status = slo.health_status()
                report["slo"] = {
                    "status": slo_status,
                    "worst_state": slo.worst_state(),
                }
                report["status"] = max(
                    report["status"], slo_status, key=severity.index
                )
            if self.admission is not None:
                report["admission"] = self.admission.snapshot()
            status = 503 if report["status"] == "critical" else 200
            body = json.dumps(report, sort_keys=True).encode() + b"\n"
            return _admin_response(status, "application/json", body)
        if path == "_audit":
            # The audit chain is a security artifact, not telemetry: it
            # answers even when metrics are off (it is config-gated by
            # ``ControllerConfig.audit_log_size`` instead).
            auditor = self.controller.auditor
            if auditor is None:
                return _admin_response(
                    503, "text/plain", b"audit log disabled\n"
                )
            verify = params.get("verify", "0") != "0"
            snapshot = auditor.snapshot(limit=limit or 64, verify=verify)
            status = 200
            if verify and not snapshot["verification"]["ok"]:
                status = 500  # the chain itself is the failing component
            body = json.dumps(snapshot, sort_keys=True).encode() + b"\n"
            return _admin_response(status, "application/json", body)
        if not self.telemetry.enabled:
            return _admin_response(
                503, "text/plain", b"telemetry disabled\n"
            )
        if path == "_metrics":
            if params.get("format") == "json":
                body = render_json(self.telemetry.registry).encode()
                return _admin_response(200, "application/json", body)
            body = render_prometheus(self.telemetry.registry).encode()
            return _admin_response(
                200, "text/plain; version=0.0.4; charset=utf-8", body
            )
        if path == "_slo":
            slo = self.telemetry.slo
            if slo is None:
                return _admin_response(
                    503, "text/plain", b"no slo engine attached\n"
                )
            if params.get("format") == "prometheus":
                # The engine's own four families, whatever else the
                # live registry holds.
                own = MetricsRegistry()
                slo.register(own)
                body = render_prometheus(own).encode()
                return _admin_response(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
            body = json.dumps(slo.snapshot(), sort_keys=True).encode() + b"\n"
            return _admin_response(200, "application/json", body)
        if path == "_traces":
            slow_only = params.get("slow", "0") != "0"
            body = render_traces_json(
                self.telemetry.tracer, limit or 32, slow_only=slow_only
            ).encode()
            return _admin_response(200, "application/json", body)
        return _admin_response(404, "text/plain", b"unknown admin path\n")

    # -- TLS front-end ----------------------------------------------------------

    def accept(
        self, client_keys: KeyPair, now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> tuple["ClientConnection", SecureChannel]:
        """Run the handshake with a connecting client.

        Returns the server-side connection object and the *client's*
        channel endpoint (which a real deployment would hold on the
        other end of the network).
        """
        if self.server_keys is None or self.client_trust is None:
            raise PesosError("server has no TLS identity configured")
        server_trust = self.client_trust
        client_trust = TrustStore()
        # The client must be able to verify the server certificate; in
        # tests/examples both sides trust the same roots.
        client_trust.authorities = list(server_trust.authorities)
        with self.telemetry.span("tls.handshake"):
            client_end, server_end = establish_channel(
                initiator=client_keys,
                responder=self.server_keys,
                initiator_trust=client_trust,
                responder_trust=server_trust,
                now=now,
            )
        self._m_handshakes.inc()
        return ClientConnection(server=self, channel=server_end), client_end


def _admin_response(status: int, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    return head.encode() + b"\r\n" + body


@dataclass
class ClientConnection:
    """One authenticated TLS session terminated inside the enclave."""

    server: WebServer
    channel: SecureChannel
    requests_served: int = field(default=0)

    @property
    def fingerprint(self) -> str:
        return self.channel.peer_fingerprint

    def serve(self, encrypted_request: bytes, now: float = 0.0) -> bytes:  # pesos: allow[det-default-clock]
        """Decrypt, execute, and encrypt one request record."""
        raw = self.channel.recv(encrypted_request)
        response = self.server.handle_bytes(raw, self.fingerprint, now)
        self.requests_served += 1
        return self.channel.send(response)
