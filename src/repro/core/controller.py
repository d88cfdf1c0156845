"""The Pesos controller (§3).

One object owns the full request path: session management, the policy
evaluator, cache regions, the asynchronous API, the VLL transaction
manager, and the encrypted object store over Kinetic drives.
:meth:`PesosController.handle` is the single entry point the
web-server layer (and every benchmark) calls per request; it reaches
the handlers through the method table in :mod:`repro.core.request`.

Bootstrap (§3.1): :meth:`PesosController.launch` runs the paper's
deployment flow — launch the enclave, remotely attest against the
attestation service to receive runtime secrets, connect to every
configured Kinetic drive with the factory credentials, and take
exclusive control by replacing all drive accounts with a single
controller-only admin identity.  It is also the restart: drives that
reject the factory account are ours already, and with freshness on
every boot checks the fleet against the platform's pin.
"""

from __future__ import annotations

import json
import secrets as _secrets
import time as _time
from dataclasses import dataclass, field, replace

from repro.core.antientropy import AntiEntropyRepairer
from repro.core.asyncapi import AsyncTracker
from repro.core.cache import CacheConfig, CacheManager
from repro.core.effects import (
    COPY,
    EffectsRecorder,
    NullRecorder,
    POLICY_CHECK,
    POLICY_COMPILE,
    POLICY_LOAD,
    transitions,
)
from repro.core.request import METHOD_TABLE, Request, Response, error_response
from repro.core.session import Session, SessionManager
from repro.core.freshness import FreshnessAuthority, pin_new_fleet
from repro.core.ssdcache import SimulatedSsd, SsdCacheTier
from repro.core.store import ObjectStore, StoredMeta, VersionMeta
from repro.core.txn import Transaction, VllManager
from repro.errors import (
    ConfigurationError,
    ForkDetected,
    IntegrityError,
    KineticAuthError,
    ObjectNotFound,
    PesosError,
    PolicyDenied,
    PolicyError,
    RequestError,
    TransactionError,
)
from repro.kinetic.protocol import DEMO_IDENTITY, DEMO_KEY, Role
from repro.policy.binary import CompiledPolicy
from repro.policy.compiled import Decision, PolicyEngine, compiled_form
from repro.policy.compiler import compile_source
from repro.policy.context import EvalContext, Facts, RequestInputs, VersionInfo
from repro.sgx.attestation import attest_and_provision
from repro.sgx.auditlog import AuditLog
from repro.telemetry import NULL_TELEMETRY


#: Suffix used to resolve the ``log`` reference when the request does
#: not name a log object explicitly (MAL convention).
LOG_SUFFIX = ".log"
#: Upper bound on records one ``scan`` request may cover; larger
#: requests are clamped, never refused (YCSB-E scan lengths are
#: client-chosen, the enclave bounds its own work).
MAX_SCAN_COUNT = 1000
#: Journal keys repaired per anti-entropy pass.
ANTI_ENTROPY_BATCH = 4
#: Undrained effect tuples kept: the DES drains per request and never
#: comes near it; a front end that never drains stops growing here.
EFFECTS_BACKLOG = 8192


@dataclass
class ControllerConfig:
    """Tunables for one controller instance (the list is test-pinned)."""

    # -- the paper's own ablations (§6) ---------------------------------
    replication_factor: int = 1
    keep_history: bool = True
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Disable policy checking entirely (the paper's "without policy
    #: enforcement" baseline used in §6.2).
    enforce_policies: bool = True
    # -- set differently by more than one bench or example --------------
    #: Blobs the untrusted-SSD cache tier's device holds
    #: (see :mod:`repro.core.ssdcache`); None disables the tier.
    ssd_cache_entries: int | None = None
    #: Replicas that must persist a write before it is acknowledged;
    #: None means every replica of the placement (§3.2 write-through).
    write_quorum: int | None = None
    #: Retained records in the tamper-evident policy-decision audit
    #: chain (:mod:`repro.sgx.auditlog`); None disables auditing and
    #: keeps the policy hot path free of hashing.
    audit_log_size: int | None = None
    #: Root object metadata in an authenticated dictionary pinned by a
    #: sealed monotonic counter (:mod:`repro.core.freshness`): reads
    #: check each replica against the pinned leaf, not version numbers,
    #: and startup refuses to serve after fork detection.  On by
    #: default, so the controller needs its ``enclave``; the wall
    #: benchmark names it, so it stays until one trust path is left.
    freshness_enabled: bool = True
    # -- kept only because the seeded chaos suites (the correctness
    # oracle) record outcomes against their values ----------------------
    #: Consecutive per-drive failures before its circuit breaker opens,
    #: and store operations to wait before a half-open probe.
    breaker_threshold: int = 3
    breaker_cooldown_ops: int = 64
    #: Pump one anti-entropy repair pass every N handled requests;
    #: None disables the background loop (tests pump it directly).
    anti_entropy_interval: int | None = None


def attestation_statement(
    key: str,
    version: int,
    content_hash: str,
    policy_hash: str,
    policy_id: str,
    timestamp: float,
) -> bytes:
    """Canonical byte encoding of one storage attestation."""
    return json.dumps(
        {
            "key": key,
            "version": version,
            "content_hash": content_hash,
            "policy_hash": policy_hash,
            "policy_id": policy_id,
            "timestamp": timestamp,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def verify_attestation(statement: bytes, signature: bytes, public_key) -> dict:
    """Client-side check of a storage attestation.

    Returns the parsed statement; raises on a bad signature.
    """
    if not public_key.verify(statement, signature):
        raise IntegrityError("attestation signature invalid")
    return json.loads(statement)


def _accepts(client) -> bool:
    """Whether the drive still knows the client's identity."""
    try:
        client.noop()
    except KineticAuthError:
        return False
    return True


class PesosController:
    """The trusted controller running inside the enclave."""

    def __init__(
        self,
        clients: list,
        storage_key: bytes | None = None,
        config: ControllerConfig | None = None,
        authority_keys: dict | None = None,
        effects: EffectsRecorder | None = None,
        signing_keys=None,
        telemetry=None,
        enclave=None,
    ):
        self.config = config or ControllerConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        #: The effects ledger: a live telemetry's or the caller's (the
        #: DES); otherwise it keeps nothing.
        self.effects = effects or (
            EffectsRecorder(registry=self.telemetry.registry)
            if self.telemetry.enabled else NullRecorder()
        )
        self.caches = CacheManager(self.config.cache, telemetry=self.telemetry)
        self.sessions = SessionManager()
        self.async_tracker = AsyncTracker()
        #: The policy evaluator: compiled closures + decision cache.
        self.policy_engine = PolicyEngine()
        #: Tamper-evident policy-decision trail (``GET /_audit``).
        #: Enabled by config, not by telemetry: the chain is a security
        #: artifact and must exist (and stay deterministic) even when
        #: metrics are off.
        self.auditor: AuditLog | None = None
        if self.config.audit_log_size:
            self.auditor = AuditLog(
                capacity=self.config.audit_log_size,
                telemetry=self.telemetry,
            )
        self.store = ObjectStore(
            clients,
            storage_key or _secrets.token_bytes(32),
            replication_factor=self.config.replication_factor,
            keep_history=self.config.keep_history,
            effects=self.effects,
            telemetry=self.telemetry,
            write_quorum=self.config.write_quorum,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown_ops=self.config.breaker_cooldown_ops,
        )
        if self.config.ssd_cache_entries:
            #: The untrusted SSD below the enclave caches (paper future
            #: work; §8), read and written by the store.
            self.store.ssd = SsdCacheTier(
                SimulatedSsd(capacity=self.config.ssd_cache_entries),
                effects=self.effects,
                telemetry=self.telemetry,
            )
        self.anti_entropy = AntiEntropyRepairer(
            self.store, telemetry=self.telemetry
        )
        #: Rollback/fork protection (:mod:`repro.core.freshness`):
        #: created before the store is wired to it, so the bootstrap
        #: rebuild reads raw quorum state.  A forked authority stays
        #: attached to the controller (health must report it) but is
        #: never attached to the store — the request gate refuses
        #: service before any read happens.
        self.freshness = None
        if self.config.freshness_enabled:
            if enclave is None:
                raise ConfigurationError("freshness needs the enclave")
            self.freshness = FreshnessAuthority(
                enclave, telemetry=self.telemetry, auditor=self.auditor
            )
            self.freshness.bootstrap(self.store)
            if not self.freshness.forked:
                self.store.freshness = self.freshness
        else:
            # Bootstrap's listing, no tree: the directory answers "absent".
            self.store._list()
        #: Public keys of external authorities (time servers, group
        #: CAs) by fingerprint, available to certificateSays.
        self.authority_keys = dict(authority_keys or {})
        #: The per-key lock table and transaction queue.  Commits go
        #: through it on every path; the per-request holds are idle
        #: (and free) under the sequential request path and taken by
        #: the concurrent engine, so overlapping requests on the same
        #: object stay serializable.
        self.txns = VllManager(
            self._execute_transaction, telemetry=self.telemetry
        )
        self.requests_handled = 0
        #: Requests inside :meth:`handle` that hold an index into
        #: ``effects.events`` (green threads overlap at drive I/O).
        self._counting = 0
        #: Controller identity used to sign storage attestations (§1:
        #: "cryptographic attestation for the stored objects and their
        #: associated policies").  A :class:`repro.crypto.certs.KeyPair`.
        self.signing_keys = signing_keys
        self._m_ops = self.telemetry.counter(
            "pesos_controller_requests_total",
            "Requests handled by the controller, by method and outcome.",
            ("method", "outcome"),
        )
        self._m_denied = self.telemetry.counter(
            "pesos_policy_denials_total",
            "Requests refused by policy evaluation, by operation.",
            ("operation",),
        )
        self._h_policy_check = self.telemetry.histogram(
            "pesos_policy_check_seconds",
            "Wall time evaluating one compiled policy.",
        )
        self._h_policy_compile = self.telemetry.histogram(
            "pesos_policy_compile_seconds",
            "Wall time compiling policy source to the binary format.",
        )
        self._m_transitions = self.telemetry.counter(
            "pesos_sgx_transitions_total",
            "Estimated enclave transitions (async syscall submissions) "
            "per the cost model: 2 per client socket pair, 2 per drive "
            "frame, 1 per SSD-tier access.",
            ("reason",),
        )
        self._publish_derived()

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def launch(
        cls,
        binary,
        platform,
        attestation_service,
        cluster,
        config: ControllerConfig | None = None,
        authority_keys: dict | None = None,
        telemetry=None,
    ) -> "PesosController":
        """Full §3.1 bootstrap: attest, connect, lock out everyone else."""
        config = config or ControllerConfig()
        enclave = platform.launch(binary)
        provided = attest_and_provision(attestation_service, platform, enclave)
        storage_key = bytes.fromhex(provided["storage_key"])
        admin_identity = provided["disk_identity"]
        admin_key = bytes.fromhex(provided["disk_hmac_key"])

        # Connect with factory credentials, then atomically replace the
        # account table with our single admin account on every drive
        # still on them — locking out all other users, including the
        # cloud provider.  A fleet taken over whole is new: pin it empty.
        factory = [
            client
            for client in cluster.connect_all(DEMO_IDENTITY, DEMO_KEY)
            if _accepts(client)
        ]
        if config.freshness_enabled and len(factory) == len(cluster):
            pin_new_fleet(enclave)
        for client in factory:
            # Provisioning the drive's account table necessarily sends
            # the admin HMAC credential over the wire: this is the
            # Kinetic security-setup protocol itself (done once, under
            # the factory identity, before any client traffic).
            # pesos: allow[taint/wire-frame]
            client.set_security([(admin_identity, admin_key, Role.all())])
        clients = cluster.connect_all(admin_identity, admin_key)
        return cls(
            clients,
            storage_key=storage_key,
            config=config,
            authority_keys=authority_keys,
            telemetry=telemetry,
            enclave=enclave,
        )

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(
        self, request: Request, fingerprint: str, now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> Response:
        """Execute one authenticated client request."""
        self.requests_handled += 1
        if self.config.anti_entropy_interval:
            self._pump_anti_entropy()
        if len(self.effects.events) > EFFECTS_BACKLOG and not self._counting:
            # A request boundary with nobody mid-count: what no consumer
            # drained by now, none will.  The per-kind totals persist.
            self.effects.drain()
        telemetry = self.telemetry
        if not telemetry.enabled:
            # Uninstrumented fast path: no span, no counters, so the
            # wall ledger sees no telemetry cost.
            return self._serve(request, fingerprint, now)
        events_before = len(self.effects.events)
        self._counting += 1
        try:
            with telemetry.span(
                "controller.handle", method=request.method, now=now
            ) as span:
                if request.key:
                    span.set("key", request.key)
                response = self._serve(request, fingerprint, now)
                span.set("status", response.status)
                if response.ok:
                    outcome = "ok"
                elif response.status == 403:
                    outcome = "denied"
                else:
                    outcome = "error"
                self._m_ops.labels(request.method, outcome).inc()
                self._count_transitions(events_before)
        finally:
            self._counting -= 1
        return response

    def _serve(
        self, request: Request, fingerprint: str, now: float
    ) -> Response:
        """The request body: gate, validate, session, dispatch."""
        try:
            self._freshness_gate(now)
            request.validate()
            session = self.sessions.connect(fingerprint, now=now)
            session.touch(now)
            if request.asynchronous:
                return self._handle_async(request, session, now)
            return self._dispatch(request, session, now)
        except PesosError as exc:
            return error_response(exc)

    def _freshness_gate(self, now: float) -> None:
        """Refuse every request while fork detection holds the line.

        Also stamps the authority's virtual clock so pin records and
        health figures carry the request's deterministic timestamp.
        """
        if self.freshness is None:
            return
        self.freshness.vnow = now
        if self.freshness.forked:
            raise ForkDetected(
                f"controller refuses to serve: {self.freshness.fork_reason}"
            )

    def _pump_anti_entropy(self) -> None:
        """Run one repair pass every ``anti_entropy_interval`` requests.

        The synchronous stand-in for a background maintenance thread;
        repair failures never surface into the client request being
        served.
        """
        if self.requests_handled % self.config.anti_entropy_interval:
            return
        if not len(self.store.journal):
            return
        if self.freshness is not None and self.freshness.forked:
            # A repair pass writes replicas by the unverified
            # newest-of-quorum rule; a forked controller writes nothing.
            return
        try:
            self.anti_entropy.run_once(max_keys=ANTI_ENTROPY_BATCH)
        except PesosError:
            pass

    def health(self) -> dict:
        """Operator health report served at ``GET /_health``."""
        report = self.store.health_snapshot()
        report["requests_handled"] = self.requests_handled
        report["anti_entropy_runs"] = self.anti_entropy.runs
        if self.freshness is not None:
            report["freshness"] = self.freshness.snapshot()
            if self.freshness.forked:
                # A detected fork outranks drive health: the fleet may
                # be perfectly reachable and still be lying.
                report["status"] = "critical"
        return report

    def _count_transitions(self, events_before: int) -> None:
        """Count the enclave transitions this request's effects imply."""
        counts = transitions(self.effects.events[events_before:])
        for reason, count in counts.items():
            if count:
                self._m_transitions.labels(reason).inc(count)

    def _publish_derived(self) -> None:
        """Gauges and counters read off live state at scrape time."""
        derived = self.telemetry.derived
        derived(
            "pesos_sessions_active",
            "gauge",
            "Client sessions currently tracked.",
            lambda: len(self.sessions),
        )
        derived(
            "pesos_async_results_discarded_total",
            "counter",
            "Async result-buffer evictions, by entry state at "
            "eviction time.",
            lambda: [
                ("pending", self.async_tracker.discarded_pending),
                (
                    "done",
                    self.async_tracker.discarded
                    - self.async_tracker.discarded_pending,
                ),
            ],
            ("state",),
        )
        derived(
            "pesos_policy_decision_cache_events_total",
            "counter",
            "Policy decision-cache events.",
            lambda: [
                ("hit", self.policy_engine.decisions.stats.hits),
                ("miss", self.policy_engine.decisions.stats.misses),
                ("expired", self.policy_engine.decisions.stats.expired),
            ],
            ("event",),
        )
        derived(
            "pesos_async_completed_after_evict_total",
            "counter",
            "Async operations whose finished result arrived after "
            "its buffer entry was evicted (ran, result expired).",
            lambda: self.async_tracker.completed_after_evict,
        )

    def _dispatch(
        self, request: Request, session: Session, now: float
    ) -> Response:
        return _HANDLERS[request.method](self, request, session, now)

    def _handle_async(
        self, request: Request, session: Session, now: float
    ) -> Response:
        entry = self.async_tracker.begin(session.fingerprint)
        session.operations.append(entry.operation_id)
        # Execute now in the functional model; the benchmarks account
        # the deferred completion in virtual time.
        try:
            result = self._dispatch(request, session, now)
        except PesosError as exc:
            result = error_response(exc)
        if not self.async_tracker.complete(entry.operation_id, result):
            # The result buffer already evicted this entry: the write
            # ran (and may have been applied), but the client can never
            # learn its outcome — only re-submit.  Leave a span event so
            # acked-write audits can tell "ran, result expired" apart
            # from "never ran".
            with self.telemetry.span(
                "async.completed_after_evict",
                operation_id=entry.operation_id,
                status=result.status,
            ):
                pass
        return Response(status=202, operation_id=entry.operation_id)

    def _handle_status(
        self, request: Request, session: Session, now: float
    ) -> Response:
        entry = self.async_tracker.query(
            request.operation_id, session.fingerprint
        )
        if not entry.done:
            return Response(status=202, operation_id=entry.operation_id)
        inner: Response = entry.result
        inner.operation_id = entry.operation_id
        return inner

    # ------------------------------------------------------------------
    # Metadata and policy plumbing
    # ------------------------------------------------------------------

    def _get_meta(self, key: str) -> StoredMeta | None:
        return self.caches.get_meta(key) or self._load_meta(key)

    def _load_meta(self, key: str) -> StoredMeta | None:
        """A keys-region miss: the store (the SSD tier, then the drives)."""
        meta = self.store.read_meta(key)
        if meta is not None:
            self.caches.put_meta(key, meta)
        return meta

    def _view(self, key: str) -> StoredMeta | None:
        """What a check sees of an object it names besides ``this``:
        its record, if it exists."""
        meta = self._get_meta(key)
        return meta if meta is not None and meta.exists else None

    def _existing_meta(self, key: str) -> StoredMeta:
        meta = self.caches.get_meta(key) or self._load_meta(key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {key!r}")
        return meta

    def _load_policy(self, policy_id: str) -> CompiledPolicy | None:
        policy = self.caches.get_policy(policy_id)
        if policy is not None:
            return policy
        blob = self.store.read_policy(policy_id)
        if blob is None:
            return None
        policy = CompiledPolicy.from_bytes(blob)
        self.effects.record(POLICY_LOAD, len(blob))
        self.caches.put_policy(policy_id, policy)
        return policy

    def _governing_policy(self, policy_id: str) -> CompiledPolicy | None:
        """The policy an existing object's metadata binds it to.

        The binding is the enforcement: a record no replica can produce
        refuses the request — a storage fault (500), not the caller's
        denial — where returning ``None`` would waive the check.
        """
        policy = self._load_policy(policy_id)
        if policy is None and self.config.enforce_policies:
            raise PolicyError(
                f"policy {policy_id!r} is bound but cannot be loaded"
            )
        return policy

    def _inputs(
        self, meta: StoredMeta, request: Request, session: Session,
        now: float,
    ) -> RequestInputs:
        """What a check of ``meta``'s key brings before any context is
        built: all the decision cache reads, with ``meta`` the view of
        ``this`` (under None while it does not exist)."""
        this_id = meta.key if meta.exists else None
        return RequestInputs(
            session.fingerprint,
            this_id,
            request.log_key or meta.key + LOG_SUFFIX,
            request.version, request.certificates, session.nonce, now,
            {this_id: meta}, self._view,
        )

    def _context(
        self, operation: str, inputs: RequestInputs, pending=None
    ) -> EvalContext:
        """The full context over ``inputs`` and the records it holds,
        built only to compute a verdict: an uncacheable policy or a
        decision-cache miss."""
        # The context only writes its key registry while it iterates the
        # presented certificates: with none, the controller's own
        # registry and the request's (empty) list are shared, not copied.
        presented = inputs.certificates
        return EvalContext(
            operation=operation,
            session_key=inputs.session_key,
            this_id=inputs.this_id,
            log_id=inputs.log_id,
            request_version=inputs.request_version,
            objects=inputs.objects,
            lookup=inputs.lookup,
            load_facts=self._facts,
            pending=pending,
            certificates=list(presented) if presented else presented,
            key_registry=(
                dict(self.authority_keys) if presented else self.authority_keys
            ),
            now=inputs.now,
            nonce=inputs.nonce,
        )

    def _evaluate(
        self, operation: str, policy: CompiledPolicy, inputs, build
    ) -> Decision:
        """One evaluation performed: the engine's verdict (served from
        the decision cache, or computed over ``build()``), timed, one
        ``POLICY_CHECK``."""
        evaluate = self.policy_engine.evaluate
        if self.telemetry.enabled:
            started = _time.perf_counter()
            with self.telemetry.span("policy.check", operation=operation):
                decision = evaluate(policy, operation, inputs, build)
            self._h_policy_check.observe(_time.perf_counter() - started)
        else:
            decision = evaluate(policy, operation, inputs, build)
        self.effects.record(POLICY_CHECK, decision.predicates_evaluated)
        return decision

    def _settle(
        self, policy_hash: str, decision: Decision, session_key: str,
        key: str, now: float,
    ) -> bool:
        """Audit ``decision`` on ``key``, count a denial; True if granted."""
        if self.auditor is not None:
            self.auditor.record_decision(
                decision, policy_hash, session_key, key, now
            )
        if not decision.granted:
            self._m_denied.labels(decision.operation).inc()
        return decision.granted

    def _check_policy(
        self, operation: str, policy: CompiledPolicy, inputs, build
    ) -> None:
        key = inputs.this_id or inputs.log_id
        decision = self._evaluate(operation, policy, inputs, build)
        if not self._settle(
            policy.policy_hash(), decision, inputs.session_key, key, inputs.now
        ):
            raise PolicyDenied(f"policy denies {operation} on {key}")

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------

    def _authorize_existing(
        self,
        operation: str,
        key: str,
        request: Request,
        session: Session,
        now: float,
    ) -> StoredMeta:
        """Metadata of ``key`` once its policy grants ``operation``.

        404 when the object does not exist, 403 when its policy denies
        the caller; the context always carries ``request``'s
        certificates, whichever record ``key`` names.
        """
        meta = self._existing_meta(key)
        if self.config.enforce_policies and meta.policy_id:
            policy = self._governing_policy(meta.policy_id)
            inputs = self._inputs(meta, request, session, now)
            self._check_policy(
                operation, policy, inputs,
                lambda: self._context(operation, inputs),
            )
        return meta

    def _authorize_update(
        self, request: Request, session: Session, now: float
    ) -> tuple[StoredMeta, str, str]:
        """Resolve and authorise one write, with no side effects.

        Returns the object's metadata (a fresh record for a new key)
        and the id and hash of the policy the new version will carry.
        A transaction runs this for all its writes before applying
        any, so a refusal here leaves the store untouched.
        """
        meta = self._get_meta(request.key) or StoredMeta(key=request.key)

        # Resolve the policy that will be bound to the new version.
        bound_policy_id = request.policy_id or meta.policy_id
        bound_policy = None
        if bound_policy_id:
            bound_policy = self._load_policy(bound_policy_id)
            if bound_policy is None:
                raise RequestError(f"unknown policy {bound_policy_id!r}")
        bound_hash = bound_policy.policy_hash() if bound_policy else ""

        # The governing policy for this update is the object's current
        # policy when it exists; a brand-new object is governed by the
        # policy being attached (its creation clause, if any).
        governing = None
        if meta.exists and meta.policy_id:
            governing = self._governing_policy(meta.policy_id)
        elif not meta.exists:
            governing = bound_policy

        if self.config.enforce_policies and governing is not None:
            inputs = self._inputs(meta, request, session, now)
            self._check_policy(
                "update", governing, inputs,
                lambda: self._context(
                    "update", inputs,
                    VersionInfo.from_content(request.value, bound_hash),
                ),
            )
        return meta, bound_policy_id, bound_hash

    def _apply_put(self, request: Request, granted: tuple) -> Response:
        """Store one write :meth:`_authorize_update` has granted, and
        install the new record once the write quorum acknowledged it."""
        meta, bound_policy_id, bound_hash = granted
        meta = self.store.store_version(
            meta, request.value, bound_hash, bound_policy_id
        )
        self.caches.put_meta(request.key, meta)
        self.caches.put_object(
            f"{request.key}@{meta.current_version}", request.value
        )
        return Response(
            status=200,
            version=meta.current_version,
            policy_id=bound_policy_id,
        )

    def _handle_put(
        self, request: Request, session: Session, now: float
    ) -> Response:
        self.effects.record(COPY, len(request.value))
        return self._apply_put(
            request, self._authorize_update(request, session, now)
        )

    def _handle_get(
        self, request: Request, session: Session, now: float
    ) -> Response:
        meta, row = self._readable(request, session, now)
        value = self._value(request.key, row)
        self.effects.record(COPY, len(value))
        return Response(
            status=200,
            value=value,
            version=row.version,
            policy_id=meta.policy_id,
        )

    def _readable(
        self, request: Request, session: Session, now: float
    ) -> tuple[StoredMeta, VersionMeta]:
        """The record of ``request.key`` once its policy grants a read,
        and the row of the version the request names (by default the
        current one); 404 when the record has no such version."""
        meta = self._authorize_existing(
            "read", request.key, request, session, now
        )
        version = (
            request.version if request.version is not None
            else meta.current_version
        )
        if version not in meta.versions:
            raise ObjectNotFound(
                f"object {request.key!r} has no version {version}"
            )
        return meta, meta.versions[version]

    def _value(self, key: str, row: VersionMeta) -> bytes:
        """One stored version's content, for a GET and for ``objSays``:
        one object-region lookup; on a miss a read anchored by the
        content hash in its row (a lagging or replayed copy of an
        overwritten slot, on a drive or on the SSD, decrypts fine but
        cannot match), then cached (§4.2)."""
        cache_key = f"{key}@{row.version}"
        value = self.caches.get_object(cache_key)
        if value is None:
            value = self.store.read_value(
                key, row.version, expect_sha256=row.content_hash
            )
            self.caches.put_object(cache_key, value)
        return value

    def _facts(self, key: str, row: VersionMeta) -> Facts:
        """What a stored version says, parsed once while its bytes stay
        resident: ``EvalContext.load_facts``."""
        return self.caches.facts(f"{key}@{row.version}", self._value(key, row))

    def _handle_scan(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Range scan (YCSB-E): keys >= start key.

        The store slices its in-enclave key directory, no drive I/O
        once a listing seeded it; each key is then resolved through the
        normal metadata path — checked against the pinned leaf when
        freshness is on — and policy-checked for ``read`` as a ``get`` of
        it by the same caller would be.  Records whose policy denies
        the caller are *skipped*, not fatal: one locked-down object must
        not veto the rest of the range.  The response body is one
        ``key@version`` line per visible record.

        A policy that reads nothing of the object is evaluated for the
        first record it governs, and that verdict serves the later
        records bound to the same policy id: each still resolved,
        audited and counted.
        """
        count = min(request.scan_count, MAX_SCAN_COUNT)
        # Per-record caller: the request minus what describes the range.
        caller = replace(request, log_key="", version=None)
        lines: list[str] = []
        denied = 0
        #: policy id -> (policy hash, verdict), this request's
        verdicts: dict = {}
        # Read once per scan, not once per record.
        cached_meta = self.caches.get_meta
        enforce = self.config.enforce_policies
        emit = lines.append
        for key in self.store.scan_keys(request.key, count):
            meta = cached_meta(key) or self._load_meta(key)
            if meta is None or meta.current_version < 0:
                # Listed, but no record serves: a key the seeding
                # listing found that the rebuild could not read, or
                # that the replicas holding it have since lost.
                continue
            if enforce and meta.policy_id:
                verdict = verdicts.get(meta.policy_id)
                if verdict is None:
                    policy = self._governing_policy(meta.policy_id)
                    inputs = self._inputs(meta, caller, session, now)
                    verdict = policy.policy_hash(), self._evaluate(
                        "read", policy, inputs,
                        lambda: self._context("read", inputs),
                    )
                    if compiled_form(policy).object_blind:
                        verdicts[meta.policy_id] = verdict
                if not self._settle(*verdict, session.fingerprint, key, now):
                    denied += 1
                    continue
            emit(f"{key}@{meta.current_version}")
        payload = "\n".join(lines).encode()
        self.effects.record(COPY, len(payload))
        return Response(
            status=200,
            value=payload,
            extra={"scanned": len(lines), "denied": denied},
        )

    def _handle_rmw(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Read-modify-write (YCSB-F): one atomic read+update cycle.

        Both halves run inside a single request, so the concurrent
        engine's exclusive per-key lock makes the cycle atomic against
        overlapping writers (the method table gives ``rmw`` a ``"w"``
        lock).  The read half enforces the ``read`` policy and reports
        the version it observed; the write half is a normal
        policy-checked update of ``request.value``.
        """
        current = self._handle_get(
            replace(request, version=None), session, now
        )
        updated = self._handle_put(request, session, now)
        updated.extra["read_version"] = current.version
        return updated

    def _handle_delete(
        self, request: Request, session: Session, now: float
    ) -> Response:
        meta = self._authorize_existing(
            "delete", request.key, request, session, now
        )
        self.store.delete_object(meta)
        self.caches.invalidate_meta(request.key)
        for version in meta.versions:
            self.caches.invalidate_object(f"{request.key}@{version}")
        return Response(status=200)

    def _handle_attest(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Signed statement binding key, version, content, and policy.

        Requires read permission on the object; the client verifies
        the statement offline against the controller's certificate,
        proving what the store held at attestation time.
        """
        if self.signing_keys is None:
            raise RequestError("controller has no attestation signing key")
        meta, row = self._readable(request, session, now)
        statement = attestation_statement(
            key=request.key,
            version=row.version,
            content_hash=row.content_hash,
            policy_hash=row.policy_hash,
            policy_id=meta.policy_id,
            timestamp=now,
        )
        signature = self.signing_keys.private_key.sign(statement)
        return Response(
            status=200,
            value=statement,
            version=row.version,
            extra={"signature": signature.hex()},
        )

    # -- admin / maintenance (operator API, not client-reachable) -------

    def scrub_object(self, key: str) -> list:
        """Audit all replicas of an object; see ObjectStore.scrub."""
        return self.store.scrub(self._existing_meta(key))

    def repair_object(self, key: str) -> int:
        """Re-write damaged replicas; see ObjectStore.repair."""
        return self.store.repair(self._existing_meta(key))

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------

    def _handle_put_policy(
        self, request: Request, session: Session, now: float
    ) -> Response:
        source = request.value.decode()
        if self.telemetry.enabled:
            started = _time.perf_counter()
            with self.telemetry.span("policy.compile", bytes=len(source)):
                policy = compile_source(source)
            self._h_policy_compile.observe(_time.perf_counter() - started)
        else:
            policy = compile_source(source)
        self.effects.record(POLICY_COMPILE, policy.size_bytes())
        policy_id = self.store.write_policy(policy.to_bytes())
        self.caches.put_policy(policy_id, policy)
        # Ids are content hashes, so no cached decision can alias the
        # new text: nothing to invalidate.
        return Response(status=200, policy_id=policy_id)

    def _handle_get_policy(
        self, request: Request, session: Session, now: float
    ) -> Response:
        policy_id = request.policy_id or request.key
        policy = self._load_policy(policy_id)
        if policy is None:
            raise ObjectNotFound(f"no policy {policy_id!r}")
        return Response(
            status=200, value=policy.to_bytes(), policy_id=policy_id
        )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _handle_create_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.create(session.fingerprint)
        session.transactions.add(tx.txid)
        return Response(status=200, txid=tx.txid)

    def _handle_add_read(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.add_read(request.key)
        return Response(status=200, txid=tx.txid)

    def _handle_add_write(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.add_write(request.key, request.value, request.policy_id)
        return Response(status=200, txid=tx.txid)

    def _handle_commit_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.session, tx.now = session, now
        tx = self.txns.commit(tx)
        if tx.state == "aborted":
            return Response(status=409, txid=tx.txid, error=tx.error)
        return Response(status=200, txid=tx.txid)

    def _handle_abort_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        self.txns.abort(tx)
        session.transactions.discard(tx.txid)
        return Response(status=200, txid=tx.txid)

    def _handle_tx_results(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        if tx.state == "aborted":
            return Response(status=409, txid=tx.txid, error=tx.error)
        if tx.state != "committed":
            return Response(status=202, txid=tx.txid)
        payload = b"\n".join(
            key.encode() + b"=" + value
            for key, value in sorted(tx.results.items())
        )
        return Response(status=200, txid=tx.txid, value=payload)

    def _execute_transaction(self, tx: Transaction) -> dict:
        """Atomic execution: authorise everything, then apply every write."""
        session, now = tx.session, tx.now
        try:
            results: dict[str, bytes] = {}

            # Phase 1: reads and authorisation, with no side effects.  Any
            # refusal aborts the transaction before a single write lands.
            staged = []
            for key in tx.reads:
                sub = Request(method="get", key=key)
                try:
                    response = self._handle_get(sub, session, now)
                except PesosError as exc:
                    raise TransactionError(f"read {key!r}: {exc}") from exc
                results[f"read:{key}"] = response.value
            for key, (value, policy_id) in tx.writes.items():
                sub = Request(
                    method="put", key=key, value=value, policy_id=policy_id
                )
                try:
                    granted = self._authorize_update(sub, session, now)
                except (PolicyDenied, RequestError) as exc:
                    raise TransactionError(str(exc)) from exc
                staged.append((sub, granted))

            # Phase 2: apply all writes (every one already granted).
            for sub, granted in staged:
                self.effects.record(COPY, len(sub.value))
                response = self._apply_put(sub, granted)
                results[f"write:{sub.key}"] = f"v{response.version}".encode()
            return results
        finally:
            # Ended, whichever request's thread ran it: the handle is
            # open no longer.
            session.transactions.discard(tx.txid)

    # ------------------------------------------------------------------
    # Convenience API (used by examples and tests)
    # ------------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        key: str,
        value: bytes,
        now: float = 0.0,  # pesos: allow[det-default-clock]
        **kwargs,
    ) -> Response:
        return self.handle(
            Request(method="put", key=key, value=value, **kwargs),
            fingerprint,
            now=now,
        )

    def get(
        self, fingerprint: str, key: str, now: float = 0.0, **kwargs  # pesos: allow[det-default-clock]
    ) -> Response:
        return self.handle(
            Request(method="get", key=key, **kwargs), fingerprint, now=now
        )

    def delete(
        self, fingerprint: str, key: str, now: float = 0.0, **kwargs  # pesos: allow[det-default-clock]
    ) -> Response:
        return self.handle(
            Request(method="delete", key=key, **kwargs), fingerprint, now=now
        )

    def put_policy(self, fingerprint: str, source: str) -> Response:
        return self.handle(
            Request(method="put_policy", value=source.encode()), fingerprint
        )


#: Method name -> handler, resolved from the method table at import
#: (a method without a handler fails here, not at request time).
_HANDLERS = {
    name: getattr(PesosController, spec.handler)
    for name, spec in METHOD_TABLE.items()
}
