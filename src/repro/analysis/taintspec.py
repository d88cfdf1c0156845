"""Declarative source / sink / sanitizer registry for the taint pass.

The analyzer (:mod:`repro.analysis.taint`) is generic machinery; every
statement about *which* values are secret and *which* surfaces are
untrusted lives here, in data, so an auditor reviews this file — not
the fixpoint engine — to understand (and extend) the proved property:

    object plaintext and key material never cross the enclave boundary
    unsealed.

Two taint kinds flow through the analysis:

``plaintext``
    Decrypted object content, unsealed enclave state, and policy
    source text.  Plaintext may legitimately travel in a response
    *body* (a policy-checked GET returns it to the client over the
    encrypted channel) but never in headers, error strings, metric
    labels, span attributes, audit records, exception messages, drive
    writes, or wire frames.

``key``
    AEAD / MAC / session / sealing key material.  Keys may reach *no*
    untrusted sink at all, response bodies included.

Sources come in three shapes: **call patterns** (``aead.open(...)``,
``enclave.unseal(...)``), **parameter taints** (the ``value`` argument
of ``ObjectStore.store_version`` — the storage boundary where client
plaintext becomes the store's responsibility), and **names** (any load
of an identifier like ``_sealing_key`` is key material, wherever it
appears).

Sanitizers clear taint: sealing, encrypting, signing, and content
hashing all produce values that are safe on any surface.

Declassifiers force a *resolved call's* result clean.  Each entry is a
deliberate, documented trust decision — e.g. ``StoredMeta.decode``
yields operational metadata (versions, ids, content hashes), not
object content, even though its input is a decrypted blob.

Exemptions silence one (sink, kind) pair under a path prefix — e.g.
policy *parse* errors quote the submitted source back to its author.
Hot-path flows must never be exempted here; that is what the
mutation self-test (:mod:`tests.analysis.test_taint_mutations`)
defends.

Suppression at a single site uses the standard pragma idiom:
``# pesos: allow[taint/<sink-id>]`` (or bare ``# pesos: allow[taint]``
to silence every taint rule) on the flagged line or the line above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The two taint kinds (see module docstring).
KIND_PLAINTEXT = "plaintext"
KIND_KEY = "key"
KINDS = frozenset({KIND_PLAINTEXT, KIND_KEY})

BOTH = frozenset({KIND_PLAINTEXT, KIND_KEY})
KEY_ONLY = frozenset({KIND_KEY})


@dataclass(frozen=True)
class CallSource:
    """A call whose *result* is tainted: ``receiver.method(...)``.

    ``receiver_hints`` restricts the match to receiver chains that
    contain one of the given identifiers (``self._aead.open`` has the
    chain ``["open", "_aead", "self"]``); empty hints match any
    receiver, including plain-name calls.
    """

    method: str
    kind: str
    receiver_hints: frozenset = frozenset()
    reason: str = ""


@dataclass(frozen=True)
class ParamSource:
    """A function parameter that is tainted on entry.

    These mark the *storage boundary*: once client bytes are handed to
    ``ObjectStore.store_version`` as ``value``, the store owes them
    confidentiality — everything downstream must seal before drives.
    """

    qualname: str
    param: str
    kind: str
    reason: str = ""


@dataclass(frozen=True)
class NameSource:
    """An identifier whose every load carries taint (key material)."""

    name: str
    kind: str
    reason: str = ""


@dataclass(frozen=True)
class CallSink:
    """A call pattern whose arguments must not be tainted."""

    sink_id: str
    method: str
    receiver_hints: frozenset
    kinds: frozenset
    message: str


@dataclass(frozen=True)
class ParamSink:
    """A specific function parameter that is an untrusted surface.

    ``param="*"`` covers every parameter.  Callers that pass tainted
    values cross the sink at *their* call site (reported there), so a
    pragma documents the individual flow, not the whole function.
    """

    sink_id: str
    qualname: str
    param: str
    kinds: frozenset
    message: str


@dataclass(frozen=True)
class KwargSink:
    """A keyword argument of a constructor/callable that is a sink.

    ``Response(error=...)`` renders into an HTTP header;
    ``Response(value=...)`` is the body (key material only is barred —
    a policy-checked GET legitimately returns plaintext).
    """

    sink_id: str
    callee: str
    kwarg: str
    kinds: frozenset
    message: str


@dataclass(frozen=True)
class Declassifier:
    """A resolved call whose result is forced clean, with rationale."""

    qualname: str
    reason: str


@dataclass(frozen=True)
class Exemption:
    """One (sink, kind) pair waived under a path prefix."""

    sink_id: str
    path_prefix: str
    kind: str
    reason: str


@dataclass(frozen=True)
class TaintRegistry:
    call_sources: tuple = ()
    param_sources: tuple = ()
    name_sources: tuple = ()
    call_sinks: tuple = ()
    param_sinks: tuple = ()
    kwarg_sinks: tuple = ()
    #: Method / function names whose result is always clean.
    sanitizers: frozenset = frozenset()
    #: Builtins whose result is a size/flag/number, never content.
    clean_builtins: frozenset = frozenset()
    declassifiers: tuple = ()
    exemptions: tuple = ()
    #: Package-relative path prefixes excluded from the scan, with the
    #: reason recorded next to each (host-side tooling, not TCB code).
    excluded_paths: dict = field(default_factory=dict)

    def declassified(self) -> frozenset:
        return frozenset(d.qualname for d in self.declassifiers)

    def exempted(self, sink_id: str, rel_path: str, kind: str) -> bool:
        return any(
            e.sink_id == sink_id
            and e.kind == kind
            and rel_path.startswith(e.path_prefix)
            for e in self.exemptions
        )


#: Receivers that identify an AEAD primitive in this codebase.
_AEAD_RECEIVERS = frozenset(
    {
        "aead", "gcm", "_aead", "_gcm", "_recv_gcm", "_send_gcm",
        "_recv_aead", "_send_aead",
    }
)

#: Receivers that identify a raw Kinetic drive client.
_DRIVE_RECEIVERS = frozenset({"client", "clients", "drive", "drives"})


DEFAULT_REGISTRY = TaintRegistry(
    call_sources=(
        CallSource(
            method="open",
            kind=KIND_PLAINTEXT,
            receiver_hints=_AEAD_RECEIVERS,
            reason="AEAD open() returns decrypted content",
        ),
        CallSource(
            method="decrypt",
            kind=KIND_PLAINTEXT,
            receiver_hints=_AEAD_RECEIVERS,
            reason="a cipher's decrypt() returns raw plaintext",
        ),
        CallSource(
            method="unseal",
            kind=KIND_PLAINTEXT,
            receiver_hints=frozenset({"enclave"}),
            reason="unsealed enclave state leaves the sealing envelope",
        ),
        CallSource(
            method="_hkdf",
            kind=KIND_KEY,
            reason="HKDF output is session key material",
        ),
        CallSource(
            method="_derive_keys",
            kind=KIND_KEY,
            reason="channel key schedule output",
        ),
        CallSource(
            method="generate_keypair",
            kind=KIND_KEY,
            reason="fresh private-key material",
        ),
    ),
    param_sources=(
        ParamSource(
            qualname="ObjectStore.store_version",
            param="value",
            kind=KIND_PLAINTEXT,
            reason="client object content at the storage boundary",
        ),
        ParamSource(
            qualname="ObjectStore._store_version",
            param="value",
            kind=KIND_PLAINTEXT,
            reason="client object content at the storage boundary",
        ),
        ParamSource(
            qualname="ObjectStore.write_policy",
            param="blob",
            kind=KIND_PLAINTEXT,
            reason="compiled policy bytes at the storage boundary",
        ),
        ParamSource(
            qualname="compile_source",
            param="source",
            kind=KIND_PLAINTEXT,
            reason="policy source text before binary encoding",
        ),
        ParamSource(
            qualname="StreamAead.seal",
            param="plaintext",
            kind=KIND_PLAINTEXT,
            reason="plaintext inside the seal primitive itself",
        ),
        ParamSource(
            qualname="SecureChannel.send",
            param="plaintext",
            kind=KIND_PLAINTEXT,
            reason="channel payload before encryption",
        ),
    ),
    name_sources=tuple(
        NameSource(name=name, kind=KIND_KEY, reason=reason)
        for name, reason in (
            ("storage_key", "store AEAD root key"),
            ("_sealing_key", "enclave sealing key"),
            ("sealing_key", "enclave sealing key"),
            ("platform_root_key", "simulated CPU fuse key"),
            ("send_key", "channel send key"),
            ("recv_key", "channel receive key"),
            ("_enc_key", "derived encryption subkey"),
            ("_mac_key", "derived MAC subkey"),
            ("_ipad_state", "HMAC inner pad state (RFC 2104 §4)"),
            ("_opad_state", "HMAC outer pad state (RFC 2104 §4)"),
            ("private_key", "asymmetric private key"),
            ("admin_key", "drive admin HMAC credential"),
            ("hmac_key", "drive HMAC credential"),
            ("disk_hmac_key", "drive HMAC credential"),
            ("init_secret", "handshake half-secret"),
            ("resp_secret", "handshake half-secret"),
            ("shared_secret", "handshake shared secret"),
        )
    ),
    call_sinks=(
        CallSink(
            sink_id="drive-write",
            method="put",
            receiver_hints=_DRIVE_RECEIVERS,
            kinds=BOTH,
            message="unsealed data written to an untrusted Kinetic drive",
        ),
        CallSink(
            sink_id="drive-write",
            method="delete",
            receiver_hints=_DRIVE_RECEIVERS,
            kinds=BOTH,
            message="secret-derived argument in a raw drive delete",
        ),
        CallSink(
            sink_id="drive-write",
            method="commit",
            receiver_hints=_DRIVE_RECEIVERS,
            kinds=BOTH,
            message="unsealed data in a commit frame to a Kinetic drive",
        ),
        CallSink(
            sink_id="metric-label",
            method="labels",
            receiver_hints=frozenset(),
            kinds=BOTH,
            message="secret value used as a telemetry metric label",
        ),
        CallSink(
            sink_id="metric-label",
            method="derived",
            receiver_hints=frozenset(),
            kinds=BOTH,
            message="secret value in a scrape-time metric family "
            "(whatever the reader returns is rendered on /_metrics)",
        ),
        CallSink(
            sink_id="span-attribute",
            method="span",
            receiver_hints=frozenset({"telemetry", "tracer"}),
            kinds=BOTH,
            message="secret value attached as a trace span attribute",
        ),
        CallSink(
            sink_id="span-attribute",
            method="set",
            receiver_hints=frozenset({"span"}),
            kinds=BOTH,
            message="secret value attached as a trace span attribute",
        ),
        CallSink(
            sink_id="log-line",
            method="print",
            receiver_hints=frozenset(),
            kinds=BOTH,
            message="secret value printed to operator-visible output",
        ),
    ),
    param_sinks=(
        ParamSink(
            sink_id="wire-frame",
            qualname="KineticClient._next_message",
            param="body",
            kinds=BOTH,
            message="command body serialized into a cleartext wire frame",
        ),
        ParamSink(
            sink_id="wire-frame",
            qualname="KineticClient._exchange",
            param="request",
            kinds=BOTH,
            message="message handed to the untrusted drive transport",
        ),
        ParamSink(
            sink_id="audit-entry",
            qualname="AuditLog.append",
            param="*",
            kinds=BOTH,
            message="secret value recorded in the policy audit chain",
        ),
        ParamSink(
            sink_id="http-body",
            qualname="_admin_response",
            param="body",
            kinds=KEY_ONLY,
            message="key material rendered into an admin HTTP body",
        ),
    ),
    kwarg_sinks=(
        KwargSink(
            sink_id="http-body",
            callee="Response",
            kwarg="value",
            kinds=KEY_ONLY,
            message="key material placed in an HTTP response body",
        ),
        KwargSink(
            sink_id="http-header",
            callee="Response",
            kwarg="error",
            kinds=BOTH,
            message="secret value in the X-Pesos-Error response header",
        ),
        KwargSink(
            sink_id="http-header",
            callee="Response",
            kwarg="extra",
            kinds=BOTH,
            message="secret value in an X-Pesos-* response header",
        ),
        KwargSink(
            sink_id="http-header",
            callee="Response",
            kwarg="policy_id",
            kinds=BOTH,
            message="secret value in the X-Pesos-Policy response header",
        ),
        KwargSink(
            sink_id="http-header",
            callee="Response",
            kwarg="operation_id",
            kinds=BOTH,
            message="secret value in the X-Pesos-Operation response header",
        ),
        KwargSink(
            sink_id="http-header",
            callee="Response",
            kwarg="txid",
            kinds=BOTH,
            message="secret value in the X-Pesos-Txid response header",
        ),
    ),
    sanitizers=frozenset(
        {
            "seal",
            "encrypt",
            "sign",
            "hexdigest",
            "digest",
            "policy_hash",
            "fingerprint",
            "measurement",
            "leaf_digest",
            "record_digest",
        }
    ),
    clean_builtins=frozenset(
        {"len", "bool", "isinstance", "type", "float", "int", "range"}
    ),
    declassifiers=(
        Declassifier(
            qualname="StoredMeta.decode",
            reason="decoded metadata is versions/ids/content hashes — "
            "operational state, not object content",
        ),
        Declassifier(
            qualname="SecureChannel.recv",
            reason="the decrypted client request re-enters the "
            "untrusted-input domain at ingress; it is not an "
            "enclave secret until the store accepts it",
        ),
        Declassifier(
            qualname="PolicyEngine.evaluate",
            reason="decisions are booleans and clause indices, "
            "deliberately recorded in the audit chain",
        ),
        Declassifier(
            qualname="CompiledPolicy.from_bytes",
            reason="the confidential artifact is the pre-compilation "
            "source text; decoded clause structure drives "
            "enforcement and auditing by design",
        ),
    ),
    exemptions=(
        Exemption(
            sink_id="exception-message",
            path_prefix="policy/",
            kind=KIND_PLAINTEXT,
            reason="parse/compile errors quote the submitted policy "
            "source back to its own author",
        ),
        Exemption(
            sink_id="exception-message",
            path_prefix="kinetic/protocol.py",
            kind=KIND_PLAINTEXT,
            reason="TLV decode errors quote the malformed envelope for "
            "diagnosis; a blob reaching the decoder has already "
            "passed AEAD authentication, so a decode failure is an "
            "integrity diagnostic on corrupt framing, not object "
            "content disclosure",
        ),
    ),
    excluded_paths={
        "analysis/": "host-side tooling: prints findings by design",
        "bench/": "host-side tooling: prints reports by design",
    },
)


#: Sink ids the analyzer implements structurally (not via registry
#: entries): every ``raise`` expression is an exception-message sink.
SINK_EXCEPTION = "exception-message"

__all__ = [
    "BOTH",
    "CallSink",
    "CallSource",
    "Declassifier",
    "DEFAULT_REGISTRY",
    "Exemption",
    "KEY_ONLY",
    "KIND_KEY",
    "KIND_PLAINTEXT",
    "KINDS",
    "KwargSink",
    "NameSource",
    "ParamSink",
    "ParamSource",
    "SINK_EXCEPTION",
    "TaintRegistry",
]
