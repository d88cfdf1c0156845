"""Differential harness: reference interpreter vs shipped closures.

Replays every policy in ``examples/policies`` — plus seeded random
evaluation contexts exercising grants, denials, structural failures,
certificates, and object facts — through both
:class:`~tests.policy.reference_interpreter.PolicyInterpreter` and the
shipped evaluator, asserting the resulting :class:`Decision`\\ s are
identical field by field (``clause_path``, ``predicates_evaluated``, bindings).

Everything is deterministic in the seed: the certificate keypairs are
fixed primes baked in below (``secrets``-based key generation would
make signatures, and therefore decision traces, unreproducible), so
the SHA-256 of the decision trace is stable across runs and machines —
CI compares the interpreter's and the compiled path's trace hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

from repro.crypto.certs import Certificate
from repro.crypto.rsa import RsaPrivateKey
from repro.policy.binary import CompiledPolicy
from repro.policy.compiler import compile_source
from repro.policy.compiled import Decision, compile_closures
from repro.policy.context import EvalContext, VersionInfo
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter

CORPUS_DIR = Path(__file__).resolve().parents[2] / "examples" / "policies"

#: Fingerprints the corpus policies name (`k'caca…'` etc.).
CA_FINGERPRINT = "ca" * 32
ADMIN_FINGERPRINT = "ad" * 32

# Fixed RSA keypairs (p, q) for the corpus authorities.  Baked in so
# signatures — and with them the decision-trace SHA — are bit-stable.
_CA_PRIMES = (
    0xF28F1C32EE5FB8B086F00B1EF3D81357A843648072D4D574F85D3EBE4399395D,
    0xD6BEC178F28F5BB7F216033A6F95978437230793EEC97D36039F42384CDA0751,
)
_TS_PRIMES = (
    0xF808791603EB56523C9FA95D71354B0767F1DEAAA62459BED0378FE678EDC64D,
    0xE78C337D54F44197D56F683AE27818D902AC842D11BB63B2230FC7C74998DBDF,
)


def _keypair(primes: tuple) -> RsaPrivateKey:
    p, q = primes
    return RsaPrivateKey(
        n=p * q, e=65537, d=pow(65537, -1, (p - 1) * (q - 1)), p=p, q=q
    )


CA_KEY = _keypair(_CA_PRIMES)
TS_KEY = _keypair(_TS_PRIMES)

#: The release instant the time-capsule corpus policies gate on.
RELEASE_TIME = 1767225600


def load_corpus() -> list:
    """``(name, CompiledPolicy)`` for every corpus policy."""
    entries = []
    for path in sorted(CORPUS_DIR.glob("*.policy")):
        entries.append((path.stem, compile_source(path.read_text())))
    return entries


# ---------------------------------------------------------------------------
# Seeded context generation
# ---------------------------------------------------------------------------

def _policy_key_fingerprints(policy: CompiledPolicy) -> list:
    from repro.policy.ast import PubKeyValue

    return sorted(
        {
            value.value
            for value in policy.constants
            if isinstance(value, PubKeyValue)
        }
    )


def _uses_opcode(policy: CompiledPolicy, opcode: int) -> bool:
    return any(
        inst.opcode == opcode
        for clauses in policy.permissions.values()
        for clause in clauses
        for inst in clause
    )


def _time_certificates(rng: Random, nonce: str) -> list:
    """A `ts`-delegation chain like the time-capsule scenario uses.

    Randomly degenerate: expired windows, stale freshness, wrong
    nonces, and pre-release timestamps all appear so denial paths get
    differential coverage too.
    """
    ts_fp = TS_KEY.public_key.fingerprint()
    said_time = rng.choice(
        [RELEASE_TIME - 1, RELEASE_TIME, RELEASE_TIME + rng.randrange(1, 9999)]
    )
    not_before = float(rng.choice([0, 500, 2000]))
    not_after = not_before + float(rng.choice([100, 400, 100000]))
    cert_nonce = rng.choice(["", nonce, "stale-nonce"])
    delegation = Certificate(
        subject="timestamper",
        public_key=TS_KEY.public_key,
        issuer="corpus-ca",
        serial=1,
        not_before=not_before,
        not_after=not_after,
        claims=(("ts", ("k:" + ts_fp,)),),
    )
    delegation = replace(
        delegation, signature=CA_KEY.sign(delegation.tbs_bytes())
    )
    stamp = Certificate(
        subject="timestamp",
        public_key=TS_KEY.public_key,
        issuer="timestamper",
        serial=2,
        not_before=not_before,
        not_after=not_after,
        claims=(("time", (said_time,)),),
        nonce=cert_nonce,
    )
    stamp = replace(stamp, signature=TS_KEY.sign(stamp.tbs_bytes()))
    return [delegation, stamp]


def _log_view(
    rng: Random,
    log_id: str,
    this_id: str | None,
    session_key: str,
    this_view: ObjectView | None,
    pending: VersionInfo | None,
) -> ObjectView:
    """A MAL-style log whose lines sometimes authorize the request."""
    lines = []
    curr = this_view.current_version if this_view is not None else 0
    if this_id is not None and rng.random() < 0.6:
        lines.append(f"'read'('{this_id}',{curr},k'{session_key}')")
    if (
        this_id is not None
        and this_view is not None
        and pending is not None
        and rng.random() < 0.6
    ):
        old = this_view.versions.get(curr)
        if old is not None:
            lines.append(
                f"'write'('{this_id}',{curr},h'{old.content_hash}',"
                f"h'{pending.content_hash}',k'{session_key}')"
            )
    if rng.random() < 0.4:
        lines.append(f"'read'('{this_id}',{curr + 7},k'{'e1' * 16}')")
    if rng.random() < 0.3:
        lines.append("not a tuple line")
    content = "\n".join(lines).encode()
    return ObjectView(
        object_id=log_id,
        current_version=1,
        versions={1: VersionInfo.from_content(content)},
    )


def random_context(
    policy: CompiledPolicy, operation: str, rng: Random
) -> EvalContext:
    """One seeded evaluation context biased toward interesting paths."""
    key_pool = _policy_key_fingerprints(policy) + ["e1" * 16]
    session_key = rng.choice(key_pool)
    nonce = rng.choice(["", f"n-{rng.randrange(4)}"])
    now = float(rng.choice([100, 700, 1700, 90000]))

    this_id = rng.choice(["obj-a", "obj-b", None])
    log_id = rng.choice(["log-a", None])
    objects: dict = {}
    pending = None
    request_version = None

    this_view = None
    if this_id is not None and rng.random() < 0.8:
        curr = rng.randrange(0, 4)
        versions = {
            v: VersionInfo.from_content(
                f"payload-{this_id}-{v}".encode(),
                policy_hash=policy.policy_hash(),
            )
            for v in range(max(0, curr - 1), curr + 1)
        }
        this_view = ObjectView(
            object_id=this_id, current_version=curr, versions=versions
        )
        objects[this_id] = this_view

    if operation == "update":
        next_version = (
            this_view.current_version + 1 if this_view is not None else 0
        )
        request_version = rng.choice(
            [next_version, next_version, next_version + 1, 0, None]
        )
        if rng.random() < 0.85:
            pending = VersionInfo.from_content(
                f"pending-{rng.randrange(1000)}".encode(),
                policy_hash=policy.policy_hash(),
            )

    if log_id is not None:
        objects[log_id] = _log_view(
            rng, log_id, this_id, session_key, this_view, pending
        )

    certificates: list = []
    key_registry: dict = {}
    if _uses_opcode(policy, 10) and rng.random() < 0.8:
        certificates = _time_certificates(rng, nonce)
        if rng.random() < 0.9:
            key_registry[CA_FINGERPRINT] = CA_KEY.public_key

    return EvalContext(
        operation=operation,
        session_key=session_key,
        this_id=this_id,
        log_id=log_id,
        request_version=request_version,
        objects=objects,
        pending=pending,
        certificates=certificates,
        key_registry=key_registry,
        now=now,
        nonce=nonce,
    )


def corpus_contexts(
    policy: CompiledPolicy, seed: int, per_operation: int = 40
) -> list:
    """``(operation, EvalContext)`` pairs for one policy, seeded."""
    rng = Random(seed)
    cases = []
    operations = policy.operations() or ["read"]
    for operation in operations:
        for _ in range(per_operation):
            cases.append((operation, random_context(policy, operation, rng)))
    return cases


# ---------------------------------------------------------------------------
# Decision comparison and tracing
# ---------------------------------------------------------------------------

def assert_identical(
    interpreted: Decision, compiled: Decision, label: str = ""
) -> None:
    """Field-by-field equality — the audit-compatibility contract."""
    for attribute in (
        "granted",
        "operation",
        "matched_clause",
        "predicates_evaluated",
        "bindings",
    ):
        left = getattr(interpreted, attribute)
        right = getattr(compiled, attribute)
        if left != right:
            raise AssertionError(
                f"decision divergence {label}: {attribute} "
                f"interpreter={left!r} compiled={right!r}"
            )
    if interpreted.clause_path != compiled.clause_path:
        raise AssertionError(
            f"decision divergence {label}: clause_path "
            f"{interpreted.clause_path} != {compiled.clause_path}"
        )


def trace_line(name: str, index: int, decision: Decision) -> str:
    return f"{name}#{index}|{decision.clause_path}|{decision.audit_detail()}"


def trace_sha(lines: list) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class DiffReport:
    """Outcome of one differential sweep."""

    cases: int = 0
    grants: int = 0
    denials: int = 0
    trace_sha_interpreter: str = ""
    trace_sha_compiled: str = ""


def run_differential(
    seed: int = 0, per_operation: int = 40, policies: list | None = None
) -> DiffReport:
    """The full sweep; raises ``AssertionError`` on any divergence."""
    interpreter = PolicyInterpreter()
    report = DiffReport()
    interp_lines: list = []
    compiled_lines: list = []
    for name, policy in policies or load_corpus():
        fast = compile_closures(policy)
        for index, (operation, ctx) in enumerate(
            corpus_contexts(policy, seed=seed, per_operation=per_operation)
        ):
            interpreted = interpreter.evaluate(policy, operation, ctx)
            compiled = fast.evaluate(operation, ctx)
            assert_identical(
                interpreted, compiled, label=f"{name}#{index} {operation}"
            )
            report.cases += 1
            report.grants += 1 if interpreted.granted else 0
            report.denials += 0 if interpreted.granted else 1
            interp_lines.append(trace_line(name, index, interpreted))
            compiled_lines.append(trace_line(name, index, compiled))
    report.trace_sha_interpreter = trace_sha(interp_lines)
    report.trace_sha_compiled = trace_sha(compiled_lines)
    return report
