"""Tamper-evident, hash-chained audit log inside the enclave boundary.

Pesos's trust argument is that the storage layer *enforces* policy —
which is only auditable if every decision leaves a trail an attacker
(including the cloud operator) cannot silently rewrite.  The log lives
in enclave memory next to the policy interpreter, and each appended
record is chained to its predecessor::

    entry_hash[i] = SHA-256(canonical(record[i], prev=entry_hash[i-1]))

so flipping a single byte of any retained record breaks every hash
from that point to the chain head.  The head digest is the compact
commitment an operator scrapes (or seals — see :meth:`seal_head`) to
detect rollback of the whole log.

The log is a *ring*: only the newest ``capacity`` records stay
resident (enclave memory is precious), but the chain itself never
resets — evicting a record promotes its entry hash to the ``anchor``
that verification starts from, so the head digest still commits to
every record ever appended.

Determinism matters as much as tamper evidence: records carry virtual
timestamps and no wall-clock or randomness, so the same seed and
request trace produce a byte-identical chain — replay divergence shows
up as a head-digest mismatch, exactly like tampering.

:class:`AuditLog` is also what the request path talks to: the four
``record_*`` methods map a policy verdict, an admission shed, a
freshness pin and a fork refusal onto the one record schema, and every
record — whatever its kind — passes through :meth:`AuditLog.append`,
which is therefore the single ``audit-entry`` sink of the secrecy-flow
analysis.  The chain surfaces on ``GET /_audit`` (:meth:`snapshot`) and
on the scrape:

- ``pesos_audit_records_total`` — chain length (counter semantics).
- ``pesos_audit_chain_head`` — gauge carrying the current head digest
  as its single sample's label, so a scrape pipeline can alert on
  unexpected head movement or divergence across replicas.
- ``pesos_audit_decisions_total`` — records by kind.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable

from repro.telemetry import NULL_TELEMETRY

#: The chain start: a fixed, public constant (no secret in the chain —
#: tamper *evidence* comes from re-derivability, not secrecy).
GENESIS = hashlib.sha256(b"pesos-audit-genesis").hexdigest()

#: Decision vocabulary (``allow``/``deny`` from the policy interpreter,
#: ``shed`` from admission control refusing to evaluate at all,
#: ``pin`` from the freshness layer advancing its sealed root, and
#: ``fork`` when startup fork detection refuses to serve).
DECISION_ALLOW = "allow"
DECISION_DENY = "deny"
DECISION_SHED = "shed"
DECISION_PIN = "pin"
DECISION_FORK = "fork"


@dataclass
class AuditRecord:
    """One policy decision, chained to its predecessor.

    Deliberately *not* frozen: tamper-evidence must come from the hash
    chain itself, not from Python's attribute protection — tests (and
    attackers) mutate fields and :meth:`AuditLog.verify` must notice.
    """

    seq: int
    vnow: float
    session: str
    operation: str
    key: str
    decision: str
    policy_hash: str
    clause_path: str
    detail: str
    prev_hash: str
    entry_hash: str

    def canonical(self) -> bytes:
        """Canonical byte encoding of everything the hash covers."""
        body = asdict(self)
        body.pop("entry_hash")
        return json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode()

    def expected_hash(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()

    def to_dict(self) -> dict:
        return asdict(self)


class AuditLog:
    """Bounded ring of chained records with verifiable head digest."""

    def __init__(self, capacity: int = 1024, telemetry=NULL_TELEMETRY):
        if capacity < 1:
            raise ValueError("audit log needs capacity >= 1")
        self.capacity = capacity
        self.records: deque[AuditRecord] = deque()
        #: Entry hash of the newest *evicted* record; verification of
        #: the retained window starts from here.
        self.anchor = GENESIS
        self.head = GENESIS
        self.length = 0
        #: Records ever appended, by decision kind.
        self.decisions_by_kind: dict[str, int] = {}
        telemetry.derived(
            "pesos_audit_records_total",
            "counter",
            "Policy-decision records appended to the audit chain.",
            lambda: float(self.length),
        )
        telemetry.derived(
            "pesos_audit_chain_head",
            "gauge",
            "Current audit-chain head digest (as the single sample's "
            "label; the value is the chain length it commits to).",
            lambda: [(self.head, float(self.length))],
            ("digest",),
        )
        telemetry.derived(
            "pesos_audit_decisions_total",
            "counter",
            "Audited decisions, by kind.",
            lambda: sorted(self.decisions_by_kind.items()),
            ("decision",),
        )

    def __len__(self) -> int:
        return self.length

    # -- appending ---------------------------------------------------------

    def append(
        self,
        vnow: float,
        session: str,
        operation: str,
        key: str,
        decision: str,
        policy_hash: str = "",
        clause_path: str = "",
        detail: str = "",
    ) -> AuditRecord:
        record = AuditRecord(
            seq=self.length,
            vnow=vnow,
            session=session,
            operation=operation,
            key=key,
            decision=decision,
            policy_hash=policy_hash,
            clause_path=clause_path,
            detail=detail,
            prev_hash=self.head,
            entry_hash="",
        )
        record.entry_hash = record.expected_hash()
        self.records.append(record)
        self.head = record.entry_hash
        self.length += 1
        self.decisions_by_kind[decision] = (
            self.decisions_by_kind.get(decision, 0) + 1
        )
        if len(self.records) > self.capacity:
            evicted = self.records.popleft()
            self.anchor = evicted.entry_hash
        return record

    # -- the four record kinds ---------------------------------------------

    def record_decision(
        self,
        decision,
        policy_hash: str,
        session: str,
        key: str,
        vnow: float,
    ) -> None:
        """One policy verdict (the controller's ``_check_policy``).

        ``decision`` is a :class:`repro.policy.compiled.Decision`;
        its clause path and bindings land in the record so the chain
        answers "which clause allowed this?" byte-reproducibly.
        """
        self.append(
            vnow=vnow,
            session=session,
            operation=decision.operation,
            key=key,
            decision=DECISION_ALLOW if decision.granted else DECISION_DENY,
            policy_hash=policy_hash,
            clause_path=decision.clause_path,
            detail=decision.audit_detail(),
        )

    def record_shed(
        self,
        method: str,
        reason: str,
        session: str,
        key: str,
        vnow: float,
    ) -> None:
        """An admission shed: policy evaluation never ran at all."""
        self.append(
            vnow=vnow,
            session=session,
            operation=method,
            key=key,
            decision=DECISION_SHED,
            detail=reason,
        )

    def record_pin(
        self, vnow: float, epoch: int, root: str, event: str
    ) -> None:
        """One freshness root pin (counter advance), hash-chained.

        The pinned root rides in ``policy_hash`` (it is a digest of
        enclave-attested state, same trust class) and the epoch in the
        key column, so the chain answers "what root was pinned at
        counter value N?" tamper-evidently.
        """
        self.append(
            vnow=vnow,
            session="",
            operation="pin",
            key=f"epoch:{epoch}",
            decision=DECISION_PIN,
            policy_hash=root,
            detail=event,
        )

    def record_fork(self, vnow: float, reason: str) -> None:
        """Startup fork detection refused to serve."""
        self.append(
            vnow=vnow,
            session="",
            operation="bootstrap",
            key="",
            decision=DECISION_FORK,
            detail=reason,
        )

    # -- verification ------------------------------------------------------

    def verify(self) -> dict:
        """Re-derive the retained chain; report the first divergence.

        Returns ``{"ok": bool, "checked": n, "head": digest,
        "first_bad_seq": seq | None}``.  A single flipped byte in any
        retained record (or a broken link / wrong head) fails.
        """
        first_bad = None
        prev = self.anchor
        for record in self.records:
            if record.prev_hash != prev or record.expected_hash() != (
                record.entry_hash
            ):
                first_bad = record.seq
                break
            prev = record.entry_hash
        if first_bad is None and prev != self.head:
            first_bad = self.records[-1].seq if self.records else 0
        return {
            "ok": first_bad is None,
            "checked": len(self.records),
            "head": self.head,
            "first_bad_seq": first_bad,
        }

    @staticmethod
    def replay(records: Iterable[AuditRecord], anchor: str = GENESIS) -> str:
        """Head digest a fresh chain over ``records`` would produce.

        The cross-run determinism check: replaying the same decisions
        from the same anchor must reproduce the same head, byte for
        byte.
        """
        head = anchor
        for record in records:
            clone = AuditRecord(
                **{**record.to_dict(), "prev_hash": head, "entry_hash": ""}
            )
            head = clone.expected_hash()
        return head

    # -- exposition and sealing -------------------------------------------

    def tail(self, limit: int = 64) -> list[AuditRecord]:
        """Newest ``limit`` retained records, oldest first."""
        records = list(self.records)
        return records[-limit:] if limit else records

    def snapshot(self, limit: int = 64, verify: bool = False) -> dict:
        """The ``GET /_audit`` payload."""
        payload = {
            "length": self.length,
            "retained": len(self.records),
            "capacity": self.capacity,
            "anchor": self.anchor,
            "head": self.head,
            "records": [record.to_dict() for record in self.tail(limit)],
            "decisions": dict(sorted(self.decisions_by_kind.items())),
        }
        if verify:
            payload["verification"] = self.verify()
        return payload

    def seal_head(self, enclave) -> bytes:
        """Seal ``(length, head)`` to this enclave's identity.

        Persisting the sealed head across restarts lets the controller
        detect rollback of the audit log itself: an unsealed head that
        does not chain to the current log means history was rewritten.
        """
        statement = json.dumps(
            {"length": self.length, "head": self.head},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        return enclave.seal(statement)

    @staticmethod
    def unseal_head(enclave, blob: bytes) -> dict:
        """Recover a sealed head statement (raises for foreign seals)."""
        return json.loads(enclave.unseal(blob))
