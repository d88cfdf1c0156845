"""Policy-decision auditing: the recorder in front of the hash chain.

:class:`PolicyAuditor` is what the request path talks to.  It owns a
:class:`repro.sgx.auditlog.AuditLog` (the tamper-evident chain inside
the enclave boundary), translates policy decisions and admission
sheds into canonical records, and surfaces the chain on telemetry:

- ``pesos_audit_records_total`` — chain length (counter semantics).
- ``pesos_audit_chain_head`` — gauge carrying the current head digest
  as a (single-sample, replaced-at-scrape) label, so a scrape pipeline
  can alert on unexpected head movement or divergence across replicas.
- ``pesos_audit_decisions_total`` — decisions by kind.

Everything recorded is a pure function of the request trace: virtual
timestamps, session fingerprints, policy hashes, clause indices.  Two
same-seed runs therefore produce byte-identical chains — the property
``GET /_audit`` lets an operator (or CI) check remotely.
"""

from __future__ import annotations

from repro.sgx.auditlog import (
    DECISION_ALLOW,
    DECISION_DENY,
    DECISION_FORK,
    DECISION_PIN,
    DECISION_SHED,
    AuditLog,
)
from repro.telemetry.metrics import MetricFamily, Sample


class PolicyAuditor:
    """Appends every policy decision to the enclave audit chain."""

    def __init__(self, capacity: int = 1024, telemetry=None):
        self.log = AuditLog(capacity=capacity)
        self.decisions_by_kind: dict[str, int] = {}
        if telemetry is not None and telemetry.enabled:
            self.bind_telemetry(telemetry)

    def bind_telemetry(self, telemetry) -> None:
        """Expose chain head + length as scrape-time families."""
        if telemetry is None or not telemetry.enabled:
            return
        telemetry.register_callback(self._metric_families)

    # -- recording ---------------------------------------------------------

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
        kind = DECISION_ALLOW if decision.granted else DECISION_DENY
        self._count(kind)
        self.log.append(
            vnow=vnow,
            session=session,
            operation=decision.operation,
            key=key,
            decision=kind,
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
        self._count(DECISION_SHED)
        self.log.append(
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
        self._count(DECISION_PIN)
        self.log.append(
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
        self._count(DECISION_FORK)
        self.log.append(
            vnow=vnow,
            session="",
            operation="bootstrap",
            key="",
            decision=DECISION_FORK,
            detail=reason,
        )

    def _count(self, decision: str) -> None:
        self.decisions_by_kind[decision] = (
            self.decisions_by_kind.get(decision, 0) + 1
        )

    # -- inspection --------------------------------------------------------

    @property
    def head(self) -> str:
        return self.log.head

    def verify(self) -> dict:
        return self.log.verify()

    def snapshot(self, limit: int = 64, verify: bool = False) -> dict:
        """The ``GET /_audit`` payload."""
        payload = self.log.snapshot(limit)
        payload["decisions"] = dict(sorted(self.decisions_by_kind.items()))
        if verify:
            payload["verification"] = self.verify()
        return payload

    # -- exposition --------------------------------------------------------

    def _metric_families(self):
        yield MetricFamily(
            name="pesos_audit_records_total",
            kind="counter",
            help="Policy-decision records appended to the audit chain.",
            samples=[
                Sample("pesos_audit_records_total", {}, float(len(self.log)))
            ],
        )
        yield MetricFamily(
            name="pesos_audit_chain_head",
            kind="gauge",
            help="Current audit-chain head digest (as the single sample's "
            "label; the value is the chain length it commits to).",
            samples=[
                Sample(
                    "pesos_audit_chain_head",
                    {"digest": self.log.head},
                    float(len(self.log)),
                )
            ],
        )
        yield MetricFamily(
            name="pesos_audit_decisions_total",
            kind="counter",
            help="Audited decisions, by kind.",
            samples=[
                Sample(
                    "pesos_audit_decisions_total", {"decision": kind}, count
                )
                for kind, count in sorted(self.decisions_by_kind.items())
            ],
        )


__all__ = [
    "DECISION_ALLOW",
    "DECISION_DENY",
    "DECISION_FORK",
    "DECISION_PIN",
    "DECISION_SHED",
    "PolicyAuditor",
]
