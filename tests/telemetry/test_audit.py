"""The four record kinds into the chain, the chain onto the scrape."""

from repro.policy.compiled import Decision
from repro.sgx.auditlog import (
    DECISION_ALLOW,
    DECISION_DENY,
    DECISION_SHED,
    AuditLog,
)
from repro.telemetry import Telemetry, render_prometheus


def _allow(operation="read", clause=0):
    return Decision(
        granted=True, operation=operation, matched_clause=clause,
        predicates_evaluated=2,
    )


def _deny(operation="write"):
    return Decision(granted=False, operation=operation,
                    predicates_evaluated=3)


def test_record_decision_appends_allow_and_deny():
    auditor = AuditLog(capacity=16)
    auditor.record_decision(
        _allow(), policy_hash="p1", session="fp-a", key="k1", vnow=1.0
    )
    auditor.record_decision(
        _deny(), policy_hash="p1", session="fp-b", key="k2", vnow=2.0
    )
    allow, deny = auditor.records
    assert allow.decision == DECISION_ALLOW
    assert allow.clause_path == "read/clause[0]"
    assert allow.detail == "predicates=2"
    assert deny.decision == DECISION_DENY
    assert deny.clause_path == "write/denied"
    assert auditor.decisions_by_kind == {"allow": 1, "deny": 1}
    assert auditor.verify()["ok"]


def test_record_shed_skips_policy_fields():
    auditor = AuditLog(capacity=16)
    auditor.record_shed(
        method="put", reason="rate", session="fp-a", key="k", vnow=3.0
    )
    (record,) = auditor.records
    assert record.decision == DECISION_SHED
    assert record.operation == "put"
    assert record.detail == "rate"
    assert record.policy_hash == ""
    assert auditor.decisions_by_kind == {"shed": 1}


def test_snapshot_counts_and_optional_verification():
    auditor = AuditLog(capacity=16)
    auditor.record_decision(
        _allow(), policy_hash="p1", session="fp-a", key="k", vnow=1.0
    )
    snap = auditor.snapshot()
    assert snap["decisions"] == {"allow": 1}
    assert "verification" not in snap
    snap = auditor.snapshot(verify=True)
    assert snap["verification"]["ok"]


def test_same_sequence_gives_identical_heads():
    def run():
        auditor = AuditLog(capacity=16)
        auditor.record_decision(
            _allow(), policy_hash="p", session="fp-a", key="k", vnow=1.0
        )
        auditor.record_shed(
            method="get", reason="queue", session="fp-b", key="k2", vnow=2.0
        )
        return auditor.head

    assert run() == run()


def test_metric_families_bound_to_telemetry():
    telemetry = Telemetry()
    auditor = AuditLog(capacity=16, telemetry=telemetry)
    auditor.record_decision(
        _allow(), policy_hash="p", session="fp-a", key="k", vnow=1.0
    )
    auditor.record_decision(
        _deny(), policy_hash="p", session="fp-a", key="k", vnow=2.0
    )
    text = render_prometheus(telemetry.registry)
    assert "pesos_audit_records_total 2" in text
    assert f'pesos_audit_chain_head{{digest="{auditor.head}"}} 2' in text
    assert 'pesos_audit_decisions_total{decision="allow"} 1' in text
    assert 'pesos_audit_decisions_total{decision="deny"} 1' in text


def test_null_telemetry_skips_binding():
    from repro.telemetry import NULL_TELEMETRY

    auditor = AuditLog(capacity=16, telemetry=NULL_TELEMETRY)
    auditor.record_shed(
        method="get", reason="rate", session="fp", key="k", vnow=1.0
    )
    # The chain still records; the null sink just drops the readers.
    assert len(auditor) == 1
    assert auditor.verify()["ok"]


def test_every_kind_is_counted_where_it_is_chained():
    # Pin and fork map onto the same schema; counting happens in
    # ``append``, so a kind added later is counted (and verified, and
    # taint-checked) without touching anything else.
    auditor = AuditLog(capacity=16)
    auditor.record_pin(vnow=1.0, epoch=7, root="ab" * 32, event="settle")
    auditor.record_fork(vnow=2.0, reason="counter ahead of sealed pin")
    auditor.append(3.0, "fp-a", "get", "k", decision="traced", detail="t-17")
    pin, fork, traced = auditor.records
    assert (pin.operation, pin.key, pin.policy_hash, pin.detail) == (
        "pin", "epoch:7", "ab" * 32, "settle",
    )
    assert (fork.operation, fork.session, fork.key, fork.detail) == (
        "bootstrap", "", "", "counter ahead of sealed pin",
    )
    assert auditor.snapshot()["decisions"] == {
        "fork": 1, "pin": 1, "traced": 1,
    }
    assert traced.prev_hash == fork.entry_hash
    assert auditor.verify()["ok"]
