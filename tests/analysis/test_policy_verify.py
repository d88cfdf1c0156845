"""Policy static verifier: defect fixtures + the controller surface."""

from pathlib import Path

import pytest

from repro.analysis.policy_verify import (
    verify_policy,
    verify_source,
    warnings_payload,
)
from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import (
    Request,
    parse_http_response,
    render_http_response,
)
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.policy.ast import IntValue
from repro.policy.binary import CompiledPolicy, Instruction
from repro.policy.compiler import compile_source

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "policies").glob(
        "*.policy"
    )
)


def rules(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Defect fixtures (one per rule)
# ---------------------------------------------------------------------------

def test_unsatisfiable_interval_conjunction():
    findings = verify_source(
        "update :- currVersion(O, V) /\\ lt(V, 5) /\\ gt(V, 9)"
    )
    assert rules(findings) == ["policy/unsat"]
    assert "empty interval" in findings[0].message


def test_unsatisfiable_strict_bounds_touching():
    # lt(V, 5) /\ gt(V, 4) admits nothing over the integers.
    findings = verify_source(
        "update :- currVersion(O, V) /\\ lt(V, 5) /\\ gt(V, 4)"
    )
    assert rules(findings) == ["policy/unsat"]


def test_satisfiable_bounds_are_clean():
    findings = verify_source(
        "update :- currVersion(O, V) /\\ ge(V, 5) /\\ le(V, 5)"
    )
    assert findings == []


def test_conflicting_equalities():
    findings = verify_source(
        "update :- objId(this, O) /\\ eq(O, 1) /\\ eq(O, 2)"
    )
    assert rules(findings) == ["policy/unsat"]


def test_constant_comparison_always_false():
    findings = verify_source("update :- objId(this, O) /\\ ge(3, 5)")
    assert rules(findings) == ["policy/unsat"]


def test_shadowed_clause_under_first_match():
    findings = verify_source(
        "read :- sessionKeyIs(k'aa')"
        " \\/ sessionKeyIs(k'aa') /\\ objId(this, O)"
    )
    assert rules(findings) == ["policy/shadowed"]
    assert findings[0].severity == "warning"
    assert "clause 2" in findings[0].message


def test_duplicate_clause_reported_as_shadowed():
    findings = verify_source(
        "read :- sessionKeyIs(k'aa') \\/ sessionKeyIs(k'aa')"
    )
    assert rules(findings) == ["policy/shadowed"]
    assert "duplicate" in findings[0].message


def test_distinct_clauses_are_not_shadowed():
    findings = verify_source(
        "read :- sessionKeyIs(k'aa') \\/ sessionKeyIs(k'bb')"
    )
    assert findings == []


def test_undefined_predicate_opcode():
    policy = CompiledPolicy(
        permissions={"read": [[Instruction(opcode=99, args=[])]]}
    )
    findings = verify_policy(policy)
    assert "policy/undefined-predicate" in rules(findings)


def test_bad_arity():
    # eq is binary; a unary call can never evaluate.
    policy = compile_source("read :- sessionKeyIs(k'aa')")
    policy.permissions["read"][0].append(
        Instruction(opcode=1, args=[["c", 0]])
    )
    policy._blob_cache = None
    findings = verify_policy(policy)
    assert "policy/bad-arity" in rules(findings)


def test_bad_reference_and_bad_index():
    policy = CompiledPolicy(
        permissions={
            "read": [
                [Instruction(opcode=20, args=[["r", "self"], ["c", 7]])]
            ]
        }
    )
    findings = verify_policy(policy)
    reported = rules(findings)
    assert reported.count("policy/bad-reference") == 2  # ref + pool index


def test_divergent_tampered_binary():
    policy = compile_source("read :- sessionKeyIs(k'aa')")
    policy.constants.append(IntValue(12345))  # dead weight in the pool
    policy._blob_cache = None
    findings = verify_policy(policy)
    assert "policy/divergent" in rules(findings)


def test_divergent_stale_embedded_source():
    policy = compile_source("read :- sessionKeyIs(k'aa')")
    policy.source = "read :- sessionKeyIs(k'bb')"
    findings = verify_policy(policy)
    assert rules(findings) == ["policy/divergent"]
    assert "embedded source" in findings[0].message


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_policies_are_clean(path):
    assert verify_source(path.read_text()) == []


def test_warnings_payload_shape():
    findings = verify_source(
        "update :- currVersion(O, V) /\\ lt(V, 5) /\\ gt(V, 9)"
    )
    payload = warnings_payload(findings)
    assert payload[0]["rule"] == "policy/unsat"
    assert set(payload[0]) == {"rule", "severity", "message"}


# ---------------------------------------------------------------------------
# Controller + HTTP surface
# ---------------------------------------------------------------------------

def _controller(**config):
    cluster = DriveCluster(num_drives=1)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return PesosController(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(**config),
    )


BAD_POLICY = "update :- currVersion(O, V) /\\ lt(V, 5) /\\ gt(V, 9)"


def test_put_policy_attaches_structured_warnings():
    controller = _controller()
    response = controller.put_policy("fp", BAD_POLICY)
    assert response.ok  # advisory, never a rejection
    warnings = response.extra["warnings"]
    assert warnings[0]["rule"] == "policy/unsat"


def test_put_policy_clean_source_has_no_warnings():
    controller = _controller()
    response = controller.put_policy("fp", "read :- sessionKeyIs(K)")
    assert response.ok
    assert "warnings" not in response.extra


def test_warnings_survive_the_http_response_roundtrip():
    controller = _controller()
    response = controller.handle(
        Request(method="put_policy", value=BAD_POLICY.encode()), "fp"
    )
    wire = render_http_response(response)
    assert b"X-Pesos-Policy-Warnings:" in wire
    parsed = parse_http_response(wire)
    assert parsed.extra["warnings"] == response.extra["warnings"]
