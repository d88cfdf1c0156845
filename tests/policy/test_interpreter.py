"""Evaluator + predicate semantics, ending with the paper's policies."""

import pytest

from repro.errors import PolicyDenied
from repro.policy.compiled import compiled_form
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext, VersionInfo
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter


def _ctx(**kwargs):
    defaults = dict(operation="read", session_key="alice-fp")
    defaults.update(kwargs)
    return EvalContext(**defaults)


def _eval(source, operation, ctx):
    return compiled_form(compile_policy(source)).evaluate(operation, ctx)


def _object(object_id, version, content=b"data", policy_hash="", extra=None):
    versions = {version: VersionInfo.from_content(content, policy_hash)}
    versions.update(extra or {})
    return ObjectView(
        object_id=object_id, current_version=version, versions=versions
    )


# -- basic evaluation machinery ------------------------------------------------

def test_session_key_grant_and_deny():
    policy = "read :- sessionKeyIs(k'alice-fp')"
    assert _eval(policy, "read", _ctx()).granted
    assert not _eval(policy, "read", _ctx(session_key="mallory")).granted


def test_missing_permission_denied_by_default():
    policy = "read :- sessionKeyIs(k'alice-fp')"
    assert not _eval(policy, "update", _ctx()).granted
    assert not _eval(policy, "delete", _ctx()).granted


def test_disjunction_tries_all_clauses():
    policy = r"read :- sessionKeyIs(k'bob') \/ sessionKeyIs(k'alice-fp')"
    decision = _eval(policy, "read", _ctx())
    assert decision.granted
    assert decision.matched_clause == 1


def test_conjunction_requires_all():
    policy = r"read :- sessionKeyIs(k'alice-fp') /\ eq(1, 2)"
    assert not _eval(policy, "read", _ctx()).granted


def test_check_raises_on_denial():
    policy = compile_policy("read :- sessionKeyIs(k'other')")
    with pytest.raises(PolicyDenied):
        PolicyInterpreter().check(policy, "read", _ctx())


def test_decision_counts_predicates():
    policy = r"read :- eq(1, 2) \/ eq(1, 1)"
    decision = _eval(policy, "read", _ctx())
    assert decision.predicates_evaluated == 2


def test_variable_binding_visible_in_decision():
    policy = "read :- sessionKeyIs(K)"
    decision = _eval(policy, "read", _ctx())
    assert decision.granted
    assert decision.bindings["K"].value == "alice-fp"


def test_bindings_do_not_leak_between_clauses():
    # First clause binds K then fails; second clause must rebind fresh.
    policy = r"read :- sessionKeyIs(K) /\ eq(K, k'nobody') \/ sessionKeyIs(K)"
    decision = _eval(policy, "read", _ctx())
    assert decision.granted
    assert decision.matched_clause == 1


# -- relational predicates -----------------------------------------------------

def test_eq_binds_then_compares():
    assert _eval(r"read :- eq(X, 5) /\ eq(X, 5)", "read", _ctx()).granted
    assert not _eval(r"read :- eq(X, 5) /\ eq(X, 6)", "read", _ctx()).granted


def test_eq_two_unbound_fails_clause():
    assert not _eval("read :- eq(X, Y)", "read", _ctx()).granted


def test_relational_operators():
    ctx = _ctx()
    assert _eval("read :- le(1, 1)", "read", ctx).granted
    assert _eval("read :- lt(1, 2)", "read", ctx).granted
    assert not _eval("read :- lt(2, 2)", "read", ctx).granted
    assert _eval("read :- ge(2, 2)", "read", ctx).granted
    assert _eval("read :- gt(3, 2)", "read", ctx).granted
    assert not _eval("read :- gt(2, 3)", "read", ctx).granted


def test_relational_requires_bound_ints():
    assert not _eval("read :- lt(X, 2)", "read", _ctx()).granted


def test_arithmetic_in_argument():
    policy = r"read :- eq(X, 2) /\ eq(X + 1, 3) /\ eq(X - 1, 1)"
    assert _eval(policy, "read", _ctx()).granted


# -- object predicates ------------------------------------------------------------

def test_obj_id_binds_identifier():
    ctx = _ctx(this_id="obj-1", objects={"obj-1": _object("obj-1", 0)})
    policy = r"read :- objId(this, O) /\ eq(O, 'obj-1')"
    assert _eval(policy, "read", ctx).granted


def test_obj_id_null_for_missing_object():
    ctx = _ctx(operation="update", this_id=None, request_version=0)
    policy = r"update :- objId(this, NULL) /\ nextVersion(0)"
    assert _eval(policy, "update", ctx).granted


def test_obj_id_null_fails_for_existing_object():
    ctx = _ctx(this_id="obj-1", objects={"obj-1": _object("obj-1", 0)})
    assert not _eval("read :- objId(this, NULL)", "read", _ctx(this_id="x", objects={"x": _object("x", 0)})).granted
    assert not _eval("read :- objId(this, NULL)", "read", ctx).granted


def test_obj_id_variable_fails_for_missing_object():
    ctx = _ctx(this_id=None)
    assert not _eval("read :- objId(this, O)", "read", ctx).granted


def test_curr_version():
    ctx = _ctx(this_id="o", objects={"o": _object("o", 7)})
    assert _eval(r"read :- currVersion(this, 7)", "read", ctx).granted
    assert not _eval(r"read :- currVersion(this, 6)", "read", ctx).granted
    decision = _eval(r"read :- currVersion(this, V) /\ eq(V, 7)", "read", ctx)
    assert decision.granted


def test_curr_index_alias():
    ctx = _ctx(this_id="o", objects={"o": _object("o", 3)})
    assert _eval("read :- currIndex(this, 3)", "read", ctx).granted


def test_next_version_checks_request():
    ctx = _ctx(operation="update", request_version=4)
    assert _eval("update :- nextVersion(4)", "update", ctx).granted
    assert not _eval("update :- nextVersion(5)", "update", ctx).granted
    assert not _eval(
        "update :- nextVersion(4)", "update", _ctx(operation="update")
    ).granted  # no version argument supplied


def test_next_index_two_arg_form():
    ctx = _ctx(
        operation="update",
        this_id="o",
        request_version=4,
        objects={"o": _object("o", 3)},
    )
    policy = r"update :- objId(this, O) /\ currIndex(O, V) /\ nextIndex(O, V + 1)"
    assert _eval(policy, "update", ctx).granted


def test_obj_size():
    ctx = _ctx(this_id="o", objects={"o": _object("o", 1, content=b"12345")})
    assert _eval("read :- objSize(this, 1, 5)", "read", ctx).granted
    assert not _eval("read :- objSize(this, 1, 6)", "read", ctx).granted
    # Unbound version binds to current.
    policy = r"read :- objSize(this, V, S) /\ eq(V, 1) /\ eq(S, 5)"
    assert _eval(policy, "read", ctx).granted


def test_obj_hash():
    from repro.policy.context import content_hash

    digest = content_hash(b"payload")
    ctx = _ctx(this_id="o", objects={"o": _object("o", 2, content=b"payload")})
    assert _eval(f"read :- objHash(this, 2, h'{digest}')", "read", ctx).granted
    assert not _eval("read :- objHash(this, 2, h'0000')", "read", ctx).granted


def test_obj_policy():
    ctx = _ctx(
        this_id="o",
        objects={"o": _object("o", 1, policy_hash="feedface")},
    )
    assert _eval("read :- objPolicy(this, 1, h'feedface')", "read", ctx).granted


def test_obj_hash_of_pending_version():
    from repro.policy.context import content_hash

    incoming = b"new content"
    ctx = _ctx(
        operation="update",
        this_id="o",
        objects={"o": _object("o", 3)},
        pending=VersionInfo.from_content(incoming),
        request_version=4,
    )
    policy = (
        r"update :- currVersion(this, V) /\ "
        f"objHash(this, V + 1, h'{content_hash(incoming)}')"
    )
    assert _eval(policy, "update", ctx).granted


def test_missing_version_info_fails():
    ctx = _ctx(this_id="o", objects={"o": _object("o", 5)})
    assert not _eval("read :- objSize(this, 3, S)", "read", ctx).granted


def test_obj_says_unifies_content():
    log = _object("log", 1, content=b"'read'('obj', 3, k'alice-fp')")
    ctx = _ctx(this_id="obj", log_id="log",
               objects={"obj": _object("obj", 3), "log": log})
    policy = (
        r"read :- objId(this, O) /\ currVersion(O, V) /\ sessionKeyIs(U)"
        r" /\ objSays(log, LV, 'read'(O, V, U))"
    )
    assert _eval(policy, "read", ctx).granted


def test_obj_says_rejects_wrong_entry():
    log = _object("log", 1, content=b"'read'('other', 3, k'alice-fp')")
    ctx = _ctx(this_id="obj", log_id="log",
               objects={"obj": _object("obj", 3), "log": log})
    policy = r"read :- objId(this, O) /\ objSays(log, LV, 'read'(O, V, U))"
    assert not _eval(policy, "read", ctx).granted


def test_obj_says_matches_any_line():
    log = _object(
        "log", 2, content=b"'entry'(1)\n'entry'(2)\n'entry'(3)"
    )
    ctx = _ctx(log_id="log", objects={"log": log})
    assert _eval("read :- objSays(log, V, 'entry'(2))", "read", ctx).granted
