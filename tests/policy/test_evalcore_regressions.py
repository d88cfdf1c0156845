"""Regressions for the compare-or-set unification bugs.

Two historical failure modes, each asserted under BOTH the reference
interpreter (whose ``compare_or_set`` and ``unify_tuple`` carry the
fixes) and the shipped closures (whose binding analysis must decide
every occurrence the same way):

1. ``compare_or_set`` double-bind — a variable that was unbound when a
   predicate's arguments were evaluated may have been bound *by the
   predicate itself* before a later argument is compared
   (``objSize(this, V, V)``: version resolution binds ``V``, then the
   size argument used to re-``bind`` instead of comparing, turning a
   legitimate grant into a structural ``EvalError``).
2. ``unify_tuple`` partial-binding pollution — a failed match against
   one fact used to leave bindings from its matched prefix (including
   *nested* tuple elements) behind, poisoning the attempt against the
   next fact in the same predicate call.
"""

from repro.policy.compiled import compile_closures
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext, VersionInfo
from tests.policy.difftest import assert_identical
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter

INTERP = PolicyInterpreter()


def _both_paths(policy, operation, ctx):
    """Evaluate under interpreter and closures; assert identity."""
    interpreted = INTERP.evaluate(policy, operation, ctx)
    compiled = compile_closures(policy).evaluate(operation, ctx)
    assert_identical(interpreted, compiled)
    return compiled


def _ctx(view: ObjectView) -> EvalContext:
    return EvalContext(
        operation="read",
        session_key="e1" * 32,
        this_id=view.object_id,
        objects={view.object_id: view},
    )


def test_repeated_variable_compares_against_live_binding():
    """objSize(this, V, V): V is bound by version resolution, then the
    size argument must *compare*, not double-bind."""
    policy = compile_policy("read :- objSize(this, V, V)")
    # Version 2 holding two bytes: size == version, so the clause holds.
    view = ObjectView(
        object_id="obj",
        current_version=2,
        versions={2: VersionInfo.from_content(b"xy")},
    )
    decision = _both_paths(policy, "read", _ctx(view))
    assert decision.granted
    assert decision.bindings["V"].value == 2


def test_repeated_variable_mismatch_denies_cleanly():
    policy = compile_policy("read :- objSize(this, V, V)")
    # Version 3 holding two bytes: 2 != 3 must deny, not error.
    view = ObjectView(
        object_id="obj",
        current_version=3,
        versions={3: VersionInfo.from_content(b"xy")},
    )
    decision = _both_paths(policy, "read", _ctx(view))
    assert not decision.granted
    assert decision.clause_path == "read/denied"


def test_failed_fact_leaves_no_nested_bindings_behind():
    """A nested pattern that fails against one fact must not poison the
    match against the next fact of the same objSays call."""
    policy = compile_policy("read :- objSays(this, LV, 'p'('q'(X), X))")
    content = b"'p'('q'(1),2)\n'p'('q'(3),3)"
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(content)},
    )
    decision = _both_paths(policy, "read", _ctx(view))
    assert decision.granted
    assert decision.bindings["X"].value == 3


def test_repeated_slot_within_one_pattern_unifies_by_first_occurrence():
    policy = compile_policy("read :- objSays(this, LV, 'w'(H, H))")
    content = b"'w'(1,2)\n'w'(5,5)"
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(content)},
    )
    decision = _both_paths(policy, "read", _ctx(view))
    assert decision.granted
    assert decision.bindings["H"].value == 5


def test_repeated_slot_mismatch_everywhere_denies():
    policy = compile_policy("read :- objSays(this, LV, 'w'(H, H))")
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(b"'w'(1,2)\n'w'(3,4)")},
    )
    decision = _both_paths(policy, "read", _ctx(view))
    assert not decision.granted
