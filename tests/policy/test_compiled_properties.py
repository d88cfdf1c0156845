"""Property-based tests: shipped evaluator vs the reference interpreter.

Two families:

* equivalence — for any policy the grammar can express and any
  context, the closures produce a Decision identical field-by-field
  to the reference :class:`PolicyInterpreter`'s (the harness supplies
  the corpus-shaped random contexts);
* cache soundness — an epoch advance (what ``put_policy`` and every
  other mutation apply) must never let the engine serve a stale grant
  or denial.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.compiled import PolicyEngine, compile_closures
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext
from tests.policy.difftest import assert_identical, run_differential
from tests.policy.reference_interpreter import PolicyInterpreter

INTERP = PolicyInterpreter()

_fingerprints = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10
)
# The grammar has no negative integer literals.
_small_ints = st.integers(min_value=0, max_value=6)


def _acl_source(readers) -> str:
    if not readers:
        return "read :- eq(1, 0)"
    clause = " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in readers)
    return f"read :- {clause}"


def _mixed_source(readers, a: int, b: int) -> str:
    """ACL disjuncts plus constant-foldable relational/arith clauses."""
    clauses = [f"sessionKeyIs(k'{fp}')" for fp in readers]
    clauses.append(f"eq({a}, {b}) /\\ sessionKeyIs(K)")
    clauses.append(
        f"ge({a} + 1, {b}) /\\ eq(X, {a}) /\\ lt(X, {b} + 2) "
        f"/\\ sessionKeyIs(K)"
    )
    return "read :- " + " \\/ ".join(clauses)


@settings(max_examples=60, deadline=None)
@given(
    readers=st.lists(_fingerprints, max_size=4, unique=True),
    a=_small_ints,
    b=_small_ints,
    probe=_fingerprints,
)
def test_closures_equal_interpreter_on_generated_policies(
    readers, a, b, probe
):
    policy = compile_policy(_mixed_source(readers, a, b))
    fast = compile_closures(policy)
    for session_key in readers + [probe]:
        ctx = EvalContext(operation="read", session_key=session_key)
        assert_identical(
            INTERP.evaluate(policy, "read", ctx),
            fast.evaluate("read", ctx),
            label=f"generated probe={session_key}",
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_corpus_differential_holds_for_any_seed(seed):
    report = run_differential(seed=seed, per_operation=2)
    assert report.trace_sha_interpreter == report.trace_sha_compiled


@settings(max_examples=40, deadline=None)
@given(
    first=st.lists(_fingerprints, max_size=3, unique=True),
    second=st.lists(_fingerprints, max_size=3, unique=True),
    probes=st.lists(_fingerprints, min_size=1, max_size=6),
)
def test_put_policy_never_serves_stale_decisions(first, second, probes):
    """Replace the active policy the way the controller does on
    put_policy (an epoch advance): every later decision must
    reflect the new policy, cached history notwithstanding."""
    engine = PolicyEngine()
    active = compile_policy(_acl_source(first))
    for probe in probes:
        ctx = EvalContext(operation="read", session_key=probe)
        granted = engine.evaluate(active, "read", ctx).granted
        assert granted == (probe in first)
    engine.advance_epoch()
    active = compile_policy(_acl_source(second))
    for probe in probes:
        ctx = EvalContext(operation="read", session_key=probe)
        granted = engine.evaluate(active, "read", ctx).granted
        assert granted == (probe in second)


@settings(max_examples=30, deadline=None)
@given(
    readers=st.lists(_fingerprints, min_size=1, max_size=3, unique=True),
    advances=st.integers(min_value=1, max_value=3),
)
def test_epoch_advance_forces_re_evaluation(readers, advances):
    """After any number of epoch advances nothing cached before is
    reachable — the next evaluation is a genuine miss, so a decision
    that depended on mutated world state cannot be replayed."""
    engine = PolicyEngine()
    policy = compile_policy(_acl_source(readers))
    ctx = EvalContext(operation="read", session_key=readers[0])
    assert engine.evaluate(policy, "read", ctx).granted
    hits_before = engine.decisions.stats.hits
    for _ in range(advances):
        engine.advance_epoch()
    assert len(engine.decisions) == 0
    assert engine.evaluate(policy, "read", ctx).granted
    assert engine.decisions.stats.hits == hits_before
    assert engine.decisions.stats.misses >= 2
