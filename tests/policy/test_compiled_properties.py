"""Property-based tests: shipped evaluator vs the reference interpreter.

Two families:

* equivalence — for any policy the grammar can express and any
  context, the closures produce a Decision identical field-by-field
  to the reference :class:`PolicyInterpreter`'s (the harness supplies
  the corpus-shaped random contexts);
* cache soundness — an epoch advance (what ``put_policy`` and every
  other mutation apply) must never let the engine serve a stale grant
  or denial;
* fact lookup — ``objSays`` answers a pattern with nothing to bind by
  set membership and any other by the ordered scan, and both equal the
  ordered ``unify_tuple`` scan (``POLICY_SEED`` moves the examples).
"""

import os
import string

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.policy.ast import (
    HashValue,
    IntValue,
    PubKeyValue,
    StrValue,
    TupleValue,
)
from repro.policy.compiled import PolicyEngine, compile_closures
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext, Facts, ObjectView, VersionInfo
from repro.policy.evalcore import (
    Bindings,
    TuplePattern,
    Unbound,
    ground_tuple,
    unify_tuple,
)
from repro.policy.predicates import lookup_predicate
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


# -- objSays: lookup for ground patterns, ordered scan for the rest --------

POLICY_SEED = int(os.environ.get("POLICY_SEED", "3"))
_SLOTS = 3

# A universe small enough that patterns meet facts, with same-payload
# values of different types (``'a'`` vs ``h'a'`` vs ``k'a'``).
_atoms = st.one_of(
    st.builds(IntValue, st.integers(min_value=0, max_value=2)),
    st.builds(StrValue, st.sampled_from(["a", "b"])),
    st.builds(HashValue, st.sampled_from(["a", "ab"])),
    st.builds(PubKeyValue, st.sampled_from(["a", "fp"])),
)
_values = st.recursive(
    _atoms,
    lambda inner: st.builds(
        TupleValue,
        st.sampled_from(["p", "q"]),
        st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=4,
)
_fact = st.builds(
    TupleValue,
    st.sampled_from(["f", "g"]),
    st.lists(_values, max_size=3).map(tuple),
)


@st.composite
def _pattern_of(draw, value):
    """``value`` with some positions opened up as slots (possibly the
    same slot twice), nested tuples included."""
    elems = []
    for arg in value.args:
        choice = draw(st.integers(min_value=0, max_value=4))
        if isinstance(arg, TupleValue) and draw(st.booleans()):
            elems.append(draw(_pattern_of(arg)))
        elif choice == 0:
            elems.append(Unbound(draw(st.integers(0, _SLOTS - 1))))
        elif choice == 1:
            elems.append(draw(_values))
        else:
            elems.append(arg)
    return TuplePattern(value.name, tuple(elems))


@st.composite
def _facts_and_pattern(draw):
    facts = draw(st.lists(_fact, max_size=8))
    # Mostly a pattern cut from something the object does say.
    base = (
        draw(st.sampled_from(facts))
        if facts and draw(st.integers(0, 3))
        else draw(_fact)
    )
    prebound = draw(
        st.lists(st.one_of(st.none(), _values), min_size=_SLOTS, max_size=_SLOTS)
    )
    return facts, draw(_pattern_of(base)), prebound


def _bindings(prebound) -> Bindings:
    bindings = Bindings(_SLOTS)
    for slot, value in enumerate(prebound):
        if value is not None:
            bindings.bind(slot, value)
    return bindings


def _resolved(pattern, bindings):
    """The pattern as argument evaluation hands it to the predicate:
    bound slots already replaced by their values."""
    elems = []
    for element in pattern.elems:
        if isinstance(element, Unbound):
            element = bindings.lookup(element.slot)
        elif isinstance(element, TuplePattern):
            element = _resolved(element, bindings)
        elems.append(element)
    return TuplePattern(pattern.name, tuple(elems))


@seed(POLICY_SEED)
@settings(max_examples=300, deadline=None)
@given(case=_facts_and_pattern())
def test_obj_says_lookup_equals_the_ordered_unify_scan(case):
    said, pattern, prebound = case
    content = "".join(fact.render() + "\n" for fact in said).encode()
    facts = Facts.parse(content)
    assert facts.ordered == tuple(said)  # render/parse round trip
    assert facts.ground == frozenset(said)

    # The oracle: first fact, in content order, the pattern unifies with.
    expected = _bindings(prebound)
    evaluated = _resolved(pattern, expected)
    held = any(unify_tuple(evaluated, fact, expected) for fact in said)

    ground = ground_tuple(evaluated)
    if ground is not None:
        assert (ground in facts.ground) == held
        assert expected.snapshot() == _bindings(prebound).snapshot()

    view = ObjectView(
        "log", 0, {0: VersionInfo(len(content), "h", load=lambda: facts)}
    )
    ctx = EvalContext(operation="read", session_key="fp", objects={"log": view})
    actual = _bindings(prebound)
    args = [StrValue("log"), IntValue(0), _resolved(pattern, actual)]
    assert lookup_predicate("objSays").impl(ctx, actual, args) == held
    assert actual.snapshot() == expected.snapshot()
