"""Property-based tests: shipped evaluator vs the reference interpreter.

Four families:

* equivalence — for any policy the grammar can express and any
  context, the closures produce a Decision identical field-by-field
  to the reference :class:`PolicyInterpreter`'s (the harness supplies
  the corpus-shaped random contexts);
* cache soundness — replacing a policy (a new content hash;
  ``put_policy`` touches no cached decision) must never let the engine
  serve a stale grant or denial;
* fact lookup — ``objSays`` answers a pattern with nothing to bind by
  set membership and any other with its unifier, and both equal the
  ordered ``unify_tuple`` scan (``POLICY_SEED`` moves the examples);
* read-set — the decision cache keys a verdict by the inputs its
  policy's conjuncts can read and by nothing else, so one engine serving
  any sequence of requests answers each as a fresh evaluation would
  (``POLICY_SEED`` again), and every ``ctx`` attribute the evaluator
  reads is accounted to a shape component or to "uncacheable".
"""

import ast
import os
import string
from pathlib import Path

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import repro.policy.compiled as compiled_module
from repro.policy.ast import (
    HashValue,
    IntValue,
    PubKeyValue,
    StrValue,
    TupleValue,
)
from repro.policy.compiled import (
    PolicyEngine,
    compile_closures,
    compiled_form,
)
from repro.policy.compiler import compile_policy
from repro.policy.context import (
    EvalContext,
    Facts,
    RequestInputs,
    VersionInfo,
)
from tests.policy.difftest import assert_identical, run_differential
from tests.policy.reference_interpreter import (
    Bindings,
    ObjectView,
    PolicyInterpreter,
    TuplePattern,
    Unbound,
    unify_tuple,
)

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
    put_policy (a new content hash, nothing invalidated): every later
    decision must reflect the new policy, cached history
    notwithstanding."""
    engine = PolicyEngine()
    active = compile_policy(_acl_source(first))
    for probe in probes:
        ctx = EvalContext(operation="read", session_key=probe)
        granted = engine.evaluate(active, "read", ctx).granted
        assert granted == (probe in first)
    active = compile_policy(_acl_source(second))
    for probe in probes:
        ctx = EvalContext(operation="read", session_key=probe)
        granted = engine.evaluate(active, "read", ctx).granted
        assert granted == (probe in second)


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
    bindings = Bindings(_SLOTS, [f"X{slot}" for slot in range(_SLOTS)])
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


def _term(pattern) -> str:
    """``pattern`` in policy syntax, slot ``i`` as variable ``Xi``."""
    def element(item):
        if isinstance(item, Unbound):
            return f"X{item.slot}"
        if isinstance(item, TuplePattern):
            return _term(item)
        return item.render()

    return f"'{pattern.name}'(" + ",".join(map(element, pattern.elems)) + ")"


@seed(POLICY_SEED)
@settings(max_examples=300, deadline=None)
@given(case=_facts_and_pattern())
def test_obj_says_lookup_equals_the_ordered_unify_scan(case):
    """The shipped ``objSays`` answers a pattern with nothing left to
    bind by membership and any other with its unifier; either way it
    grants and binds exactly as the ordered ``unify_tuple`` scan does.
    The slots bound beforehand are bound by a first conjunct that reads
    them off the target object."""
    said, pattern, prebound = case
    content = "".join(fact.render() + "\n" for fact in said).encode()
    facts = Facts.parse(content)
    assert facts.ordered == tuple(said)  # render/parse round trip
    assert facts.ground == frozenset(said)

    # The oracle: first fact, in content order, the pattern unifies with.
    expected = _bindings(prebound)
    evaluated = _resolved(pattern, expected)
    held = any(unify_tuple(evaluated, fact, expected) for fact in said)

    bound = [slot for slot, value in enumerate(prebound) if value is not None]
    conjuncts = [f"objSays(log, LV, {_term(pattern)})"]
    if bound:
        conjuncts.insert(
            0,
            "objSays(this, PV, "
            + _term(TuplePattern("pre", tuple(map(Unbound, bound))))
            + ")",
        )
    policy = compile_policy("read :- " + " /\\ ".join(conjuncts))
    pre = TupleValue("pre", tuple(prebound[slot] for slot in bound))

    def view(object_id, data):
        return ObjectView(object_id, 0, {0: VersionInfo.from_content(data)})

    ctx = EvalContext(
        operation="read",
        session_key="fp",
        this_id="obj",
        log_id="log",
        objects={
            "obj": view("obj", pre.render().encode()),
            "log": view("log", content),
        },
    )
    shipped = compile_closures(policy).evaluate("read", ctx)
    assert_identical(INTERP.evaluate(policy, "read", ctx), shipped)
    assert shipped.granted == held
    if held:
        assert {
            name: value
            for name, value in shipped.bindings.items()
            if name.startswith("X")
        } == expected.snapshot()


# -- the request shape is the policy's read-set -----------------------------

#: Every cacheable way a conjunct can look at a request, over pools
#: small enough that two contexts often agree on everything but one
#: input.  Variables are per clause, so ``objId(this, O) /\ objId(log,
#: O)`` relates two inputs and ``eq(V, 1) /\ nextVersion(V)`` pins one.
_CONJUNCTS = [
    "sessionKeyIs(k'aa')", "sessionKeyIs(k'bb')", "sessionKeyIs(K)",
    "objId(this, 'obj-a')", "objId(this, NULL)", "objId(this, O)",
    "objId(log, 'obj-a')", "objId(log, NULL)", "objId(log, O)",
    "objId(log, L)",
    "nextVersion(0)", "nextVersion(V)", "nextVersion(V + 1)",
    "nextIndex(1)", "nextIndex(log, V)", "nextIndex(this, 1)",
    "eq(V, 1)", "eq(1, 1)", "eq(O, 'obj-b')",
]
_READ_SET = {
    "reads_this": ("this",),
    "reads_log": ("log",),
    "reads_version": ("nextVersion", "nextIndex"),
}

_clause = st.lists(st.sampled_from(_CONJUNCTS), min_size=1, max_size=3)
_rule = st.lists(_clause, min_size=1, max_size=3)
_pendings = [
    None,
    VersionInfo.from_content(b"one body"),
    VersionInfo.from_content(b"another body", policy_hash="ab"),
]
_request = st.tuples(
    st.sampled_from(["read", "update"]),
    st.sampled_from(["aa", "bb", "cc"]),            # session key
    st.sampled_from([None, "obj-a", "obj-b"]),      # this_id
    st.sampled_from([None, "obj-a", "log-a"]),      # log_id
    st.sampled_from([None, 0, 1, 2]),               # request_version
    st.sampled_from(_pendings),
)


def _source(read, update) -> str:
    def rule(name, clauses):
        return f"{name} :- " + " \\/ ".join(
            " /\\ ".join(clause) for clause in clauses
        )

    return rule("read", read) + "\n" + rule("update", update)


_READ_SET_CASE = dict(
    read=_rule,
    update=_rule,
    requests=st.lists(_request, min_size=2, max_size=12),
)


@seed(POLICY_SEED)
@settings(max_examples=200, deadline=None)
@given(**_READ_SET_CASE)
def test_one_engine_answers_every_request_as_a_fresh_evaluation(
    read, update, requests
):
    """ONE engine, a sequence of requests that differ
    in session key, ``this_id`` (None included), ``log_id``, request
    version and pending write: whatever the cache remembers, each answer
    equals a fresh ``fast.evaluate`` and the reference interpreter field
    by field.  A policy that reads an input its shape omits fails here:
    with ``reads_this``, ``reads_log`` or ``reads_version`` forced off
    this very test goes red (the next test runs it that way)."""
    policy = compile_policy(_source(read, update))
    assert compiled_form(policy).cacheable
    fresh = compile_closures(policy)
    engine = PolicyEngine()
    for operation, key, this_id, log_id, version, pending in requests:
        ctx = EvalContext(
            operation=operation,
            session_key=key,
            this_id=this_id,
            log_id=log_id,
            request_version=version,
            pending=pending,
        )
        # Probed by the request's inputs; the context only on a miss.
        inputs = RequestInputs(
            key, this_id, log_id, version, ctx.certificates, ctx.nonce,
            ctx.now,
        )
        served = engine.evaluate(policy, operation, inputs, lambda: ctx)
        assert_identical(fresh.evaluate(operation, ctx), served, "fresh")
        assert_identical(
            INTERP.evaluate(policy, operation, ctx), served, "reference"
        )
    stats = engine.decisions.stats
    assert stats.hits + stats.misses == len(requests)
    assert stats.misses == len(engine.decisions) <= len(requests)


@pytest.mark.parametrize("flag", sorted(_READ_SET))
def test_the_read_set_property_needs_every_flag(flag, monkeypatch):
    compile_real = compile_closures

    def compile_blind(policy):
        fast = compile_real(policy)
        setattr(fast, flag, False)
        return fast

    monkeypatch.setattr(compiled_module, "compile_closures", compile_blind)
    # The same property over the same examples, minus the shrinking.
    first_failure = settings(
        max_examples=200, deadline=None, phases=[Phase.generate]
    )
    the_property = (
        test_one_engine_answers_every_request_as_a_fresh_evaluation
        .hypothesis.inner_test
    )
    with pytest.raises(AssertionError, match="decision divergence"):
        seed(POLICY_SEED)(first_failure(given(**_READ_SET_CASE)(the_property)))()


@seed(POLICY_SEED)
@settings(max_examples=100, deadline=None)
@given(read=_rule, update=_rule)
def test_read_set_is_what_the_conjuncts_mention(read, update):
    """Recorded at compile time, whether or not folding or an earlier
    failing conjunct makes the read unreachable: never too small."""
    source = _source(read, update)
    fast = compile_closures(compile_policy(source))
    for flag, mentions in _READ_SET.items():
        assert getattr(fast, flag) == any(m in source for m in mentions)
    assert not fast.uses_certificates and not fast.record_refs


def test_pending_write_is_in_no_shape():
    """Only ``ctx.version_info`` reads the pending write, and every
    opcode that gets there makes an update uncacheable — so a PUT body
    never splits a cacheable verdict, and never reaches a cached one."""
    acl = compile_policy("update :- sessionKeyIs(k'aa') /\\ nextVersion(V)")
    sized = compile_policy(
        "update :- objId(this, O) /\\ nextVersion(V) /\\ objSize(O, V, 8)"
    )
    engine = PolicyEngine()
    for body in (b"one body", b"another one", b"12345678"):
        ctx = EvalContext(
            operation="update",
            session_key="aa",
            this_id="obj-a",
            request_version=0,
            pending=VersionInfo.from_content(body),
        )
        assert engine.evaluate(acl, "update", ctx).granted
        assert engine.evaluate(sized, "update", ctx).granted == (
            len(body) == 8
        )
    assert compiled_form(sized).request_shape(ctx, "update") is None
    assert len(engine.decisions) == 1
    assert (engine.decisions.stats.hits, engine.decisions.stats.misses) == (
        2, 1,
    )


#: Every attribute of the context the evaluator reads, against the
#: shape component that covers it.  An attribute that is not here —
#: a new predicate reading something new — fails the guard below until
#: someone decides which of the two it is.
_UNCACHEABLE = (
    "object state (_OBJECT_OPCODES): the digests of the records this "
    "and log name, shape[6:], when record-keyed; else uncacheable"
)
_CTX_READS = {
    "session_key": "shape[0], always",
    "this_id": "shape[1] when reads_this",
    "log_id": "shape[2] when reads_log",
    "request_version": "shape[3] when reads_version",
    "certificates": "shape[4] when uses_certificates",
    "certified_tuples": "certificates, key_registry, now, nonce",
    "key_registry": "presented keys: shape[4]; authority keys: the "
                    "controller's configuration, no part of a request",
    "nonce": "shape[5] when uses_certificates",
    "now": "valid_until, checked on every hit",
    "objects": _UNCACHEABLE,
    "lookup": _UNCACHEABLE + ", via view only",
    "view": _UNCACHEABLE,
    "version_info": _UNCACHEABLE + ", a row of the record",
    "facts": _UNCACHEABLE + ", bytes a row's content hash anchors",
    "load_facts": _UNCACHEABLE + ", via facts only",
    "_said": _UNCACHEABLE + ", via facts only",
    "pending": "the update's own write: an update over object state is "
               "uncacheable, via version_info only",
}


#: Where the evaluator's code lives: every closure that reads the
#: context is compiled in one of these.
_EVALUATOR_MODULES = ("compiled.py", "evalcore.py", "predicates.py")


def _attribute_reads(path: Path, receiver, inside: str | None = None):
    """The attribute of every ``name.attr`` in the file (in class
    ``inside`` only, if given) whose ``name`` passes ``receiver``."""
    tree = ast.parse(path.read_text())
    if inside is not None:
        (tree,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == inside
        ]
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and receiver(node.value.id)
    }


def test_every_context_read_is_covered_by_the_shape_or_uncacheable():
    package = Path(compiled_module.__file__).parent
    direct = set().union(*(
        _attribute_reads(package / name, lambda receiver: receiver == "ctx")
        for name in _EVALUATOR_MODULES
    ))
    own = _attribute_reads(
        package / "context.py", lambda receiver: receiver == "self",
        "EvalContext",
    ) | _attribute_reads(  # the one view resolver, EvalContext.view
        package / "context.py", lambda receiver: receiver == "source",
    )
    assert direct | own == set(_CTX_READS)
    # ``pending`` and the object views are read by EvalContext itself
    # and by nothing that compiles or runs a conjunct.
    assert not direct & {"pending", "objects", "lookup", "load_facts", "_said"}
    # No closure reads the context under another name.
    context_names = set(EvalContext.__dataclass_fields__) | {
        name for name in vars(EvalContext) if not name.startswith("_")
    }
    elsewhere = set().union(*(
        _attribute_reads(
            package / name,
            lambda receiver: receiver not in ("ctx", "inputs", "self"),
        )
        for name in _EVALUATOR_MODULES
    ))
    assert not elsewhere & context_names
    # The cache is probed with the request's inputs, before a context
    # exists: each is the context field of the same name, the records
    # come through the view resolver the context uses, and the pending
    # write and key registry are none of them.
    probed = _attribute_reads(
        package / "compiled.py", lambda receiver: receiver == "inputs"
    )
    assert probed == set(RequestInputs._fields) - {"objects", "lookup"} | {
        "view"
    }
    assert RequestInputs.view is EvalContext.view
    assert probed <= set(EvalContext.__dataclass_fields__) | {"view"}
    assert probed <= set(_CTX_READS)
    assert not probed & {"pending", "key_registry"}
