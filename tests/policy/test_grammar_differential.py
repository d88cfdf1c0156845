"""Grammar-wide differential property: shipped closures vs the reference.

Hypothesis draws rules whose conjuncts range over every Table 1
predicate (and the MAL aliases), with arguments drawn from every term
form — variables from a pool small enough to repeat, literals of each
type, ``NULL``, ``this``/``log``, arithmetic, nested tuples — mixed
with conjuncts written to reach the binding analysis's corners:

* a variable repeated inside one conjunct (``objSize(O, X, X)``) and
  inside one tuple (``'t'(X, X)``);
* a first occurrence where a bound value is required (``objId(X, O)``,
  ``le(X, 1)``, ``nextVersion(cV + 1)`` before ``cV``);
* nested tuple patterns (``'p'('q'(X), X)``);
* a first clause that fails structurally before a granting one.

Each rule is evaluated over drawn contexts, with and without the target
object and the log object, a NULL ``this``, a pending write, presented
certificates or none, and every ``Decision`` field must equal the
reference interpreter's.  ``POLICY_SEED`` moves the examples.
"""

import os
from random import Random

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.policy.compiled import compile_closures
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext, VersionInfo
from repro.policy.predicates import all_predicates
from tests.policy.difftest import (
    CA_FINGERPRINT,
    CA_KEY,
    _time_certificates,
    assert_identical,
)
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter

POLICY_SEED = int(os.environ.get("POLICY_SEED", "3"))
INTERP = PolicyInterpreter()

_VARIABLES = ["X", "Y", "O", "V", "K", "T"]
_LITERALS = [
    "0", "1", "2", "7", "'obj-a'", "'log-a'", "'a'", "h'ab'", "k'aa'",
    f"k'{CA_FINGERPRINT}'", "NULL",
]
_atoms = st.sampled_from(_VARIABLES + _LITERALS + ["this", "log"])
_terms = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(
            "{} {} {}".format,
            inner.filter(lambda term: " " not in term),
            st.sampled_from("+-"),
            st.sampled_from(_VARIABLES + ["1", "2", "'a'"]),
        ),
        st.builds(
            "'{}'({})".format,
            st.sampled_from(["t", "p", "q", "read", "ts", "time"]),
            st.lists(inner, max_size=3).map(",".join),
        ),
    ),
    max_leaves=5,
)


@st.composite
def _random_conjunct(draw):
    spec = draw(st.sampled_from(all_predicates()))
    arity = draw(st.integers(spec.min_arity, spec.max_arity))
    args = draw(st.lists(_terms, min_size=arity, max_size=arity))
    return f"{spec.name}({', '.join(args)})"


#: Conjuncts that reach what random terms rarely do: grants, repeats,
#: first occurrences that must already be bound, nested patterns.
_WRITTEN = [
    "objId(this, O)", "objId(log, L)", "objId(this, NULL)",
    "objId(X, O)", "objId(O, X)", "objId(log, O)",
    "currVersion(O, V)", "currIndex(O, V)", "currVersion(this, 1)",
    "currIndex(L, LV)",
    "nextVersion(V + 1)", "nextVersion(0)", "nextVersion(cV + 1)",
    "nextIndex(O, V + 1)", "nextIndex(V)", "nextIndex(this, 1)",
    "objSize(O, V, S)", "objSize(O, X, X)", "objSize(this, V, 7)",
    "objSize(O, V + 1, S)", "objHash(O, V, H)", "objHash(O, V + 1, NH)",
    "objPolicy(this, V, P)", "objHash(this, 0, H)",
    "objSays(this, V, 't'(X, X))", "objSays(this, V, 't'(X, Y))",
    "objSays(this, V, 'p'('q'(X), X))", "objSays(this, V, 'p'(Z, X))",
    "objSays(log, LV, 'read'(O, V, U))", "objSays(L, LV, 'read'(X, Y, Z))",
    "objSays(this, X, 't'(X, 1))", "objSays(this, V, T)",
    "objSays(this, 1, 't'(1, 1))",
    "sessionKeyIs(U)", "sessionKeyIs(k'aa')", "sessionKeyIs(X)",
    "eq(X, 1)", "eq(X, Y)", "eq(1, 1)", "eq(X, 't'(X))", "eq(Y, 't'(X, X))",
    "eq(X, 't'(1, 1))", "eq(O, 'obj-a')", "eq(V, 1)",
    "le(X, 1)", "ge(V, 0)", "lt(S, 10)", "gt(X, Y)", "le(1, 2)",
    f"certificateSays(k'{CA_FINGERPRINT}', 'ts'(K))",
    "certificateSays(K, 300, 'time'(T))", "certificateSays(K, F, 'time'(T))",
    "ge(T, 1767225600)",
]

_conjunct = st.one_of(st.sampled_from(_WRITTEN), _random_conjunct())
_clause = st.lists(_conjunct, min_size=1, max_size=4).map(" /\\ ".join)
_rule = st.lists(_clause, min_size=1, max_size=3).map(" \\/ ".join)

#: Object contents: facts for the tuple patterns above to meet.
_THIS_CONTENT = [
    b"",
    b"'t'(1,1)\n'p'('q'(2),1)\n'p'('q'(3),3)",
    b"'t'(1,2)\n't'(2,2)\n'p'('q'(1),'q'(1))",
    b"'t'(7,7)",
    b"'t'(8,8)",  # eight bytes: objSize(O, X, X) holds at version 8
]
_CERTIFICATES = [
    _time_certificates(Random(index), nonce)
    for index, nonce in enumerate(["", "n-1", "n-1", ""])
]


def _log_view(this_id, this_view, session_key) -> ObjectView:
    curr = this_view.current_version if this_view is not None else 0
    lines = [
        f"'read'('{this_id}',{curr},k'{session_key}')",
        "'read'('obj-b',1,k'aa')",
        "'t'(1,1)",
    ]
    return ObjectView(
        "log-a", 1, {1: VersionInfo.from_content("\n".join(lines).encode())}
    )


def _context(
    operation="read", session_key="aa", this_id=None, log_id=None,
    curr=None, content=b"", log_exists=True, pending=None,
    request_version=None, certificates=(), now=700.0, nonce="",
) -> EvalContext:
    """A context; ``curr`` ``None`` leaves the target object out."""
    objects = {}
    this_view = None
    if this_id is not None and curr is not None:
        this_view = ObjectView(this_id, curr, {
            version: VersionInfo.from_content(content, policy_hash="ab")
            for version in range(max(0, curr - 1), curr + 1)
        })
        objects[this_id] = this_view
    if log_id is not None and log_exists:
        objects[log_id] = _log_view(this_id, this_view, session_key)
    return EvalContext(
        operation=operation,
        session_key=session_key,
        this_id=this_id,
        log_id=log_id,
        request_version=request_version,
        objects=objects,
        pending=(
            None if pending is None
            else VersionInfo.from_content(pending, policy_hash="cd")
        ),
        certificates=list(certificates),
        key_registry={CA_FINGERPRINT: CA_KEY.public_key},
        now=now,
        nonce=nonce,
    )


_contexts = st.builds(
    _context,
    operation=st.sampled_from(["read", "update"]),
    session_key=st.sampled_from(["aa", "bb"]),
    this_id=st.sampled_from([None, "obj-a", "obj-b"]),
    log_id=st.sampled_from([None, "log-a"]),
    curr=st.sampled_from([None, 0, 1, 2, 8]),
    content=st.sampled_from(_THIS_CONTENT),
    log_exists=st.booleans(),
    pending=st.sampled_from([None] + _THIS_CONTENT),
    request_version=st.sampled_from([None, 0, 1, 2]),
    certificates=st.sampled_from([[]] + _CERTIFICATES),
    now=st.sampled_from([100.0, 700.0, 90000.0]),
    nonce=st.sampled_from(["", "n-1"]),
)

#: The corners, reached on every run whatever the seed draws.
_CORNERS = dict(
    read="le(X, 1) /\\ eq(X, 1) \\/ objId(X, O) \\/ objId(this, O) "
         "/\\ objSize(O, X, X) /\\ objSays(this, V, 't'(X, X)) "
         "\\/ objId(this, O) /\\ objSays(this, V, 'p'('q'(Y), Y))",
    update="nextVersion(cV + 1) /\\ objId(this, O) \\/ objId(this, O) "
           "/\\ currVersion(O, cV) /\\ nextVersion(cV + 1) "
           "/\\ objHash(O, cV + 1, H) \\/ objId(this, NULL)",
    contexts=[
        _context(this_id="obj-a", curr=8, content=b"'t'(8,8)"),
        _context(this_id="obj-a", curr=2, content=_THIS_CONTENT[1]),
        _context(this_id=None, log_id="log-a"),
        _context(this_id="obj-a", log_id="log-a", log_exists=False),
        _context("update", this_id="obj-a", curr=1, pending=b"'t'(1,1)",
                 request_version=2),
        _context("update", this_id="obj-a", curr=1, request_version=2),
        _context("update", this_id=None, pending=b"x", request_version=0),
    ],
)


@seed(POLICY_SEED)
@settings(max_examples=300, deadline=None)
@given(
    read=_rule,
    update=_rule,
    contexts=st.lists(_contexts, min_size=2, max_size=6),
)
@example(**_CORNERS)
def test_closures_equal_the_reference_over_the_whole_grammar(
    read, update, contexts
):
    policy = compile_policy(f"read :- {read}\nupdate :- {update}")
    fast = compile_closures(policy)
    for index, ctx in enumerate(contexts):
        assert_identical(
            INTERP.evaluate(policy, ctx.operation, ctx),
            fast.evaluate(ctx.operation, ctx),
            label=f"context #{index}",
        )
