"""Fuzzing the policy front-end: garbage must fail cleanly.

The policy compiler is attacker-facing (clients submit policy source
over the wire), so arbitrary input must produce a policy error — never
a crash, hang, or foreign exception.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PesosError, PolicyError
from repro.kinetic.protocol import decode_fields, encode_fields
from repro.policy.binary import CompiledPolicy
from repro.policy.compiled import compile_closures
from repro.policy.compiler import compile_policy
from repro.policy.context import (
    EvalContext,
    VersionInfo,
    parse_content_tuples,
)
from repro.policy.lexer import tokenize
from repro.policy.parser import MAX_TERM_DEPTH
from tests.policy.difftest import assert_identical
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_lexer_never_crashes(source):
    try:
        tokenize(source)
    except PolicyError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_compiler_never_crashes(source):
    try:
        compile_policy(source)
    except PolicyError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet="readupte:-()/\\',kh0123456789ABCxyz \n",
        max_size=120,
    )
)
def test_compiler_policy_shaped_garbage(source):
    """Near-miss inputs built from the grammar's own alphabet."""
    try:
        compile_policy(source)
    except PolicyError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=0, max_value=3000),
    opener=st.sampled_from(["f(", "'q'(", "f(1, ", "f(X + "]),
    closed=st.booleans(),
)
def test_compiler_survives_any_nesting(depth, opener, closed):
    """Nesting is the one input dimension random text never reaches:
    past ``MAX_TERM_DEPTH`` the answer is a syntax error, at any depth
    it is not the interpreter's ``RecursionError``."""
    source = "read :- eq(" + opener * depth + "1"
    if closed:
        source += ")" * depth + ", 1)"
    try:
        compile_policy(source)
    except PesosError:
        assert not closed or depth > MAX_TERM_DEPTH
    else:
        assert closed and depth <= MAX_TERM_DEPTH


# Random bytes almost never get past the TLV decoder, so the loader's
# shape checks need blobs that are valid TLV and *nearly* a policy:
# every level is the right structure most of the time and arbitrary
# TLV junk otherwise.
_small = st.integers(min_value=0, max_value=5)
_bit = st.integers(min_value=0, max_value=1)
_words = st.sampled_from(
    ["c", "v", "r", "a", "t", "i", "s", "n", "+", "-", "this", "log", "x"]
)
_junk = st.recursive(
    st.one_of(_small, _words, st.none(), st.binary(max_size=2)),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)


def _mostly(strategy):
    return st.integers(0, 39).flatmap(
        lambda roll: _junk if roll == 0 else strategy
    )


def _listed(*parts):
    return st.tuples(*parts).map(list)


_constants = st.recursive(
    st.one_of(
        _listed(st.just("i"), _mostly(_small)),
        _listed(st.sampled_from(["s", "h", "k"]), _mostly(_words)),
        st.just(["n"]),
    ),
    lambda children: _listed(
        st.just("t"), _words, st.lists(children, max_size=2)
    ),
    max_leaves=4,
)
_exprs = st.recursive(
    st.one_of(
        _listed(st.sampled_from(["c", "v"]), _mostly(_bit)),
        _listed(st.just("r"), _mostly(st.sampled_from(["this", "log"]))),
    ),
    lambda children: st.one_of(
        _listed(
            st.just("a"),
            _mostly(st.sampled_from(["+", "-"])),
            children,
            children,
        ),
        _listed(st.just("t"), _mostly(_bit), st.lists(children, max_size=2)),
    ),
    max_leaves=5,
)
# (opcode, registered argument count); junk opcodes miss both.
_shapes = st.sampled_from(
    [(1, 2), (2, 2), (5, 2), (10, 3), (11, 1), (20, 2), (21, 2), (22, 1),
     (23, 3), (26, 3), (28, 2)]
)
_instructions = _shapes.flatmap(
    lambda shape: _listed(
        _mostly(st.just(shape[0])),
        _mostly(
            st.lists(_mostly(_exprs), min_size=shape[1], max_size=shape[1])
        ),
    )
)
_rules = _listed(
    st.sampled_from(["read", "update"]),
    st.lists(
        st.lists(_mostly(_instructions), min_size=1, max_size=3),
        min_size=1,
        max_size=2,
    ),
)
_DROPPED = object()
_overrides = st.one_of(
    *[st.just({})] * 5,
    st.dictionaries(
        st.sampled_from(["version", "constants", "variables", "permissions"]),
        st.one_of(_junk, st.just(_DROPPED)),
        max_size=1,
    ),
)
_fields = st.fixed_dictionaries(
    {
        "version": st.just(1),
        # Two tuple names up front, so indices 0 and 1 always resolve
        # and 4 and 5 never do.
        "constants": st.lists(_constants, max_size=2).map(
            lambda rest: [["s", "x"], ["s", "c"], *rest]
        ),
        "variables": st.just(["X", "Y", "Z", "W"]),
        "permissions": st.lists(_rules, min_size=1, max_size=2),
    }
)
_policy_shaped_blobs = st.tuples(_fields, _overrides).map(
    lambda pair: encode_fields(
        {
            name: value
            for name, value in {**pair[0], **pair[1]}.items()
            if value is not _DROPPED
        }
    )
)


def _probe_contexts(operation):
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(b"'x'(1,'s')\n'c'(2)")},
    )
    yield EvalContext(operation=operation, session_key="x")
    yield EvalContext(
        operation=operation,
        session_key="x",
        this_id="obj",
        log_id="obj",
        request_version=2,
        objects={"obj": view},
        pending=VersionInfo.from_content(b"'x'(3)"),
    )


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.binary(max_size=400), _policy_shaped_blobs))
def test_binary_loader_never_crashes(blob):
    """Corrupt compiled-policy blobs fetched from untrusted disks.

    Only :class:`PolicyError` may escape the loader, and a blob it
    accepts compiles and evaluates — identically to the reference
    interpreter — without a foreign exception.
    """
    try:
        policy = CompiledPolicy.from_bytes(blob)
    except PolicyError:
        return
    fast = compile_closures(policy)
    for operation in policy.operations():
        for ctx in _probe_contexts(operation):
            assert_identical(
                PolicyInterpreter().evaluate(policy, operation, ctx),
                fast.evaluate(operation, ctx),
            )


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_content_tuple_parser_never_crashes(content):
    """objSays parses arbitrary object bytes; they may say nothing."""
    tuples = parse_content_tuples(content)
    assert isinstance(tuples, list)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_wire_decoder_never_crashes(blob):
    """Kinetic field decoding of attacker-controlled bytes.

    Truncated varints surface as VarintError and framing issues as
    KineticError — both PesosError, never a foreign exception.
    """
    from repro.errors import PesosError

    try:
        decode_fields(blob)
    except PesosError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_frame_decoder_never_crashes(blob):
    """Full Kinetic frames from an untrusted network peer."""
    from repro.errors import PesosError
    from repro.kinetic.protocol import Message

    try:
        Message.decode(blob)
    except PesosError:
        pass
