"""Property-based tests over the policy engine as a whole."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.binary import CompiledPolicy
from repro.policy.compiled import compiled_form
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext

_fingerprints = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12
)


def _acl_source(readers, writers):
    def clause(fps):
        return " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in fps)

    lines = []
    if readers:
        lines.append(f"read :- {clause(readers)}")
    if writers:
        lines.append(f"update :- {clause(writers)}")
    return "\n".join(lines) or "read :- eq(1, 0)"


@settings(max_examples=60, deadline=None)
@given(
    readers=st.lists(_fingerprints, max_size=5, unique=True),
    writers=st.lists(_fingerprints, max_size=5, unique=True),
    probe=_fingerprints,
)
def test_acl_grants_exactly_listed_clients(readers, writers, probe):
    """For any ACL policy, access <=> membership in the list."""
    policy = compile_policy(_acl_source(readers, writers))
    ctx = EvalContext(operation="read", session_key=probe)
    assert compiled_form(policy).evaluate("read", ctx).granted == (probe in readers)
    assert compiled_form(policy).evaluate("update", ctx).granted == (probe in writers)
    # Nothing ever grants delete (deny-by-default).
    assert not compiled_form(policy).evaluate("delete", ctx).granted


@settings(max_examples=60, deadline=None)
@given(
    readers=st.lists(_fingerprints, min_size=1, max_size=5, unique=True),
    writers=st.lists(_fingerprints, max_size=5, unique=True),
)
def test_serialization_preserves_decisions(readers, writers):
    """Compile -> serialize -> reload yields identical decisions."""
    policy = compile_policy(_acl_source(readers, writers))
    reloaded = CompiledPolicy.from_bytes(policy.to_bytes())
    for probe in readers + writers + ["outsider"]:
        for operation in ("read", "update", "delete"):
            ctx = EvalContext(operation=operation, session_key=probe)
            original = compiled_form(policy).evaluate(operation, ctx).granted
            restored = compiled_form(reloaded).evaluate(operation, ctx).granted
            assert original == restored


@settings(max_examples=40, deadline=None)
@given(
    current=st.integers(min_value=0, max_value=1_000),
    offered=st.integers(min_value=0, max_value=1_002),
)
def test_version_policy_accepts_only_successor(current, offered):
    """The §5.3 rule grants exactly version current+1 on an existing
    object (creation handled by the NULL clause)."""
    from repro.policy.context import VersionInfo
    from tests.policy.reference_interpreter import ObjectView

    policy = compile_policy(
        r"update :- objId(this, O) /\ currVersion(O, cV)"
        r" /\ nextVersion(cV + 1)"
        r" \/ objId(this, NULL) /\ nextVersion(0)"
    )
    view = ObjectView(
        object_id="obj",
        current_version=current,
        versions={current: VersionInfo.from_content(b"x")},
    )
    ctx = EvalContext(
        operation="update",
        session_key="anyone",
        this_id="obj",
        objects={"obj": view},
        request_version=offered,
    )
    decision = compiled_form(policy).evaluate("update", ctx)
    assert decision.granted == (offered == current + 1)


@settings(max_examples=40, deadline=None)
@given(offered=st.integers(min_value=0, max_value=5))
def test_version_policy_creation_only_at_zero(offered):
    policy = compile_policy(
        r"update :- objId(this, O) /\ currVersion(O, cV)"
        r" /\ nextVersion(cV + 1)"
        r" \/ objId(this, NULL) /\ nextVersion(0)"
    )
    ctx = EvalContext(
        operation="update",
        session_key="anyone",
        this_id=None,
        request_version=offered,
    )
    assert compiled_form(policy).evaluate("update", ctx).granted == (offered == 0)


@settings(max_examples=40, deadline=None)
@given(
    hashes=st.lists(
        st.text(alphabet="0123456789abcdef", min_size=4, max_size=8),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_policy_hash_injective_over_distinct_sources(hashes):
    """Distinct constants give distinct policy identities."""
    policies = [
        compile_policy(f"read :- objHash(this, 1, h'{digest}')")
        for digest in hashes
    ]
    ids = {policy.policy_hash() for policy in policies}
    assert len(ids) == len(hashes)
