"""Record-keyed verdicts: a read over object state is cached by the
digests of the records ``this`` and ``log`` name.

A policy whose object conjuncts read only those two records has its
read and delete verdicts keyed by the request shape plus each record's
digest (the SHA-256 of its at-rest bytes).  Every write, delete,
re-binding or log append makes a new record, so the next check is a
miss; nothing is invalidated.  The differential property drives one
controller through interleaved writes and reads by several sessions
and compares every served verdict with the reference interpreter over
a context read fresh from the store (``POLICY_SEED`` moves it).
"""

import os

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import repro.policy.compiled as compiled_module
from repro.core.request import Request
from repro.policy.context import EvalContext, Facts
from tests.core.conftest import make_clients
from tests.enclave import boot
from tests.policy.difftest import assert_identical
from tests.policy.reference_interpreter import PolicyInterpreter

POLICY_SEED = int(os.environ.get("POLICY_SEED", "3"))
INTERP = PolicyInterpreter()

OWNER = "fp-owner"
READERS = ("fp-r0", "fp-r1", "fp-r2")
_OWNED = f"update :- sessionKeyIs(k'{OWNER}')\ndelete :- sessionKeyIs(k'{OWNER}')\n"

#: The MAL read rule, ``objSays`` of each record, and an object id bound
#: from facts (uncacheable).
POLICIES = (
    "read :- objId(this, O) /\\ objId(log, L) /\\ currIndex(O, V)"
    " /\\ sessionKeyIs(U) /\\ objSays(L, LV, 'read'(O, V, U))",
    "read :- sessionKeyIs(U) /\\ objSays(this, V, 'may'(U))",
    "read :- sessionKeyIs(U) /\\ objSays(log, LV, 'may'(U))",
    "read :- objSays(this, V, 'acl'(A)) /\\ sessionKeyIs(U)"
    " /\\ objSays(A, AV, 'may'(U))",
)

_LINES = (
    [f"'may'(k'{reader}')" for reader in READERS]
    + [
        f"'read'('doc', {version}, k'{reader}')"
        for version in range(3) for reader in READERS
    ]
    + ["'acl'('acl')", "'acl'('doc.log')"]
)


def _controller():
    controller = boot(make_clients()[0], storage_key=b"k" * 32)
    ids = [
        controller.put_policy(OWNER, source + "\n" + _OWNED).policy_id
        for source in POLICIES
    ]
    return controller, ids


def _fresh_context(controller, operation, inputs) -> EvalContext:
    """The context of a check, read from the store, not its caches:
    each record from the drives, each version's facts parsed from its
    hash-checked bytes."""
    store = controller.store

    def record(key):
        meta = store.read_meta(key)
        return meta if meta is not None and meta.exists else None

    def facts(key, row):
        return Facts.parse(
            store.read_value(key, row.version, expect_sha256=row.content_hash)
        )

    return EvalContext(
        operation=operation,
        session_key=inputs.session_key,
        this_id=inputs.this_id,
        log_id=inputs.log_id,
        request_version=inputs.request_version,
        lookup=record,
        load_facts=facts,
        certificates=list(inputs.certificates),
        now=inputs.now,
        nonce=inputs.nonce,
    )


def _checked(controller) -> list:
    """Compare every served read or delete verdict with the reference
    interpreter over a fresh context; returns the served verdicts."""
    served = []
    engine = controller.policy_engine
    evaluate = engine.evaluate

    def checking(policy, operation, inputs, build=None):
        decision = evaluate(policy, operation, inputs, build)
        if operation != "update":
            reference = INTERP.evaluate(
                policy, operation, _fresh_context(controller, operation, inputs)
            )
            assert_identical(reference, decision, f"{operation} {inputs[:3]}")
        served.append(decision)
        return decision

    engine.evaluate = checking
    return served


def _content(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


_lines = st.lists(st.sampled_from(_LINES), max_size=5)
_action = st.one_of(
    st.tuples(
        st.just("write"), st.sampled_from(("doc", "doc.log", "acl")), _lines,
        st.none() | st.integers(0, len(POLICIES) - 1),
    ),
    st.tuples(st.just("append"), st.sampled_from(_LINES)),
    st.tuples(st.just("delete"), st.sampled_from(("doc", "doc.log", "acl"))),
    st.tuples(st.just("rebind"), st.integers(0, len(POLICIES) - 1)),
    st.tuples(
        st.just("read"), st.sampled_from(READERS + (OWNER,)),
        st.none() | st.integers(0, 2),
    ),
    st.tuples(st.just("scan"), st.sampled_from(READERS)),
)


def _run(controller, ids, actions) -> None:
    for action in actions:
        kind = action[0]
        if kind == "write":
            _, key, lines, policy = action
            policy_id = ids[policy] if policy is not None and key == "doc" else ""
            controller.put(OWNER, key, _content(lines), policy_id=policy_id)
        elif kind == "append":
            log = controller.get(OWNER, "doc.log")
            before = log.value if log.ok else b""
            controller.put(OWNER, "doc.log", before + _content([action[1]]))
        elif kind == "delete":
            controller.delete(OWNER, action[1])
        elif kind == "rebind":
            meta = controller._get_meta("doc")
            if meta is not None and meta.exists:
                controller.caches.put_meta(
                    "doc", controller.store.write_meta(meta, ids[action[1]])
                )
        elif kind == "read":
            _, reader, version = action
            controller.get(reader, "doc", version=version)
        else:
            controller.handle(
                Request(method="scan", key="", scan_count=10), action[1]
            )
        for reader in READERS:  # each step is checked by every session
            controller.get(reader, "doc")


_SEQUENCES = dict(
    start=st.tuples(
        _lines, _lines, st.integers(0, len(POLICIES) - 1)
    ),
    actions=st.lists(_action, min_size=2, max_size=12),
)


@seed(POLICY_SEED)
@settings(max_examples=100, deadline=None)
@given(**_SEQUENCES)
def test_every_served_verdict_is_the_reference_over_the_store(start, actions):
    controller, ids = _controller()
    checked = _checked(controller)
    doc, log, policy = start
    controller.put(OWNER, "doc.log", _content(log))
    controller.put(OWNER, "doc", _content(doc), policy_id=ids[policy])
    controller.put(OWNER, "acl", _content(["'may'(k'fp-r0')"]))
    _run(controller, ids, actions)
    stats = controller.policy_engine.decisions.stats
    assert stats.hits + stats.misses <= len(checked)


@pytest.mark.parametrize("dropped", ["this", "log"])
def test_the_property_needs_each_record_digest(dropped, monkeypatch):
    """With one record left out of the key, the property above fails:
    a write to that record would be answered by the stale verdict."""
    compile_real = compiled_module.compile_closures

    def compile_blind(policy):
        fast = compile_real(policy)
        fast.record_refs = tuple(
            ref for ref in fast.record_refs if ref != dropped
        )
        return fast

    monkeypatch.setattr(compiled_module, "compile_closures", compile_blind)
    first_failure = settings(
        max_examples=200, deadline=None, phases=[Phase.generate]
    )
    the_property = (
        test_every_served_verdict_is_the_reference_over_the_store
        .hypothesis.inner_test
    )
    with pytest.raises(AssertionError, match="decision divergence"):
        seed(POLICY_SEED)(first_failure(given(**_SEQUENCES)(the_property)))()


def test_each_new_record_is_a_miss_whose_verdict_is_fresh():
    """A re-binding, a put, a delete, a recreate and a log append each
    make a record the cache never keyed: the next check is a miss, and
    it equals a fresh evaluation.  A repeat is a hit."""
    controller, ids = _controller()
    checked = _checked(controller)
    stats = controller.policy_engine.decisions.stats
    mal, by_this = ids[0], ids[1]
    reader = READERS[0]
    controller.put(OWNER, "doc.log", _content([f"'read'('doc', 0, k'{reader}')"]))
    controller.put(OWNER, "doc", _content([f"'may'(k'{reader}')"]), policy_id=mal)

    def read(expected_status):
        misses = stats.misses
        assert controller.get(reader, "doc").status == expected_status
        assert stats.misses == misses + 1
        assert controller.get(reader, "doc").status == expected_status
        assert stats.misses == misses + 1  # the repeat is a hit

    read(200)
    meta = controller._get_meta("doc")
    rebound = controller.store.write_meta(meta, by_this)
    assert rebound.digest not in (None, meta.digest)
    controller.caches.put_meta("doc", rebound)
    read(200)  # re-binding: 'may' said by this
    controller.put(OWNER, "doc", b"nothing said")
    read(403)  # put
    controller.delete(OWNER, "doc.log")
    controller.put(OWNER, "doc", b"x", policy_id=mal)
    read(403)  # the log is absent
    version = controller._get_meta("doc").current_version
    intent = f"'read'('doc', {version}, k'{reader}')"
    controller.put(OWNER, "doc.log", _content([intent]))
    read(200)  # recreate
    controller.put(OWNER, "doc.log", _content([intent.replace("r0", "r1")]))
    read(403)  # a log append that no longer names the reader
    assert len(checked) >= 12
