"""EvalContext helpers: content tuples, version views, claims."""

import pytest

from repro.errors import PolicyError
from repro.policy.ast import (
    HashValue,
    IntValue,
    PubKeyValue,
    StrValue,
    TupleValue,
)
from repro.policy.context import (
    EvalContext,
    Facts,
    VersionInfo,
    claim_to_tuple,
    content_hash,
    parse_content_tuples,
)
from tests.policy.reference_interpreter import ObjectView


def test_parse_single_tuple():
    tuples = parse_content_tuples(b"'read'('obj1', 3, k'fp')")
    assert tuples == [
        TupleValue(
            "read", (StrValue("obj1"), IntValue(3), PubKeyValue("fp"))
        )
    ]


def test_parse_multiple_lines():
    content = b"'a'(1)\n'b'(2)\n"
    tuples = parse_content_tuples(content)
    assert [t.name for t in tuples] == ["a", "b"]


def test_parse_ignores_non_tuple_lines():
    content = b"just some payload\n'entry'(1)\n{binary-ish}"
    tuples = parse_content_tuples(content)
    assert len(tuples) == 1


@pytest.mark.parametrize(
    "separator",
    ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\r"],
)
def test_a_line_ends_at_a_line_feed_and_nowhere_else(separator):
    """One line whose string literal embeds a tuple between characters
    ``str.splitlines`` breaks on: the object says nothing of the kind
    (1ff8262 made it say ``'read'('obj',0,k'ab12')``)."""
    smuggled = "'read'('obj', 0, k'ab12')"
    line = f"'note'('a{separator}{smuggled}{separator}')"
    assert "\n" not in line
    said = parse_content_tuples(line.encode())
    assert parse_content_tuples(smuggled.encode())[0] not in said
    assert all(fact.name == "note" for fact in said)
    # Real lines still end at LF or CRLF.
    crlf = f"'a'(1)\r\n{smuggled}\r\n".encode()
    assert [fact.name for fact in parse_content_tuples(crlf)] == ["a", "read"]


def test_parse_binary_content_says_nothing():
    assert parse_content_tuples(bytes([0xFF, 0xFE, 0x00])) == []


def test_parse_nested_tuples():
    tuples = parse_content_tuples(b"'outer'(inner(1), h'ab')")
    assert tuples[0].args[0] == TupleValue("inner", (IntValue(1),))
    assert tuples[0].args[1] == HashValue("ab")


def test_parse_bare_name_tuple():
    assert parse_content_tuples(b"write(1)")[0].name == "write"


def test_render_roundtrip():
    original = TupleValue(
        "write",
        (StrValue("o"), IntValue(3), HashValue("aa"), PubKeyValue("bb")),
    )
    line = original.render()
    assert parse_content_tuples(line.encode()) == [original]


def test_version_info_from_content():
    info = VersionInfo.from_content(b"'fact'(42)", policy_hash="ph")
    assert info.size == len(b"'fact'(42)")
    assert info.content_hash == content_hash(b"'fact'(42)")
    assert info.policy_hash == "ph"
    assert info.facts.ordered[0].name == "fact"


def test_from_content_parses_tuples_only_when_read(monkeypatch):
    from repro.policy import context

    calls = []

    def counting_tokenize(line):
        calls.append(line)
        return tokenize(line)

    tokenize = context.tokenize
    monkeypatch.setattr(context, "tokenize", counting_tokenize)
    # A 1 KiB YCSB-shaped record: ten printable field lines.
    payload = "\n".join(
        f"field{i}=" + "abcdefghij0123456789"[i:] * 5 for i in range(10)
    ).encode().ljust(1024, b"x")
    info = VersionInfo.from_content(payload + b"\n'fact'(42)", "ph")
    assert (info.size, info.policy_hash) == (len(payload) + 11, "ph")
    assert info.content_hash == content_hash(payload + b"\n'fact'(42)")
    assert calls == []  # a PUT under an ACL policy stops here
    assert [fact.name for fact in info.facts.ordered] == ["fact"]
    parsed = len(calls)
    assert parsed == 11
    assert info.facts is info.facts and len(calls) == parsed  # parsed once


def test_version_info_direct_construction():
    fact = parse_content_tuples(b"'fact'(42)")[0]
    info = VersionInfo.from_content(b"'fact'(42)")
    assert info.facts == Facts((fact,), frozenset((fact,)))
    assert info.facts is info.facts  # parsed once
    assert VersionInfo.from_content(b"").facts == Facts((), frozenset())


def test_object_view_lookup():
    view = ObjectView(
        object_id="obj",
        current_version=2,
        versions={2: VersionInfo.from_content(b"v2")},
    )
    ctx = EvalContext(operation="read", session_key="k", objects={"obj": view})
    assert ctx.view("obj") is view and ctx.view("other") is None
    assert ctx.version_info("obj", view, 2).size == 2
    assert ctx.version_info("obj", view, 1) is None


def test_context_pending_version_visible():
    view = ObjectView(object_id="obj", current_version=3, versions={})
    pending = VersionInfo.from_content(b"incoming")
    ctx = EvalContext(
        operation="update",
        session_key="k",
        this_id="obj",
        objects={"obj": view},
        pending=pending,
    )
    assert ctx.version_info("obj", view, 4) is pending
    assert ctx.version_info("obj", view, 3) is None  # not recorded in view


def test_claim_conversion():
    tup = claim_to_tuple("time", (1518652800,))
    assert tup == TupleValue("time", (IntValue(1518652800),))
    tup = claim_to_tuple("ts", ("k:fingerprint",))
    assert tup.args[0] == PubKeyValue("fingerprint")
    tup = claim_to_tuple("digest", ("h:abcd",))
    assert tup.args[0] == HashValue("abcd")
    tup = claim_to_tuple("group", ("staff",))
    assert tup.args[0] == StrValue("staff")
    tup = claim_to_tuple("nested", (["inner", 1],))
    assert tup.args[0] == TupleValue("inner", (IntValue(1),))


def test_claim_conversion_rejects_unknown():
    with pytest.raises(PolicyError):
        claim_to_tuple("bad", (object(),))
