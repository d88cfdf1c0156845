"""The TLV codec and the frame against the reference codec, golden
vectors and hostile bytes.

The TLV bytes are the at-rest format of compiled policies and the
container of the ``StoredMeta`` record, so the encoder must stay
byte-identical to the stream-based one that wrote them
(``reference_codec``); the decoder must accept exactly those bytes and
nothing that merely parses to the same fields.  The record's own rules
(packed rows, indexed policy hashes) are pinned below the golden
vectors.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import StoredMeta, VersionMeta
from repro.crypto.aead import HmacSha256
from repro.errors import KineticError
from repro.kinetic import protocol
from repro.kinetic.protocol import (
    Message,
    MessageType,
    StatusCode,
    decode_fields,
    encode_fields,
)
from repro.policy.binary import CompiledPolicy
from repro.policy.compiler import compile_policy
from repro.util.varint import VarintError, encode_varint
from tests.kinetic import reference_codec

WIRE_ERRORS = (KineticError, VarintError)

_leaves = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
    st.binary(max_size=64),
    st.text(max_size=32),
    st.none(),
)
_values = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=12
)
_fields = st.dictionaries(st.text(max_size=8), _values, max_size=8)


# ---------------------------------------------------------------------------
# Encoder: byte-identical to the reference; decoders agree on its output
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(_fields)
def test_encoder_is_byte_identical_to_reference(fields):
    blob = encode_fields(fields)
    assert blob == reference_codec.encode_fields(fields)
    assert decode_fields(blob) == reference_codec.decode_fields(blob)


def test_encoder_rejects_what_the_reference_rejects():
    uniform_but_one = [b"abcd"] * 3 + [bytearray(b"abcd"), b"abcd"]
    for bad in ({"x": -1}, {"x": 1.5}, {"x": bytearray(b"b")}, {"x": [object()]},
                {"keys": uniform_but_one}):
        with pytest.raises(KineticError):
            reference_codec.encode_fields(bad)
        with pytest.raises(KineticError):
            encode_fields(bad)


# ---------------------------------------------------------------------------
# Decoder: canonical bytes only
# ---------------------------------------------------------------------------

def _mutate(blob: bytes, data) -> bytes:
    """One random edit of ``blob``: flip, cut, insert or append."""
    choice = data.draw(st.integers(0, 3))
    if choice == 0 and blob:
        index = data.draw(st.integers(0, len(blob) - 1))
        bit = 1 << data.draw(st.integers(0, 7))
        return blob[:index] + bytes([blob[index] ^ bit]) + blob[index + 1:]
    if choice == 1 and blob:
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    extra = data.draw(st.binary(min_size=1, max_size=4))
    if choice == 2:
        index = data.draw(st.integers(0, len(blob)))
        return blob[:index] + extra + blob[index:]
    return blob + extra


def _assert_accepts_exactly_canonical(blob: bytes) -> None:
    """Accepted iff the reference accepts and re-encodes to these bytes."""
    try:
        expected = reference_codec.decode_fields(blob)
        canonical = reference_codec.encode_fields(expected) == blob
    except WIRE_ERRORS:
        canonical = False
    if canonical:
        assert decode_fields(blob) == expected
    else:
        with pytest.raises(WIRE_ERRORS):
            decode_fields(blob)


@settings(max_examples=500, deadline=None)
@given(_fields, st.data())
def test_decoder_accepts_exactly_canonical_bytes_near_valid(fields, data):
    _assert_accepts_exactly_canonical(_mutate(encode_fields(fields), data))


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=200))
def test_decoder_accepts_exactly_canonical_bytes_random(blob):
    _assert_accepts_exactly_canonical(blob)


# A list's items are encoded and decoded in one loop when they are byte
# strings with a one-byte length (a GETKEYRANGE reply); these lists sit
# on both sides of that boundary, item by item.
_edge_bytes = st.sampled_from([0, 1, 127, 128, 300]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
_list_items = st.recursive(
    st.one_of(_edge_bytes, st.integers(0, 2**64 - 1), st.none()),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)
_key_lists = st.lists(_list_items, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_key_lists, st.data())
def test_list_items_in_line_are_the_recursive_encoding(items, data):
    fields = {"keys": items}
    blob = encode_fields(fields)
    assert blob == reference_codec.encode_fields(fields)
    assert decode_fields(blob) == fields
    _assert_accepts_exactly_canonical(_mutate(blob, data))


def _key_list(count: int, items: bytes) -> bytes:
    return b"\x01\x04keys\x03" + bytes([count]) + items


@pytest.mark.parametrize(
    "blob, message",
    [
        pytest.param(_key_list(2, b"\x01\x01a\x01\x81\x00b"),
                     "non-minimal varint", id="non-minimal-item-length"),
        pytest.param(_key_list(2, b"\x01\x01a\x01\x05bc"),
                     "field length 5 exceeds remaining payload 2",
                     id="truncated-item"),
        pytest.param(_key_list(2, b"\x01\x01a\x01"),
                     "truncated varint", id="item-cut-after-its-type"),
        pytest.param(_key_list(2, b"\x01\x01a"),
                     "truncated field value", id="item-missing"),
        pytest.param(_key_list(1, b"\x01\x01a\x00"),
                     "1 bytes after the last field", id="trailing-byte"),
        # Five items, one length: each defect sits after four good heads.
        pytest.param(_key_list(5, b"\x01\x01a" * 4 + b"\x01\x01"),
                     "field length 1 exceeds remaining payload 0",
                     id="uniform-last-item-cut"),
        pytest.param(_key_list(6, b"\x01\x01a" * 5),
                     "truncated field value", id="uniform-item-missing"),
        pytest.param(_key_list(5, b"\x01\x01a" * 4 + b"\x01\x81\x00a"),
                     "non-minimal varint", id="uniform-non-minimal-length"),
        pytest.param(_key_list(5, b"\x01\x01a" * 4 + b"\x09\x01a"),
                     "unknown field type 9", id="uniform-unknown-type"),
        pytest.param(_key_list(5, b"\x01\x01a" * 5 + b"\x00"),
                     "1 bytes after the last field", id="uniform-trailing-byte"),
        pytest.param(_key_list(5, (b"\x01\x85" + bytes(133)) * 5),
                     "non-minimal varint", id="uniform-two-byte-lengths"),
    ],
)
def test_list_item_refusals_are_the_general_paths(blob, message):
    """Messages as the all-recursive decoder (88c1bf4) worded them."""
    with pytest.raises(WIRE_ERRORS, match=message):
        decode_fields(blob)


# A list of more than four byte strings of one length under 128 (a
# GETKEYRANGE reply) is read in bulk.  These lists sit on both sides of
# each condition: 4 and 5 items, lengths 0, 127 and 128, and one
# intruder of another length or type.
_uniform_lists = st.tuples(
    st.sampled_from([0, 1, 127, 128]), st.integers(4, 7)
).flatmap(lambda shape: st.lists(
    st.binary(min_size=shape[0], max_size=shape[0]),
    min_size=shape[1], max_size=shape[1],
))
_intruders = st.one_of(
    st.binary(max_size=130), st.text(max_size=3), st.integers(0, 300),
    st.none(), st.just([b"ab"]),
)


@st.composite
def _bulk_candidates(draw):
    items = draw(_uniform_lists)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(items) - 1))
        size = len(items[0])
        items[at] = draw(st.one_of(_intruders, st.just("x" * size)))
    return items


def _general_refusal(blob: bytes) -> str:
    """How ``_key_list``'s items, read one by one on the general path,
    refuse ``blob`` (a header left whole)."""
    try:
        count, pos = protocol._read_varint(blob, 7, "field length")
        for _ in range(count):
            _, pos = protocol._read_value(blob, pos)
    except WIRE_ERRORS as exc:
        return str(exc)
    return f"{len(blob) - pos} bytes after the last field"


@settings(max_examples=200, deadline=None)
@given(_bulk_candidates())
def test_uniform_lists_match_the_reference_and_refuse_on_the_general_path(
    items,
):
    fields = {"keys": items}
    blob = encode_fields(fields)
    assert blob == reference_codec.encode_fields(fields)
    assert blob[:8] == _key_list(len(items), b"")
    assert decode_fields(blob) == reference_codec.decode_fields(blob) == fields
    for cut in range(len(blob)):
        with pytest.raises(WIRE_ERRORS) as refused:
            decode_fields(blob[:cut])
        if cut >= 8:
            assert str(refused.value) == _general_refusal(blob[:cut])
            innermost = refused.tb
            while innermost.tb_next is not None:
                innermost = innermost.tb_next
            assert innermost.tb_frame.f_code.co_name in {
                "_read_value", "_read_varint", "decode_varint",
            }


@pytest.mark.parametrize(
    "ops",
    [
        pytest.param([[b"k" * 8, b"v" * 8, b"d" * 8, b"n" * 8, True]],
                     id="heads-alike-until-force"),
        pytest.param([[b"k" * 8, b"v" * 300, b"", None, False]] * 3,
                     id="value-of-another-length"),
        pytest.param([[b"k" * 8] * 5], id="five-alike"),
    ],
)
def test_commit_bodies_match_the_reference_at_every_cut(ops):
    fields = {"ops": ops}
    blob = encode_fields(fields)
    assert blob == reference_codec.encode_fields(fields)
    assert decode_fields(blob) == reference_codec.decode_fields(blob) == fields
    for cut in range(len(blob)):
        _assert_accepts_exactly_canonical(blob[:cut])


# A byte string is written and read in line when its length varint has
# one or two bytes; these lengths sit on both sides of each boundary, and
# the COMMIT-shaped bodies carry values of 1-20 KB in five-item ops.
_boundary_bytes = st.sampled_from([0, 127, 128, 16_383, 16_384]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
_ops = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=40),
        st.one_of(
            st.none(),
            st.integers(1024, 20 * 1024).map(lambda size: b"v" * size),
        ),
        st.binary(max_size=8),
        st.one_of(st.none(), st.binary(min_size=8, max_size=8)),
        st.booleans(),
    ).map(list),
    min_size=1,
    max_size=4,
)
_long_fields = st.one_of(
    st.dictionaries(
        st.text(max_size=8),
        st.one_of(_boundary_bytes, st.lists(_boundary_bytes, max_size=3)),
        max_size=3,
    ),
    _ops.map(lambda ops: {"ops": ops}),
)


@settings(max_examples=100, deadline=None)
@given(_long_fields, st.data())
def test_long_byte_strings_and_commit_bodies_match_the_reference(
    fields, data
):
    blob = encode_fields(fields)
    assert blob == reference_codec.encode_fields(fields)
    assert decode_fields(blob) == reference_codec.decode_fields(blob)
    _assert_accepts_exactly_canonical(_mutate(blob, data))


def _field(key: bytes, value: bytes) -> bytes:
    return bytes([len(key)]) + key + value


INT_1 = b"\x00\x01"


def _bytes_value(head: bytes, payload: int) -> bytes:
    return b"\x01" + _field(b"a", b"\x01" + head + b"x" * payload)


@pytest.mark.parametrize(
    "blob, message",
    [
        pytest.param(_bytes_value(b"\x80\x00", 0), "non-minimal varint",
                     id="two-byte-length-non-minimal"),
        pytest.param(_bytes_value(b"\x80", 0), "truncated varint",
                     id="two-byte-length-cut"),
        pytest.param(_bytes_value(b"\x80\x01", 127),
                     "field length 128 exceeds remaining payload 127",
                     id="two-byte-length-exceeds-payload"),
        pytest.param(_bytes_value(b"\xff\x7f", 10),
                     "field length 16383 exceeds remaining payload 10",
                     id="largest-two-byte-length-exceeds-payload"),
        pytest.param(_bytes_value(b"\x80\x80\x00", 0), "non-minimal varint",
                     id="three-byte-length-non-minimal"),
        pytest.param(_key_list(1, b"\x01\x80\x00"), "non-minimal varint",
                     id="two-byte-item-length-non-minimal"),
        pytest.param(b"\x01\x80\x01" + b"a" * 10,
                     "field key length 128 exceeds remaining payload 10",
                     id="two-byte-key-length-exceeds-payload"),
    ],
)
def test_two_byte_length_refusals_are_the_general_paths(blob, message):
    """The in-line reader hands every near miss to the general path."""
    with pytest.raises(WIRE_ERRORS, match=message):
        decode_fields(blob)


@pytest.mark.parametrize("size", [127, 128, 16_383, 16_384])
def test_lengths_at_the_in_line_boundaries_decode(size):
    value = bytes(range(256)) * (size // 256) + bytes(size % 256)
    blob = b"\x01" + _field(b"a", b"\x01" + encode_varint(size) + value)
    assert decode_fields(blob) == {"a": value}
    assert encode_fields({"a": value}) == blob


def test_ints_are_64_bit_both_ways():
    """Nothing above 2**64 - 1 is written, and no tenth varint byte
    above 0x01 is read (such a varint used to decode up to 2**70 - 1)."""
    top = {"n": 2**64 - 1}
    assert decode_fields(encode_fields(top)) == top
    for value in (2**64, 2**69, 2**80):
        with pytest.raises(KineticError):
            encode_fields({"n": value})
        with pytest.raises(KineticError):
            reference_codec.encode_fields({"n": value})
    blob = b"\x01" + _field(b"n", b"\x00" + b"\x80" * 9 + b"\x02")  # 2**64
    for decode in (decode_fields, reference_codec.decode_fields):
        with pytest.raises(VarintError, match="exceeds 64 bits"):
            decode(blob)


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b"\x02" + _field(b"a", INT_1) + _field(b"a", INT_1),
                     id="duplicate-key"),
        pytest.param(b"\x02" + _field(b"b", INT_1) + _field(b"a", INT_1),
                     id="out-of-order-keys"),
        pytest.param(b"\x01" + _field(b"a", INT_1) + b"\x00",
                     id="trailing-bytes"),
        pytest.param(b"\x00\x00", id="trailing-after-empty"),
        pytest.param(b"\x81\x00" + _field(b"a", INT_1), id="non-minimal-count"),
        pytest.param(b"\x01" + _field(b"a", b"\x00\x81\x00"),
                     id="non-minimal-int"),
    ],
)
def test_non_canonical_encodings_rejected(blob):
    reference_codec.decode_fields(blob)  # the lenient reference parses these
    with pytest.raises(KineticError):
        decode_fields(blob)


@pytest.mark.parametrize(
    "blob, error",
    [
        pytest.param(b"\x05", KineticError, id="count-exceeds-payload"),
        pytest.param(b"\x01\x7fa", KineticError, id="key-length-exceeds-payload"),
        pytest.param(b"\x01" + _field(b"a", b"\x01\xff\xff\xff\xff\x0f"),
                     KineticError, id="bytes-length-exceeds-payload"),
        pytest.param(b"\x01" + _field(b"a", b"\x03\x7f"), KineticError,
                     id="list-count-exceeds-payload"),
        pytest.param(b"\x01" + _field(b"a", b"\x00" + b"\x80" * 10 + b"\x01"),
                     VarintError, id="varint-over-ten-bytes"),
        pytest.param(b"\x01" + _field(b"a", b"\x00\x80"), VarintError,
                     id="truncated-varint"),
        pytest.param(b"\x01" + _field(b"a", b""), KineticError,
                     id="truncated-value"),
        pytest.param(b"\x01" + _field(b"a", b"\x09"), KineticError,
                     id="unknown-type"),
        pytest.param(b"\x01" + _field(b"\xff", INT_1), KineticError,
                     id="key-not-utf8"),
        pytest.param(b"\x01" + _field(b"a", b"\x02\x01\xff"), KineticError,
                     id="string-not-utf8"),
    ],
)
def test_malformed_fields_rejected(blob, error):
    with pytest.raises(error):
        decode_fields(blob)


# ---------------------------------------------------------------------------
# Golden vectors: the policy and the frames generated at the commit
# before the codec was rewritten, the metadata record with at-rest
# format v2 (docs/resilience.md, "At-rest formats")
# ---------------------------------------------------------------------------

GOLDEN_META_HEX = (
    "050263760003036b6579021175736572732f616c6963652fc3bc6ec3af02706803020100"
    "0120cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd0670"
    "6f6c6963790120ababababababababababababababababababababababababababababab"
    "ababab04726f777301930100000000000000000000000000019000010101010101010101"
    "010101010101010101010101010101010101010101010100000000000000000100000000"
    "000320000202020202020202020202020202020202020202020202020202020202020202"
    "010000000000000002000000000004b00003030303030303030303030303030303030303"
    "0303030303030303030303030301"
)

GOLDEN_POLICY_SOURCE = r"""
    read   :- sessionKeyIs(k'alice') \/ sessionKeyIs(k'bob')
    update :- objId(this, O) /\ currVersion(O, cV) /\ nextVersion(cV + 1) /\ sessionKeyIs(k'alice')
           \/ objId(this, NULL) /\ nextVersion(0)
    delete :- objSays(log, V, 'delete'(O, 300, h'abcd'))
"""
GOLDEN_POLICY_HEX = (
    "0409636f6e7374616e74730308030202016b0205616c696365030202016b0203626f6203"
    "020201690001030102016e030202016900000302020173020664656c6574650302020169"
    "00ac0203020201680204616263640b7065726d697373696f6e7303030302020664656c65"
    "7465030103010302001a0303030202017202036c6f670302020176000203030201740005"
    "030303020201760000030202016300060302020163000703020204726561640302030103"
    "02000b03010302020163000003010302000b030103020201630001030202067570646174"
    "650302030403020014030203020201720204746869730302020176000003020015030203"
    "02020176000003020201760001030200160301030402016102012b030202017600010302"
    "02016300020302000b030103020201630000030203020014030203020201720204746869"
    "730302020163000303020016030103020201630004097661726961626c6573030302014f"
    "020263560201560776657273696f6e0001"
)
GOLDEN_POLICY_HASH = (
    "9a2d86f2400fc02980e93db47a126b44fd3be6f032e9b0ece380090036b6af4f"
)


def _golden_meta() -> StoredMeta:
    return StoredMeta(
        key="users/alice/ünï", current_version=2, policy_id="ab" * 32,
        versions={
            version: VersionMeta(
                version=version,
                size=102400 * (version + 1),
                content_hash=f"{version + 1:02x}" * 32,
                policy_hash="" if version == 0 else "cd" * 32,
            )
            for version in range(3)
        },
    )


def _with_row(meta: StoredMeta, **changes) -> StoredMeta:
    """``meta`` with its version 1 row changed: records are immutable."""
    row = meta.versions[1]._replace(**changes)
    return meta._replace(versions={**meta.versions, 1: row})


def test_golden_stored_meta_bytes():
    blob = bytes.fromhex(GOLDEN_META_HEX)
    assert _golden_meta().encode() == blob
    # Decoding gives the record back, carrying the digest of its bytes.
    sealed, plain = _golden_meta().encoded()
    assert plain == blob and _golden_meta().digest is None
    assert sealed.digest == hashlib.sha256(blob).hexdigest()
    assert StoredMeta.decode(blob) == sealed


def test_golden_compiled_policy_bytes_and_hash():
    blob = bytes.fromhex(GOLDEN_POLICY_HEX)
    policy = compile_policy(GOLDEN_POLICY_SOURCE)
    assert policy.to_bytes() == blob
    assert policy.policy_hash() == GOLDEN_POLICY_HASH
    loaded = CompiledPolicy.from_bytes(blob)
    assert loaded.policy_hash() == GOLDEN_POLICY_HASH
    assert loaded.permissions == policy.permissions
    assert loaded.constants == policy.constants


# ---------------------------------------------------------------------------
# Metadata record v2: decodes canonically or not at all
# ---------------------------------------------------------------------------

_digests = st.binary(min_size=32, max_size=32).map(bytes.hex)


@st.composite
def _stored_metas(draw):
    policy_hashes = draw(
        st.lists(st.one_of(st.just(""), _digests), min_size=1, max_size=3,
                 unique=True)
    )
    versions = draw(
        st.lists(st.integers(0, 2**64 - 1), max_size=40, unique=True)
    )
    return StoredMeta(
        key=draw(st.text(max_size=24)),
        current_version=draw(st.integers(-1, 2**63)),
        policy_id=draw(st.one_of(st.just(""), _digests)),
        versions={  # unsorted on purpose: encode orders them
            version: VersionMeta(
                version=version,
                size=draw(st.integers(0, 2**64 - 1)),
                content_hash=draw(_digests),
                policy_hash=draw(st.sampled_from(policy_hashes)),
            )
            for version in versions
        },
    )


@settings(max_examples=200, deadline=None)
@given(_stored_metas())
def test_stored_meta_roundtrip_property(meta):
    sealed, blob = meta.encoded()
    loaded = StoredMeta.decode(blob)
    assert loaded == sealed and loaded[:4] == meta[:4]
    assert loaded.digest == hashlib.sha256(blob).hexdigest()
    assert list(loaded.versions) == sorted(meta.versions)
    assert loaded.encode() == blob
    # Each distinct policy hash is spelled once, each row is 49 bytes.
    fields = decode_fields(blob)
    assert len(fields["ph"]) == len(
        {m.policy_hash for m in meta.versions.values()}
    )
    assert len(fields["rows"]) == 49 * len(meta.versions)


#: Spelled out here, not imported: the tests pin the row layout.
_ROW = struct.Struct(">QQ32sB")
_H1, _H2 = b"\x11" * 32, b"\x22" * 32


def _record(version_rows, ph=(_H1,), drop=None, **overrides) -> bytes:
    """A hand-built record: what ``encode`` would never emit, too."""
    fields = {
        "key": "k", "cv": 2, "policy": b"",
        "ph": list(ph) if isinstance(ph, tuple) else ph,
        "rows": b"".join(_ROW.pack(*row) for row in version_rows),
    }
    fields.update(overrides)
    fields.pop(drop, None)
    return encode_fields(fields)


def test_record_helper_builds_what_encode_builds():
    meta = StoredMeta.decode(_record(
        [(0, 5, _H2, 0), (1, 6, _H2, 1), (2, 7, _H2, 0)], ph=(_H1, b"")
    ))
    assert [m.policy_hash for m in meta.versions.values()] == [
        _H1.hex(), "", _H1.hex()
    ]
    assert meta.encode() == _record(
        [(0, 5, _H2, 0), (1, 6, _H2, 1), (2, 7, _H2, 0)], ph=(_H1, b"")
    )


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(_record([(0, 5, _H2, 0)], rows=b"\0" * 48),
                     id="rows-not-whole"),
        pytest.param(_record([(0, 5, _H2, 0)], rows=b"\0" * 50),
                     id="rows-trailing-byte"),
        pytest.param(_record([(1, 5, _H2, 0), (1, 5, _H2, 0)]),
                     id="version-repeated"),
        pytest.param(_record([(2, 5, _H2, 0), (1, 5, _H2, 0)]),
                     id="versions-descending"),
        pytest.param(_record([(0, 5, _H2, 1)]), id="index-out-of-range"),
        pytest.param(_record([(0, 5, _H2, 0)], ph=()), id="index-into-empty"),
        pytest.param(_record([(0, 5, _H2, 0)], ph=(_H1, _H2)),
                     id="ph-unused"),
        pytest.param(_record([], ph=(_H1,)), id="ph-unused-no-rows"),
        pytest.param(
            _record([(0, 5, _H2, 1), (1, 5, _H2, 0)], ph=(_H1, _H2)),
            id="ph-out-of-first-use-order",
        ),
        pytest.param(
            _record([(0, 5, _H2, 0), (1, 5, _H2, 1)], ph=(_H1, _H1)),
            id="ph-listed-twice",
        ),
        pytest.param(_record([(0, 5, _H2, 0)], ph=(_H1[:31],)),
                     id="ph-31-bytes"),
        pytest.param(_record([(0, 5, _H2, 0)], policy=_H1 + b"\0"),
                     id="policy-33-bytes"),
        pytest.param(_record([(0, 5, _H2, 0)], policy=_H1.hex()),
                     id="policy-as-hex-string"),
        pytest.param(_record([(0, 5, _H2, 0)], rows="rows"),
                     id="rows-not-bytes"),
        pytest.param(_record([(0, 5, _H2, 0)], ph=_H1), id="ph-not-a-list"),
        pytest.param(_record([(0, 5, _H2, 0)], ph=(_H1.hex(),)),
                     id="ph-entry-not-bytes"),
        pytest.param(_record([(0, 5, _H2, 0)], cv=None), id="cv-not-an-int"),
        pytest.param(_record([(0, 5, _H2, 0)], drop="ph"), id="field-missing"),
        pytest.param(_record([(0, 5, _H2, 0)], extra=1), id="field-extra"),
        pytest.param(
            encode_fields({
                "key": "k", "cv": 1, "policy": "",
                "versions": [[0, 5, _H2.hex(), _H1.hex()]],
            }),
            id="record-v1",
        ),
    ],
)
def test_stored_meta_decode_rejects_noncanonical_records(blob):
    with pytest.raises(KineticError):
        StoredMeta.decode(blob)


@settings(max_examples=300, deadline=None)
@given(
    meta=_stored_metas(),
    field=st.sampled_from(["cv", "key", "ph", "policy", "rows"]),
    data=st.data(),
)
def test_whatever_decodes_is_what_encode_would_write(meta, field, data):
    """One field of a valid record replaced by arbitrary bytes, rows or
    hashes: ``decode`` refuses it, or it is the canonical record of what
    it decodes to — no two records decode to the same metadata."""
    fields = decode_fields(meta.encode())
    width = st.sampled_from([0, 31, 32, 33])
    raw = st.one_of(
        width.flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        st.sampled_from(fields["ph"] + [b""]),
    )
    fields[field] = data.draw({
        "cv": st.integers(0, 2**64 - 1),
        "key": st.text(max_size=8),
        "ph": st.lists(raw, max_size=4),
        "policy": raw,
        "rows": st.one_of(
            st.binary(max_size=120),
            st.lists(
                st.tuples(
                    st.integers(0, 5), st.integers(0, 9),
                    st.binary(min_size=32, max_size=32), st.integers(0, 4),
                ),
                max_size=5,
            ).map(lambda rows: b"".join(_ROW.pack(*row) for row in rows)),
        ),
    }[field])
    blob = encode_fields(fields)
    try:
        loaded = StoredMeta.decode(blob)
    except KineticError:
        return
    assert loaded.encode() == blob


@pytest.mark.parametrize(
    "field, value",
    [
        ("content_hash", "ph"),
        ("content_hash", ""),
        ("content_hash", "AB" * 32),           # not as hexdigest() spells it
        ("content_hash", "ab" * 31),
        ("content_hash", "ab" * 31 + " abab"),  # fromhex would skip the blank
        ("content_hash", "zz" * 32),
        ("policy_hash", "ph"),
        ("policy_hash", "ab" * 16),
        ("policy_id", "p1"),
    ],
)
def test_stored_meta_encode_refuses_what_is_not_a_sha256_hex_digest(
    field, value
):
    meta = _golden_meta()
    if field == "policy_id":
        meta = meta._replace(policy_id=value)
    else:
        meta = _with_row(meta, **{field: value})
    with pytest.raises(KineticError):
        meta.encode()


def test_stored_meta_encode_refuses_what_a_row_cannot_hold():
    meta = _with_row(_golden_meta(), size=2**64)
    with pytest.raises(KineticError):
        meta.encode()
    meta = _golden_meta()
    meta = meta._replace(versions={
        **meta.versions,
        **{  # 257+ distinct hashes: index > u8
            version: VersionMeta(version, 1, "00" * 32, f"{version:064x}")
            for version in range(3, 300)
        },
    })
    with pytest.raises(KineticError):
        meta.encode()


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

KEY = HmacSha256(b"secret")


def _signed(**kwargs) -> Message:
    defaults = dict(
        message_type=MessageType.PUT,
        identity="pesos",
        sequence=7,
        body={"key": b"k1", "value": b"v1", "force": True},
    )
    defaults.update(kwargs)
    return Message(**defaults).sign(KEY)


_messages = st.builds(
    Message,
    message_type=st.sampled_from(MessageType),
    identity=st.text(max_size=12),
    sequence=st.integers(0, 2**64 - 1),
    body=_fields,
    status=st.sampled_from(StatusCode),
    status_message=st.text(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(_messages)
def test_frame_roundtrip_property(message):
    wire = message.sign(KEY).encode()
    decoded = Message.decode(wire)
    assert decoded.verify(KEY)
    assert not decoded.verify(HmacSha256(b"wrong"))
    assert decoded.command_bytes() == message.command_bytes()
    assert decoded.hmac == message.hmac
    assert decoded.encode() == wire


def test_frame_layout():
    wire = _signed(status_message="hi").encode()
    body = encode_fields({"key": b"k1", "value": b"v1", "force": True})
    assert wire[:2] == b"K\x01"
    header = struct.pack(">BBQHHI", MessageType.PUT, 0, 7, 5, 2, len(body))
    command = b"K\x01" + header + b"pesos" + b"hi" + body
    assert wire[: len(command)] == command
    assert wire[len(command)] == 32
    assert len(wire) == len(command) + 1 + 32


def test_command_is_encoded_once_per_signed_message(monkeypatch):
    calls = []
    original = Message.command_bytes

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Message, "command_bytes", counting)
    wire = _signed().encode()
    assert len(calls) == 1  # sign encodes, encode() reuses
    decoded = Message.decode(wire)
    assert decoded.verify(KEY)
    assert len(calls) == 1  # verify HMACs the received bytes


def test_verify_authenticates_the_received_bytes(monkeypatch):
    decoded = Message.decode(_signed().encode())
    # Nothing is re-serialised, so a broken encoder cannot make a forged
    # frame verify (or an authentic one fail).
    monkeypatch.setattr(
        protocol, "encode_fields", lambda fields: pytest.fail("re-encoded")
    )
    assert decoded.verify(KEY)


def test_resigned_decoded_message_verifies_over_its_fields():
    decoded = Message.decode(_signed().encode())
    decoded.body["value"] = b"changed"
    decoded.sign(KEY)
    assert decoded.verify(KEY)
    assert Message.decode(decoded.encode()).body["value"] == b"changed"
    decoded.body["value"] = b"evil"
    assert not decoded.verify(KEY)


def test_unsigned_frame_roundtrip():
    message = Message(MessageType.GET_RESPONSE, "pesos", 3,
                      status=StatusCode.HMAC_FAILURE, status_message="no")
    decoded = Message.decode(message.encode())
    assert decoded.hmac == b""
    assert decoded.status == StatusCode.HMAC_FAILURE
    assert not decoded.verify(KEY)


def test_unknown_version_rejected():
    wire = _signed().encode()
    with pytest.raises(KineticError, match="version 2"):
        Message.decode(wire[:1] + b"\x02" + wire[2:])


def test_bytes_after_hmac_rejected():
    with pytest.raises(KineticError):
        Message.decode(_signed().encode() + b"\x00")


@pytest.mark.parametrize("offset, width", [(12, 2), (14, 2), (16, 4)])
@pytest.mark.parametrize("delta", [-1, 1, 1000])
def test_header_lengths_must_add_up(offset, width, delta):
    """Identity, status-message and body lengths against the frame length."""
    wire = bytearray(_signed(status_message="oops").encode())
    length = int.from_bytes(wire[offset:offset + width], "big")
    wire[offset:offset + width] = (length + delta).to_bytes(width, "big")
    with pytest.raises(WIRE_ERRORS):
        Message.decode(bytes(wire))


@pytest.mark.parametrize(
    "field, value",
    [
        ("sequence", 2**64),
        ("sequence", -1),
        ("identity", "x" * 70000),
        ("status_message", "x" * 70000),
    ],
)
def test_fields_that_do_not_fit_the_header_rejected_on_encode(field, value):
    message = Message(MessageType.NOOP, "pesos", 1)
    setattr(message, field, value)
    with pytest.raises(KineticError):
        message.command_bytes()


def test_unknown_type_and_status_rejected():
    wire = bytearray(_signed().encode())
    for offset in (2, 3):
        bad = bytearray(wire)
        bad[offset] = 200
        with pytest.raises(KineticError):
            Message.decode(bytes(bad))


def test_any_single_bit_flip_is_caught():
    wire = _signed(status_message="m").encode()
    for index in range(len(wire)):
        for bit in range(8):
            flipped = bytearray(wire)
            flipped[index] ^= 1 << bit
            try:
                decoded = Message.decode(bytes(flipped))
            except WIRE_ERRORS:
                continue
            assert not decoded.verify(KEY), (index, bit)


def test_every_truncation_rejected():
    wire = _signed().encode()
    for cut in range(len(wire)):
        with pytest.raises(WIRE_ERRORS):
            Message.decode(wire[:cut])


def _decode_raises_only_wire_errors(blob: bytes) -> None:
    try:
        Message.decode(blob)
    except WIRE_ERRORS:
        pass


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=300))
def test_frame_fuzz_random(blob):
    _decode_raises_only_wire_errors(blob)
    _decode_raises_only_wire_errors(b"K\x01" + blob)


@settings(max_examples=500, deadline=None)
@given(_messages, st.data())
def test_frame_fuzz_near_valid(message, data):
    wire = _mutate(message.sign(KEY).encode(), data)
    try:
        decoded = Message.decode(wire)
    except WIRE_ERRORS:
        return
    # Whatever still decodes re-encodes to the very bytes received.
    assert decoded.command_bytes() + bytes([len(decoded.hmac)]) + decoded.hmac == wire


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
    st.integers(0, 2**32 - 1), st.binary(max_size=64),
)
def test_frame_fuzz_oversized_lengths(identity_len, message_len, body_len, rest):
    header = struct.pack(
        ">BBQHHI", MessageType.GET, 0, 1, identity_len, message_len, body_len
    )
    _decode_raises_only_wire_errors(b"K\x01" + header + rest)
