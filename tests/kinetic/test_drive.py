"""Drive semantics: versioned puts, ranges, ACLs, security, P2P."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import HmacSha256
from repro.errors import DriveOffline
from repro.kinetic.drive import Acl, KineticDrive, Role
from repro.kinetic.protocol import Message, MessageType, StatusCode

KEY = b"asdfasdf"  # factory demo key


def _request(message_type, body, identity="demo", key=KEY, sequence=1):
    return Message(
        message_type=message_type,
        identity=identity,
        sequence=sequence,
        body=body,
    ).sign(HmacSha256(key))


def _put(drive, key, value, **extra):
    body = {"key": key, "value": value, "db_version": b"", "force": False}
    body.update(extra)
    return drive.handle(_request(MessageType.PUT, body))


def _get(drive, key):
    return drive.handle(_request(MessageType.GET, {"key": key}))


@pytest.fixture()
def drive():
    return KineticDrive("disk-0", capacity_bytes=1 << 20)


def test_put_get_roundtrip(drive):
    put_response = _put(drive, b"k1", b"hello")
    assert put_response.ok
    get_response = _get(drive, b"k1")
    assert get_response.ok
    assert get_response.body["value"] == b"hello"
    assert get_response.body["db_version"] == put_response.body["new_version"]


def test_get_missing_key(drive):
    assert _get(drive, b"nope").status == StatusCode.NOT_FOUND


def test_versioned_put_detects_stale_writer(drive):
    first = _put(drive, b"k", b"v1")
    version = first.body["new_version"]
    # Writer with the right version succeeds.
    second = _put(drive, b"k", b"v2", db_version=version)
    assert second.ok
    # Writer reusing the old version conflicts.
    stale = _put(drive, b"k", b"v3", db_version=version)
    assert stale.status == StatusCode.VERSION_MISMATCH
    assert stale.body["current_version"] == second.body["new_version"]


def test_force_put_overrides_version(drive):
    _put(drive, b"k", b"v1")
    forced = _put(drive, b"k", b"v2", force=True)
    assert forced.ok


def test_put_new_key_requires_empty_version(drive):
    response = _put(drive, b"new", b"v", db_version=b"bogus")
    assert response.status == StatusCode.VERSION_MISMATCH


def test_explicit_new_version_respected(drive):
    response = _put(drive, b"k", b"v", new_version=b"v42")
    assert response.body["new_version"] == b"v42"


def test_delete_with_version(drive):
    version = _put(drive, b"k", b"v").body["new_version"]
    bad = drive.handle(
        _request(MessageType.DELETE, {"key": b"k", "db_version": b"wrong"})
    )
    assert bad.status == StatusCode.VERSION_MISMATCH
    good = drive.handle(
        _request(MessageType.DELETE, {"key": b"k", "db_version": version})
    )
    assert good.ok
    assert _get(drive, b"k").status == StatusCode.NOT_FOUND
    assert drive.key_count == 0


def test_delete_missing_key(drive):
    response = drive.handle(
        _request(MessageType.DELETE, {"key": b"nope", "db_version": b""})
    )
    assert response.status == StatusCode.NOT_FOUND


def test_capacity_enforced():
    small = KineticDrive("tiny", capacity_bytes=10)
    assert _put(small, b"k", b"12345").ok
    response = _put(small, b"k2", b"123456789")
    assert response.status == StatusCode.NO_SPACE
    # Replacing with a smaller value frees space.
    assert _put(small, b"k", b"1", force=True).ok
    assert small.used_bytes == 1


def test_getkeyrange_ordering(drive):
    for key in (b"c", b"a", b"b", b"e", b"d"):
        _put(drive, key, b"v")
    response = drive.handle(
        _request(
            MessageType.GETKEYRANGE,
            {"start_key": b"a", "end_key": b"d", "max_returned": 10},
        )
    )
    assert response.body["keys"] == [b"a", b"b", b"c", b"d"]


def test_getkeyrange_exclusive_bounds(drive):
    for key in (b"a", b"b", b"c"):
        _put(drive, key, b"v")
    response = drive.handle(
        _request(
            MessageType.GETKEYRANGE,
            {
                "start_key": b"a",
                "end_key": b"c",
                "start_inclusive": False,
                "end_inclusive": False,
            },
        )
    )
    assert response.body["keys"] == [b"b"]


def test_getkeyrange_reverse_and_limit(drive):
    for key in (b"a", b"b", b"c", b"d"):
        _put(drive, key, b"v")
    response = drive.handle(
        _request(
            MessageType.GETKEYRANGE,
            {"start_key": b"a", "end_key": b"d", "reverse": True,
             "max_returned": 2},
        )
    )
    assert response.body["keys"] == [b"d", b"c"]


def _whole_range_then_cut(keys, body):
    """GETKEYRANGE as the drive answered it before it bounded the copy:
    the whole range, reversed if asked, then cut to ``max_returned``."""
    start = body.get("start_key", b"")
    end = body.get("end_key", b"\xff" * 32)
    if body.get("start_inclusive", True):
        lo = bisect.bisect_left(keys, start)
    else:
        lo = bisect.bisect_right(keys, start)
    if body.get("end_inclusive", True):
        hi = bisect.bisect_right(keys, end)
    else:
        hi = bisect.bisect_left(keys, end)
    keys = keys[lo:hi]
    if body.get("reverse"):
        keys.reverse()
    return keys[: body.get("max_returned", 200)]


_short_keys = st.binary(min_size=1, max_size=2)
_range_bodies = st.fixed_dictionaries(
    {"start_key": _short_keys, "end_key": _short_keys},
    optional={
        # 0, 1, below and above the range size, and the default 200.
        "max_returned": st.one_of(st.sampled_from([0, 1]), st.integers(0, 40)),
        "start_inclusive": st.booleans(),
        "end_inclusive": st.booleans(),
        "reverse": st.booleans(),
    },
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_short_keys, unique=True, max_size=30), _range_bodies)
def test_getkeyrange_answers_what_whole_range_slicing_answered(keys, body):
    """Start past end, exclusive bounds, limits of 0 and 1 and around
    the range size, both directions: the window is the old answer."""
    drive = KineticDrive("disk-0")
    for key in keys:
        assert _put(drive, key, b"v").ok
    response = drive.handle(_request(MessageType.GETKEYRANGE, body))
    assert response.ok
    assert response.body["keys"] == _whole_range_then_cut(sorted(keys), body)


class _SliceWidths(list):
    """A sorted key list that records the width of every slice taken."""

    def __init__(self, keys):
        super().__init__(keys)
        self.widths = []

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.widths.append(len(range(*index.indices(len(self)))))
        return super().__getitem__(index)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("limit", [0, 1, 7, 50])
def test_getkeyrange_copies_no_more_than_it_returns(drive, reverse, limit):
    for index in range(300):
        _put(drive, b"m/%04d" % index, b"v")
    drive._sorted_keys = _SliceWidths(drive._sorted_keys)
    response = drive.handle(_request(
        MessageType.GETKEYRANGE,
        {"start_key": b"m/0100", "end_key": b"m/\xff", "max_returned": limit,
         "reverse": reverse},
    ))
    assert len(response.body["keys"]) == limit
    assert drive._sorted_keys.widths
    assert max(drive._sorted_keys.widths) <= limit


def test_getnext_getprevious(drive):
    for key in (b"a", b"c", b"e"):
        _put(drive, key, key.upper())
    nxt = drive.handle(_request(MessageType.GETNEXT, {"key": b"b"}))
    assert nxt.body["key"] == b"c"
    prev = drive.handle(_request(MessageType.GETPREVIOUS, {"key": b"c"}))
    assert prev.body["key"] == b"a"
    assert (
        drive.handle(_request(MessageType.GETNEXT, {"key": b"e"})).status
        == StatusCode.NOT_FOUND
    )
    assert (
        drive.handle(_request(MessageType.GETPREVIOUS, {"key": b"a"})).status
        == StatusCode.NOT_FOUND
    )


def test_bad_hmac_rejected(drive):
    request = _request(MessageType.GET, {"key": b"k"}, key=b"wrongkey")
    response = drive.handle(request)
    assert response.status == StatusCode.HMAC_FAILURE
    assert drive.stats.auth_failures == 1


def test_unknown_identity_rejected(drive):
    request = _request(MessageType.GET, {"key": b"k"}, identity="stranger")
    assert drive.handle(request).status == StatusCode.HMAC_FAILURE


def test_security_locks_out_old_accounts(drive):
    # Pesos bootstrap: replace all accounts with a single admin.
    new_key = b"pesos-secret-key"
    response = drive.handle(
        _request(
            MessageType.SECURITY,
            {"accounts": [["pesos", new_key, Role.all().value]]},
        )
    )
    assert response.ok
    # The factory demo identity no longer works.
    old = drive.handle(_request(MessageType.GET, {"key": b"k"}))
    assert old.status == StatusCode.HMAC_FAILURE
    # The new admin does.
    fresh = drive.handle(
        _request(MessageType.GET, {"key": b"k"}, identity="pesos", key=new_key)
    )
    assert fresh.status == StatusCode.NOT_FOUND  # authenticated, key missing
    assert drive.identities() == ["pesos"]


def test_security_refuses_empty_account_table(drive):
    response = drive.handle(_request(MessageType.SECURITY, {"accounts": []}))
    assert response.status == StatusCode.INVALID_REQUEST


def test_role_enforcement(drive):
    reader_key = b"reader-key"
    drive.handle(
        _request(
            MessageType.SECURITY,
            {
                "accounts": [
                    ["admin", KEY, Role.all().value],
                    ["reader", reader_key, Role.READ.value],
                ]
            },
            identity="demo",
        )
    )
    read = drive.handle(
        _request(MessageType.GET, {"key": b"k"}, identity="reader",
                 key=reader_key)
    )
    assert read.status == StatusCode.NOT_FOUND  # allowed, key absent
    write = drive.handle(
        _request(
            MessageType.PUT,
            {"key": b"k", "value": b"v", "db_version": b""},
            identity="reader",
            key=reader_key,
        )
    )
    assert write.status == StatusCode.NOT_AUTHORIZED


def test_setup_erase(drive):
    _put(drive, b"k", b"v")
    response = drive.handle(
        _request(MessageType.SETUP, {"erase": True, "cluster_version": 3})
    )
    assert response.ok
    assert drive.key_count == 0
    assert drive.used_bytes == 0
    assert drive.cluster_version == 3


def test_p2p_push():
    source = KineticDrive("src")
    target = KineticDrive("dst")
    source.register_peer(target)
    _put(source, b"k1", b"v1")
    _put(source, b"k2", b"v2")
    response = source.handle(
        _request(MessageType.PEER2PEERPUSH, {"peer": "dst", "keys": [b"k1", b"k2", b"missing"]})
    )
    assert response.ok
    assert response.body["pushed"] == 2
    assert _get(target, b"k1").body["value"] == b"v1"


def test_p2p_unknown_peer(drive):
    response = drive.handle(
        _request(MessageType.PEER2PEERPUSH, {"peer": "ghost", "keys": []})
    )
    assert response.status == StatusCode.INVALID_REQUEST


def test_p2p_offline_peer():
    source = KineticDrive("src")
    target = KineticDrive("dst")
    source.register_peer(target)
    target.fail()
    response = source.handle(
        _request(MessageType.PEER2PEERPUSH, {"peer": "dst", "keys": []})
    )
    assert response.status == StatusCode.INTERNAL_ERROR


def test_offline_drive_raises(drive):
    drive.fail()
    with pytest.raises(DriveOffline):
        _get(drive, b"k")
    drive.recover()
    assert _get(drive, b"k").status == StatusCode.NOT_FOUND


def test_getlog_reports_stats(drive):
    _put(drive, b"k", b"value")
    _get(drive, b"k")
    response = drive.handle(_request(MessageType.GETLOG, {}))
    assert response.body["puts"] == 1
    assert response.body["gets"] == 1
    assert response.body["key_count"] == 1
    assert response.body["used_bytes"] == 5


def test_responses_are_signed(drive):
    response = _put(drive, b"k", b"v")
    assert response.verify(HmacSha256(KEY))
    assert not response.verify(HmacSha256(b"other"))


def test_drive_certificate_issued():
    from repro.crypto.certs import CertificateAuthority

    ca = CertificateAuthority("drive-vendor", key_bits=512)
    drive = KineticDrive("certified", identity_ca=ca)
    assert drive.certificate is not None
    ca.verify_chain(drive.certificate, now=0.0)
    assert "certified" in drive.certificate.subject
