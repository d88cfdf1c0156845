"""Drive semantics: versioned puts, ranges, ACLs, security, P2P."""

import pytest

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
