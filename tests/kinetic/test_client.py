"""Client library: operations, errors, certificates, spoofed responses."""

import pytest

from repro.crypto.aead import HmacSha256
from repro.crypto.certs import CertificateAuthority, TrustStore
from repro.errors import (
    CertificateError,
    IntegrityError,
    KineticAuthError,
    KineticError,
    KineticNotFound,
    KineticVersionMismatch,
)
from repro.kinetic.client import KineticClient
from repro.kinetic.drive import KineticDrive, Role
from repro.kinetic.protocol import MessageType


@pytest.fixture()
def drive():
    return KineticDrive("disk-0")


@pytest.fixture()
def client(drive):
    return KineticClient(drive, identity="demo", hmac_key=KineticDrive.DEMO_KEY)


def test_put_get_roundtrip(client):
    version = client.put(b"k", b"value")
    value, db_version = client.get(b"k")
    assert value == b"value"
    assert db_version == version


def test_get_missing_raises(client):
    with pytest.raises(KineticNotFound):
        client.get(b"missing")


def test_version_conflict_raises(client):
    version = client.put(b"k", b"v1")
    client.put(b"k", b"v2", db_version=version)
    with pytest.raises(KineticVersionMismatch):
        client.put(b"k", b"v3", db_version=version)


def test_get_version(client):
    version = client.put(b"k", b"v")
    assert client.get_version(b"k") == version


def test_delete(client):
    version = client.put(b"k", b"v")
    client.delete(b"k", db_version=version)
    with pytest.raises(KineticNotFound):
        client.get(b"k")


def test_force_delete(client):
    client.put(b"k", b"v")
    client.delete(b"k", force=True)


def test_key_range(client):
    for key in (b"b", b"a", b"c"):
        client.put(key, b"v")
    assert client.get_key_range(b"a", b"c") == [b"a", b"b", b"c"]


class _RecordingDrive(KineticDrive):
    """A drive that keeps the body of every request it authenticates."""

    def __init__(self, drive_id):
        super().__init__(drive_id)
        self.bodies = []

    def handle(self, request):
        self.bodies.append(dict(request.body))
        return super().handle(request)


@pytest.mark.parametrize(
    "flag, default", [("start_inclusive", True), ("end_inclusive", True),
                      ("reverse", False)],
)
def test_key_range_sends_a_flag_only_off_its_default(flag, default):
    """As protobuf leaves out a default-valued field: the request names
    a flag only when it differs, and the drive answers the same keys
    whether a default is left out or spelled out."""
    drive = _RecordingDrive("disk-0")
    client = KineticClient(drive, identity="demo", hmac_key=KineticDrive.DEMO_KEY)
    for key in (b"a", b"b", b"c", b"d"):
        client.put(key, b"v")
    for value in (default, not default):
        drive.bodies.clear()
        keys = client.get_key_range(b"a", b"d", 3, **{flag: value})
        (body,) = drive.bodies
        assert (flag in body) == (value != default)
        assert body.keys() - {flag} == {"start_key", "end_key", "max_returned"}
        spelled_out = client._roundtrip(
            MessageType.GETKEYRANGE, {**body, flag: value}
        ).body["keys"]
        assert keys == spelled_out
    assert client.get_key_range(b"a", b"d", start_inclusive=False,
                                end_inclusive=False) == [b"b", b"c"]
    assert client.get_key_range(b"a", b"d", 2, reverse=True) == [b"d", b"c"]


def test_get_next_previous(client):
    for key in (b"a", b"c"):
        client.put(key, key)
    key, value, _ = client.get_next(b"a")
    assert (key, value) == (b"c", b"c")
    key, value, _ = client.get_previous(b"c")
    assert (key, value) == (b"a", b"a")


def test_wrong_key_raises_auth_error(drive):
    bad_client = KineticClient(drive, identity="demo", hmac_key=b"wrong")
    with pytest.raises(KineticAuthError):
        bad_client.get(b"k")


def test_set_security_then_old_identity_locked_out(drive, client):
    client.set_security([("pesos", b"new-admin-key", Role.all())])
    with pytest.raises(KineticAuthError):
        client.noop()  # demo identity is gone
    admin = KineticClient(drive, identity="pesos", hmac_key=b"new-admin-key")
    admin.noop()


def test_setup_and_getlog(client):
    client.put(b"k", b"v")
    client.setup(cluster_version=5, erase=True)
    log = client.get_log()
    assert log["key_count"] == 0
    assert client.drive.cluster_version == 5


def test_p2p_push(drive):
    peer = KineticDrive("disk-1")
    drive.register_peer(peer)
    client = KineticClient(drive, "demo", KineticDrive.DEMO_KEY)
    client.put(b"k", b"v")
    assert client.p2p_push("disk-1", [b"k"]) == 1
    peer_client = KineticClient(peer, "demo", KineticDrive.DEMO_KEY)
    assert peer_client.get(b"k")[0] == b"v"


def test_flush_and_noop(client):
    client.flush()
    client.noop()


def test_certificate_verified_on_connect():
    ca = CertificateAuthority("vendor", key_bits=512)
    drive = KineticDrive("d", identity_ca=ca)
    trust = TrustStore()
    trust.add(ca)
    KineticClient(drive, "demo", KineticDrive.DEMO_KEY, trust_store=trust)


def test_replaced_drive_detected():
    ca = CertificateAuthority("vendor", key_bits=512)
    rogue_ca = CertificateAuthority("attacker", key_bits=512)
    replaced = KineticDrive("d", identity_ca=rogue_ca)
    trust = TrustStore()
    trust.add(ca)
    with pytest.raises(CertificateError):
        KineticClient(replaced, "demo", KineticDrive.DEMO_KEY, trust_store=trust)


def test_uncertified_drive_rejected_when_trust_required(drive):
    trust = TrustStore()
    trust.add(CertificateAuthority("vendor", key_bits=512))
    with pytest.raises(CertificateError):
        KineticClient(drive, "demo", KineticDrive.DEMO_KEY, trust_store=trust)


class _SpoofingDrive:
    """A man in the middle that rewrites the real drive's responses."""

    def __init__(self, inner, rewrite):
        self._inner = inner
        self._rewrite = rewrite

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def handle(self, request):
        return self._rewrite(self._inner.handle(request))


def _forge_value(response):
    response.body["value"] = b"forged"
    return response.sign(HmacSha256(b"not the account key"))


def _replay_other_sequence(response):
    response.sequence += 1
    return response.sign(HmacSha256(KineticDrive.DEMO_KEY))


@pytest.mark.parametrize(
    "rewrite, error",
    [(_forge_value, IntegrityError), (_replay_other_sequence, KineticError)],
)
def test_spoofed_response_raises(drive, rewrite, error):
    KineticClient(drive, "demo", KineticDrive.DEMO_KEY).put(b"k", b"v")
    client = KineticClient(
        _SpoofingDrive(drive, rewrite), "demo", KineticDrive.DEMO_KEY
    )
    with pytest.raises(error):
        client.get(b"k")


@pytest.mark.parametrize(
    "message_type, body",
    [
        (MessageType.GET, {}),
        (MessageType.DELETE, {}),
        (MessageType.PUT, {"key": b"k"}),
        (MessageType.PUT, {"key": b"k", "value": 5}),
        (MessageType.GET, {"key": [b"a"]}),
        (MessageType.GETNEXT, {"key": None}),
        (MessageType.GETKEYRANGE, {"max_returned": None}),
        (MessageType.SETUP, {"cluster_version": b"3"}),
        (MessageType.SECURITY, {"accounts": [[b"x"]]}),
        (MessageType.SECURITY, {"accounts": [["x", b"key", 1 << 8]]}),
        (MessageType.PEER2PEERPUSH, {"peer": "disk-1", "keys": [[b"k"]]}),
        (MessageType.COMMIT, {}),
    ],
)
def test_authenticated_malformed_body_is_an_invalid_request(
    drive, client, message_type, body
):
    """A signed frame whose body lacks a field, or gives one the wrong
    type, is answered INVALID_REQUEST — a KineticError the client and
    the store handle — and changes nothing on the drive."""
    client.put(b"k", b"v")
    drive.register_peer(KineticDrive("disk-1"))
    before = (
        dict(drive._entries), drive.used_bytes, repr(drive.stats),
        drive.identities(),
    )
    with pytest.raises(KineticError, match="INVALID_REQUEST"):
        client._roundtrip(message_type, body)
    after = (
        dict(drive._entries), drive.used_bytes, repr(drive.stats),
        drive.identities(),
    )
    assert after == before
    assert client.get(b"k")[0] == b"v"  # still authenticated, still there


def test_unauthenticated_reply_is_unsigned(drive):
    bad_client = KineticClient(drive, identity="demo", hmac_key=b"wrong")
    request = bad_client._next_message(MessageType.NOOP, {})
    response = drive.handle(request)
    assert response.status.name == "HMAC_FAILURE"
    assert response.hmac == b""


def test_wire_accounting(client):
    client.put(b"k", b"v")
    assert client.requests_sent == 1
    assert client.bytes_on_wire > 0
