"""Secure channel: handshake, records, replay and tamper defenses."""

import pytest

from repro.crypto.channel import establish_channel
from repro.crypto.certs import CertificateAuthority, TrustStore
from repro.errors import CertificateError, IntegrityError


@pytest.fixture(scope="module")
def channel_pair(alice, bob, trust_store):
    return establish_channel(alice, bob, trust_store, trust_store)


def test_handshake_authenticates_peers(channel_pair, alice, bob):
    client, server = channel_pair
    assert client.peer_fingerprint == bob.fingerprint()
    assert server.peer_fingerprint == alice.fingerprint()


def test_record_roundtrip(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    record = client.send(b"PUT /objects/k1", b"hdr")
    assert record != b"PUT /objects/k1"  # actually encrypted
    assert server.recv(record, b"hdr") == b"PUT /objects/k1"
    reply = server.send(b"200 OK")
    assert client.recv(reply) == b"200 OK"


def test_records_are_ordered(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    first = client.send(b"one")
    second = client.send(b"two")
    # Delivering out of order fails the tag check (nonce = sequence).
    with pytest.raises(IntegrityError):
        server.recv(second)


def test_replay_rejected(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    record = client.send(b"once")
    assert server.recv(record) == b"once"
    with pytest.raises(IntegrityError):
        server.recv(record)


def test_tampered_record_rejected(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    record = bytearray(client.send(b"payload"))
    record[0] ^= 0xFF
    with pytest.raises(IntegrityError):
        server.recv(bytes(record))


def test_record_with_wrong_aad_rejected(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    record = client.send(b"payload", b"hdr")
    with pytest.raises(IntegrityError):
        server.recv(record, b"other hdr")


def test_untrusted_client_rejected(bob, trust_store):
    rogue_ca = CertificateAuthority("rogue", key_bits=512)
    mallory = rogue_ca.issue_keypair("mallory", key_bits=512)
    with pytest.raises(CertificateError):
        establish_channel(mallory, bob, trust_store, trust_store)


def test_untrusted_server_rejected(alice, trust_store):
    rogue_ca = CertificateAuthority("rogue2", key_bits=512)
    fake_server = rogue_ca.issue_keypair("fake-disk", key_bits=512)
    with pytest.raises(CertificateError):
        establish_channel(alice, fake_server, trust_store, trust_store)


def test_byte_counters(alice, bob, trust_store):
    client, server = establish_channel(alice, bob, trust_store, trust_store)
    record = client.send(b"12345")
    server.recv(record)
    assert client.bytes_sent == len(record)
    assert server.bytes_received == len(record)


def test_sessions_have_distinct_keys(alice, bob, trust_store):
    c1, _s1 = establish_channel(alice, bob, trust_store, trust_store)
    c2, _s2 = establish_channel(alice, bob, trust_store, trust_store)
    assert c1.send(b"same plaintext") != c2.send(b"same plaintext")
