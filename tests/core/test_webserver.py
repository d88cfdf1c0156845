"""Web server layer: HTTP front-end and TLS sessions."""

import pytest

from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.crypto.certs import CertificateAuthority, TrustStore
from repro.errors import CertificateError, PesosError
from tests.core.conftest import ALICE


@pytest.fixture()
def server(controller):
    return WebServer(controller)


def _http(request):
    return build_http_request(request)


def test_http_put_get_roundtrip(server):
    put_raw = server.handle_bytes(
        _http(Request(method="put", key="k", value=b"v")), ALICE
    )
    assert parse_http_response(put_raw).status == 200
    get_raw = server.handle_bytes(
        _http(Request(method="get", key="k")), ALICE
    )
    response = parse_http_response(get_raw)
    assert response.status == 200
    assert response.value == b"v"


def test_http_malformed_request_is_400(server):
    response = parse_http_response(
        server.handle_bytes(b"GET / HTTP/1.1\r\n\r\n", ALICE)
    )
    assert response.status == 400
    assert server._m_errors.value == 1


def test_http_policy_denial_maps_to_403(server, controller):
    policy = controller.put_policy(ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')")
    server.handle_bytes(
        _http(Request(method="put", key="k", value=b"v",
                      policy_id=policy.policy_id)),
        ALICE,
    )
    raw = server.handle_bytes(_http(Request(method="get", key="k")), "fp-eve")
    assert parse_http_response(raw).status == 403


@pytest.mark.parametrize(
    "depth, status", [(100, 200), (200, 200), (400, 400), (5000, 400)]
)
def test_deeply_nested_policy_is_a_400_not_a_crash(server, depth, status):
    """1.2 KB of ``f(f(...f(1)...))`` 400 deep raised ``RecursionError``
    straight out of ``handle_bytes`` at d387684."""
    source = "read :- eq(" + "f(" * depth + "1" + ")" * depth + ", 1)"
    response = parse_http_response(
        server.handle_bytes(
            _http(Request(method="put_policy", value=source.encode())), ALICE
        )
    )
    assert response.status == status
    if status == 400:
        assert "nested more than 200 deep" in response.error


def test_stats_accumulate(server):
    server.handle_bytes(_http(Request(method="put", key="k", value=b"v")), ALICE)
    assert server._m_requests.value == 1
    assert server._m_bytes.labels("in").value > 0
    assert server._m_bytes.labels("out").value > 0


@pytest.fixture()
def tls_server(controller):
    ca = CertificateAuthority("pesos-ca", key_bits=512)
    trust = TrustStore()
    trust.add(ca)
    server_keys = ca.issue_keypair("pesos-controller", key_bits=512)
    return (
        WebServer(controller, server_keys=server_keys, client_trust=trust),
        ca,
    )


def test_tls_session_roundtrip(tls_server):
    server, ca = tls_server
    alice_keys = ca.issue_keypair("alice", key_bits=512)
    connection, client_channel = server.accept(alice_keys)
    assert connection.fingerprint == alice_keys.fingerprint()

    record = client_channel.send(
        _http(Request(method="put", key="doc", value=b"secret"))
    )
    reply = connection.serve(record)
    response = parse_http_response(client_channel.recv(reply))
    assert response.status == 200
    assert connection.requests_served == 1


def test_tls_session_identity_feeds_policies(tls_server):
    server, ca = tls_server
    alice_keys = ca.issue_keypair("alice2", key_bits=512)
    mallory_keys = ca.issue_keypair("mallory", key_bits=512)
    alice_conn, alice_chan = server.accept(alice_keys)
    mallory_conn, mallory_chan = server.accept(mallory_keys)

    policy = server.controller.put_policy(
        alice_keys.fingerprint(),
        f"read :- sessionKeyIs(k'{alice_keys.fingerprint()}')\n"
        f"update :- sessionKeyIs(k'{alice_keys.fingerprint()}')",
    )
    record = alice_chan.send(
        _http(Request(method="put", key="doc", value=b"secret",
                      policy_id=policy.policy_id))
    )
    alice_chan.recv(alice_conn.serve(record))

    # Mallory's TLS identity is hers; the policy denies her.
    record = mallory_chan.send(_http(Request(method="get", key="doc")))
    response = parse_http_response(
        mallory_chan.recv(mallory_conn.serve(record))
    )
    assert response.status == 403


def test_untrusted_client_cannot_connect(tls_server):
    server, _ca = tls_server
    rogue_ca = CertificateAuthority("rogue", key_bits=512)
    rogue_keys = rogue_ca.issue_keypair("rogue-client", key_bits=512)
    with pytest.raises(CertificateError):
        server.accept(rogue_keys)


def test_tls_requires_configuration(server):
    ca = CertificateAuthority("x", key_bits=512)
    with pytest.raises(PesosError, match="no TLS identity"):
        server.accept(ca.issue_keypair("c", key_bits=512))
