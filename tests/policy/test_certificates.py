"""certificateSays: trust chains, freshness, nonces (§5.2 policies)."""

import pytest

from repro.crypto.certs import CertificateAuthority
from repro.policy.compiled import compiled_form
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority("trusted-ca", key_bits=512)


@pytest.fixture(scope="module")
def timeserver(ca):
    return ca.issue_keypair("timeserver", key_bits=512)


def _time_cert(timeserver_kp, ca, timestamp, issued_at=0.0, nonce=""):
    """The time-authority chain: CA certifies ts key; ts certifies time."""
    ts_fp = timeserver_kp.public_key.fingerprint()
    authority_cert = ca.issue_certificate(
        "timeserver",
        timeserver_kp.public_key,
        claims=(("ts", (f"k:{ts_fp}",)),),
    )
    # The time certificate is signed by the timeserver's own key.
    from dataclasses import replace

    time_cert = replace(
        authority_cert,
        subject="time-statement",
        issuer="timeserver",
        claims=(("time", (timestamp,)),),
        not_before=issued_at,
        not_after=issued_at + 3600,
        nonce=nonce,
        signature=b"",
    )
    time_cert = replace(
        time_cert, signature=timeserver_kp.private_key.sign(time_cert.tbs_bytes())
    )
    return [authority_cert, time_cert]


def _ctx(certs, ca, now=100.0, nonce=""):
    return EvalContext(
        operation="update",
        session_key="anyone",
        certificates=certs,
        key_registry={ca.public_key.fingerprint(): ca.public_key},
        now=now,
        nonce=nonce,
    )


def _time_policy(ca, release_date):
    ca_fp = ca.public_key.fingerprint()
    return compile_policy(
        f"update :- certificateSays(k'{ca_fp}', 'ts'(TSKEY))"
        f" /\\ certificateSays(TSKEY, 'time'(T))"
        f" /\\ ge(T, {release_date})"
    )


def test_paper_time_policy_grants_after_date(ca, timeserver):
    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(timeserver, ca, timestamp=1500)
    decision = compiled_form(policy).evaluate("update", _ctx(certs, ca))
    assert decision.granted


def test_paper_time_policy_denies_before_date(ca, timeserver):
    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(timeserver, ca, timestamp=500)
    assert not compiled_form(policy).evaluate("update", _ctx(certs, ca)).granted


def test_chain_required_not_just_any_key(ca, timeserver):
    rogue_ca = CertificateAuthority("rogue", key_bits=512)
    rogue_ts = rogue_ca.issue_keypair("fake-timeserver", key_bits=512)
    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(rogue_ts, rogue_ca, timestamp=1500)
    # The rogue chain's CA key is not the policy's authority.
    assert not compiled_form(policy).evaluate("update", _ctx(certs, ca)).granted


def test_tampered_certificate_ignored(ca, timeserver):
    from dataclasses import replace

    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(timeserver, ca, timestamp=1500)
    certs[1] = replace(certs[1], claims=(("time", (2000,)),))  # forged
    assert not compiled_form(policy).evaluate("update", _ctx(certs, ca)).granted


def test_freshness_window_enforced(ca, timeserver):
    ca_fp = ca.public_key.fingerprint()
    policy = compile_policy(
        f"update :- certificateSays(k'{ca_fp}', 'ts'(TSKEY))"
        f" /\\ certificateSays(TSKEY, 60, 'time'(T))"
    )
    fresh = _time_cert(timeserver, ca, timestamp=1500, issued_at=90.0)
    stale = _time_cert(timeserver, ca, timestamp=1500, issued_at=0.0)
    assert compiled_form(policy).evaluate("update", _ctx(fresh, ca, now=100.0)).granted
    assert not compiled_form(policy).evaluate("update", _ctx(stale, ca, now=100.0)).granted


def test_nonce_binding(ca, timeserver):
    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(timeserver, ca, timestamp=1500, nonce="expected-nonce")
    granted = compiled_form(policy).evaluate(
        "update", _ctx(certs, ca, nonce="expected-nonce")
    ).granted
    replayed = compiled_form(policy).evaluate(
        "update", _ctx(certs, ca, nonce="different-nonce")
    ).granted
    assert granted
    assert not replayed


def test_expired_certificate_ignored(ca, timeserver):
    policy = _time_policy(ca, release_date=1000)
    certs = _time_cert(timeserver, ca, timestamp=1500, issued_at=0.0)
    # time cert valid 0..3600; at now=5000 it is expired.
    assert not compiled_form(policy).evaluate("update", _ctx(certs, ca, now=5000.0)).granted


def test_group_membership_certificate(ca):
    member = ca.issue_certificate(
        "alice-membership",
        ca.public_key,  # key irrelevant for the claim
        claims=(("group", ("staff",)),),
    )
    ca_fp = ca.public_key.fingerprint()
    policy = compile_policy(
        f"read :- certificateSays(k'{ca_fp}', 'group'('staff'))"
    )
    assert compiled_form(policy).evaluate("read", _ctx([member], ca)).granted
    policy_other = compile_policy(
        f"read :- certificateSays(k'{ca_fp}', 'group'('admins'))"
    )
    assert not compiled_form(policy_other).evaluate("read", _ctx([member], ca)).granted


def test_unknown_authority_yields_no_facts(ca, timeserver):
    policy = compile_policy(
        "update :- certificateSays(k'unknown-fp', 'time'(T))"
    )
    certs = _time_cert(timeserver, ca, timestamp=1500)
    assert not compiled_form(policy).evaluate("update", _ctx(certs, ca)).granted
