"""Storage attestation and replica scrub/repair."""

import hashlib
import json

import pytest

from repro.core.controller import ControllerConfig, verify_attestation
from repro.core.request import Request
from repro.core.store import placement
from repro.crypto.certs import CertificateAuthority
from repro.errors import IntegrityError, ObjectNotFound
from tests.core.conftest import ALICE, BOB
from tests.enclave import boot


@pytest.fixture(scope="module")
def signing_keys():
    return CertificateAuthority("ctrl-ca", key_bits=512).issue_keypair(
        "controller", key_bits=512
    )


@pytest.fixture()
def attesting_controller(clients, signing_keys):
    return boot(
        clients, storage_key=b"k" * 32, signing_keys=signing_keys
    )


def test_attestation_roundtrip(attesting_controller, signing_keys):
    controller = attesting_controller
    controller.put(ALICE, "doc", b"important bytes")
    response = controller.handle(
        Request(method="attest", key="doc"), ALICE, now=123.0
    )
    assert response.ok
    signature = bytes.fromhex(response.extra["signature"])
    statement = verify_attestation(
        response.value, signature, signing_keys.public_key
    )
    assert statement["key"] == "doc"
    assert statement["version"] == 0
    assert statement["content_hash"] == hashlib.sha256(
        b"important bytes"
    ).hexdigest()
    assert statement["timestamp"] == 123.0


def test_attestation_covers_policy_binding(attesting_controller, signing_keys):
    controller = attesting_controller
    policy = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(K)\nupdate :- sessionKeyIs(k'{ALICE}')"
    )
    controller.put(ALICE, "doc", b"v", policy_id=policy.policy_id)
    response = controller.handle(Request(method="attest", key="doc"), ALICE)
    statement = json.loads(response.value)
    assert statement["policy_id"] == policy.policy_id
    assert statement["policy_hash"] == policy.policy_id  # hash == id


def test_forged_attestation_detected(attesting_controller, signing_keys):
    controller = attesting_controller
    controller.put(ALICE, "doc", b"v")
    response = controller.handle(Request(method="attest", key="doc"), ALICE)
    tampered = response.value.replace(b'"version":0', b'"version":7')
    with pytest.raises(IntegrityError):
        verify_attestation(
            tampered,
            bytes.fromhex(response.extra["signature"]),
            signing_keys.public_key,
        )


def test_attestation_respects_read_policy(attesting_controller):
    controller = attesting_controller
    policy = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')"
    )
    controller.put(ALICE, "private", b"v", policy_id=policy.policy_id)
    denied = controller.handle(Request(method="attest", key="private"), BOB)
    assert denied.status == 403


def test_attestation_missing_object(attesting_controller):
    response = attesting_controller.handle(
        Request(method="attest", key="ghost"), ALICE
    )
    assert response.status == 404


def test_attestation_requires_signing_key(controller):
    controller.put(ALICE, "doc", b"v")
    response = controller.handle(Request(method="attest", key="doc"), ALICE)
    assert response.status == 400


# ---------------------------------------------------------------------------
# Scrub and repair
# ---------------------------------------------------------------------------

@pytest.fixture()
def replicated(clients):
    return boot(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(replication_factor=2),
    )


def test_scrub_reports_healthy_replicas(replicated):
    replicated.put(ALICE, "obj", b"data")
    report = replicated.scrub_object("obj")
    assert len(report) == 2  # one version x two replicas
    assert all(status == "ok" for _v, _d, status in report)


def test_scrub_detects_missing_replica(replicated, cluster):
    replicated.put(ALICE, "obj", b"data")
    primary = placement("obj", 3, 2)[0]
    # Simulate data loss on the primary.
    drive = cluster.drive(primary)
    victim_keys = [k for k in list(drive._entries) if k.startswith(b"v/obj")]
    for key in victim_keys:
        del drive._entries[key]
        drive._sorted_keys.remove(key)
    statuses = {d: s for _v, d, s in replicated.scrub_object("obj")}
    assert statuses[primary] == "missing"


def test_scrub_detects_corruption(replicated, cluster):
    replicated.put(ALICE, "obj", b"data")
    primary = placement("obj", 3, 2)[0]
    drive = cluster.drive(primary)
    for key, entry in drive._entries.items():
        if key.startswith(b"v/obj"):
            entry.value = b"\x00" * len(entry.value)  # bit rot
    statuses = {d: s for _v, d, s in replicated.scrub_object("obj")}
    assert statuses[primary] == "corrupt"


def test_repair_restores_replica(replicated, cluster):
    replicated.put(ALICE, "obj", b"data")
    primary = placement("obj", 3, 2)[0]
    drive = cluster.drive(primary)
    for key, entry in drive._entries.items():
        if key.startswith(b"v/obj"):
            entry.value = b"\x00" * len(entry.value)
    assert replicated.repair_object("obj") == 1
    assert all(s == "ok" for _v, _d, s in replicated.scrub_object("obj"))


def test_scrub_offline_drive(replicated, cluster):
    replicated.put(ALICE, "obj", b"data")
    primary = placement("obj", 3, 2)[0]
    cluster.drive(primary).fail()
    statuses = {d: s for _v, d, s in replicated.scrub_object("obj")}
    assert statuses[primary] == "offline"


def test_scrub_missing_object_raises(replicated):
    with pytest.raises(ObjectNotFound):
        replicated.scrub_object("ghost")
