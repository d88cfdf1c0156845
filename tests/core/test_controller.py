"""Controller integration: request handling, caching, async, errors."""

import dataclasses

import pytest

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request
from repro.core.store import ObjectStore
from repro.crypto.certs import CertificateAuthority
from repro.errors import ConfigurationError
from tests.core.conftest import ALICE, BOB
from tests.enclave import boot


def test_config_is_eleven_reviewed_fields():
    """A twelfth knob is a reviewed decision, not a drive-by."""
    assert [f.name for f in dataclasses.fields(ControllerConfig)] == [
        "replication_factor", "keep_history", "cache", "enforce_policies",
        "ssd_cache_entries", "write_quorum",
        "audit_log_size", "freshness_enabled", "breaker_threshold",
        "breaker_cooldown_ops", "anti_entropy_interval",
    ]


def test_freshness_ships_on_and_needs_the_enclave(clients):
    """Rollback protection is the default, and the library makes no
    throwaway platform for it: without an enclave, the constructor
    refuses unless freshness is turned off by name."""
    assert ControllerConfig().freshness_enabled is True
    with pytest.raises(ConfigurationError, match="enclave"):
        PesosController(clients, storage_key=b"k" * 32)
    off = ControllerConfig(freshness_enabled=False)
    assert PesosController(clients, config=off).freshness is None
    assert boot(clients).freshness.active


def test_put_get_roundtrip(controller):
    put = controller.put(ALICE, "greeting", b"hello world")
    assert put.ok
    assert put.version == 0
    get = controller.get(ALICE, "greeting")
    assert get.value == b"hello world"
    assert get.version == 0


def test_get_missing_404(controller):
    response = controller.get(ALICE, "ghost")
    assert response.status == 404


def test_update_bumps_version(controller):
    controller.put(ALICE, "k", b"v0")
    response = controller.put(ALICE, "k", b"v1")
    assert response.version == 1
    assert controller.get(ALICE, "k").value == b"v1"


def test_read_old_version_with_history(controller):
    controller.put(ALICE, "k", b"v0")
    controller.put(ALICE, "k", b"v1")
    old = controller.get(ALICE, "k", version=0)
    assert old.value == b"v0"
    assert old.version == 0


def test_read_unknown_version_404(controller):
    controller.put(ALICE, "k", b"v0")
    assert controller.get(ALICE, "k", version=5).status == 404


def test_delete_removes_object(controller):
    controller.put(ALICE, "k", b"v")
    assert controller.delete(ALICE, "k").ok
    assert controller.get(ALICE, "k").status == 404


def test_delete_missing_404(controller):
    assert controller.delete(ALICE, "ghost").status == 404


def test_put_policy_returns_content_hash(controller):
    response = controller.put_policy(ALICE, "read :- sessionKeyIs(K)")
    assert response.ok
    assert len(response.policy_id) == 64
    same = controller.put_policy(ALICE, "read :- sessionKeyIs(K)")
    assert same.policy_id == response.policy_id


def test_put_policy_syntax_error_400(controller):
    response = controller.put_policy(ALICE, "read :- broken(")
    assert response.status == 400
    assert "expected" in response.error


def test_get_policy_roundtrip(controller):
    policy_id = controller.put_policy(ALICE, "read :- eq(1, 1)").policy_id
    response = controller.handle(
        Request(method="get_policy", policy_id=policy_id), ALICE
    )
    assert response.ok
    from repro.policy.binary import CompiledPolicy

    restored = CompiledPolicy.from_bytes(response.value)
    assert restored.policy_hash() == policy_id


def test_get_policy_missing_404(controller):
    response = controller.handle(
        Request(method="get_policy", policy_id="nope"), ALICE
    )
    assert response.status == 404


def test_put_with_unknown_policy_rejected(controller):
    response = controller.handle(
        Request(method="put", key="k", value=b"v", policy_id="unknown"), ALICE
    )
    assert response.status == 400


def test_policy_enforced_on_get(controller):
    policy_id = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    controller.put(ALICE, "private", b"secret", policy_id=policy_id)
    assert controller.get(ALICE, "private").ok
    denied = controller.get(BOB, "private")
    assert denied.status == 403
    assert "denies read" in denied.error


def test_policy_enforced_on_update(controller):
    policy_id = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{BOB}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "doc", b"v0", policy_id=policy_id)
    assert controller.get(BOB, "doc").ok
    assert controller.put(BOB, "doc", b"evil").status == 403
    assert controller.put(ALICE, "doc", b"v1").ok


def test_policy_enforced_on_delete(controller):
    policy_id = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'fp-admin')",
    ).policy_id
    controller.put(ALICE, "doc", b"v", policy_id=policy_id)
    assert controller.delete(ALICE, "doc").status == 403
    assert controller.delete("fp-admin", "doc").ok


def test_object_without_policy_is_open(controller):
    controller.put(ALICE, "open", b"v")
    assert controller.get(BOB, "open").ok
    assert controller.put(BOB, "open", b"w").ok


def test_missing_permission_denies(controller):
    # Policy grants only read; update/delete must be denied.
    policy_id = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    # Creation is governed by the attached policy, which has no update
    # clause -> even the owner cannot create. Use enforcement order:
    response = controller.put(ALICE, "locked", b"v", policy_id=policy_id)
    assert response.status == 403


def test_policy_change_governed_by_current_policy(controller):
    open_policy = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    stricter = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    controller.put(ALICE, "doc", b"v", policy_id=open_policy)
    # Bob cannot swap the policy (current policy denies his update).
    assert (
        controller.put(BOB, "doc", b"v", policy_id=stricter).status == 403
    )
    # Alice can.
    assert controller.put(ALICE, "doc", b"v2", policy_id=stricter).ok
    # And afterwards even Alice cannot update (new policy has no update).
    assert controller.put(ALICE, "doc", b"v3").status == 403


def test_bound_policy_that_cannot_be_loaded_refuses(clients, cluster):
    """Metadata names a policy no replica holds and the policy cache has
    dropped: every path through the binding answers 500 — a storage
    fault, not the caller's denial — and nothing is served, listed,
    attested, deleted, rebound or written.  (Each of these was granted
    unchecked while ``_check_policy`` returned on ``policy is None``.)"""
    controller = boot(
        clients,
        storage_key=b"k" * 32,
        signing_keys=CertificateAuthority("ctrl-ca", key_bits=512)
        .issue_keypair("controller", key_bits=512),
    )
    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    bobs = controller.put_policy(
        BOB, f"read :- sessionKeyIs(k'{BOB}')\nupdate :- sessionKeyIs(k'{BOB}')"
    ).policy_id
    assert controller.put(ALICE, "doc", b"secret", policy_id=acl).ok
    assert controller.get(BOB, "doc").status == 403

    blob = controller.store.read_policy(acl)
    for drive in cluster:
        drive._entries.pop(ObjectStore.policy_key(acl), None)
    controller.caches.policies.remove(acl)

    def ask(fingerprint, method, **fields):
        return controller.handle(Request(method=method, **fields), fingerprint)

    for caller in (BOB, ALICE):  # nobody is waved through, the owner included
        for response in (
            ask(caller, "get", key="doc"),
            ask(caller, "scan", key="doc", scan_count=4),
            ask(caller, "attest", key="doc"),
            ask(caller, "delete", key="doc"),
            ask(caller, "put", key="doc", value=b"mine", policy_id=bobs),
            ask(caller, "rmw", key="doc", value=b"mine"),
        ):
            assert response.status == 500, response
            assert "cannot be loaded" in response.error
            assert not response.value

    txid = ask(BOB, "create_tx").txid
    ask(BOB, "add_write", key="doc", value=b"mine", policy_id=bobs, txid=txid)
    ask(BOB, "add_write", key="free", value=b"rides along", txid=txid)
    assert ask(BOB, "commit_tx", txid=txid).status == 500
    reading = ask(BOB, "create_tx").txid
    ask(BOB, "add_read", key="doc", txid=reading)
    assert ask(BOB, "commit_tx", txid=reading).status == 409  # read: aborts

    # Nothing moved: no second key, and the object is as ALICE wrote it.
    assert controller.get(BOB, "free").status == 404
    meta = controller._get_meta("doc")
    assert (meta.exists, meta.current_version, meta.policy_id) == (True, 0, acl)
    # The record comes back (anti-entropy, an operator): so does service.
    assert controller.store.write_policy(blob) == acl
    assert controller.get(ALICE, "doc").value == b"secret"
    assert controller.get(BOB, "doc").status == 403


def test_async_put_returns_operation_id(controller):
    response = controller.handle(
        Request(method="put", key="k", value=b"v", asynchronous=True), ALICE
    )
    assert response.status == 202
    assert response.operation_id
    status = controller.handle(
        Request(method="status", operation_id=response.operation_id), ALICE
    )
    assert status.ok
    assert status.version == 0
    assert controller.get(ALICE, "k").value == b"v"


def test_async_failure_visible_via_status(controller):
    policy_id = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    controller.put(ALICE, "k", b"v", policy_id=policy_id)
    response = controller.handle(
        Request(method="put", key="k", value=b"evil", asynchronous=True), BOB
    )
    assert response.status == 202
    status = controller.handle(
        Request(method="status", operation_id=response.operation_id), BOB
    )
    assert status.status == 403


def test_async_result_private_to_session(controller):
    response = controller.handle(
        Request(method="put", key="k", value=b"v", asynchronous=True), ALICE
    )
    other = controller.handle(
        Request(method="status", operation_id=response.operation_id), BOB
    )
    assert other.status == 410


def test_invalid_method_400(controller):
    assert controller.handle(Request(method="bogus"), ALICE).status == 400


def test_meta_cache_avoids_disk_reads(controller):
    controller.put(ALICE, "hot", b"v")
    controller.effects.drain()
    for _ in range(5):
        controller.get(ALICE, "hot")
    # All five reads served from object + meta caches: no disk reads.
    assert "disk_read" not in {e[0] for e in controller.effects.drain()}


def test_a_cached_get_touches_its_object_once(controller):
    controller.put(ALICE, "hot", b"v")
    before = controller.caches.objects.frequency("hot@0")
    assert controller.get(ALICE, "hot").value == b"v"
    assert controller.caches.objects.frequency("hot@0") == before + 1


def test_a_get_from_the_drives_is_cached_once(controller):
    controller.put(ALICE, "cold", b"v")
    controller.caches.objects.clear()
    assert controller.get(ALICE, "cold").value == b"v"
    assert controller.caches.objects.frequency("cold@0") == 1


def test_a_policy_reading_this_uses_the_requests_metadata(controller):
    policy = controller.put_policy(
        ALICE, "read :- objSays(this, V, 'ok'(1))\nupdate :- eq(1, 1)"
    ).policy_id
    controller.put(ALICE, "obj", b"'ok'(1)", policy_id=policy)
    controller.effects.drain()
    assert controller.get(ALICE, "obj").ok
    assert controller.effects.drain().count(("cache_hit", "keys")) == 1


def test_object_cache_serves_policy_eval_objects(controller):
    # §4.2: objects fetched during policy evaluation get cached.
    log_policy = controller.put_policy(
        ALICE, "read :- objSays(this, V, 'ok'(1))\nupdate :- eq(1, 1)"
    ).policy_id
    controller.put(ALICE, "obj", b"'ok'(1)", policy_id=log_policy)
    controller.get(ALICE, "obj")
    hits_before = controller.caches.objects.stats.hits
    controller.get(ALICE, "obj")
    assert controller.caches.objects.stats.hits > hits_before


def test_sessions_created_per_fingerprint(controller):
    controller.put(ALICE, "a", b"1")
    controller.put(BOB, "b", b"2")
    assert len(controller.sessions) == 2


def test_enforcement_disabled_baseline(clients):
    config = ControllerConfig(enforce_policies=False)
    controller = boot(clients, storage_key=b"k" * 32, config=config)
    policy_id = controller.put_policy(
        ALICE, f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    controller.put(ALICE, "k", b"v", policy_id=policy_id)
    # Baseline build skips checks entirely.
    assert controller.get(BOB, "k").ok


def test_replication_factor_three(replicated_controller, cluster):
    replicated_controller.put(ALICE, "k", b"v")
    for drive in cluster:
        assert drive.key_count == 2  # meta + value everywhere


def test_read_fails_over_on_drive_failure(replicated_controller, cluster):
    replicated_controller.put(ALICE, "k", b"v")
    cluster.drive(0).fail()
    cluster.drive(1).fail()
    # Cache cleared to force a disk read.
    replicated_controller.caches.objects.clear()
    replicated_controller.caches.keys.clear()
    assert replicated_controller.get(ALICE, "k").value == b"v"
