"""Range scans (GETKEYRANGE) and read-modify-write through the stack."""

import random

import pytest

import repro.core.controller as controller_module
from repro.core.request import (
    Request,
    Response,
    build_http_request,
    parse_http_request,
    parse_http_response,
    render_http_response,
)
from repro.core.store import placement
from repro.crypto.aead import HmacSha256
from repro.crypto.certs import CertificateAuthority
from repro.errors import DriveOffline, RequestError
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import MessageType, StatusCode
from repro.telemetry import Telemetry
from repro.usecases.time_based import TimeAuthority, TimeVault
from tests.core.conftest import ALICE, BOB, make_clients
from tests.enclave import boot


#: ``test_scan_audits_each_record_under_its_own_key``'s chain head at
#: 88c1bf4, where each of the 200 records was checked on its own.
_AUDITED_SCAN_HEAD = (
    "3b5ca711455eb3b51877a455ce1d7182fc67a92c100ce82f5ef27a7ba5f649f4"
)


def _freshness_off(clients, telemetry=None, **config):
    """A controller with freshness off, which needs no enclave."""
    return controller_module.PesosController(
        clients, storage_key=b"k" * 32, telemetry=telemetry,
        config=controller_module.ControllerConfig(
            freshness_enabled=False, **config
        ),
    )


def _load(controller, count=12, prefix="obj", policy_id=""):
    keys = [f"{prefix}{i:04d}" for i in range(count)]
    for key in keys:
        assert controller.put(
            ALICE, key, f"v-{key}".encode(), policy_id=policy_id
        ).ok
    return keys


def _scan(controller, fingerprint, start, count):
    return controller.handle(
        Request(method="scan", key=start, scan_count=count), fingerprint
    )


def _lines(response):
    return response.value.decode().splitlines() if response.value else []


def test_scan_returns_sorted_range_with_versions(controller):
    keys = _load(controller)
    response = _scan(controller, ALICE, keys[0], 5)
    assert response.ok
    lines = _lines(response)
    assert len(lines) == 5
    returned = [line.split("@")[0] for line in lines]
    assert returned == sorted(returned) == keys[:5]
    assert all(line.endswith("@0") for line in lines)


def test_scan_starts_mid_keyspace(controller):
    keys = _load(controller)
    response = _scan(controller, ALICE, keys[4], 4)
    assert [line.split("@")[0] for line in _lines(response)] == keys[4:8]


def test_scan_merges_across_all_drives(controller):
    """Keys are placement-hashed across drives; a logical range scan
    must union every drive's metadata range, not just one replica's."""
    keys = _load(controller, count=24)
    response = _scan(controller, ALICE, keys[0], 24)
    assert [line.split("@")[0] for line in _lines(response)] == keys


def test_scan_count_is_clamped_not_refused(controller, monkeypatch):
    monkeypatch.setattr(controller_module, "MAX_SCAN_COUNT", 4)
    keys = _load(controller)
    response = _scan(controller, ALICE, keys[0], 100)
    assert response.ok
    assert len(_lines(response)) == 4


def test_scan_requires_positive_count(controller):
    with pytest.raises(RequestError):
        Request(method="scan", key="a", scan_count=0).validate()


def test_scan_skips_policy_denied_records(controller):
    """A scan over mixed-policy records returns what the caller may
    read and counts the rest, instead of failing the whole range."""
    policy = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    open_keys = _load(controller, count=4, prefix="open")
    for i in range(4):
        assert controller.put(
            ALICE, f"priv{i:04d}", b"secret", policy_id=policy
        ).ok
    response = _scan(controller, BOB, "open0000", 8)
    assert response.ok
    returned = [line.split("@")[0] for line in _lines(response)]
    assert returned == open_keys
    assert response.extra["denied"] == 4
    alice_view = _scan(controller, ALICE, "open0000", 8)
    assert len(_lines(alice_view)) == 8


def _record_evaluations(controller, monkeypatch):
    """The ``this`` id of every evaluation the controller performs."""
    evaluated = []
    evaluate = controller._evaluate

    def recording(operation, policy, ctx):
        evaluated.append(ctx.this_id)
        return evaluate(operation, policy, ctx)

    monkeypatch.setattr(controller, "_evaluate", recording)
    return evaluated


def _acl(controller, *readers):
    readable = " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in readers)
    return controller.put_policy(
        ALICE, f"read :- {readable}\nupdate :- sessionKeyIs(k'{ALICE}')"
    ).policy_id


def test_scan_over_one_acl_evaluates_once_per_caller(controller):
    """An ACL reads the session key and nothing else of the request, so
    its verdict is keyed by the caller: a 100-record scan settles 100
    records (each is still resolved, counted, and audited when auditing
    is on) from one evaluation per caller, asks the decision cache once
    per (scan, policy), and the cache holds callers x policies entries,
    not one per record per caller."""
    keys = _load(controller, 100, "rec", _acl(controller, ALICE, BOB))
    decisions = controller.policy_engine.decisions
    entries = len(decisions)
    before = (decisions.stats.hits, decisions.stats.misses)
    callers = (ALICE, BOB, "fp-mallory")
    for _round in range(2):
        for caller in callers:
            response = _scan(controller, caller, keys[0], 100)
            visible = 0 if caller == "fp-mallory" else 100
            assert response.extra == {
                "scanned": visible, "denied": 100 - visible,
            }
    assert len(decisions) - entries == len(callers)  # x 1 policy
    assert decisions.stats.misses - before[1] == len(callers)
    assert decisions.stats.hits - before[0] == 6 - len(callers)
    # A write reads no new shape and clears nothing: the next scan is
    # a hit too.
    assert controller.put(ALICE, keys[0], b"w").ok
    assert _scan(controller, BOB, keys[0], 100).extra["scanned"] == 100
    assert len(decisions) - entries == len(callers)
    assert decisions.stats.misses - before[1] == len(callers)
    assert decisions.stats.hits - before[0] == 6 - len(callers) + 2


def test_scan_decides_a_record_under_the_policy_it_is_bound_to_now(
    controller, monkeypatch
):
    """The verdict is memoized by policy id: a record whose binding
    changes while the scan runs is decided under its new policy."""
    shared = _acl(controller, ALICE, BOB)
    private = _acl(controller, ALICE)
    keys = _load(controller, 6, "rec", shared)
    evaluated = _record_evaluations(controller, monkeypatch)
    assert _scan(controller, BOB, keys[0], 6).extra["scanned"] == 6
    assert evaluated == keys[:1]
    get_meta = controller.caches.get_meta  # the loop's per-record seam

    rebind = [keys[3]]

    def interleaved_rebind(key):
        if key in rebind:  # once: the put reads the same seam
            rebind.remove(key)
            checks = len(evaluated)
            assert controller.put(ALICE, key, b"w", policy_id=private).ok
            del evaluated[checks:]  # the put's own update checks
        return get_meta(key)

    monkeypatch.setattr(controller.caches, "get_meta", interleaved_rebind)
    evaluated.clear()
    response = _scan(controller, BOB, keys[0], 6)
    assert response.extra == {"scanned": 5, "denied": 1}
    assert keys[3] not in {line.split("@")[0] for line in _lines(response)}
    assert evaluated == [keys[0], keys[3]]


def test_scan_audits_each_record_under_its_own_key(clients):
    """What the memo saves is evaluation, not evidence: 100 records are
    100 decision records, and the chain is the one a check per record
    wrote (head captured at 88c1bf4 for this scenario).  Freshness off,
    explicitly: it shipped off then, and each load put's pins would be
    more records in the chain."""
    controller = _freshness_off(clients, audit_log_size=4096)
    keys = _load(controller, 100, "rec", _acl(controller, ALICE))
    before = len(controller.auditor)
    assert _scan(controller, ALICE, keys[0], 100).extra["scanned"] == 100
    assert _scan(controller, BOB, keys[0], 100).extra["denied"] == 100
    records = list(controller.auditor.records)[before:]
    assert [record.key for record in records] == keys * 2
    assert {record.decision for record in records[:100]} == {"allow"}
    assert {record.decision for record in records[100:]} == {"deny"}
    assert controller.auditor.verify()["ok"]
    assert controller.auditor.head == _AUDITED_SCAN_HEAD


@pytest.mark.parametrize("seed", range(1, 6))
def test_scan_answers_what_per_key_gets_answer(controller, monkeypatch, seed):
    """Differential over the memo's boundary: two ACLs (one evaluation
    per scan each), a policy that reads ``this`` by id, one that reads
    the record's own content and one that reads a fixed gate object
    (each evaluated for every record, the first two with verdicts that
    vary along the range), and unprotected records, in seeded order."""
    rng = random.Random(seed)
    update = f"update :- sessionKeyIs(k'{ALICE}')"
    assert controller.put(ALICE, "gate", b"'open'(1)").ok
    once_per_scan = [
        _acl(controller, ALICE, BOB), _acl(controller, ALICE, "fp-carol"),
    ]
    per_record = [
        controller.put_policy(ALICE, f"read :- {body}\n{update}").policy_id
        for body in (
            "objSays(this, V, 'open'(1))",
            "objSays('gate', V, 'open'(1))",
            "objId(this, 'mix0003') \\/ objId(this, 'mix0011')"
            " \\/ objId(this, 'mix0020')",
        )
    ]
    policies = once_per_scan + per_record + [""]
    keys = [f"mix{index:04d}" for index in range(30)]
    bound = {}
    for index, key in enumerate(keys):
        bound[key] = policies[index % 2] if index < 8 else rng.choice(policies)
        assert controller.put(
            ALICE, key, b"'open'(%d)" % rng.randrange(2), policy_id=bound[key]
        ).ok
    evaluated = _record_evaluations(controller, monkeypatch)
    for caller in (ALICE, BOB, "fp-carol"):
        for _again in range(3):
            start = rng.randrange(len(keys))
            covered = keys[start:start + rng.randrange(1, len(keys) + 1)]
            evaluated.clear()
            response = _scan(controller, caller, covered[0], len(covered))
            first_under = {bound[key]: key for key in reversed(covered)}
            assert evaluated == [
                key for key in covered
                if bound[key] in per_record
                or bound[key] and first_under[bound[key]] == key
            ]
            expected, refused = [], 0
            for key in covered:
                answer = controller.get(caller, key)
                assert answer.status in (200, 403)
                if answer.ok:
                    expected.append(f"{key}@{answer.version}")
                else:
                    refused += 1
            assert _lines(response) == expected
            assert response.extra == {
                "scanned": len(expected), "denied": refused,
            }


def test_scan_counts_a_drive_that_refuses_the_range_read(clients, cluster):
    """A GETKEYRANGE answered with an error status (or a reply that
    does not validate) is a replica failure like any other: the listing
    that seeds the key directory, a restart's, counts it, feeds it to
    the breaker, and the scans serve around it."""
    config = controller_module.ControllerConfig(
        replication_factor=3, breaker_threshold=1
    )
    controller = boot(clients, storage_key=b"k" * 32, config=config)
    keys = _load(controller, 6)
    refusing = cluster.drive(1)
    handle = refusing.handle

    def refuse_ranges(request):
        if request.message_type != MessageType.GETKEYRANGE:
            return handle(request)
        return request.make_response(
            StatusCode.INTERNAL_ERROR, status_message="range index damaged"
        ).sign(HmacSha256(KineticDrive.DEMO_KEY))

    refusing.handle = refuse_ranges
    controller = boot(
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        controller.freshness.platform,
        storage_key=b"k" * 32, telemetry=Telemetry(), config=config,
    )
    assert controller.freshness.active
    store = controller.store
    for _twice in range(2):
        response = _scan(controller, ALICE, keys[0], 6)
        assert [line.split("@")[0] for line in _lines(response)] == keys
    # One listing, the boot's: the scans read the directory it seeded.
    assert store._m_replica_failures.series()[("corrupt",)] == 1
    assert not store.health.allow(1)  # the breaker heard it
    assert store.health.allow(0) and store.health.allow(2)


def test_scan_over_two_policies_counts_each_record_under_its_own(controller):
    mine = _acl(controller, ALICE)
    shared = _acl(controller, ALICE, BOB)
    for index in range(20):
        policy_id = mine if index % 3 == 0 else shared
        assert controller.put(
            ALICE, f"mix{index:04d}", b"v", policy_id=policy_id
        ).ok
    entries = len(controller.policy_engine.decisions)
    private = [f"mix{i:04d}" for i in range(20) if i % 3 == 0]
    response = _scan(controller, BOB, "mix0000", 20)
    assert len(private) == 7
    assert response.extra == {"scanned": 13, "denied": 7}
    returned = {line.split("@")[0] for line in _lines(response)}
    assert returned.isdisjoint(private) and len(returned) == 13
    assert _scan(controller, ALICE, "mix0000", 20).extra == {
        "scanned": 20, "denied": 0,
    }
    # Two callers x two policies, whatever the order of the records.
    assert len(controller.policy_engine.decisions) - entries == 4


def test_scan_decides_a_policy_that_reads_this_per_key(controller):
    """``objId(this, …)`` puts the target id in the read-set: the shape
    keeps it, and each record gets its own verdict."""
    by_name = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}') \\/ objId(this, 'pub0002')"
        f" \\/ objId(this, 'pub0005')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    keys = _load(controller, 8, "pub", by_name)
    entries = len(controller.policy_engine.decisions)
    for _again in range(2):  # cold, then from the cache
        response = _scan(controller, BOB, keys[0], 8)
        assert response.extra == {"scanned": 2, "denied": 6}
        assert _lines(response) == ["pub0002@0", "pub0005@0"]
    assert len(controller.policy_engine.decisions) - entries == len(keys)
    assert controller.get(BOB, "pub0005").ok
    assert controller.get(BOB, "pub0004").status == 403


def test_scan_grants_what_get_grants_with_the_callers_certificates(
    controller, monkeypatch
):
    """Released time capsules are readable only with a time-certificate
    chain; a scan presenting the chain must see what ``get`` serves."""
    ca = CertificateAuthority("clock-ca", key_bits=512)
    authority = TimeAuthority(ca, key_bits=512)
    controller.authority_keys[ca.public_key.fingerprint()] = ca.public_key
    vault = TimeVault(controller, authority, ca.public_key.fingerprint())
    release, now = 1_000_000, 1_000_010.0
    keys = ["capsule-a", "capsule-b"]
    for key in keys:
        assert vault.seal_until(ALICE, key, b"sealed", release).ok
    session = controller.sessions.connect(BOB, now=now)
    chain = authority.chain_for(int(now), nonce=session.nonce)
    log_ids = []
    evaluate = controller._evaluate

    def recording_evaluate(operation, policy, ctx):
        log_ids.append(ctx.log_id)
        return evaluate(operation, policy, ctx)

    monkeypatch.setattr(controller, "_evaluate", recording_evaluate)

    assert controller.get(BOB, keys[0], now=now, certificates=chain).ok
    assert controller.get(BOB, keys[0], now=now).status == 403
    log_ids.clear()
    with_chain = controller.handle(
        Request(method="scan", key=keys[0], scan_count=2,
                certificates=chain, log_key="elsewhere.log"),
        BOB, now=now,
    )
    assert with_chain.extra == {"scanned": 2, "denied": 0}
    # The scan's own log reference does not leak into a record's check;
    # the capsule policy reads the certificates and nothing of the
    # record, so the first record's evaluation serves the second.
    assert log_ids == [keys[0] + controller_module.LOG_SUFFIX]
    without = controller.handle(
        Request(method="scan", key=keys[0], scan_count=2), BOB, now=now
    )
    assert without.extra == {"scanned": 0, "denied": 2}


def test_scan_http_framing_roundtrip():
    request = Request(method="scan", key="user000001", scan_count=25)
    parsed = parse_http_request(build_http_request(request))
    assert parsed.method == "scan"
    assert parsed.key == "user000001"
    assert parsed.scan_count == 25


def test_scan_response_extras_survive_http():
    response = Response(
        status=200,
        value=b"a@0\nb@1\n",
        extra={"scanned": 2, "denied": 0, "read_version": 7},
    )
    parsed = parse_http_response(render_http_response(response))
    assert parsed.extra["scanned"] == 2
    assert parsed.extra["denied"] == 0
    assert parsed.extra["read_version"] == 7
    assert parsed.value == response.value


def test_rmw_reads_then_writes_atomically(controller):
    controller.put(ALICE, "counter", b"1")
    response = controller.handle(
        Request(method="rmw", key="counter", value=b"2"), ALICE
    )
    assert response.ok
    assert response.version == 1  # the write bumped the version
    assert response.extra["read_version"] == 0  # ...after reading v0
    assert controller.get(ALICE, "counter").value == b"2"


def test_rmw_missing_key_404(controller):
    response = controller.handle(
        Request(method="rmw", key="ghost", value=b"x"), ALICE
    )
    assert response.status == 404


def test_rmw_respects_write_policy(controller):
    policy = controller.put_policy(
        ALICE, f"read :- eq(1, 1)\nupdate :- sessionKeyIs(k'{ALICE}')"
    ).policy_id
    controller.put(ALICE, "locked", b"v0", policy_id=policy)
    denied = controller.handle(
        Request(method="rmw", key="locked", value=b"v1"), BOB
    )
    assert denied.status == 403
    assert controller.get(ALICE, "locked").value == b"v0"
    allowed = controller.handle(
        Request(method="rmw", key="locked", value=b"v1"), ALICE
    )
    assert allowed.ok


def test_scan_observes_rmw_version_bumps(controller):
    keys = _load(controller, count=3)
    controller.handle(
        Request(method="rmw", key=keys[1], value=b"new"), ALICE
    )
    lines = _lines(_scan(controller, ALICE, keys[0], 3))
    by_key = dict(line.split("@") for line in lines)
    assert by_key[keys[0]] == "0"
    assert by_key[keys[1]] == "1"


def test_scan_replicated_store_deduplicates(replicated_controller):
    """With replication factor 3 every drive holds every key: the scan
    must still return each key exactly once."""
    keys = _load(replicated_controller, count=6)
    lines = _lines(_scan(replicated_controller, ALICE, keys[0], 12))
    returned = [line.split("@")[0] for line in lines]
    assert returned == keys


def test_a_key_that_is_not_utf8_is_skipped_and_counted(clients, cluster):
    """One drive holding an ``m/`` key that does not decode must not
    break the listing: the key names no object, so it is counted as a
    corrupt reply and left out.  Freshness off, explicitly: only then
    does a scan list the fleet (a boot's listing is
    ``test_restart_over_a_key_that_is_not_utf8_boots_and_scans``)."""
    controller = _freshness_off(
        clients, telemetry=Telemetry(), replication_factor=3
    )
    keys = _load(controller, 5, "k")
    cluster.drive(1)._entries_put_raw(b"m/k0002\xff", b"junk", b"1")
    store = controller.store
    store._m_replica_failures.reset()
    response = _scan(controller, ALICE, keys[0], 10)
    assert response.ok, response.error
    assert [line.split("@")[0] for line in _lines(response)] == keys
    assert store._m_replica_failures.series()[("corrupt",)] == 1


@pytest.mark.parametrize("breakers_open", [False, True])
def test_a_scan_no_drive_answered_is_a_503(clients, cluster, breakers_open):
    """Before anything listed the fleet, a scan whose listing no drive
    answers has no keys to vouch for: 503, as an uncached GET answers,
    not 200 with nothing scanned — whether the drives were asked or
    their breakers were already open.  While the breakers stay open,
    repeated scans answer 503 without sending a drive a range read; the
    first scan after the cooldown probes the fleet and lists it.
    Freshness off, explicitly: with it on, the boot's listing seeds the
    directory and no scan lists."""
    controller = _freshness_off(clients, replication_factor=3)
    store = controller.store
    keys = _load(controller, 5)
    for drive in cluster.drives:
        drive.fail()
    if breakers_open:
        for _trip in range(3):
            with pytest.raises(DriveOffline):
                store.read_meta(keys[0])
        assert not any(map(store.health.due, range(3)))
    response = _scan(controller, ALICE, keys[0], 5)
    assert response.status == 503, (response.status, response.extra)
    for drive in cluster.drives:
        drive.recover()
    ranges = [drive.stats.range_scans for drive in cluster.drives]
    refused = 0
    while (response := _scan(controller, ALICE, keys[0], 5)).status == 503:
        assert [drive.stats.range_scans for drive in cluster.drives] == ranges
        refused += 1
        assert refused < store.health.cooldown_ops
    assert response.ok, response.error
    assert refused == (store.health.cooldown_ops - 2 if breakers_open else 0)


def _refuse_writes(client, op, args, kwargs):
    """A client interceptor: reads pass, every PUT or COMMIT is lost."""
    if op in ("put", "commit"):
        raise DriveOffline("injected write loss")
    return client.direct(op, *args, **kwargs)


def test_a_seeded_directory_answers_scans_and_follows_acked_writes():
    """After the first scan's listing, scans send no range read, and
    the directory changes with exactly the acknowledged creates and
    deletes: one acked at ``write_quorum`` below RF is in, one refused
    below quorum is out."""
    clients, cluster = make_clients()
    controller = boot(
        clients, storage_key=b"k" * 32,
        config=controller_module.ControllerConfig(
            replication_factor=3, write_quorum=2
        ),
    )
    rng = random.Random(38)
    live = set(_load(controller, 20))
    assert _scan(controller, ALICE, min(live), 1).ok  # seeds
    ranges = [drive.stats.range_scans for drive in cluster.drives]
    for _scan_index in range(100):
        start = rng.choice(sorted(live))
        count = rng.randint(1, 30)
        listed = _lines(_scan(controller, ALICE, start, count))
        assert [line.split("@")[0] for line in listed] == sorted(
            key for key in live if key >= start
        )[:count]
    assert [drive.stats.range_scans for drive in cluster.drives] == ranges

    for step in range(60):
        if rng.random() < 0.6:
            key = f"new{rng.randrange(40):04d}"
            assert controller.put(ALICE, key, b"v").ok
            live.add(key)
        else:
            key = rng.choice(sorted(live))
            assert controller.delete(ALICE, key).ok
            live.discard(key)
    clients[0].interceptor = _refuse_writes
    assert controller.put(ALICE, "acked-at-two", b"v").ok
    live.add("acked-at-two")
    clients[1].interceptor = _refuse_writes
    assert controller.put(ALICE, "refused", b"v").status == 503
    for client in clients:
        client.interceptor = None
    assert controller.store.directory == sorted(live)
    assert [drive.stats.range_scans for drive in cluster.drives] == ranges


@pytest.mark.parametrize("then", ["put", "get"])
def test_a_refused_create_a_replica_kept_is_listed_once_served(then):
    """With freshness off, explicitly, a create refused below quorum
    that reached one replica stays there, and a quorum read serves it.
    Once a GET serves that record, or a PUT of the same key is
    acknowledged as its next version, scans list the key: a scan lists
    what a GET finds.  (With freshness on the pinned tree holds no
    leaf for the refused create, so a GET answers 404.)"""
    clients, _cluster = make_clients()
    controller = _freshness_off(
        clients, replication_factor=3, write_quorum=2
    )
    keys = _load(controller, 5)
    assert _scan(controller, ALICE, keys[0], 1).ok  # seeds
    _primary, *others = placement("refused", 3, 3)
    for index in others:
        clients[index].interceptor = _refuse_writes
    assert controller.put(ALICE, "refused", b"v0").status == 503
    for client in clients:
        client.interceptor = None
    if then == "put":
        response = controller.put(ALICE, "refused", b"v1")
        assert response.ok and response.version == 1
    else:
        response = controller.get(ALICE, "refused")
        assert response.ok and response.value == b"v0"
    listed = _lines(_scan(controller, ALICE, keys[0], 10))
    assert [line.split("@")[0] for line in listed] == sorted(
        keys + ["refused"]
    )
