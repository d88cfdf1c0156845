"""Controller integration for the policy evaluator and decision cache.

Compiled closures and cached decisions must be invisible everywhere
except throughput: responses, denial mapping, and the tamper-evident
audit chain are byte-identical to what the tree-walking interpreter
produced before it left ``src/`` (pinned below).  A cached decision
is keyed by everything its policy reads, so mutations leave it
standing and a policy swap never serves a stale verdict.
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request, build_http_request, parse_http_response
from repro.core.webserver import WebServer
from repro.policy.compiled import compiled_form
from tests.core.conftest import ADMIN, ALICE, BOB, make_clients
from tests.enclave import boot


def _controller(**config) -> PesosController:
    clients, _cluster = make_clients()
    config = ControllerConfig(audit_log_size=64, **config)
    return boot(clients, storage_key=b"k" * 32, config=config)


def _as_recorded() -> PesosController:
    """Freshness off, explicitly: the audit heads pinned below were
    recorded at 387d7dc, when it shipped off, and every pin would be
    one more record in the chain."""
    return _controller(freshness_enabled=False)


def _scripted_run(controller: PesosController) -> list:
    """A fixed request mix: grants, denials, policy swap, delete."""
    outcomes = []

    def note(response):
        outcomes.append((response.status, response.error, response.value))

    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{BOB}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ADMIN}')",
    ).policy_id
    note(controller.put(ALICE, "doc", b"v0", policy_id=acl))
    for _ in range(3):  # repeats exercise the decision cache
        note(controller.get(ALICE, "doc"))
        note(controller.get(BOB, "doc"))
    note(controller.put(BOB, "doc", b"evil"))  # denied
    note(controller.get("fp-mallory", "doc"))  # denied
    stricter = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    note(controller.put(ALICE, "doc", b"v1", policy_id=stricter))
    note(controller.get(BOB, "doc"))  # now denied
    note(controller.get(ALICE, "doc"))
    note(controller.delete(ADMIN, "doc"))  # old policy no longer applies
    return outcomes


#: ``_scripted_run`` on a ``compile_policies=False`` (interpreter-only)
#: controller at commit 387d7dc, the last one that shipped both.
_INTERPRETER_RUN = [
    (200, "", b""),
    *[(200, "", b"v0")] * 6,
    (403, "policy denies update on doc", b""),
    (403, "policy denies read on doc", b""),
    (200, "", b""),
    (403, "policy denies read on doc", b""),
    (200, "", b"v1"),
    (403, "policy denies delete on doc", b""),
]
_INTERPRETER_AUDIT_HEAD = (
    "32312969bd4ee2e4946914a00630f3bf7bead8946d2d6780c517bf8e90ee06b8"
)


def test_fast_path_is_response_and_audit_identical():
    controller = _as_recorded()
    assert _scripted_run(controller) == _INTERPRETER_RUN
    # Same decisions, same clause paths, same chained digests: the
    # audit-compatibility guarantee, end to end.
    assert len(controller.auditor) == 13
    assert controller.auditor.head == _INTERPRETER_AUDIT_HEAD


def test_repeat_reads_hit_the_decision_cache():
    controller = _controller()
    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "doc", b"v", policy_id=acl)
    for _ in range(4):
        assert controller.get(ALICE, "doc").ok
    stats = controller.policy_engine.decisions.stats
    assert stats.hits >= 3


def test_a_cached_grant_survives_a_put_and_a_delete():
    """An ACL reads the session key and nothing the store holds, so a
    write or a delete leaves its cached verdicts standing: the checks
    after them are all hits."""
    controller = _controller()
    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    assert controller.put(ALICE, "doc", b"v0", policy_id=acl).ok
    assert controller.put(ALICE, "spare", b"v0", policy_id=acl).ok
    assert controller.get(ALICE, "doc").ok
    assert controller.delete(ALICE, "spare").ok
    stats = controller.policy_engine.decisions.stats
    hits, misses = stats.hits, stats.misses
    assert controller.put(ALICE, "doc", b"v1").ok
    assert controller.get(ALICE, "doc").value == b"v1"
    assert controller.put(ALICE, "spare", b"v1", policy_id=acl).ok
    assert controller.delete(ALICE, "spare").ok
    assert controller.get(ALICE, "doc").ok
    assert (stats.hits - hits, stats.misses - misses) == (5, 0)
    assert len(controller.policy_engine.decisions) == 3


def test_a_create_only_policy_is_decided_by_whether_the_key_exists():
    """``objId(this, NULL)`` holds only for a key with no live record.
    The verdict is cacheable, and the shape keeps ``this`` (``None``
    for a create, the key otherwise), so a cached grant of the first
    put never serves the second, and a put after a delete is a create
    again."""
    controller = _controller()
    create_only = controller.put_policy(
        ALICE,
        f"update :- objId(this, NULL) /\\ sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    policy = controller.caches.get_policy(create_only)
    assert compiled_form(policy).cacheable
    for _round in range(2):
        assert controller.put(
            ALICE, "once", b"v0", policy_id=create_only
        ).ok
        again = controller.put(ALICE, "once", b"v1")
        assert again.status == 403
        assert again.error == "policy denies update on once"
        assert controller.delete(ALICE, "once").ok
    # The second round was decided from the cache alone.
    stats = controller.policy_engine.decisions.stats
    assert (stats.hits, stats.misses) == (3, 3)


def test_policy_swap_is_never_served_stale():
    controller = _controller()
    permissive = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{BOB}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "doc", b"v0", policy_id=permissive)
    for _ in range(3):
        assert controller.get(BOB, "doc").ok  # warm the cache
    stricter = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "doc", b"v1", policy_id=stricter)
    assert controller.get(BOB, "doc").status == 403
    assert controller.get(ALICE, "doc").ok


#: Audit-chain head of the batched run below at commit 387d7dc, whose
#: ``handle_batch`` still prewarmed the decision cache (and did for
#: every request here: sessions live, metadata and policy resident).
_PREWARMED_BATCH_AUDIT_HEAD = (
    "700d705cbd9a12a64b89ad6a05142e2b9740f11273eb322bb4868d1bec062a27"
)


def test_handle_batch_answers_like_sequential_handle_bytes():
    fingerprints = [ALICE, BOB, "fp-carol"]
    batch = [
        (build_http_request(Request(method="get", key="doc")), fp)
        for fp in fingerprints * 2 + ["fp-mallory"]
    ]
    runs = {}
    for batched in (True, False):
        controller = _as_recorded()
        acl = controller.put_policy(
            ALICE,
            "read :- "
            + " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in fingerprints)
            + f"\nupdate :- sessionKeyIs(k'{ALICE}')",
        ).policy_id
        controller.put(ALICE, "doc", b"payload", policy_id=acl)
        for fp in fingerprints:  # establish sessions, warm the caches
            controller.get(fp, "doc")
        server = WebServer(controller)
        if batched:
            raw = server.handle_batch(list(batch), now=1.0)
        else:
            raw = [
                server.handle_bytes(body, fp, now=1.0) for body, fp in batch
            ]
        parsed = [parse_http_response(item) for item in raw]
        runs[batched] = (
            [(r.status, r.error, r.value) for r in parsed],
            controller.auditor,
            controller.policy_engine.decisions.stats,
        )
    (answers, log, stats), (seq_answers, seq_log, seq_stats) = (
        runs[True],
        runs[False],
    )
    assert answers == seq_answers
    assert [status for status, _, _ in answers] == [200] * 6 + [403]

    # The engine dispatches a batch in its own seed-fixed order, so the
    # two chains hold the same decisions in a different sequence.
    def decisions(chain):
        return sorted(
            (r.session, r.operation, r.decision, r.clause_path, r.detail)
            for r in chain.records
        )

    assert decisions(log) == decisions(seq_log)
    assert log.head == _PREWARMED_BATCH_AUDIT_HEAD
    # Each cacheable shape is evaluated once either way.
    assert (stats.hits, stats.misses) == (seq_stats.hits, seq_stats.misses)


def test_decision_cache_metrics_exported():
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    clients, _cluster = make_clients()
    controller = boot(
        clients, storage_key=b"k" * 32, telemetry=telemetry
    )
    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "doc", b"v", policy_id=acl)
    controller.get(ALICE, "doc")
    controller.get(ALICE, "doc")
    families = {
        family.name: family for family in telemetry.registry.collect()
    }
    family = families["pesos_policy_decision_cache_events_total"]
    events = {
        sample.labels["event"]: sample.value for sample in family.samples
    }
    assert events["hit"] >= 1
    assert events["miss"] >= 1


def test_malformed_policy_blob_on_the_drive_is_a_policy_error():
    """Valid TLV of the wrong shape (here: a constant index outside the
    pool) is refused when loaded, as a 400 — not a 500 at evaluation."""
    from repro.kinetic.protocol import encode_fields

    controller = _controller()
    blob = encode_fields(
        {
            "version": 1,
            "constants": [],
            "variables": [],
            "permissions": [["update", [[[11, [["c", 0]]]]]]],
        }
    )
    bad_policy = controller.store.write_policy(blob)
    response = controller.put(ALICE, "doc", b"v", policy_id=bad_policy)
    assert response.status == 400
    assert "malformed policy" in response.error
