"""objSays facts: parsed once per resident bytes object, never served
for other bytes.

Three families: the invalidation matrix (each leg asserts the verdict
*and* whether the parser ran), the differential of every objSays shape
the policy and use-case suites exercise (memo warm == cold parse ==
reference interpreter), and the pinned effects of one MAL read and one
MAL write — the memo skips tokenising, not a lookup.
"""

import hashlib

import pytest

from repro.core.cache import CacheConfig, CacheManager
from repro.core.controller import ControllerConfig
from repro.core.effects import EffectsRecorder
from repro.core.store import StoredMeta
from repro.policy import context
from repro.policy.compiled import PolicyEngine
from repro.policy.compiler import compile_policy
from repro.policy.context import (
    EvalContext,
    Facts,
    VersionInfo,
    content_hash,
)
from repro.usecases.mal import MalStore, mal_policy, write_intent
from tests.core.conftest import make_clients
from tests.enclave import boot
from tests.policy.difftest import assert_identical
from tests.policy.reference_interpreter import ObjectView, PolicyInterpreter
from tests.usecases.conftest import ALICE, BOB, CAROL

#: ``doc`` is readable by whoever its log's current version names.
MAY = (
    "read :- objId(log, L) /\\ sessionKeyIs(U) /\\ objSays(L, LV, 'may'(U))\n"
    f"update :- sessionKeyIs(k'{ALICE}')"
)
#: Same, but asks version 0 of the log whatever the current one is.
MAY_AT_0 = MAY.replace("objSays(L, LV,", "objSays(L, 0,")


def may(*clients) -> bytes:
    return "".join(f"'may'(k'{client}')\n" for client in clients).encode()


def _clients(num_drives=2):
    return make_clients(num_drives)[0]


def _controller(**config):
    return boot(
        _clients(), storage_key=b"k" * 32, config=ControllerConfig(**config)
    )


@pytest.fixture()
def parsed(monkeypatch):
    """Every payload the one content parser was asked to tokenise."""
    payloads = []
    parse = context.parse_content_tuples

    def recording(data):
        payloads.append(data)
        return parse(data)

    monkeypatch.setattr(context, "parse_content_tuples", recording)
    return payloads


def _protect(controller, log: bytes, source: str = MAY, key: str = "doc"):
    assert controller.put(ALICE, key + ".log", log).ok
    policy = controller.put_policy(ALICE, source)
    assert controller.put(
        ALICE, key, b"secret", policy_id=policy.policy_id
    ).ok


def _status(controller, client, key="doc", **extra):
    return controller.get(client, key, **extra).status


# ---------------------------------------------------------------------------
# Invalidation matrix
# ---------------------------------------------------------------------------


def test_resident_log_is_parsed_once_for_grants_and_denials(parsed):
    controller = _controller()
    _protect(controller, may(BOB))
    assert parsed == []  # a PUT never tokenises
    assert _status(controller, BOB) == 200
    assert parsed == [may(BOB)]
    for _ in range(3):
        assert _status(controller, BOB) == 200
        assert _status(controller, CAROL) == 403
    assert parsed == [may(BOB)]


def test_appended_log_is_a_new_version_with_new_facts(parsed):
    controller = _controller()
    _protect(controller, may(BOB))
    _protect(controller, b"", MAY_AT_0, key="pinned")
    assert _status(controller, CAROL) == 403
    assert controller.put(ALICE, "doc.log", may(BOB, CAROL)).ok
    assert _status(controller, CAROL) == 200
    assert parsed == [may(BOB), may(BOB, CAROL)]
    # Version 0 still answers, with the facts parsed from *its* bytes.
    assert _status(controller, BOB, "pinned", log_key="doc.log") == 200
    assert _status(controller, CAROL, "pinned", log_key="doc.log") == 403
    assert _status(controller, CAROL) == 200
    assert parsed == [may(BOB), may(BOB, CAROL)]


def test_delete_then_recreate_reuses_the_cache_key_not_the_facts(parsed):
    controller = _controller()
    _protect(controller, may(BOB))
    assert _status(controller, BOB) == 200
    assert controller.delete(ALICE, "doc.log").ok
    assert _status(controller, BOB) == 403  # no log, nothing said
    assert controller.put(ALICE, "doc.log", may(CAROL)).ok
    assert controller._get_meta("doc.log").current_version == 0  # doc.log@0 again
    assert _status(controller, BOB) == 403
    assert _status(controller, CAROL) == 200
    assert parsed == [may(BOB), may(CAROL)]


def test_same_key_other_bytes_without_an_invalidation():
    """The memo belongs to the bytes object: even a writer that skips
    ``invalidate_object`` cannot make ``key@0`` answer for old bytes."""
    caches = CacheManager()
    old, new = may(BOB), may(CAROL)
    caches.put_object("doc.log@0", old)
    said = caches.facts("doc.log@0", caches.get_object("doc.log@0"))
    assert said == Facts.parse(old)
    caches.put_object("doc.log@0", new)
    assert caches.facts("doc.log@0", caches.get_object("doc.log@0")) == (
        Facts.parse(new)
    )
    # Bytes that are not the resident object are parsed for themselves
    # and leave the resident memo alone.
    resident = caches.facts("doc.log@0", new)
    assert caches.facts("doc.log@0", old) == Facts.parse(old)
    assert caches.facts("doc.log@0", bytes(bytearray(new))) == resident
    assert caches.facts("doc.log@0", new) is resident


def test_log_too_big_for_the_object_region_is_parsed_per_check(parsed):
    readers = [f"fp-reader-{index}" for index in range(3)]
    log = may(*readers)
    controller = _controller(cache=CacheConfig(object_bytes=len(log) - 1))
    _protect(controller, log)
    for expected, reader in enumerate(readers, 1):
        # Sessions not seen before: each check is a decision-cache miss.
        assert _status(controller, reader) == 200
        assert _status(controller, f"fp-stranger-{expected}") == 403
        assert len(parsed) == 2 * expected
    assert set(parsed) == {log}
    # A repeated check is answered by the verdict its records key.
    assert _status(controller, readers[0]) == 200
    assert len(parsed) == 6
    assert controller.caches.objects.stats.rejected_oversize >= 6
    assert controller.caches.memory_in_use() <= len(log) + 4096


def test_evicted_log_is_read_back_hash_checked_and_parsed_again(parsed):
    log = may(BOB)
    controller = _controller(cache=CacheConfig(object_bytes=len(log) + 8))
    _protect(controller, log)  # "secret" (6 bytes) fits beside the log
    assert _status(controller, BOB) == 200
    assert parsed == [log]
    filler = b"x" * (len(log) + 8)
    assert controller.put(BOB, "filler", filler).ok  # evicts everything else
    assert controller.caches.objects.stats.evictions >= 1
    assert controller.get(BOB, "filler").value == filler
    gets = sum(c.drive.stats.gets for c in controller.store.clients)
    assert _status(controller, CAROL) == 403
    assert sum(c.drive.stats.gets for c in controller.store.clients) > gets
    assert parsed == [log, log]
    assert parsed[1] is not parsed[0]  # other bytes object, same content


def test_overwrite_without_history_says_only_the_new_content(parsed):
    controller = _controller(keep_history=False)
    _protect(controller, may(BOB))
    assert _status(controller, BOB) == 200
    assert controller.put(ALICE, "doc.log", may(CAROL)).ok
    assert _status(controller, BOB) == 403
    assert _status(controller, CAROL) == 200
    assert _status(controller, CAROL) == 200
    assert parsed == [may(BOB), may(CAROL)]


def test_get_of_the_log_between_two_checks_keeps_its_facts(parsed):
    controller = _controller()
    _protect(controller, may(BOB))
    assert _status(controller, BOB) == 200
    for _ in range(3):
        # _handle_get re-puts the bytes it was handed: same object.
        assert controller.get(CAROL, "doc.log").value == may(BOB)
        assert _status(controller, BOB) == 200
    assert parsed == [may(BOB)]
    assert controller.caches.objects.stats.evictions == 0


def test_clearing_the_region_drops_the_facts_with_the_bytes(parsed):
    controller = _controller()
    _protect(controller, may(BOB, CAROL))
    assert _status(controller, BOB) == 200
    controller.caches.objects.clear()
    assert _status(controller, CAROL) == 200  # another session: a miss
    assert len(parsed) == 2


def test_facts_are_immutable_and_weigh_nothing():
    caches = CacheManager()
    log = may(BOB, CAROL)
    caches.put_object("doc.log@0", log)
    before = caches.memory_in_use()
    facts = caches.facts("doc.log@0", log)
    assert caches.memory_in_use() == before == len(log)
    assert isinstance(facts.ordered, tuple)
    assert isinstance(facts.ground, frozenset)
    assert facts.ground == set(facts.ordered)
    with pytest.raises(AttributeError):
        facts.ordered = ()
    with pytest.raises(Exception):  # FrozenInstanceError
        facts.ordered[0].name = "other"


# ---------------------------------------------------------------------------
# Differential: memo warm == cold parse == reference interpreter
# ---------------------------------------------------------------------------

_MAL = compile_policy(mal_policy(ALICE))
_NEW = b"what bob writes"


def _case(name, grants, source, objects, *, operation="read", session=ALICE,
          this="obj", log="log", request_version=None, pending=None):
    policy = source if not isinstance(source, str) else compile_policy(source)
    return pytest.param(
        grants, policy, operation, session, this, log, objects,
        request_version, pending, id=name,
    )


#: object id -> (current version, content of that version)
CASES = [
    # tests/policy/test_interpreter.py
    _case(
        "unifies-content", True,
        "read :- objId(this, O) /\\ currVersion(O, V) /\\ sessionKeyIs(U)"
        " /\\ objSays(log, LV, 'read'(O, V, U))",
        {"obj": (3, b"x"), "log": (1, b"'read'('obj', 3, k'fp-alice')")},
    ),
    _case(
        "rejects-wrong-entry", False,
        "read :- objId(this, O) /\\ objSays(log, LV, 'read'(O, V, U))",
        {"obj": (3, b"x"), "log": (1, b"'read'('other', 3, k'fp-alice')")},
    ),
    _case(
        "matches-any-line", True,
        "read :- objSays(log, V, 'entry'(2))",
        {"log": (2, b"'entry'(1)\n'entry'(2)\n'entry'(3)")},
        this=None,
    ),
    _case(
        "constant-pattern-absent", False,
        "read :- objSays(log, V, 'entry'(4))",
        {"log": (2, b"'entry'(1)\n'entry'(2)\n'entry'(3)")},
        this=None,
    ),
    # tests/policy/test_binary.py: the first fact in content order binds.
    _case(
        "unbound-slot-binds-first-fact", True,
        "read :- objId(this, O) /\\ currVersion(O, V)"
        " /\\ objSays(O, V, 'entry'(E))",
        {"obj": (0, b"noise\n'entry'(7)\n'entry'(8)\n")},
    ),
    # tests/policy/test_evalcore_regressions.py
    _case(
        "nested-failure-leaves-nothing-behind", True,
        "read :- objSays(this, LV, 'p'('q'(X), X))",
        {"obj": (1, b"'p'('q'(1),2)\n'p'('q'(3),3)")},
    ),
    _case(
        "repeated-slot-first-occurrence", True,
        "read :- objSays(this, LV, 'w'(H, H))",
        {"obj": (1, b"'w'(1,2)\n'w'(5,5)")},
    ),
    _case(
        "repeated-slot-mismatch", False,
        "read :- objSays(this, LV, 'w'(H, H))",
        {"obj": (1, b"'w'(1,2)\n'w'(3,4)")},
    ),
    # A slot of the pattern that version resolution binds after the
    # pattern was built: still the ordered scan, against the live value.
    _case(
        "slot-bound-by-version-resolution", True,
        "read :- objSays(this, LV, 'at'(LV))",
        {"obj": (1, b"'at'(0)\n'at'(1)")},
    ),
    _case(
        "slot-bound-by-version-resolution-absent", False,
        "read :- objSays(this, LV, 'at'(LV))",
        {"obj": (1, b"'at'(0)\n'at'(2)")},
    ),
    # A variable holding a whole tuple makes the second pattern ground.
    _case(
        "tuple-valued-variable", True,
        "read :- objSays(log, V, 'outer'(T)) /\\ objSays(log, V, 'copy'(T))",
        {"log": (0, b"'outer'(inner(1))\n'copy'(inner(2))\n'copy'(inner(1))")},
        this=None,
    ),
    _case(
        "tuple-valued-variable-absent", False,
        "read :- objSays(log, V, 'outer'(T)) /\\ objSays(log, V, 'copy'(T))",
        {"log": (0, b"'outer'(inner(1))\n'copy'(inner(2))")},
        this=None,
    ),
    _case(
        "payload-says-nothing", False,
        "read :- objSays(this, V, 'entry'(E))",
        {"obj": (0, bytes(range(256)))},
    ),
    _case(
        "no-such-log", False,
        "read :- objId(this, O) /\\ objSays(log, LV, 'read'(O))",
        {"obj": (0, b"x")},
    ),
    # tests/usecases/test_mal.py, as contexts
    _case(
        "mal-logged-read", True, _MAL,
        {"obj": (2, b"state"), "log": (5, b"'read'('obj', 2, k'fp-bob')\n")},
        session=BOB,
    ),
    _case(
        "mal-unlogged-read", False, _MAL,
        {"obj": (2, b"state"), "log": (5, b"'read'('obj', 2, k'fp-bob')\n")},
        session=CAROL,
    ),
    _case(
        "mal-intent-for-another-version", False, _MAL,
        {"obj": (3, b"state"), "log": (5, b"'read'('obj', 2, k'fp-bob')\n")},
        session=BOB,
    ),
    _case(
        "mal-intent-for-another-object", False, _MAL,
        {"obj": (2, b"state"), "log": (5, b"'read'('other', 2, k'fp-bob')\n")},
        session=BOB,
    ),
    _case(
        "mal-logged-write", True, _MAL,
        {
            "obj": (2, b"state"),
            "log": (5, (
                "'read'('obj', 2, k'fp-bob')\n" + write_intent(
                    "obj", 2, content_hash(b"state"), content_hash(_NEW), BOB
                ) + "\n"
            ).encode()),
        },
        operation="update", session=BOB, request_version=3, pending=_NEW,
    ),
    _case(
        "mal-write-intent-for-other-content", False, _MAL,
        {
            "obj": (2, b"state"),
            "log": (5, write_intent(
                "obj", 2, content_hash(b"state"), content_hash(b"else"), BOB
            ).encode()),
        },
        operation="update", session=BOB, request_version=3, pending=_NEW,
    ),
    _case(
        "mal-creation-clause", True, _MAL, {},
        operation="update", this=None, pending=b"first",
    ),
]


def _context(operation, session, this, log, objects, request_version, pending,
             load_facts=None):
    return EvalContext(
        operation=operation,
        session_key=session,
        this_id=this if this in objects else None,
        log_id=log,
        request_version=request_version,
        objects=objects,
        load_facts=load_facts,
        pending=None if pending is None else VersionInfo.from_content(pending),
    )


@pytest.mark.parametrize(
    "grants,policy,operation,session,this,log,objects,request_version,pending",
    CASES,
)
def test_memo_warm_equals_cold_parse_equals_reference(
    grants, policy, operation, session, this, log, objects, request_version,
    pending, parsed,
):
    controller = boot(_clients(1), storage_key=b"s" * 32)
    metas = {
        object_id: controller.store.store_version(
            StoredMeta(key=object_id, current_version=version - 1), content, ""
        )
        for object_id, (version, content) in objects.items()
    }

    def through_the_store(caches):
        # The records are the views; facts load through the controller's
        # GET value path, over ``caches``.
        controller.caches = caches
        ctx = _context(
            operation, session, this, log, dict(metas), request_version,
            pending, load_facts=controller._facts,
        )
        return PolicyEngine().evaluate(policy, operation, ctx)

    plain = {
        object_id: ObjectView(
            object_id, version, {version: VersionInfo.from_content(content)}
        )
        for object_id, (version, content) in objects.items()
    }
    reference = PolicyInterpreter().evaluate(
        policy, operation,
        _context(operation, session, this, log, plain, request_version, pending),
    )
    cold = through_the_store(CacheManager())
    caches = CacheManager()
    through_the_store(caches)
    stored = {content for _version, content in objects.values()}
    del parsed[:]
    warm = through_the_store(caches)
    assert not stored.intersection(parsed)  # a fresh context, no re-parse
    assert reference.granted is grants
    assert_identical(reference, cold, label="cold parse")
    assert_identical(reference, warm, label="memo warm")


# ---------------------------------------------------------------------------
# The effects of a MAL read and a MAL write, pinned at 1ff8262; the byte
# sizes of the sealed ``m/`` record (the second ``encrypt`` of each PUT)
# re-captured for at-rest format v2; the ``disk_write`` rows re-captured
# when the ledger went to one effect per frame (PR 22): a PUT's value
# and ``m/`` record are one row whose bytes are their sum (59 + 235,
# 229 + 285, 42 + 231), followed by its record count and replica ordinal.
# The ``cache_hit`` rows left the ledger when the LFU's own stats became
# the one hit/miss count: each list is the parent's with those rows
# filtered out, every other row unchanged, and the hits they pinned are
# asserted as ``region_stats()`` deltas instead (no row was a miss).
# ---------------------------------------------------------------------------

#: ``MalStore.read``: GET log, GET log again for the append, PUT log
#: (versioned policy, 3 predicates), GET record (MAL read, 5 predicates).
MAL_READ_EFFECTS = [
    ("policy_check", 1), ("copy", 0),
    ("policy_check", 1), ("copy", 0),
    ("copy", 31),
    ("policy_check", 3), ("encrypt", 31), ("encrypt", 207),
    ("disk_write", 1, 294, 2, 0),
    ("policy_check", 5), ("copy", 13),
]
#: ``MalStore.write``: GET log, PUT log, PUT record (MAL update, 8).
MAL_WRITE_EFFECTS = [
    ("policy_check", 1), ("copy", 31),
    ("copy", 201),
    ("policy_check", 3), ("encrypt", 201), ("encrypt", 257),
    ("disk_write", 1, 514, 2, 0),
    ("copy", 14),
    ("policy_check", 8), ("encrypt", 14),
    ("encrypt", 203), ("disk_write", 0, 273, 2, 0),
]
#: (hits, misses) per region: the ``cache_hit`` rows the lists pinned.
MAL_READ_LOOKUPS = {"policy": (5, 0), "object": (4, 0), "keys": (6, 0)}
MAL_WRITE_LOOKUPS = {"policy": (5, 0), "object": (2, 0), "keys": (5, 0)}
#: SHA-256 of the two lists' event kinds alone: the lists as 54bf4fd
#: pinned them (``4af89c2e…``: the format change moved sizes, not
#: events) less the second ``disk_write`` of each of the three PUTs
#: (``0a244965…``), less the keys-region lookup a check made for the
#: metadata of ``this`` that the request already held (two per list,
#: ``3317643d…``), less every ``cache_hit`` row.
MAL_EFFECT_KINDS_SHA = (
    "6bf10c4f2726bad5510011fcbf242acf28a278f973167f7ae092f0f476cbc4d9"
)


def _lookups(caches, before):
    return {
        region: (stats.hits - before[region][0],
                 stats.misses - before[region][1])
        for region, stats in caches.region_stats().items()
    }


def _counts(caches):
    return {
        region: (stats.hits, stats.misses)
        for region, stats in caches.region_stats().items()
    }


def test_mal_read_and_write_effects_are_the_parents(parsed):
    kinds = [
        [event[0] for event in effects]
        for effects in (MAL_READ_EFFECTS, MAL_WRITE_EFFECTS)
    ]
    assert hashlib.sha256(repr(kinds).encode()).hexdigest() == (
        MAL_EFFECT_KINDS_SHA
    )
    controller = boot(
        _clients(), storage_key=b"k" * 32, effects=EffectsRecorder()
    )
    mal = MalStore(controller)
    mal.protect(ALICE, "record", b"initial state")
    controller.effects.drain()
    before = _counts(controller.caches)
    assert mal.read(BOB, "record").ok
    assert controller.effects.drain() == MAL_READ_EFFECTS
    assert _lookups(controller.caches, before) == MAL_READ_LOOKUPS
    before = _counts(controller.caches)
    assert mal.write(BOB, "record", b"updated by bob").ok
    assert controller.effects.drain() == MAL_WRITE_EFFECTS
    assert _lookups(controller.caches, before) == MAL_WRITE_LOOKUPS
    # Each log version was tokenised once, by the check that needed it.
    assert parsed == [
        controller.get(ALICE, "record.log", version=v).value for v in (1, 2)
    ]
