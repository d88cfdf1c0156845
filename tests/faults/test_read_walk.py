"""The store's one replica read, exercised as a fault matrix.

Every read in :mod:`repro.core.store` — a value, an ``m/`` or ``p/``
record, with or without the freshness authority — is the same walk
under a different acceptance rule, so one parametrised test asserts
the same four observables for every reader and every primary fault
(a ``p/`` blob is read by the value rule, against its id):

* the read is served from the next replica in placement order;
* a replica that answered wrong is re-seeded inline with the sealed
  blob that was served (an offline one is left alone);
* the key is in the :class:`DirtyJournal` under the right kind;
* ``pesos_replica_failures_total`` moved by exactly one, under the
  fault's kind.

Below the matrix: what each rule raises when no replica can serve.
"""

import pytest

from repro.core.antientropy import KIND_OBJECT, KIND_POLICY
from repro.core.controller import ControllerConfig
from repro.core.freshness import FreshnessAuthority, object_label, record_digest
from repro.core.request import Request
from repro.core.store import ObjectStore, StoredMeta, placement
from repro.errors import (
    CryptoError,
    DriveOffline,
    IntegrityError,
    KineticNotFound,
    StaleReplica,
)
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.telemetry import Telemetry

from tests.enclave import boot
from tests.faults.conftest import BINARY

KEY = "obj"
POLICY = b"NEW-policy"
POLICY_ID = record_digest(POLICY)
ORDER = placement(KEY, 3, 3)
POLICY_ORDER = placement(POLICY_ID, 3, 3)

READERS = ("value", "meta", "meta-verified", "policy", "policy-verified")
FAULTS = ("offline", "missing", "corrupt", "truncated", "stale", "sealed-v1")
#: The metric kind each injected fault must be counted under.
METRIC_KIND = {"truncated": "corrupt", "sealed-v1": "corrupt"}

#: ``m/obj`` as at-rest format v1 wrote it, captured at 54bf4fd (the
#: commit before format v2): version 7 of ``obj`` — newer than anything
#: a scenario writes — sealed by that commit's ``StreamAead(b"w" * 32)``
#: with nonce ``b"format-v1 nc"`` and AAD ``b"meta:obj"``.  There is no
#: reader for it: it must fail its tag, as any corrupt copy does.
SEALED_V1_META = bytes.fromhex(
    "666f726d61742d7631206e636d456ad1ba31217e25f2592613b7497541c43e82fd361b87"
    "250eb21ebebb21a06d795f9d16b1d7b2f8e4d56f842204223e44def482e3616e4c4735be"
    "f8d2da7e8e6472eff8047e76b8197a958d4d3cc4dce42528bd8103cd063e3a2b3a78930c"
    "e376afc6e9bbf92cc5009ce2f1ddf0a35bf0ed98e6de7b1e5aea32da5c"
)


class Scenario:
    """RF-3 store holding two generations of one record kind."""

    def __init__(self, reader: str, write_quorum: int | None = 2):
        self.reader = reader
        self.cluster = DriveCluster(num_drives=3)
        clients = self.cluster.connect_all(
            KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        )
        self.store = ObjectStore(
            clients,
            b"w" * 32,
            replication_factor=3,
            # In place, so an old value is a *valid* blob at the same
            # disk key; a relaxed quorum, so an old m/ record can be
            # outvoted.
            keep_history=False,
            write_quorum=write_quorum,
            telemetry=Telemetry(),
        )
        if reader.endswith("-verified"):
            authority = FreshnessAuthority(
                SgxPlatform("walk-host").launch(BINARY)
            )
            authority.bootstrap(self.store)
            assert not authority.forked
            self.store.freshness = authority
        is_policy = reader.startswith("policy")
        self.kind = KIND_POLICY if is_policy else KIND_OBJECT
        self.name = POLICY_ID if is_policy else KEY
        self.order = POLICY_ORDER if is_policy else ORDER
        self.meta = StoredMeta(key=KEY)
        self.meta = self.store.store_version(self.meta, b"old-value", "")
        if is_policy:
            # A policy has one generation: "stale" is other bytes
            # sealed under its id's AAD, which open but hash otherwise.
            _disk_key, aad = self.store._policy_record(POLICY_ID)
            self.old = self.store._seal(b"old-policy", aad)
        else:
            self.old = self._at_rest(self.order[0])
        self.meta = self.store.store_version(self.meta, b"NEW-value", "")
        assert self.store.write_policy(POLICY) == POLICY_ID
        self.expected = POLICY if is_policy else b"NEW-value"
        self.store._m_replica_failures.reset()
        self.store._m_read_repair.reset()

    @property
    def disk_key(self) -> bytes:
        if self.reader == "value":
            return ObjectStore.value_key(KEY, ObjectStore.LATEST_SLOT)
        if self.reader.startswith("meta"):
            return ObjectStore.meta_key(KEY)
        return ObjectStore.policy_key(POLICY_ID)

    def _at_rest(self, index: int) -> bytes:
        return self.cluster.drive(index)._entries[self.disk_key].value

    def inject(self, index: int, fault: str) -> None:
        drive = self.cluster.drive(index)
        if fault == "offline":
            drive.fail()
            return
        entry = drive._entries[self.disk_key]
        if fault == "missing":
            del drive._entries[self.disk_key]
        elif fault == "corrupt":
            entry.value = bytes([entry.value[0] ^ 0x01]) + entry.value[1:]
        elif fault == "truncated":
            entry.value = entry.value[:5]
        elif fault == "stale":
            entry.value = self.old
        elif fault == "sealed-v1":
            entry.value = SEALED_V1_META
        else:  # pragma: no cover - guards the parametrisation
            raise AssertionError(fault)

    def read(self):
        if self.reader == "value":
            recorded = self.meta.versions[self.meta.current_version]
            return self.store.read_value(
                KEY, recorded.version, expect_sha256=recorded.content_hash
            )
        if self.reader.startswith("meta"):
            meta = self.store.read_meta(KEY)
            if meta is None:
                return None
            return meta.versions[meta.current_version].content_hash
        return self.store.read_policy(POLICY_ID)

    @property
    def expected_answer(self):
        if self.reader.startswith("meta"):
            return self.meta.versions[self.meta.current_version].content_hash
        return self.expected

    def failures(self) -> dict:
        return {
            key[0]: count
            for key, count in self.store._m_replica_failures.series().items()
            if count
        }


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", READERS)
def test_primary_fault_fails_over_repairs_journals_and_counts(reader, fault):
    if fault == "sealed-v1" and not reader.startswith("meta"):
        pytest.skip("the captured v1 blob is an m/ record")
    scenario = Scenario(reader)
    store, cluster = scenario.store, scenario.cluster
    primary, second = scenario.order[0], scenario.order[1]
    scenario.inject(primary, fault)
    puts_before = cluster.drive(primary).stats.puts

    assert scenario.read() == scenario.expected_answer

    if fault == "offline":
        assert cluster.drive(primary).stats.puts == puts_before
        assert store._m_read_repair.value == 0
    else:
        # Re-seeded with the very blob the serving replica holds.
        assert scenario._at_rest(primary) == scenario._at_rest(second)
        assert store._m_read_repair.value == 1
    assert (scenario.kind, scenario.name) in store.journal
    assert store.journal.pending(scenario.kind, scenario.name) == {primary}
    assert scenario.failures() == {METRIC_KIND.get(fault, fault): 1}
    if fault != "offline":
        # The repaired primary now serves on its own.
        for index in scenario.order[1:]:
            cluster.drive(index).fail()
        assert scenario.read() == scenario.expected_answer


@pytest.mark.parametrize("reader", READERS)
def test_all_replicas_truncated_raise_the_crypto_error(reader):
    """Untrusted drive input: a 5-byte blob is a corrupt copy, and
    corruption everywhere surfaces through the precedence rule."""
    scenario = Scenario(reader)
    for index in scenario.order:
        scenario.inject(index, "truncated")
    with pytest.raises(CryptoError) as raised:
        scenario.read()
    assert not isinstance(raised.value, IntegrityError)
    assert scenario.failures() == {"corrupt": 3}


# -- nothing can serve: stale > corrupt > proven absence > drive error -----


def _unserved(reader, faults, write_quorum=2):
    scenario = Scenario(reader, write_quorum=write_quorum)
    for index, fault in zip(scenario.order, faults):
        scenario.inject(index, fault)
    return scenario


@pytest.mark.parametrize(
    "faults, write_quorum, error",
    [
        (("stale", "corrupt", "missing"), 2, StaleReplica),
        (("corrupt", "missing", "offline"), 2, IntegrityError),
        # Two clean not-founds of three intersect every write that two
        # replicas acknowledged: absent, whatever the dead drive holds.
        (("missing", "missing", "offline"), 2, KineticNotFound),
        (("missing", "offline", "offline"), 2, DriveOffline),
        # Under a full write quorum one not-found already proves it.
        (("missing", "offline", "offline"), None, KineticNotFound),
    ],
)
def test_value_rule_error_precedence(faults, write_quorum, error):
    scenario = _unserved("value", faults, write_quorum)
    with pytest.raises(error):
        scenario.read()


@pytest.mark.parametrize(
    "faults, error",
    [
        (("stale", "corrupt", "offline"), StaleReplica),
        (("corrupt", "offline", "offline"), IntegrityError),
        # No pin proves a policy exists; the corrupt copy does.
        (("missing", "corrupt", "offline"), IntegrityError),
        (("offline", "offline", "offline"), DriveOffline),
    ],
)
@pytest.mark.parametrize("reader", ("policy", "policy-verified"))
def test_policy_rule_error_precedence(reader, faults, error):
    """A policy is read by the value rule against its id, with
    freshness off or on alike."""
    scenario = _unserved(reader, faults)
    with pytest.raises(error):
        scenario.read()


@pytest.mark.parametrize("reader", ("policy", "policy-verified"))
def test_a_policy_no_replica_holds_is_absent(reader):
    scenario = _unserved(reader, ("missing", "missing", "offline"))
    assert scenario.read() is None


@pytest.mark.parametrize(
    "faults, outcome",
    [
        (("corrupt", "missing", "offline"), IntegrityError),
        (("missing", "missing", "offline"), None),
        (("missing", "offline", "offline"), DriveOffline),
    ],
)
def test_newest_of_quorum_rule_error_precedence(faults, outcome):
    scenario = _unserved("meta", faults)
    if outcome is None:
        assert scenario.store.read_meta(KEY) is None
        return
    with pytest.raises(outcome):
        scenario.read()


@pytest.mark.parametrize(
    "faults, error",
    [
        (("stale", "corrupt", "offline"), StaleReplica),
        (("corrupt", "offline", "offline"), IntegrityError),
        # The pin proves the record exists: a live replica without it
        # is behind, not evidence of absence.
        (("missing", "corrupt", "offline"), StaleReplica),
        (("offline", "offline", "offline"), DriveOffline),
    ],
)
@pytest.mark.parametrize("reader", ("meta-verified",))
def test_pinned_rule_error_precedence(reader, faults, error):
    scenario = _unserved(reader, faults)
    with pytest.raises(error):
        scenario.read()


def test_newest_reachable_record_is_served_below_the_read_quorum():
    """Fewer definitive replies than the quorum needs: availability
    wins, and the key stays journaled for the audit."""
    scenario = _unserved("meta", ("offline", "stale", "offline"))
    meta = scenario.store.read_meta(KEY)
    assert meta.current_version == 0
    assert (KIND_OBJECT, KEY) in scenario.store.journal


def test_pending_side_of_an_unsettled_mutation_is_a_fallback():
    """A replica holding the other side of a pending pin serves when
    the pinned leaf is nowhere, and is never re-seeded over."""
    scenario = Scenario("meta-verified")
    store, authority = scenario.store, scenario.store.freshness
    # Crash window: the new leaf is pinned, no replica has it yet.
    authority.prepare(object_label(KEY), "e" * 64)
    held = [scenario._at_rest(index) for index in scenario.order]
    assert scenario.read() == scenario.expected_answer
    assert [scenario._at_rest(index) for index in scenario.order] == held
    assert store._m_read_repair.value == 0
    assert scenario.failures() == {}


# -- stale in-place value on the default trust path ------------------------
#
# keep_history=False overwrites one value slot in place, write_quorum=2
# acknowledges a write the primary missed: when the primary returns it
# holds the previous value, sealed under the same AAD.  Only the content
# hash in the metadata record tells it from the acknowledged one.

FP = "fp-walk"
GATED_BY_LOG = (
    "read :- objId(log, L) /\\ objSays(L, LV, 'allow'(1))\n"
    "update :- sessionKeyIs(K)"
)


def _controller(cluster, platform):
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(
        clients,
        platform,
        storage_key=b"k" * 32,
        config=ControllerConfig(
            replication_factor=3, keep_history=False, write_quorum=2
        ),
    )


def _primary_misses_the_second_put(key, old, new):
    """Returns (cluster, a restarted controller: cold caches, fresh
    breakers) with ``new`` acknowledged by two of three replicas."""
    cluster, platform = DriveCluster(num_drives=3), SgxPlatform("walk-host")
    controller = _controller(cluster, platform)
    assert controller.put(FP, key, old).ok
    primary = placement(key, 3, 3)[0]
    cluster.drive(primary).fail()
    assert controller.put(FP, key, new).ok
    cluster.drive(primary).recover()
    return cluster, _controller(cluster, platform)


def _value_slot(cluster, key, index):
    disk_key = ObjectStore.value_key(key, ObjectStore.LATEST_SLOT)
    return cluster.drive(index)._entries[disk_key].value


def test_get_serves_the_acknowledged_value_past_a_lagging_primary():
    cluster, controller = _primary_misses_the_second_put(
        KEY, b"old-value", b"NEW-value"
    )
    response = controller.get(FP, KEY)
    assert response.status == 200
    assert response.value == b"NEW-value"
    assert response.version == 1
    # ...and the lagging replica now holds the serving replica's blob.
    assert _value_slot(cluster, KEY, ORDER[0]) == _value_slot(
        cluster, KEY, ORDER[1]
    )


def test_policy_objsays_reads_the_acknowledged_log_version():
    cluster, controller = _primary_misses_the_second_put(
        "acl", b"'allow'(0)", b"'allow'(1)"
    )
    policy = controller.put_policy(FP, GATED_BY_LOG)
    assert controller.put(
        FP, "doc", b"secret", policy_id=policy.policy_id
    ).ok
    response = controller.handle(
        Request(method="get", key="doc", log_key="acl"), FP
    )
    assert response.status == 200, response.error
    order = placement("acl", 3, 3)
    assert _value_slot(cluster, "acl", order[0]) == _value_slot(
        cluster, "acl", order[1]
    )


def test_no_replica_holding_the_recorded_content_is_a_503_not_old_bytes():
    cluster, controller = _primary_misses_the_second_put(
        KEY, b"old-value", b"NEW-value"
    )
    old_blob = _value_slot(cluster, KEY, ORDER[0])
    disk_key = ObjectStore.value_key(KEY, ObjectStore.LATEST_SLOT)
    for index in ORDER[1:]:
        cluster.drive(index)._entries[disk_key].value = old_blob
    response = controller.get(FP, KEY)
    assert response.status == StaleReplica.status == 503
    assert not response.value
    assert all(
        _value_slot(cluster, KEY, index) == old_blob for index in ORDER
    )


def test_direct_value_read_needs_no_hash():
    """``bench/experiments.py`` reads values by (key, version) alone."""
    scenario = Scenario("value")
    assert scenario.store.read_value(KEY, 1) == b"NEW-value"
