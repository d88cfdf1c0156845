"""Effects recorder semantics."""

from repro.core.effects import DISK_READ, EffectsRecorder, NullRecorder
from tests.enclave import boot


def test_record_and_drain():
    effects = EffectsRecorder()
    effects.record(DISK_READ, 0, 1024)
    effects.record("encrypt", 512)
    events = effects.drain()
    assert events == [(DISK_READ, 0, 1024), ("encrypt", 512)]
    assert effects.drain() == []  # drained


def test_totals_survive_drain():
    effects = EffectsRecorder()
    effects.record(DISK_READ, 0, 1)
    effects.drain()
    effects.record(DISK_READ, 1, 2)
    totals = effects.registry.get("pesos_effects_total")
    assert totals.labels(DISK_READ).value == 2


def test_cache_events_tagged_by_region():
    effects = EffectsRecorder()
    effects.record_cache("object", hit=False)
    assert effects.drain() == [("cache_miss", "object")]


def test_null_recorder_is_silent():
    effects = NullRecorder()
    effects.record("anything", 1, 2)
    effects.record_cache("region", hit=True)
    assert effects.drain() == []


# -- the counter child is resolved once per kind ---------------------------


def test_recorder_asks_the_counter_for_each_kind_once(monkeypatch):
    effects = EffectsRecorder()
    asked = []
    labels = effects._kinds.labels

    def counting_labels(*values):
        asked.append(values)
        return labels(*values)

    monkeypatch.setattr(effects._kinds, "labels", counting_labels)
    for _ in range(50):
        effects.record(DISK_READ, 0, 1)
        effects.record_cache("object", hit=True)
        effects.record_cache("object", hit=False)
        effects.record_cache("keys", hit=True)
    assert asked == [
        (DISK_READ,),
        ("cache_hit:object",),
        ("cache_miss:object",),
        ("cache_hit:keys",),
    ]
    totals = effects.registry.get("pesos_effects_total").series()
    assert totals == {
        (DISK_READ,): 50,
        ("cache_hit:object",): 50,
        ("cache_miss:object",): 50,
        ("cache_hit:keys",): 50,
    }


# -- the backlog nobody drains is bounded ----------------------------------


def _get_raw(key):
    from repro.core.request import Request, build_http_request

    return build_http_request(Request(method="get", key=key))


def test_backlog_is_bounded_when_nobody_drains(controller):
    """20 000 cached GETs through the wire front end, which never
    drains: 5 events each, 100 000 tuples at the parent."""
    from repro.core.controller import EFFECTS_BACKLOG
    from repro.core.webserver import WebServer
    from tests.core.conftest import ALICE

    server = WebServer(controller)
    assert controller.put(ALICE, "k", b"v").ok
    raw = _get_raw("k")
    controller.effects.drain()
    server.handle_bytes(raw, ALICE)
    per_request = len(controller.effects.events)
    longest = 0
    for _ in range(19_999):
        reply = server.handle_bytes(raw, ALICE)
        longest = max(longest, len(controller.effects.events))
    assert reply.startswith(b"HTTP/1.1 200")
    # The bound, plus the one request that crossed it.
    assert EFFECTS_BACKLOG < longest <= EFFECTS_BACKLOG + per_request
    # Totals are not events: they persist across the drops.
    totals = controller.effects.registry.get("pesos_effects_total")
    assert totals.labels("copy").value == 20_001


def test_a_consumer_that_drains_per_request_loses_nothing(controller):
    """The DES contract: drain, execute, drain.  The bound never fires
    between the two, however much was handled before."""
    from tests.core.conftest import ALICE

    assert controller.put(ALICE, "k", b"v").ok
    controller.effects.drain()
    assert controller.get(ALICE, "k").ok
    expected = controller.effects.drain()
    assert expected
    for _ in range(4000):  # 4 000 x 4 events, twice the bound
        controller.effects.drain()
        assert controller.get(ALICE, "k").ok
        assert controller.effects.drain() == expected


def test_backlog_is_never_dropped_under_a_request_in_flight():
    """``_count_transitions`` slices the list from an index taken at
    request start; green threads overlap, so a request that starts
    while another is parked at drive I/O must not drop the list."""
    from repro.core.controller import EFFECTS_BACKLOG
    from repro.core.engine import ConcurrentEngine
    from repro.core.request import Request
    from repro.telemetry import Telemetry
    from tests.core.conftest import make_clients

    def transitions(backlog):
        telemetry = Telemetry()
        controller = boot(
            make_clients()[0], storage_key=b"k" * 32, telemetry=telemetry
        )
        controller.effects.events.extend([("copy", 0)] * backlog)
        batch = [
            Request(method="put", key=f"k{i % 6}", value=b"v%d" % i)
            for i in range(24)
        ]
        with ConcurrentEngine(controller, seed=3) as engine:
            responses = engine.run_batch(batch)
        assert all(response.ok for response in responses)
        return telemetry.registry.get("pesos_sgx_transitions_total").series()

    # The backlog crosses the bound while the batch is in flight.
    assert transitions(EFFECTS_BACKLOG - 20) == transitions(0)


# -- one effect per frame (PR 22) --------------------------------------------


def _rf3(telemetry=None, **config):
    from repro.core.controller import ControllerConfig
    from tests.core.conftest import make_clients

    clients, _cluster = make_clients()
    controller = boot(
        clients,
        storage_key=b"k" * 32,
        config=ControllerConfig(replication_factor=3, **config),
        telemetry=telemetry,
    )
    return controller, clients


def _frames(events):
    return [event for event in events if event[0].startswith("disk_")]


def test_an_update_records_one_effect_per_replica_frame():
    from repro.core.store import VERSION_METADATA_WINDOW
    from tests.core.conftest import ALICE

    controller, _clients = _rf3(keep_history=True)
    assert controller.put(ALICE, "k", b"v0").ok
    controller.effects.drain()
    assert controller.put(ALICE, "k", b"v1").ok
    writes = _frames(controller.effects.drain())
    # Three frames on the wire (six records), three entries: the value
    # and the m/ record ride together, replicas in the order written.
    assert [event[0] for event in writes] == ["disk_write"] * 3
    assert sorted(event[1] for event in writes) == [0, 1, 2]
    assert [event[3:] for event in writes] == [(2, 0), (2, 1), (2, 2)]
    assert len({event[2] for event in writes}) == 1

    for index in range(2, VERSION_METADATA_WINDOW + 1):
        controller.effects.drain()
        assert controller.put(ALICE, "k", b"v%d" % index).ok
    # The frame that pushes version 0 out of the window deletes its value.
    writes = _frames(controller.effects.drain())
    assert [event[3:] for event in writes] == [(3, 0), (3, 1), (3, 2)]


def test_drive_io_transitions_are_twice_the_frames_sent():
    """Through the wire surface at RF 3: whatever the request, the
    counter moves by a send/recv pair per frame the clients sent."""
    from repro.core.request import (
        Request, build_http_request, parse_http_response,
    )
    from repro.core.webserver import WebServer
    from repro.telemetry import Telemetry
    from tests.core.conftest import ALICE

    telemetry = Telemetry()
    controller, clients = _rf3(telemetry)
    server = WebServer(controller)
    counter = telemetry.registry.get("pesos_sgx_transitions_total")

    def step(request):
        sent = sum(client.requests_sent for client in clients)
        before = counter.labels("drive_io").value
        raw = server.handle_bytes(build_http_request(request), ALICE)
        assert parse_http_response(raw).status == 200
        frames = sum(client.requests_sent for client in clients) - sent
        assert counter.labels("drive_io").value - before == 2 * frames
        return frames

    # A first PUT reads nothing: the pinned tree holds no leaf for the
    # key (with freshness off it walked three "not found" replicas).
    assert step(Request(method="put", key="a", value=b"1")) == 3
    assert step(Request(method="put", key="b", value=b"2")) == 3
    # 12 transitions for these 3 frames at 87c2486 (6 disk_write effects).
    assert step(Request(method="put", key="a", value=b"3")) == 3
    controller.caches.invalidate_meta("a")
    controller.caches.invalidate_object("a@1")
    assert step(Request(method="get", key="a")) == 2
    # The boot's listing seeded the key directory: a scan sends nothing.
    assert step(Request(method="scan", key="a", scan_count=2)) == 0
    assert step(Request(method="delete", key="b")) == 3


def test_a_scan_page_is_a_range_visit(replicated_controller, cluster):
    """A page of the listing that seeds the scan's key directory (a
    restart's boot lists the fleet) is one range visit."""
    from repro.core.controller import ControllerConfig
    from repro.core.effects import EffectsRecorder
    from repro.kinetic.drive import KineticDrive
    from tests.core.conftest import ALICE

    controller = replicated_controller
    for key in ("a", "b", "c"):
        assert controller.put(ALICE, key, b"v").ok
    effects = EffectsRecorder()
    boot(
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        controller.freshness.platform,
        storage_key=b"k" * 32,
        config=ControllerConfig(replication_factor=3),
        effects=effects,
    )
    pages = [event for event in effects.drain() if event[0] == "disk_range"]
    # One GETKEYRANGE page per drive, its bytes the keys it listed
    # (a disk_read, never priced as a range, at 87c2486).
    assert sorted(event[1] for event in pages) == [0, 1, 2]
    assert all(event[2] == 3 * len(b"m/a") for event in pages)
