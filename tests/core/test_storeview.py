"""A stored record is its own policy view.

A check sees an object's metadata record as the keys region holds it:
``current_version`` and the version rows come from the record with no
drive I/O, and what a version says is loaded through the GET's value
path (the object region, else a hash-anchored read, then cached), once
per check and parsed once per resident bytes object.
"""

import hashlib

import pytest

from repro.core.store import StoredMeta, VersionMeta
from repro.policy.context import RequestInputs
from tests.core.conftest import ALICE, make_clients
from tests.enclave import boot

CONTENT = b"'fact'(42)"


@pytest.fixture()
def controller():
    controller = boot(make_clients(1)[0], storage_key=b"k" * 32)
    assert controller.put(ALICE, "obj", CONTENT).ok
    return controller


def _context(controller, this="obj"):
    """The context the controller builds for a read of ``this``."""
    meta = controller._get_meta(this)
    inputs = RequestInputs(
        ALICE, this, this + ".log", None, [], "", 0.0, {this: meta},
        controller._view,
    )
    return controller._context("read", inputs)


def _drive_gets(controller) -> int:
    return controller.store.clients[0].drive.stats.gets


def test_metadata_served_without_content_reads(controller):
    ctx = _context(controller)
    gets = _drive_gets(controller)
    view = ctx.view("obj")
    assert view is controller.caches.keys.peek("obj")  # the record itself
    info = ctx.version_info("obj", view, 0)
    assert info == VersionMeta(
        0, len(CONTENT), hashlib.sha256(CONTENT).hexdigest(), ""
    )
    assert _drive_gets(controller) == gets


def test_another_object_is_resolved_once_per_check(controller):
    assert controller.put(ALICE, "other", b"x").ok
    ctx = _context(controller)
    hits = controller.caches.keys.stats.hits
    assert ctx.view("other") is controller.caches.keys.peek("other")
    assert ctx.view("other") is ctx.view("other")
    assert controller.caches.keys.stats.hits == hits + 1
    assert ctx.view("absent") is None


def test_tuples_load_lazily_on_first_access(controller):
    controller.caches.objects.clear()
    ctx = _context(controller)
    info = ctx.version_info("obj", ctx.view("obj"), 0)
    gets = _drive_gets(controller)
    facts = ctx.facts("obj", info)
    assert facts.ordered[0].name == "fact"
    assert _drive_gets(controller) == gets + 1
    lookups = controller.caches.objects.stats.hits
    assert ctx.facts("obj", info) is facts  # this check's memo
    assert controller.caches.objects.stats.hits == lookups
    assert _drive_gets(controller) == gets + 1


def test_content_loads_through_object_cache(controller):
    controller.caches.objects.clear()
    ctx = _context(controller)
    facts = ctx.facts("obj", ctx.view("obj").versions[0])
    # §4.2: objects accessed during policy evaluation get cached.
    assert controller.caches.get_object("obj@0") == CONTENT
    # A second check never hits the drive, nor parses again.
    gets = _drive_gets(controller)
    again = _context(controller)
    assert again.facts("obj", again.view("obj").versions[0]) is facts
    assert _drive_gets(controller) == gets


def test_unknown_version_is_none(controller):
    ctx = _context(controller)
    assert ctx.version_info("obj", ctx.view("obj"), 99) is None


def test_current_version_tracks_meta(controller):
    ctx = _context(controller)
    assert ctx.view("obj").current_version == 0
    assert controller.put(ALICE, "obj", b"'fact'(43)").ok
    assert _context(controller).view("obj").current_version == 1
    assert ctx.view("obj").current_version == 0  # the record it resolved


def test_a_write_installs_a_new_record_and_leaves_the_old_one(controller):
    held = controller._get_meta("obj")
    assert controller.put(ALICE, "obj", b"'fact'(43)").ok
    current = controller._get_meta("obj")
    assert current is not held
    assert (held.current_version, sorted(held.versions)) == (0, [0])
    assert (current.current_version, sorted(current.versions)) == (1, [0, 1])
    assert current == controller.store.read_meta("obj")


def test_assigning_to_a_record_field_raises(controller):
    meta = controller._get_meta("obj")
    with pytest.raises(AttributeError):
        meta.current_version = 5
    with pytest.raises(AttributeError):
        meta.policy_id = "ab" * 32
    with pytest.raises(AttributeError):
        meta.versions[0].size = 1
    with pytest.raises(TypeError):
        meta.versions[1] = meta.versions[0]
    with pytest.raises(AttributeError):
        StoredMeta(key="fresh").versions.pop(0)
