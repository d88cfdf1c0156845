"""StoreBackedView: lazy content loading for policy evaluation."""

import hashlib

import pytest

from repro.core.cache import CacheManager
from repro.core.store import ObjectStore, StoreBackedView, StoredMeta
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

POLICY_HASH = hashlib.sha256(b"a compiled policy").hexdigest()


@pytest.fixture()
def store():
    cluster = DriveCluster(num_drives=1)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return ObjectStore(clients, b"s" * 32)


def _view(store, content=b"'fact'(42)", cache=None):
    meta = StoredMeta(key="obj")
    store.store_version(meta, content, policy_hash=POLICY_HASH)
    return StoreBackedView(meta, store, cache or CacheManager()), meta


def test_metadata_served_without_content_reads(store):
    view, _meta = _view(store)
    drive_gets_before = store.clients[0].drive.stats.gets
    info = view.info(0)
    assert info.size == len(b"'fact'(42)")
    assert info.policy_hash == POLICY_HASH
    assert info.content_hash  # from metadata, no disk read
    assert store.clients[0].drive.stats.gets == drive_gets_before


def test_tuples_load_lazily_on_first_access(store):
    view, _meta = _view(store)
    info = view.info(0)
    drive_gets_before = store.clients[0].drive.stats.gets
    tuples = info.facts.ordered
    assert tuples[0].name == "fact"
    assert store.clients[0].drive.stats.gets == drive_gets_before + 1
    # Second access reuses the parsed result.
    _ = info.facts
    assert store.clients[0].drive.stats.gets == drive_gets_before + 1


def test_content_loads_through_object_cache(store):
    caches = CacheManager()
    view, _meta = _view(store, cache=caches)
    _ = view.info(0).facts
    # §4.2: objects accessed during policy evaluation get cached.
    assert caches.get_object("obj@0") is not None
    # A second view never hits the drive.
    view2 = StoreBackedView(_meta, store, caches)
    drive_gets_before = store.clients[0].drive.stats.gets
    assert view2.info(0).facts.ordered[0].name == "fact"
    assert store.clients[0].drive.stats.gets == drive_gets_before


def test_unknown_version_is_none(store):
    view, _meta = _view(store)
    assert view.info(99) is None


def test_current_version_tracks_meta(store):
    view, meta = _view(store)
    assert view.current_version == meta.current_version == 0
