"""Effects recorder semantics."""

from repro.core.effects import DISK_READ, EffectsRecorder, NullRecorder


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
