"""LFU cache semantics: frequency ordering, budgets, aging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.lfu import LFUCache


def test_requires_some_bound():
    with pytest.raises(ValueError):
        LFUCache()


def test_byte_budget_requires_weigher():
    with pytest.raises(ValueError):
        LFUCache(max_bytes=100)


def test_basic_put_get():
    cache = LFUCache(max_entries=4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", default=-1) == -1


def test_replace_updates_value():
    cache = LFUCache(max_entries=4)
    cache.put("a", 1)
    cache.put("a", 2)
    assert cache.get("a") == 2
    assert len(cache) == 1


def test_evicts_least_frequent():
    cache = LFUCache(max_entries=2)
    cache.put("hot", 1)
    cache.put("cold", 2)
    cache.get("hot")
    cache.get("hot")
    cache.put("new", 3)  # evicts "cold" (freq 1) not "hot" (freq 3)
    assert "hot" in cache
    assert "cold" not in cache
    assert "new" in cache


def test_fifo_tiebreak_within_frequency():
    cache = LFUCache(max_entries=2)
    cache.put("first", 1)
    cache.put("second", 2)
    cache.put("third", 3)  # both at freq 1 -> evict oldest ("first")
    assert "first" not in cache
    assert "second" in cache


def test_remove():
    cache = LFUCache(max_entries=2)
    cache.put("a", 1)
    assert cache.remove("a") == 1
    assert cache.remove("a") is None
    assert len(cache) == 0


def test_clear_preserves_stats():
    cache = LFUCache(max_entries=2)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1


def test_stats_hit_rate():
    cache = LFUCache(max_entries=2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_peek_does_not_bump_frequency():
    cache = LFUCache(max_entries=2)
    cache.put("a", 1)
    cache.peek("a")
    assert cache.frequency("a") == 1
    cache.get("a")
    assert cache.frequency("a") == 2


def test_byte_budget_eviction():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("a", b"xxxx")  # 4 bytes
    cache.put("b", b"xxxx")  # 8 bytes total
    cache.put("c", b"xxxx")  # 12 -> evict to fit
    assert cache.total_weight <= 10
    assert "c" in cache


def test_oversized_entry_not_cached():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("big", b"x" * 100)
    assert "big" not in cache
    assert len(cache) == 0


def test_oversized_replacing_existing_removes_it():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("k", b"xx")
    cache.put("k", b"x" * 100)
    assert "k" not in cache


def test_weight_tracked_on_replace():
    cache = LFUCache(max_bytes=100, weigher=len)
    cache.put("k", b"x" * 10)
    cache.put("k", b"x" * 5)
    assert cache.total_weight == 5


def test_aging_halves_frequencies():
    cache = LFUCache(max_entries=10, age_interval=5)
    cache.put("a", 1)
    for _ in range(4):
        cache.get("a")  # freq climbs to 5
    assert cache.frequency("a") == 5
    cache.put("b", 1)
    cache.get("b")  # 5th access since last age -> aging triggers
    assert cache.frequency("a") <= 3


def test_eviction_counter():
    cache = LFUCache(max_entries=1)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.stats.evictions == 1


def test_iteration_lists_keys():
    cache = LFUCache(max_entries=3)
    for key in ("a", "b", "c"):
        cache.put(key, key.upper())
    assert sorted(cache) == ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 100)),
        max_size=200,
    )
)
def test_never_exceeds_entry_budget(ops):
    cache = LFUCache(max_entries=3)
    for key, value in ops:
        cache.put(key, value)
        assert len(cache) <= 3


@given(
    st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.binary(max_size=8)),
        max_size=200,
    )
)
def test_never_exceeds_byte_budget(ops):
    cache = LFUCache(max_bytes=16, weigher=len)
    for key, value in ops:
        cache.put(key, value)
        assert cache.total_weight <= 16
        assert cache.total_weight == sum(
            len(cache.peek(k)) for k in cache
        )


# -- oversized entries (byte-budget edge cases) -----------------------------

def test_oversized_insert_rejected_and_counted():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("big", b"x" * 11)
    assert "big" not in cache
    assert cache.total_weight == 0
    assert cache.stats.rejected_oversize == 1
    assert cache.stats.inserts == 0
    assert cache.stats.evictions == 0


def test_oversized_replace_drops_stale_entry_without_corrupting_weight():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("k", b"x" * 4)
    cache.put("other", b"y" * 3)
    cache.put("k", b"x" * 11)  # replacement outweighs the whole budget
    # The stale 4-byte value must not survive (it no longer reflects
    # the caller's write), and the accounting must not leak its weight.
    assert "k" not in cache
    assert cache.peek("other") == b"y" * 3
    assert cache.total_weight == 3
    assert cache.stats.rejected_oversize == 1
    assert cache.stats.evictions == 1


def test_exempt_key_evictable_only_when_alone():
    cache = LFUCache(max_bytes=8, weigher=len)
    cache.put("solo", b"x" * 5)
    cache.put("solo", b"x" * 8)  # fits exactly; nothing else to evict
    assert cache.peek("solo") == b"x" * 8
    assert cache.total_weight == 8
    cache.put("other", b"y" * 4)  # over budget: the exempt key stays
    assert "other" in cache
    assert "solo" not in cache or cache.total_weight <= 8


def test_replace_with_heavier_value_evicts_others_not_self():
    cache = LFUCache(max_bytes=10, weigher=len)
    cache.put("a", b"x" * 3)
    cache.put("b", b"y" * 3)
    cache.put("a", b"x" * 9)  # fits the budget, but forces b out
    assert cache.peek("a") == b"x" * 9
    assert "b" not in cache
    assert cache.total_weight == 9


def test_clear_resets_aging_counter():
    cache = LFUCache(max_entries=10, age_interval=4)
    cache.put("a", 1)
    for _ in range(3):
        cache.get("a")  # 3 accesses into the 4-access aging epoch
    cache.clear()
    cache.put("b", 1)
    cache.get("b")  # must NOT trigger aging (fresh epoch)
    assert cache.frequency("b") == 2
    cache.get("b")
    cache.get("b")
    assert cache.frequency("b") == 4
    cache.get("b")  # 4th access since clear: aging fires now
    assert cache.frequency("b") == 2


# -- aging internals under seeded access traces -----------------------------

def _check_structure(cache):
    """Bucket chain and index agree after any operation sequence."""
    seen = {}
    bucket = cache._head
    prev = None
    last_freq = 0
    while bucket:
        assert bucket.keys, "empty bucket left linked"
        assert bucket.prev is prev
        assert bucket.freq > last_freq, "chain not strictly increasing"
        for key in bucket.keys:
            seen[key] = bucket
        last_freq = bucket.freq
        prev = bucket
        bucket = bucket.next
    assert seen.keys() == cache._values.keys()
    assert cache._key_bucket == seen


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
)
def test_maybe_age_preserves_structure_and_fifo(trace_seed, interval):
    import random as _random

    rng = _random.Random(trace_seed)
    cache = LFUCache(max_entries=6, age_interval=interval)
    keys = "abcdefgh"
    inserted = []
    for _step in range(60):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            if key not in cache:
                inserted.append(key)
            cache.put(key, key)
        else:
            cache.get(key)
        _check_structure(cache)
    # Aging halves frequencies but must never invent new ones: every
    # surviving frequency is >= 1 and the victim scan still terminates.
    for key in cache:
        assert cache.frequency(key) >= 1


@given(st.integers(0, 2**32 - 1))
def test_aging_merge_preserves_bucket_fifo(trace_seed):
    import random as _random

    rng = _random.Random(trace_seed)
    # age_interval=1: every touch triggers an aging pass, so merged
    # buckets form constantly.  Insertion order within a bucket is the
    # eviction order; a merge that reversed it would change victims.
    cache = LFUCache(max_entries=4, age_interval=1)
    for step in range(40):
        key = f"k{rng.randrange(6)}"
        cache.put(key, step)
        _check_structure(cache)
        bucket = cache._head
        while bucket:
            assert list(bucket.keys) == [
                k for k in cache._key_bucket if cache._key_bucket[k] is bucket
            ]
            bucket = bucket.next


def test_aging_frees_the_old_chain_without_the_cycle_collector():
    """An aging pass rebuilds the bucket chain; the buckets it replaces
    were left linked ``prev <-> next``, so only a gen-2 collection freed
    them (each with its emptied, unshrunk ``OrderedDict``).  With the
    collector off, nothing aged may be left for it — and the
    frequencies are still those of the plain count-and-halve model."""
    import gc

    from repro.util.lfu import _Bucket

    interval = 512
    model = {f"k{i:02d}": 1 for i in range(64)}
    touches = 0
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cache = LFUCache(max_entries=64, age_interval=interval)
        for key in model:
            cache.put(key, key)
        for step in range(4000):  # 15 aging passes over a long chain
            for key in (f"k{(step * step) % 64:02d}", f"k{step % 7:02d}"):
                assert cache.get(key) == key
                model[key] += 1
                touches += 1
                if touches % interval == 0:
                    model = {k: max(1, f // 2) for k, f in model.items()}
        live = {id(bucket) for bucket in cache._key_bucket.values()}
        assert [
            obj for obj in gc.get_objects()
            if isinstance(obj, _Bucket) and id(obj) not in live
        ] == []
    finally:
        if was_enabled:
            gc.enable()
    _check_structure(cache)
    assert {key: cache.frequency(key) for key in cache} == model
    assert (cache.stats.hits, cache.stats.evictions) == (8000, 0)


def test_clear_frees_the_chain_without_the_cycle_collector():
    """``clear()`` dropped its bucket chain still linked ``prev <->
    next`` — the leak shape the aging pass had.  With the collector off
    no bucket may outlive the clear, and the cache works afterwards."""
    import gc

    from repro.util.lfu import _Bucket

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        others = {
            id(obj) for obj in gc.get_objects() if isinstance(obj, _Bucket)
        }
        cache = LFUCache(max_entries=16)
        for index in range(16):
            cache.put(index, index)
            for _ in range(index):  # 16 distinct frequencies: a long chain
                cache.get(index)
        cache.clear()
        assert [
            obj for obj in gc.get_objects()
            if isinstance(obj, _Bucket) and id(obj) not in others
        ] == []
    finally:
        if was_enabled:
            gc.enable()
    cache.put("a", 1)
    assert cache.get("a") == 1 and len(cache) == 1
    _check_structure(cache)
