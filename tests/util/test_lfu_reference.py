"""Differential test: the shipped LFU cache against the frozen reference.

``repro.util.lfu`` was rewritten for speed (one probe per hit, a bucket
that advances in place, slotted buckets); eviction
order, frequencies and stats must not move.  After every operation both
caches must hold the same bucket chain — each bucket's frequency and its
keys in order — and agree on every frequency, the stats and the total
weight.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.lfu import LFUCache
from tests.util.reference_lfu import LFUCache as ReferenceLFUCache

AGE_INTERVALS = (0, 1, 3, 7, 4096)


def _chain(cache) -> list:
    chain = []
    bucket = cache._head
    while bucket:
        chain.append((bucket.freq, list(bucket.keys)))
        bucket = bucket.next
    return chain


def _assert_same(cache, reference, universe) -> None:
    assert _chain(cache) == _chain(reference)
    assert list(cache._values) == list(reference._values)
    assert {k: cache.frequency(k) for k in universe} == {
        k: reference.frequency(k) for k in universe
    }
    assert vars(cache.stats) == vars(reference.stats)
    assert cache.total_weight == reference.total_weight
    assert len(cache) == len(reference)


def _pair(max_entries, max_bytes, weighed, age_interval):
    kwargs = dict(
        max_entries=max_entries,
        max_bytes=max_bytes,
        weigher=len if weighed or max_bytes is not None else None,
        age_interval=age_interval,
    )
    return LFUCache(**kwargs), ReferenceLFUCache(**kwargs)


def _apply(cache, op, key, size):
    if op == "get":
        return cache.get(key, "absent")
    if op == "put":
        return cache.put(key, bytes(size))
    if op == "remove":
        return cache.remove(key)
    if op == "peek":
        return cache.peek(key, "absent")
    return cache.clear()


def _run(cache, reference, ops, universe) -> None:
    for op, key, size in ops:
        assert _apply(cache, op, key, size) == _apply(
            reference, op, key, size
        )
        _assert_same(cache, reference, universe)


_KEYS = [f"k{i}" for i in range(10)]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["get"] * 8 + ["put"] * 6 + ["remove", "peek", "clear"]
        ),
        st.sampled_from(_KEYS),
        st.integers(0, 24),
    ),
    max_size=300,
)
_BOUNDS = st.one_of(
    st.tuples(st.integers(1, 6), st.none()),  # entry cap only
    st.tuples(st.none(), st.integers(1, 20)),  # bytes, oversize values
    st.tuples(st.integers(1, 6), st.integers(1, 40)),  # both
)


@settings(max_examples=200, deadline=None)
@given(_BOUNDS, st.booleans(), st.sampled_from(AGE_INTERVALS), _OPS)
def test_random_sequences_match_the_reference(bounds, weighed, age, ops):
    cache, reference = _pair(*bounds, weighed, age)
    _run(cache, reference, ops, _KEYS)


def test_seeded_zipfian_traces_match_the_reference():
    """Long skewed traces: deep frequency chains, in-place advances,
    every aging interval — including 4096, which a trace must outlast."""
    keys = [f"obj{i:03d}" for i in range(60)]
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]
    for seed in range(10):
        rng = random.Random(seed)
        age = AGE_INTERVALS[seed % len(AGE_INTERVALS)]
        length = 9000 if age == 4096 else 2000
        bounds = ((None, 400), (24, None), (30, 600))[seed % 3]
        cache, reference = _pair(*bounds, True, age)
        ops = [
            (
                rng.choices(("get", "put", "remove"), (70, 28, 2))[0],
                rng.choices(keys, weights)[0],
                rng.randrange(1, 40),
            )
            for _ in range(length)
        ]
        _run(cache, reference, ops, keys)
        assert cache.stats.hits > 0 and cache.stats.evictions > 0
