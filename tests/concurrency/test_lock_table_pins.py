"""Byte pins over the lock table's observable behaviour.

Captured at d387684, when request locks (``core/locks.py``) and VLL
transaction locks (``core/txn.py``) were two tables wired by callbacks,
and required to hold unchanged over the one table that replaced them:
every grant and refusal happens at the same call, so a same-seed engine
run keeps its sanitizer event stream (which thread took or dropped
which lock, in what order, around which drive access) and its
``trace_bytes()`` (completion log + dispatch log) byte for byte.

The batch is fixed and mixes everything that touches a key lock:
shared and exclusive request holds contending on the same keys, a
read-modify-write, a two-key transaction committed right after a put
to one of its keys (so on most schedules it queues behind that request
hold and is drained by its release), a second transaction on the same
keys queued behind the first, and a client abort of that second one.

Seven trace digests were re-captured once, in PR 22, for one reason: on
seeds 3, 4 and 8 (both widths) and seed 7 (one thread) the abort lands
while the second transaction's executor is suspended at drive I/O.  It
used to read as ``open`` there, so ``abort_tx`` answered 200, counted an
abort and the transaction committed anyway; it is ``running`` now and
the abort answers 409.  One status in the completion log is all that
moved: the sanitizer streams and spin counts of those seeds, and every
byte of the other nine, are still d387684's.

Seven were re-captured a second time when freshness shipped on (seeds
4, 6 and 7 on one thread, 3, 4, 6 and 8 on eight).  On those
schedules ``delete r-2`` runs before ``get r-2``, so the get asks for a
key that no longer exists.  The pinned tree answers that without a
drive read; with freshness off the get read ``m/r-2`` and was suspended
there.  So that request no longer yields at drive I/O, and where its
release falls among the other threads moves.  The
lock grants and refusals themselves did not move: every spin count is
unchanged, and so is every byte of the other nine pins.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.sanitizer import ShadowState
from repro.core.engine import ConcurrentEngine
from repro.core.request import Request

from tests.concurrency.harness import T_KEYS, build_small_system

SEEDS = range(1, 9)

#: (hardware_threads, seed) -> (sha256 of repr(ShadowState.events),
#: sha256 of engine.trace_bytes(), lock_spins); digests truncated to 16
#: hex digits.
PINS = {
    (1, 1): ("587215de9e3f736e", "5cceca2f99edc1af", 3),
    (1, 2): ("5578ba6b424de35c", "bee5a7415ac69c26", 3),
    (1, 3): ("23e38e613d66f5b5", "b9b0e5ff6a1b9ce5", 6),
    (1, 4): ("075393c593721c40", "fb2eb5369461e277", 7),
    (1, 5): ("84651a2599ff5f7f", "ed0af4d46efe419a", 11),
    (1, 6): ("d1bdaab2ec8e227f", "073cabc7ba148cb1", 7),
    (1, 7): ("783b2c6b7a6cd2ec", "2a14cd1be2780a48", 8),
    (1, 8): ("1039b2d98e05650a", "fc81c54fea688f1c", 6),
    (8, 1): ("a2b5bc1bc84ec8b0", "6ba4c2ee7d19c39f", 57),
    (8, 2): ("1a4b9261b7a75628", "c0692b853d7921db", 51),
    (8, 3): ("17f8f10a8d67e799", "d716f04d4cabbd6d", 114),
    (8, 4): ("113250dd488142ea", "11740727773a1276", 121),
    (8, 5): ("1def4220670dc895", "93c9c8f2554ff36e", 81),
    (8, 6): ("3b18eb0ee67e66a7", "e60a99f99bb471f7", 66),
    (8, 7): ("edae8fae7a4fee88", "d4bd276e4971795f", 89),
    (8, 8): ("f2ef95195040573b", "c1d1a2cb9295bb35", 106),
}


def run_fixed_batch(seed: int, hardware_threads: int):
    controller = build_small_system(seed)
    txns = controller.txns
    first = txns.create("fp")
    second = txns.create("fp")
    for key in T_KEYS:
        first.add_read(key)
        first.add_write(key, b"first")
        second.add_write(key, b"second")
    requests = [
        Request(method="put", key="r-0", value=b"a"),
        Request(method="get", key="r-0"),
        Request(method="rmw", key="r-1", value=b"b"),
        Request(method="get", key="r-1"),
        Request(method="put", key=T_KEYS[0], value=b"held"),
        Request(method="commit_tx", txid=first.txid),
        Request(method="commit_tx", txid=second.txid),
        Request(method="abort_tx", txid=second.txid),
        Request(method="get", key=T_KEYS[1]),
        Request(method="put", key="r-0", value=b"c"),
        Request(method="rmw", key="r-0", value=b"d"),
        Request(method="get", key="r-0"),
        Request(method="get", key="r-2"),
        Request(method="put", key=T_KEYS[1], value=b"late"),
        Request(method="get", key=T_KEYS[0]),
        Request(method="delete", key="r-2"),
    ]
    shadow = ShadowState()
    with ConcurrentEngine(
        controller,
        seed=seed,
        hardware_threads=hardware_threads,
        sanitizer=shadow,
    ) as engine:
        responses = engine.run_batch(requests, "fp")
        trace = engine.trace_bytes()
        spins = engine.stats.lock_spins
    return controller, (first, second), responses, shadow.events, trace, spins


def fingerprint(events, trace, spins) -> tuple[str, str, int]:
    return (
        hashlib.sha256(repr(events).encode()).hexdigest()[:16],
        hashlib.sha256(trace).hexdigest()[:16],
        spins,
    )


@pytest.mark.parametrize("hardware_threads", [1, 8])
@pytest.mark.parametrize("seed", SEEDS)
def test_sanitizer_stream_and_trace_are_the_parents(seed, hardware_threads):
    _, _, _, events, trace, spins = run_fixed_batch(seed, hardware_threads)
    assert fingerprint(events, trace, spins) == PINS[hardware_threads, seed]


def test_the_batch_reaches_every_lock_interaction():
    """The pins are only worth their bytes if the schedules they fix
    actually queue a transaction behind a request hold, drain it from a
    release, and abort a queued one."""
    drained = aborted_queued = spun = 0
    for hardware_threads in (1, 8):
        for seed in SEEDS:
            controller, (_, second), responses, _, _, spins = (
                run_fixed_batch(seed, hardware_threads)
            )
            assert all(r.status < 500 for r in responses)
            assert controller.txns.queue_length == 0
            assert controller.txns.locked_keys() == set()
            drained += controller.txns.executed_from_queue > 0
            spun += spins > 0
            # commit_tx answered 200 (queued) and abort_tx answered 200
            # with the transaction ending aborted: it was QUEUED then.
            aborted_queued += (
                responses[6].status == 200
                and responses[7].status == 200
                and second.state == "aborted"
            )
    assert drained and aborted_queued and spun


@pytest.mark.parametrize("hardware_threads", [1, 8])
def test_a_running_transaction_refuses_abort(hardware_threads):
    """An abort that lands mid-run is refused, not acknowledged and
    ignored: no transaction ends both committed and aborted, and none is
    finished twice."""
    refused = 0
    for seed in range(40):
        controller, txs, responses, _, _, _ = run_fixed_batch(
            seed, hardware_threads
        )
        txns = controller.txns
        finished = list(txns._finished)
        assert sorted(finished) == sorted(set(finished)), (seed, finished)
        assert txns.aborted == sum(tx.state == "aborted" for tx in txs), seed
        second = txs[1]
        assert (responses[7].status == 200) == (second.state == "aborted")
        refused += "running" in responses[7].error
    assert refused
