"""The compiled fast path: closures, folding, batching, decision cache."""

import pytest

from repro.policy.compiled import (
    DecisionCache,
    PolicyEngine,
    compile_closures,
    compiled_form,
)
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext
from repro.policy.difftest import (
    corpus_contexts,
    load_corpus,
    run_differential,
)
from repro.policy.interpreter import Decision, PolicyInterpreter

INTERP = PolicyInterpreter()

ALICE = "a1" * 32
BOB = "b2" * 32


# ---------------------------------------------------------------------------
# Differential: corpus + seeded contexts, interpreter vs closures
# ---------------------------------------------------------------------------

def test_differential_corpus_replay():
    report = run_differential(seed=3, per_operation=12)
    assert report.cases > 0
    assert report.grants > 0 and report.denials > 0
    assert report.trace_sha_interpreter == report.trace_sha_compiled


def test_differential_trace_sha_is_pinned():
    """Recorded before content tuples became lazy: same decisions since."""
    report = run_differential(seed=7, per_operation=6)
    assert report.cases == 84
    assert report.trace_sha_interpreter == (
        "ea31f0ec126bd4ffa8b9302aafef2009415f0f53b51e57720ecd503add1f11bf"
    )


def test_differential_is_deterministic_in_the_seed():
    first = run_differential(seed=7, per_operation=6)
    second = run_differential(seed=7, per_operation=6)
    assert first.trace_sha_interpreter == second.trace_sha_interpreter
    assert first.compiled_calls == second.compiled_calls


# ---------------------------------------------------------------------------
# Partial evaluation: folding, stripping, duplicate memoization
# ---------------------------------------------------------------------------

def test_constant_true_conjuncts_fold():
    policy = compile_policy(
        f"read :- eq(1, 1) /\\ ge(3, 2) /\\ sessionKeyIs(k'{ALICE}')"
    )
    fast = compile_closures(policy)
    assert fast.delegate is None
    assert fast.folded_conjuncts >= 2
    for probe, expected in ((ALICE, True), (BOB, False)):
        ctx = EvalContext(operation="read", session_key=probe)
        interpreted = INTERP.evaluate(policy, "read", ctx)
        compiled = fast.evaluate("read", ctx)
        assert compiled.granted is expected
        assert compiled.granted == interpreted.granted
        # Folding must not change the audit trail: the constant
        # conjuncts still count as evaluated predicates.
        assert (
            compiled.predicates_evaluated
            == interpreted.predicates_evaluated
        )
        assert compiled.clause_path == interpreted.clause_path


def test_constant_false_clause_strips_its_tail():
    policy = compile_policy(
        f"read :- eq(1, 2) /\\ sessionKeyIs(K) \\/ sessionKeyIs(k'{ALICE}')"
    )
    fast = compile_closures(policy)
    assert fast.stripped_clauses >= 1
    for probe in (ALICE, BOB):
        ctx = EvalContext(operation="read", session_key=probe)
        interpreted = INTERP.evaluate(policy, "read", ctx)
        compiled = fast.evaluate("read", ctx)
        assert compiled.granted == interpreted.granted
        assert (
            compiled.predicates_evaluated
            == interpreted.predicates_evaluated
        )


def test_duplicate_clauses_replay_the_first_outcome():
    source = (
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{ALICE}')"
    )
    policy = compile_policy(source)
    fast = compile_closures(policy)
    assert fast.memoized_duplicates >= 1
    ctx = EvalContext(operation="read", session_key=BOB)
    interpreted = INTERP.evaluate(policy, "read", ctx)
    compiled = fast.evaluate("read", ctx)
    # Denial walks both (identical) disjuncts; the replayed clause
    # must contribute the same predicate count the interpreter saw.
    assert interpreted.predicates_evaluated == 2
    assert compiled.predicates_evaluated == 2
    assert not compiled.granted


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------

def test_evaluate_batch_matches_per_context_evaluation():
    for name, policy in load_corpus():
        fast = compile_closures(policy)
        cases = corpus_contexts(policy, seed=11, per_operation=5)
        by_operation = {}
        for operation, ctx in cases:
            by_operation.setdefault(operation, []).append(ctx)
        for operation, contexts in by_operation.items():
            batch = fast.evaluate_batch(operation, contexts)
            assert len(batch) == len(contexts)
            for position, ctx in enumerate(contexts):
                single = INTERP.evaluate(policy, operation, ctx)
                assert batch[position].granted == single.granted, name
                assert (
                    batch[position].clause_path == single.clause_path
                ), name


# ---------------------------------------------------------------------------
# DecisionCache
# ---------------------------------------------------------------------------

def _decision(granted: bool = True) -> Decision:
    return Decision(granted=granted, operation="read", matched_clause=0)


def test_cache_round_trip_and_copy_isolation():
    cache = DecisionCache(max_entries=8)
    cache.put("p1", "read", "shape", epoch=0, decision=_decision())
    out = cache.get("p1", "read", "shape", now=1.0)
    assert out is not None and out.granted
    # Mutating the returned Decision must not poison the cache.
    out.granted = False
    again = cache.get("p1", "read", "shape", now=1.0)
    assert again.granted
    assert cache.stats.hits == 2 and cache.stats.misses == 0


def test_epoch_advance_makes_old_entries_unreachable():
    cache = DecisionCache()
    cache.put("p1", "read", "shape", epoch=0, decision=_decision())
    cache.advance_epoch()
    assert cache.get("p1", "read", "shape", now=0.0) is None
    assert len(cache) == 0
    assert cache.stats.epoch_advances == 1


def test_put_refuses_stale_epoch_writes():
    cache = DecisionCache()
    epoch_before = cache.epoch
    cache.advance_epoch()
    cache.put(
        "p1", "read", "shape", epoch=epoch_before, decision=_decision()
    )
    assert len(cache) == 0
    assert cache.get("p1", "read", "shape", now=0.0) is None


def test_invalidate_policy_is_selective():
    cache = DecisionCache()
    cache.put("p1", "read", "s", epoch=0, decision=_decision())
    cache.put("p2", "read", "s", epoch=0, decision=_decision())
    assert cache.invalidate_policy("p1") == 1
    assert cache.get("p1", "read", "s", now=0.0) is None
    assert cache.get("p2", "read", "s", now=0.0) is not None


def test_time_bounded_entries_expire():
    cache = DecisionCache()
    cache.put(
        "p1", "read", "s", epoch=0, decision=_decision(), valid_until=100.0
    )
    assert cache.get("p1", "read", "s", now=99.9) is not None
    assert cache.get("p1", "read", "s", now=100.0) is None
    assert cache.stats.expired == 1
    # The expired entry was dropped, not just masked.
    assert len(cache) == 0


def test_lru_bound_evicts_oldest():
    cache = DecisionCache(max_entries=2)
    cache.put("p", "read", "a", epoch=0, decision=_decision())
    cache.put("p", "read", "b", epoch=0, decision=_decision())
    assert cache.get("p", "read", "a", now=0.0) is not None  # refresh a
    cache.put("p", "read", "c", epoch=0, decision=_decision())
    assert len(cache) == 2
    assert cache.get("p", "read", "b", now=0.0) is None
    assert cache.get("p", "read", "a", now=0.0) is not None


def test_contains_probe_leaves_stats_and_order_alone():
    cache = DecisionCache()
    cache.put("p", "read", "a", epoch=0, decision=_decision())
    assert cache.contains("p", "read", "a", now=0.0)
    assert not cache.contains("p", "read", "missing", now=0.0)
    assert cache.stats.hits == 0 and cache.stats.misses == 0


# ---------------------------------------------------------------------------
# PolicyEngine
# ---------------------------------------------------------------------------

def test_engine_caches_repeat_shapes():
    policy = compile_policy(f"read :- sessionKeyIs(k'{ALICE}')")
    engine = PolicyEngine()
    ctx = EvalContext(operation="read", session_key=ALICE)
    for _ in range(5):
        assert engine.evaluate(policy, "read", ctx).granted
    assert engine.decisions.stats.misses == 1
    assert engine.decisions.stats.hits == 4


def test_engine_never_caches_object_reading_policies():
    policy = compile_policy(
        "read :- objId(this, O) /\\ currVersion(O, V)"
    )
    assert not compiled_form(policy).cacheable
    engine = PolicyEngine()
    ctx = EvalContext(operation="read", session_key=ALICE)
    for _ in range(3):
        engine.evaluate(policy, "read", ctx)
    assert len(engine.decisions) == 0


def test_engine_decisions_match_interpreter_cached_or_not():
    policy = compile_policy(f"read :- sessionKeyIs(k'{ALICE}')")
    engine = PolicyEngine()
    ctx = EvalContext(operation="read", session_key=ALICE)
    cold = engine.evaluate(policy, "read", ctx)
    warm = engine.evaluate(policy, "read", ctx)
    reference = INTERP.evaluate(policy, "read", ctx)
    for decision in (cold, warm):
        assert decision.granted == reference.granted
        assert decision.clause_path == reference.clause_path
        assert (
            decision.predicates_evaluated
            == reference.predicates_evaluated
        )
        assert decision.bindings == reference.bindings


def test_engine_prewarm_seeds_the_cache():
    policy = compile_policy(
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{BOB}')"
    )
    engine = PolicyEngine()
    contexts = [
        EvalContext(operation="read", session_key=key)
        for key in (ALICE, BOB, ALICE)  # duplicate shape collapses
    ]
    warmed = engine.prewarm(policy, "read", contexts)
    assert warmed == 2
    assert engine.decisions.stats.misses == 0
    assert engine.evaluate(
        policy, "read", EvalContext(operation="read", session_key=ALICE)
    ).granted
    assert engine.decisions.stats.hits == 1
