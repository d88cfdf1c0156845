"""The shipped evaluator: closures, folding, decision cache — checked
against the reference interpreter."""

import os
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.policy.ast import PubKeyValue
from repro.policy.compiled import (
    Decision,
    DecisionCache,
    PolicyEngine,
    compile_closures,
    compiled_form,
)
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext
from tests.policy.difftest import assert_identical, run_differential
from tests.policy.reference_interpreter import PolicyInterpreter

INTERP = PolicyInterpreter()

ALICE = "a1" * 32
BOB = "b2" * 32


# ---------------------------------------------------------------------------
# Differential: corpus + seeded contexts, reference vs shipped
# ---------------------------------------------------------------------------

#: The CI ``policy`` job sweeps this (the CHAOS_SEED convention).
POLICY_SEED = int(os.environ.get("POLICY_SEED", "3"))


def test_differential_corpus_replay():
    report = run_differential(seed=POLICY_SEED, per_operation=12)
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
    assert first == second


# ---------------------------------------------------------------------------
# Partial evaluation: folding never changes a decision
# ---------------------------------------------------------------------------

def test_constant_true_conjuncts_fold():
    policy = compile_policy(
        f"read :- eq(1, 1) /\\ ge(3, 2) /\\ sessionKeyIs(k'{ALICE}')"
    )
    fast = compile_closures(policy)
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
    """A conjunct folded to false fails its clause where it stands."""
    policy = compile_policy(
        f"read :- eq(1, 2) /\\ sessionKeyIs(K) \\/ sessionKeyIs(k'{ALICE}')"
    )
    fast = compile_closures(policy)
    for probe in (ALICE, BOB):
        ctx = EvalContext(operation="read", session_key=probe)
        compiled = fast.evaluate("read", ctx)
        assert_identical(INTERP.evaluate(policy, "read", ctx), compiled)
        assert compiled.granted is (probe == ALICE)


def test_duplicate_clauses_replay_the_first_outcome():
    source = (
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{ALICE}')"
    )
    policy = compile_policy(source)
    fast = compile_closures(policy)
    ctx = EvalContext(operation="read", session_key=BOB)
    interpreted = INTERP.evaluate(policy, "read", ctx)
    compiled = fast.evaluate("read", ctx)
    # Denial walks both (identical) disjuncts.
    assert interpreted.predicates_evaluated == 2
    assert compiled.predicates_evaluated == 2
    assert not compiled.granted


# ---------------------------------------------------------------------------
# DecisionCache
# ---------------------------------------------------------------------------

def _decision(granted: bool = True, **fields) -> Decision:
    return Decision(
        granted=granted, operation="read", matched_clause=0, **fields
    )


def test_cache_round_trip_and_copy_isolation():
    """A caller cannot change what the next hit returns.  The cache
    hands out the one Decision it holds, so the isolation is the
    Decision's own: every field is frozen, the bindings are a read-only
    view, and the dict it was built from is not the dict it keeps."""
    cache = DecisionCache(max_entries=8)
    given = {"K": PubKeyValue(ALICE)}
    cache.put("p1", "read", "shape", decision=_decision(bindings=given))
    given["K"] = PubKeyValue(BOB)  # the constructor's argument, afterwards
    out = cache.get("p1", "read", "shape", now=1.0)
    assert out is not None and out.granted
    with pytest.raises(FrozenInstanceError):
        out.granted = False
    with pytest.raises(FrozenInstanceError):
        out.bindings = {}
    with pytest.raises(TypeError):
        out.bindings["K"] = PubKeyValue(BOB)
    with pytest.raises(TypeError):
        del out.bindings["K"]
    again = cache.get("p1", "read", "shape", now=1.0)
    assert again is out
    assert again.granted and again.bindings == {"K": PubKeyValue(ALICE)}
    assert cache.stats.hits == 2 and cache.stats.misses == 0


def test_evaluated_decisions_are_immutable_too():
    """What ``FastPolicy.evaluate`` returns is what the cache stores."""
    policy = compile_policy("read :- sessionKeyIs(K)")
    decision = compile_closures(policy).evaluate(
        "read", EvalContext(operation="read", session_key=ALICE)
    )
    assert decision.bindings == {"K": PubKeyValue(ALICE)}
    with pytest.raises(TypeError):
        decision.bindings["K"] = PubKeyValue(BOB)
    with pytest.raises(FrozenInstanceError):
        decision.matched_clause = 7


def test_time_bounded_entries_expire():
    cache = DecisionCache()
    cache.put("p1", "read", "s", decision=_decision(), valid_until=100.0)
    assert cache.get("p1", "read", "s", now=99.9) is not None
    assert cache.get("p1", "read", "s", now=100.0) is None
    assert cache.stats.expired == 1
    # The expired entry was dropped, not just masked.
    assert len(cache) == 0


def test_lru_bound_evicts_oldest():
    cache = DecisionCache(max_entries=2)
    cache.put("p", "read", "a", decision=_decision())
    cache.put("p", "read", "b", decision=_decision())
    assert cache.get("p", "read", "a", now=0.0) is not None  # refresh a
    cache.put("p", "read", "c", decision=_decision())
    assert len(cache) == 2
    assert cache.get("p", "read", "b", now=0.0) is None
    assert cache.get("p", "read", "a", now=0.0) is not None


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


def test_engine_never_caches_an_object_no_record_of_the_request_names():
    """An object id bound from facts (or any other id that is neither
    ``this`` nor ``log``) keeps every verdict uncacheable; so does a
    view that carries no digest, and an update that reads object state."""
    delegated = compile_policy(
        "read :- objSays(this, V, 'acl'(A)) /\\ currVersion(A, W)"
    )
    keyed = compile_policy(
        "read :- objId(this, O) /\\ currVersion(O, V)\n"
        "update :- objId(this, O) /\\ currVersion(O, V)"
    )
    assert not compiled_form(delegated).cacheable
    assert compiled_form(keyed).record_refs == ("this",)
    engine = PolicyEngine()
    ctx = EvalContext(operation="read", session_key=ALICE)
    for _ in range(3):
        engine.evaluate(delegated, "read", ctx)
        engine.evaluate(keyed, "update", ctx)
    assert len(engine.decisions) == 0
    # ``this`` does not exist: the read is keyed by its absence.
    for _ in range(3):
        engine.evaluate(keyed, "read", ctx)
    assert (engine.decisions.stats.hits, len(engine.decisions)) == (2, 1)


def test_engine_decisions_match_interpreter_cached_or_not():
    policy = compile_policy(f"read :- sessionKeyIs(k'{ALICE}')")
    engine = PolicyEngine()
    ctx = EvalContext(operation="read", session_key=ALICE)
    cold = engine.evaluate(policy, "read", ctx)
    warm = engine.evaluate(policy, "read", ctx)
    reference = INTERP.evaluate(policy, "read", ctx)
    for decision in (cold, warm):
        assert_identical(reference, decision)


# ---------------------------------------------------------------------------
# One evaluator in src/: the oracle lives in tests/ only
# ---------------------------------------------------------------------------

def _source_files(package: str = ""):
    import repro

    root = Path(repro.__file__).parent / package
    return [(path, path.read_text()) for path in sorted(root.rglob("*.py"))]


def test_src_never_reaches_for_the_test_oracle():
    for path, text in _source_files():
        assert "PolicyInterpreter" not in text, path
        assert not re.search(r"^\s*(from|import) tests\b", text, re.M), path


def test_policy_package_imports_nothing_from_analysis():
    for path, text in _source_files("policy"):
        assert "repro.analysis" not in text, path
