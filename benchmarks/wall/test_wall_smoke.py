"""Smoke test of the wall-clock benchmark at 1/20 op counts.

Run with ``pytest benchmarks/wall -q``; tier-1 ``testpaths`` does not
collect it.  It checks the properties later issues lean on: exact
counts repeat on the same seed, the seed reaches the trace, layer
shares close to one, and an untraced pass patches nothing.
"""

import json
import os

import pytest

from benchmarks.wall import compare, layers
from benchmarks.wall.harness import run_workload
from benchmarks.wall.spec import (
    END_TO_END,
    LAYERS,
    MOVES,
    NOMINAL_SECONDS,
    PER_LAYER,
    WORKLOAD_BY_NAME,
    WORKLOADS,
    benchmark_json,
)
from benchmarks.wall.workloads import build_plan

SCALE = 0.05
NAMES = [workload.name for workload in WORKLOADS]
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(name, seed=1, trace=False):
    return run_workload(
        name, seed, NOMINAL_SECONDS, trace, scale=SCALE, write_trace_file=False
    )


@pytest.fixture(scope="module")
def untraced():
    return {name: _run(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_every_exact_count(name, untraced):
    first, second = untraced[name], _run(name)
    assert first.correct, first.problems
    assert second.correct, second.problems
    assert first.failed == second.failed == 0
    assert first.trace_hash == second.trace_hash
    assert json.dumps(first.counts, sort_keys=True) == json.dumps(
        second.counts, sort_keys=True
    )
    for metric in ("write_amp", "space_amp"):
        assert (
            first.end_to_end[metric]["value"]
            == second.end_to_end[metric]["value"]
        )


@pytest.mark.parametrize("name", NAMES)
def test_seed_reaches_the_trace(name, untraced):
    other = build_plan(WORKLOAD_BY_NAME[name], 2, NOMINAL_SECONDS, SCALE)
    assert other.trace_hash != untraced[name].trace_hash


@pytest.mark.parametrize("name", NAMES)
def test_untraced_pass_patches_nothing(name, untraced):
    assert not untraced[name].per_layer
    layers.assert_pristine()


@pytest.mark.parametrize("name", NAMES)
def test_traced_shares_sum_to_one_and_change_no_count(name, untraced):
    traced = _run(name, trace=True)
    assert traced.correct, traced.problems
    layers.assert_pristine()
    assert set(traced.per_layer) == {metric.name for metric in PER_LAYER}
    shares = sum(
        traced.per_layer[f"{layer}.share"]["value"] for layer in LAYERS
    )
    assert shares == pytest.approx(1.0, abs=0.02)
    assert traced.counts == untraced[name].counts


def test_every_end_to_end_metric_is_a_nonzero_number(untraced):
    for name, run in untraced.items():
        for metric, entry in run.end_to_end.items():
            assert entry["value"], f"{name}.{metric} is {entry['value']!r}"


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == benchmark_json()


def test_moves_table_names_real_metrics_and_workloads():
    layer_metrics = {metric.name for metric in PER_LAYER}
    end_to_end = {metric.name for metric in END_TO_END}
    for row in MOVES:
        assert set(row.layer_metrics) <= layer_metrics
        assert {metric for metric, _on in row.moves} <= end_to_end
        moved_on = {on for _metric, on in row.moves}
        assert moved_on <= set(NAMES) and set(row.unmoved_on) <= set(NAMES)
        assert not moved_on & set(row.unmoved_on)


def test_compare_verdicts():
    judge = compare.judge
    # Within the bound, tight runs: ok.
    assert judge([10, 10.1, 10.2], [10.5, 10.6, 10.4], "lower", 0.10)[-1] == "ok"
    # Worse by more than the bound, tight runs: worse.
    assert judge([10, 10.1, 10.2], [12, 12.1, 12.2], "lower", 0.10)[-1] == "worse"
    # Spread wider than the bound: unresolved, not unchanged ...
    assert judge([10, 12, 14], [10, 12, 15], "lower", 0.10)[-1] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert judge([10, 12, 14], [5, 6, 7], "lower", 0.10)[-1] == "ok"
    assert judge([100, 101, 99], [80, 81, 79], "higher", 0.10)[-1] == "worse"


def test_compare_holds_exact_counts_to_one_percent_on_the_same_seed():
    def document(seed, write_amp):
        cell = {"runs": [write_amp] * 3}
        return {"seed": seed, "workloads": {"a_update": {
            "end_to_end": {"write_amp": cell}, "failed": 0,
        }}}

    def verdict(a, b):
        return compare.compare_documents(a, b)[0]["verdict"]

    # +15 %: inside the cross-seed bound, far outside the same-seed one.
    assert verdict(document(1, 10.0), document(1, 11.5)) == "worse"
    assert verdict(document(1, 10.0), document(2, 11.5)) == "ok"
